//! The bit-exact port and look-alike names are fine (D4 negative case):
//! comments may say `x.tanh()` and strings may hold "f32::tanh".

pub fn activate(xs: &mut [f32]) {
    autocat_nn::math::tanh_in_place(xs);
    let _label = "f32::tanh";
}

pub fn one(x: f32) -> f32 {
    autocat_nn::math::tanh(x) + my_f32::tanh_like(x)
}

#[cfg(test)]
mod tests {
    #[test]
    fn libm_is_the_reference_in_tests() {
        assert_eq!(autocat_nn::math::tanh(0.5), 0.5f32.tanh());
    }
}
