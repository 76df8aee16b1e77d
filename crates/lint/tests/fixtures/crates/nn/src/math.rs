//! The port itself is D4-exempt: it may name libm's tanh.

pub fn reference(x: f32) -> f32 {
    f32::tanh(x)
}
