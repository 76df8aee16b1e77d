//! Seeded D4 violations: libm tanh in a digest-path crate.

pub fn activate(xs: &mut [f32]) {
    for v in xs.iter_mut() {
        *v = v.tanh();
    }
}

pub fn activate_all(xs: &[f32]) -> Vec<f32> {
    xs.iter().copied().map(f32::tanh).collect()
}
