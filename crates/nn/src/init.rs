//! Weight initialization schemes.

use crate::matrix::Matrix;
use rand::Rng;

/// Xavier/Glorot uniform initialization: `U(-a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))`.
pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
    let a = (6.0 / (rows + cols) as f32).sqrt();
    random_uniform(rows, cols, a, rng)
}

/// Uniform initialization `U(-a, a)`.
pub fn random_uniform(rows: usize, cols: usize, a: f32, rng: &mut impl Rng) -> Matrix {
    let data = (0..rows * cols).map(|_| rng.gen_range(-a..=a)).collect();
    Matrix::from_vec(rows, cols, data)
}

/// Scaled (orthogonal-ish) initialization used for policy output heads.
///
/// PPO implementations commonly initialize the policy head with a small gain
/// so the initial policy is close to uniform; we use Xavier scaled by `gain`.
pub fn scaled_xavier(rows: usize, cols: usize, gain: f32, rng: &mut impl Rng) -> Matrix {
    let mut m = xavier_uniform(rows, cols, rng);
    m.scale(gain);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn frobenius_norm(m: &Matrix) -> f32 {
        m.as_slice().iter().map(|a| a * a).sum::<f32>().sqrt()
    }

    #[test]
    fn xavier_bounds() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let m = xavier_uniform(16, 32, &mut rng);
        let a = (6.0 / 48.0_f32).sqrt();
        assert!(m.as_slice().iter().all(|v| v.abs() <= a + 1e-6));
        // Not all zero.
        assert!(m.as_slice().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn scaled_xavier_shrinks_norm() {
        let mut rng1 = rand::rngs::StdRng::seed_from_u64(2);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(2);
        let base = xavier_uniform(8, 8, &mut rng1);
        let scaled = scaled_xavier(8, 8, 0.01, &mut rng2);
        assert!((frobenius_norm(&scaled) - 0.01 * frobenius_norm(&base)).abs() < 1e-5);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = rand::rngs::StdRng::seed_from_u64(7);
        let mut b = rand::rngs::StdRng::seed_from_u64(7);
        assert_eq!(
            xavier_uniform(4, 4, &mut a).as_slice(),
            xavier_uniform(4, 4, &mut b).as_slice()
        );
    }
}
