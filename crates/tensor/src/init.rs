//! Deterministic weight initialization.

use crate::matrix::Matrix;
use gnndrive_sync::Rng;

/// Xavier/Glorot uniform initialization: U(-a, a) with
/// a = sqrt(6 / (fan_in + fan_out)).
pub fn xavier_uniform(rows: usize, cols: usize, seed: u64) -> Matrix {
    let a = (6.0 / (rows + cols) as f32).sqrt();
    let mut rng = Rng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.f32(-a..a))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let a = xavier_uniform(8, 8, 42);
        let b = xavier_uniform(8, 8, 42);
        assert_eq!(a, b);
        let c = xavier_uniform(8, 8, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn values_within_glorot_bound() {
        let m = xavier_uniform(16, 48, 7);
        let a = (6.0 / 64.0f32).sqrt();
        assert!(m.data().iter().all(|&v| v > -a && v < a));
        // Not degenerate.
        assert!(m.norm() > 0.0);
    }
}
