//! Deterministic, seedable weight initialization.
//!
//! Every rank must initialize identical parameters (the paper's DDP setup
//! shares one parameter vector theta across all ranks), so the initializer
//! takes an explicit RNG that callers seed identically on every rank.

use rand::Rng;

use crate::tensor::Tensor;

/// Xavier/Glorot uniform initialization for a `[fan_in, fan_out]` weight
/// matrix: `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
pub fn xavier_uniform(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Tensor {
    let a = (6.0 / (fan_in + fan_out) as f64).sqrt();
    Tensor::from_fn(fan_in, fan_out, |_, _| rng.gen_range(-a..a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xavier_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = xavier_uniform(10, 20, &mut rng);
        let a = (6.0 / 30.0f64).sqrt();
        assert!(t.data().iter().all(|&v| v > -a && v < a));
    }

    #[test]
    fn same_seed_same_weights() {
        let t1 = xavier_uniform(4, 4, &mut StdRng::seed_from_u64(42));
        let t2 = xavier_uniform(4, 4, &mut StdRng::seed_from_u64(42));
        assert_eq!(t1, t2);
    }
}
