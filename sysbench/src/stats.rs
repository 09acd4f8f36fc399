//! The estimators: median block, percentiles, and the quartile spread the
//! acceptance rule uses.

use std::time::Instant;

/// Median; sorts `v` in place.
///
/// # Panics
/// On an empty slice or a NaN.
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Median wall time of `f` in microseconds over `reps` calls, after
/// `warm` untimed ones.
pub fn median_us(warm: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warm {
        f();
    }
    let mut us: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&mut us)
}

/// The `q`-quantile (`0..=1`) of sorted `v`, linearly interpolated.
pub fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the default "exclusive" method). Sorts `v` in place.
pub fn quartiles(v: &mut [f64]) -> (f64, f64) {
    assert!(v.len() >= 2, "quartiles need two samples");
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let n = v.len();
    let at = |i: usize| {
        // Python: j = i * (n + 1) // 4 clamped to 1..n-1, delta = the rest.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median: the spread the
/// acceptance rule compares with a metric's bound.
pub fn quartile_spread(v: &mut [f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    (q3 - q1) / median(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn median_block_ignores_a_stalled_block() {
        let mut blocks = vec![0.50, 0.51, 0.49, 0.50, 3.0];
        assert_eq!(median(&mut blocks), 0.50);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile_sorted(&v, 0.5), 3.0);
        assert!((quantile_sorted(&v, 0.99) - 4.96).abs() < 1e-12);
        assert_eq!(quantile_sorted(&v, 1.0), 5.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&mut [40.0, 10.0, 20.0]), (10.0, 40.0));
        assert_eq!(quartile_spread(&mut v), 1.0);
    }
}
