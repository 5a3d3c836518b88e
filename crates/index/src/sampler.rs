//! Reservoir sampling for index bulk-loading.
//!
//! SpatialHadoop builds its global index from a small random sample of
//! the input (≈1% by default) so partition boundaries can be computed on
//! the master without scanning the file into memory. Algorithm R keeps a
//! uniform sample in one pass over a stream of unknown length.

use sh_rand::Rng;

/// One-pass uniform reservoir sample of size at most `k` (Algorithm R),
/// deterministic for a given `seed`.
pub fn reservoir_sample<T, I>(items: I, k: usize, seed: u64) -> Vec<T>
where
    I: IntoIterator<Item = T>,
{
    let mut rng = Rng::seed(seed);
    let mut reservoir: Vec<T> = Vec::with_capacity(k.min(1024));
    if k == 0 {
        return reservoir;
    }
    for (i, item) in items.into_iter().enumerate() {
        if i < k {
            reservoir.push(item);
        } else {
            let j = rng.below(i + 1);
            if j < k {
                reservoir[j] = item;
            }
        }
    }
    reservoir
}

/// Sample size for an input of `records` records: `ratio` of the input,
/// clamped to `[min, max]` (SpatialHadoop defaults: 1%, at least 1k, at
/// most 100k sample points) — and never more than the input itself,
/// so tiny files don't report a "sample" larger than the file.
pub fn sample_size(records: u64, ratio: f64) -> usize {
    let want = ((records as f64 * ratio) as usize).clamp(1_000, 100_000);
    want.min(records.min(usize::MAX as u64) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_streams_pass_through() {
        let s = reservoir_sample(0..5, 10, 1);
        assert_eq!(s, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn size_is_capped() {
        let s = reservoir_sample(0..10_000, 100, 1);
        assert_eq!(s.len(), 100);
        // All sampled elements come from the stream.
        assert!(s.iter().all(|&x| x < 10_000));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = reservoir_sample(0..10_000, 50, 7);
        let b = reservoir_sample(0..10_000, 50, 7);
        let c = reservoir_sample(0..10_000, 50, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn roughly_uniform() {
        // Sample 1000 of 10000 many times; the mean of sampled values
        // should hover near 5000.
        let mut means = Vec::new();
        for seed in 0..20 {
            let s = reservoir_sample(0u64..10_000, 1000, seed);
            means.push(s.iter().sum::<u64>() as f64 / s.len() as f64);
        }
        let grand = means.iter().sum::<f64>() / means.len() as f64;
        assert!((grand - 5000.0).abs() < 200.0, "grand mean {grand}");
    }

    #[test]
    fn sample_size_clamps() {
        assert_eq!(sample_size(1_000_000, 0.01), 10_000);
        assert_eq!(sample_size(1_000_000_000, 0.01), 100_000);
        assert_eq!(sample_size(50_000, 0.01), 1_000, "minimum floor applies");
    }

    #[test]
    fn sample_size_never_exceeds_the_input() {
        // Regression: the 1k floor used to win over the record count, so
        // a 10-record file reported a 1000-point "sample".
        assert_eq!(sample_size(10, 0.01), 10);
        assert_eq!(sample_size(999, 0.5), 999);
        assert_eq!(sample_size(1_000, 0.01), 1_000);
        assert_eq!(sample_size(0, 0.01), 0);
    }

    #[test]
    fn zero_k_is_empty() {
        assert!(reservoir_sample(0..100, 0, 1).is_empty());
    }
}
