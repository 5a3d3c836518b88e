//! The benchmark's own arithmetic: medians, the tail rule, quartiles as
//! the driver computes them, ladder self time and the rung verdict.

/// Sorts ascending; every latency here is finite.
pub fn sort(v: &mut [f64]) {
    v.sort_by(f64::total_cmp);
}

/// Median of an ascending slice (0 when empty).
pub fn median_sorted(v: &[f64]) -> f64 {
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median of an unsorted collection.
pub fn median(mut v: Vec<f64>) -> f64 {
    sort(&mut v);
    median_sorted(&v)
}

/// The tail rule: the value at the highest percentile that still has at
/// least ten samples beyond it, with that percentile. Below eleven
/// samples no such percentile exists and the maximum stands in.
pub fn tail_sorted(v: &[f64]) -> (f64, f64) {
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    if n <= 10 {
        return (100.0, v[n - 1]);
    }
    // v[n - 11] is followed by exactly ten larger-or-equal samples.
    (100.0 * (n - 10) as f64 / n as f64, v[n - 11])
}

/// Nearest-rank percentile of an ascending slice, `p` in `[0, 100]`.
pub fn percentile_sorted(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives
/// them, which is what the driver uses for the spread.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        // j = i*(n+1) // 4 clamped to [1, n-1]; delta = i*(n+1) - 4*j.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - 4.0 * j as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, med, q3] = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// A layer's self time on the depth ladder: its span minus the span of
/// the next deeper run of the same op, never negative.
pub fn self_time(span_ms: f64, child_ms: f64) -> f64 {
    (span_ms - child_ms).max(0.0)
}

/// What an open-loop rung measured, and the limits it must meet to count
/// as a rate the system holds.
#[derive(Clone, Copy, Debug)]
pub struct RungOutcome {
    pub rate_qps: f64,
    pub tail_ms: f64,
    pub failed: usize,
    /// How far behind its schedule the generator was when the rung ended.
    pub backlog_s: f64,
}

pub const TAIL_LIMIT_MS: f64 = 250.0;
pub const BACKLOG_LIMIT_S: f64 = 0.5;

impl RungOutcome {
    /// A rung holds when its tail meets the limit, nothing failed and the
    /// generator was not falling behind.
    pub fn holds(&self) -> bool {
        self.tail_ms <= TAIL_LIMIT_MS && self.failed == 0 && self.backlog_s < BACKLOG_LIMIT_S
    }
}

/// Highest rate among the rungs that hold (0 when none does).
pub fn max_rate(rungs: &[RungOutcome]) -> f64 {
    rungs
        .iter()
        .filter(|r| r.holds())
        .map(|r| r.rate_qps)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        for (n, pct) in [
            (50usize, 80.0),
            (300, 100.0 * 290.0 / 300.0),
            (3000, 99.0 + 2.0 / 3.0),
        ] {
            let v = ramp(n);
            let (p, x) = tail_sorted(&v);
            assert!((p - pct).abs() < 1e-9, "n={n}: {p} vs {pct}");
            assert_eq!(v.iter().filter(|&&y| y > x).count(), 10, "n={n}");
        }
        assert_eq!(tail_sorted(&ramp(7)), (100.0, 7.0));
        assert_eq!(tail_sorted(&[]), (0.0, 0.0));
    }

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile_sorted(&ramp(100), 99.0), 99.0);
        assert_eq!(percentile_sorted(&ramp(100), 0.0), 1.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) -> [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 30], n=4) -> [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), [10.0, 20.0, 30.0]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) -> [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), [1.5, 4.0, 12.0]);
        assert!((spread(&ramp(10)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ladder_self_time_is_span_minus_child() {
        assert_eq!(self_time(5.0, 3.5), 1.5);
        assert_eq!(
            self_time(2.0, 2.5),
            0.0,
            "a faster parent is noise, not negative work"
        );
    }

    #[test]
    fn rung_verdicts() {
        let ok = RungOutcome {
            rate_qps: 100.0,
            tail_ms: 40.0,
            failed: 0,
            backlog_s: 0.01,
        };
        let slow = RungOutcome {
            rate_qps: 200.0,
            tail_ms: 251.0,
            ..ok
        };
        let failing = RungOutcome {
            rate_qps: 300.0,
            failed: 1,
            ..ok
        };
        let behind = RungOutcome {
            rate_qps: 400.0,
            backlog_s: 0.5,
            ..ok
        };
        assert!(ok.holds());
        assert!(!slow.holds() && !failing.holds() && !behind.holds());
        assert_eq!(max_rate(&[ok, slow, failing, behind]), 100.0);
        let faster = RungOutcome {
            rate_qps: 200.0,
            ..ok
        };
        assert_eq!(max_rate(&[ok, faster, behind]), 200.0);
        assert_eq!(max_rate(&[slow]), 0.0);
    }
}
