//! Summary statistics shared by every workload: medians, the
//! tail-percentile rule, and geometric means.

/// Percentiles the tail rule may pick, highest first.
const TAIL_LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.90, 0.75];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the value at 1-based
/// rank `ceil(q·n)`.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "percentile must be in (0, 1]");
    sorted[rank(sorted.len(), q) - 1]
}

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest ladder percentile that leaves at least
/// [`TAIL_MIN_BEYOND`] samples strictly above its rank, or `None` when
/// `n` samples support no tail at all.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&q| n >= rank(n, q) + TAIL_MIN_BEYOND)
}

/// A timing distribution: its median and the highest percentile with
/// at least [`TAIL_MIN_BEYOND`] samples beyond it, with the count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// The tail percentile the rule picked, e.g. `0.99`.
    pub tail_q: Option<f64>,
    /// Value at `tail_q`.
    pub tail: Option<f64>,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Summary {
    /// Summarizes `samples` (any order). `None` for an empty set.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_q = tail_quantile(sorted.len());
        Some(Self {
            n: sorted.len(),
            p50: percentile(&sorted, 0.5),
            tail_q,
            tail: tail_q.map(|q| percentile(&sorted, q)),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        })
    }

    /// `p50=… p99=… n=…` with values scaled by `scale`.
    pub fn describe(&self, scale: f64) -> String {
        let tail = match (self.tail_q, self.tail) {
            (Some(q), Some(v)) => format!(" {}={:.6}", quantile_label(q), v * scale),
            _ => " tail=none".to_string(),
        };
        format!("p50={:.6}{tail} n={}", self.p50 * scale, self.n)
    }
}

/// `0.99 → "p99"`, `0.999 → "p99.9"`.
pub fn quantile_label(q: f64) -> String {
    let pct = format!("{:.1}", q * 100.0);
    format!("p{}", pct.trim_end_matches(".0"))
}

/// Median of `samples` (nearest rank); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    Summary::of(samples).map(|s| s.p50)
}

/// Geometric mean of strictly positive values; `None` when empty or
/// any value is not positive and finite.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| !(x > 0.0 && x.is_finite())) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p75 of 39 samples sits at rank 30: 9 beyond — not enough.
        assert_eq!(tail_quantile(39), None);
        assert_eq!(tail_quantile(40), Some(0.75));
        // p90 of 100 is rank 90, exactly 10 beyond.
        assert_eq!(tail_quantile(100), Some(0.90));
        assert_eq!(tail_quantile(199), Some(0.90));
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        for n in 1..3000 {
            if let Some(q) = tail_quantile(n) {
                assert!(n - rank(n, q) >= TAIL_MIN_BEYOND, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn summary_reports_count_and_tail() {
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&xs).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_q, Some(0.99));
        assert_eq!(s.tail, Some(990.0));
        assert_eq!(s.describe(1.0), "p50=500.000000 p99=990.000000 n=1000");
        let few = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((few.p50, few.tail), (2.0, None));
        assert!(few.describe(1.0).ends_with("tail=none n=3"));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn quantile_labels() {
        assert_eq!(quantile_label(0.99), "p99");
        assert_eq!(quantile_label(0.999), "p99.9");
        assert_eq!(quantile_label(0.75), "p75");
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.5]).unwrap() - 1.5).abs() < 1e-12);
        // Reciprocal ratios cancel.
        assert!((geomean(&[0.5, 2.0, 4.0, 0.25]).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }
}
