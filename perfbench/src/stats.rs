//! Exact order statistics over raw samples.
//!
//! Every figure the benchmark reports is computed here from the full
//! list of samples, never from a bucketed histogram.

use photomosaic::Json;

/// Exact summary of one sample set.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    pub count: usize,
    pub min: f64,
    pub q1: f64,
    pub p50: f64,
    pub q3: f64,
    pub p90: f64,
    pub max: f64,
    pub mean: f64,
    /// Samples strictly above the p90 value.
    pub beyond_p90: usize,
}

/// The `q`-quantile of ascending `sorted`, linearly interpolated
/// between closest ranks (the same rule as Python's
/// `statistics.quantiles(method="inclusive")`). `0.0` for no samples.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let low = rank.floor() as usize;
            let high = (low + 1).min(n - 1);
            let frac = rank - low as f64;
            sorted[low] + (sorted[high] - sorted[low]) * frac
        }
    }
}

/// Median of an unsorted sample set (`0.0` for no samples).
pub fn median(values: &[f64]) -> f64 {
    summarize(values).p50
}

/// Summarize `values` (any order).
pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return Summary::default();
    }
    let p90 = quantile(&sorted, 0.9);
    Summary {
        count: sorted.len(),
        min: sorted[0],
        q1: quantile(&sorted, 0.25),
        p50: quantile(&sorted, 0.5),
        q3: quantile(&sorted, 0.75),
        p90,
        max: sorted[sorted.len() - 1],
        mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        beyond_p90: sorted.iter().filter(|&&v| v > p90).count(),
    }
}

impl Summary {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::from(self.count)),
            ("min", Json::from(self.min)),
            ("q1", Json::from(self.q1)),
            ("p50", Json::from(self.p50)),
            ("q3", Json::from(self.q3)),
            ("p90", Json::from(self.p90)),
            ("max", Json::from(self.max)),
            ("mean", Json::from(self.mean)),
            ("beyond_p90", Json::from(self.beyond_p90)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&values);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 10.0);
        assert_eq!(s.p50, 5.5);
        assert_eq!(s.q1, 3.25);
        assert_eq!(s.q3, 7.75);
        assert!((s.p90 - 9.1).abs() < 1e-12);
        assert_eq!(s.beyond_p90, 1);
    }

    #[test]
    fn order_of_input_does_not_matter() {
        let a = summarize(&[3.0, 1.0, 2.0]);
        let b = summarize(&[1.0, 2.0, 3.0]);
        assert_eq!(a.p50, b.p50);
        assert_eq!(a.p50, 2.0);
    }

    #[test]
    fn empty_and_single_sample_sets() {
        assert_eq!(summarize(&[]).count, 0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[4.5]), 4.5);
    }
}
