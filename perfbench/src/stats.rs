//! Exact percentiles over harness-side sample vectors.

/// Percentiles a tail is chosen from, highest first.
const TAILS: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A latency sample, sorted once.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_unstable_by(f64::total_cmp);
        Samples { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Nearest-rank percentile `p` (0–100): the smallest sample with at
    /// least `p`% of the samples at or below it. 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    /// Samples strictly after the nearest-rank position of `p`.
    pub fn beyond(&self, p: f64) -> usize {
        let rank = ((p / 100.0) * self.sorted.len() as f64).ceil() as usize;
        self.sorted.len().saturating_sub(rank)
    }

    /// The highest percentile with at least ten samples beyond it, and its
    /// value; `None` below eleven samples.
    pub fn supported_tail(&self) -> Option<(f64, f64)> {
        TAILS
            .iter()
            .find(|&&p| self.beyond(p) >= 10)
            .map(|&p| (p, self.percentile(p)))
    }

    /// "median 1.234 ms, p99 5.678 ms (n=4000, 40 beyond)" for a sample of
    /// milliseconds: a median, the highest supported tail and the count.
    pub fn describe(&self) -> String {
        match self.supported_tail() {
            Some((p, v)) => format!(
                "median {:.3} ms, p{p} {v:.3} ms (n={}, {} beyond)",
                self.percentile(50.0),
                self.len(),
                self.beyond(p)
            ),
            None if self.is_empty() => "no samples".to_string(),
            None => format!(
                "median {:.3} ms (n={}, too few for a tail)",
                self.percentile(50.0),
                self.len()
            ),
        }
    }
}

/// Median of a small set of repeated measurements.
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).percentile(50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_and_tail_support() {
        let s = Samples::new((1..=1000).rev().map(f64::from).collect());
        assert_eq!(s.percentile(50.0), 500.0);
        assert_eq!(s.percentile(99.0), 990.0);
        assert_eq!(s.beyond(99.0), 10);
        assert_eq!(s.supported_tail(), Some((99.0, 990.0)));
        let small = Samples::new((1..=200).map(f64::from).collect());
        assert_eq!(small.supported_tail(), Some((95.0, 190.0)));
        assert_eq!(Samples::new(vec![1.0; 5]).supported_tail(), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
