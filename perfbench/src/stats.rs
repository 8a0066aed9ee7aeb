//! Sample summaries: sums, means and linearly interpolated percentiles.

/// A set of measured values (latencies, rates) in the order they arrived.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.sum() / self.0.len() as f64
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The `q` quantile (`q` in 0..=1), interpolated linearly between the
    /// two nearest order statistics; `percentile(0.5)` is the median. 0 for
    /// an empty set.
    pub fn percentile(&self, q: f64) -> f64 {
        let v = self.sorted();
        let Some(&last) = v.last() else {
            return 0.0;
        };
        let rank = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
        let lo = rank.floor() as usize;
        match v.get(lo + 1) {
            Some(&next) => v[lo] + (rank - lo as f64) * (next - v[lo]),
            None => last,
        }
    }

    /// Samples strictly beyond the `q` percentile — the count the
    /// benchmark requires to be at least ten for every percentile it names.
    pub fn beyond(&self, q: f64) -> usize {
        let p = self.percentile(q);
        self.0.iter().filter(|&&x| x > p).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_order_statistics() {
        let mut s = Samples::default();
        for i in 1..=1000 {
            s.push(i as f64);
        }
        assert_eq!(s.percentile(0.5), 500.5);
        assert!((s.percentile(0.99) - 990.01).abs() < 1e-9);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(1.0), 1000.0);
        assert_eq!(s.beyond(0.99), 10);
        assert_eq!(Samples::default().percentile(0.5), 0.0);
    }
}
