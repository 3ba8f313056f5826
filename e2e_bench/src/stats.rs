//! Metric arithmetic: percentiles that refuse a thin tail, an error rate
//! whose base counts every attempt, and the quartile spread the
//! steadiness mode compares against each metric's bound.

/// A percentile is reported only with at least this many samples beyond it.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile (`p` in `(0, 100)`) of `samples`, or `None`
/// when fewer than [`MIN_TAIL`] samples lie beyond the chosen rank — a
/// p90 needs at least 100 samples, a median at least 20.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if !(p > 0.0 && p < 100.0) || samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // The epsilon keeps 0.9 * 100 = 90.00000000000001 from rounding up.
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil().max(1.0) as usize;
    (n - rank >= MIN_TAIL).then(|| sorted[rank - 1])
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// The three cut points of Python's `statistics.quantiles(values, n=4)`
/// (its default "exclusive" method), so a spread computed here matches
/// one computed with Python from the same values. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = ld + 1;
    let mut cuts = [0.0; 3];
    for (i, cut) in (1..4).zip(cuts.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *cut = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// `(q3 - q1) / median` — the run-to-run spread as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// What one load generator saw, request by request. Every outcome lands
/// in `attempted`, so a refused connection or a dropped socket counts
/// against the error rate instead of shrinking its base.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests tried, plus one per connection attempt that was refused.
    pub attempted: u64,
    /// Requests answered with an `ok` reply.
    pub ok: u64,
    /// Requests answered with an `error` reply.
    pub error_replies: u64,
    /// Requests whose send or reply failed at the transport.
    pub transport_failures: u64,
    /// Connection attempts the server refused.
    pub refused: u64,
}

impl Tally {
    /// Records one connection attempt that failed.
    pub fn refused_connection(&mut self) {
        self.attempted += 1;
        self.refused += 1;
    }

    /// Records one request answered `ok`.
    pub fn answered_ok(&mut self) {
        self.attempted += 1;
        self.ok += 1;
    }

    /// Records one request answered with an error reply.
    pub fn answered_error(&mut self) {
        self.attempted += 1;
        self.error_replies += 1;
    }

    /// Records one request lost at the transport.
    pub fn transport_failure(&mut self) {
        self.attempted += 1;
        self.transport_failures += 1;
    }

    /// Adds another generator's tally to this one.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.error_replies += other.error_replies;
        self.transport_failures += other.transport_failures;
        self.refused += other.refused;
    }

    /// Every outcome that was not an `ok` reply.
    pub fn failed(&self) -> u64 {
        self.error_replies + self.transport_failures + self.refused
    }

    /// `failed / attempted`; 0 when nothing was attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(99), 90.0), None, "rank 90 leaves 9 beyond");
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(percentile(&ramp(250), 90.0), Some(225.0));
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(percentile(&ramp(999), 99.0), None);
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
    }

    #[test]
    fn median_percentile_needs_twenty_samples() {
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        let mut shuffled = ramp(40);
        shuffled.reverse();
        assert_eq!(
            percentile(&shuffled, 50.0),
            Some(20.0),
            "order must not matter"
        );
    }

    #[test]
    fn percentile_rejects_degenerate_ranks() {
        assert_eq!(percentile(&ramp(1000), 0.0), None);
        assert_eq!(percentile(&ramp(1000), 100.0), None);
        assert_eq!(percentile(&ramp(1000), f64::NAN), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn error_rate_counts_refused_and_failed_requests_in_its_base() {
        let mut tally = Tally::default();
        for _ in 0..6 {
            tally.answered_ok();
        }
        tally.answered_error();
        tally.transport_failure();
        tally.refused_connection();
        tally.refused_connection();
        assert_eq!(tally.attempted, 10, "every outcome is an attempt");
        assert_eq!(tally.failed(), 4);
        assert!((tally.error_rate() - 0.4).abs() < 1e-12);

        let mut all_refused = Tally::default();
        all_refused.refused_connection();
        assert_eq!(
            all_refused.error_rate(),
            1.0,
            "a refusal is not a zero base"
        );
        assert_eq!(Tally::default().error_rate(), 0.0);
    }

    #[test]
    fn merged_tallies_add_up() {
        let mut a = Tally::default();
        a.answered_ok();
        a.refused_connection();
        let mut b = Tally::default();
        b.answered_error();
        a.merge(&b);
        assert_eq!((a.attempted, a.failed()), (3, 2));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some([1.0, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_the_interquartile_range_over_the_median() {
        let s = spread(&ramp(10)).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[5.0; 10]), Some(0.0));
        assert_eq!(spread(&[0.0; 10]), None, "no share of a zero median");
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }
}
