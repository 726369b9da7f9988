//! Order statistics over latency samples.
//!
//! A tail percentile is reported only when at least [`MIN_BEYOND`]
//! samples lie beyond it; otherwise the helper refuses and says how
//! many samples it had, so a thin tail never passes for a measured one.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile of a sample set, with the set's size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value at the percentile (nearest rank).
    pub value: f64,
    /// Samples the value was taken from.
    pub samples: usize,
}

/// Why a percentile was not reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooFewSamples {
    /// Samples available.
    pub samples: usize,
    /// Samples that would lie beyond the requested percentile.
    pub beyond: usize,
}

impl std::fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} of {} samples beyond the percentile, {MIN_BEYOND} needed",
            self.beyond, self.samples
        )
    }
}

/// The `p`-th percentile (`0 < p < 100`) of `sorted` by nearest rank,
/// refused when fewer than [`MIN_BEYOND`] samples lie beyond it. The
/// median (`p = 50`) of a non-empty set is always reported.
pub fn percentile(sorted: &[f64], p: f64) -> Result<Percentile, TooFewSamples> {
    let n = sorted.len();
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || (p > 50.0 && beyond < MIN_BEYOND) {
        return Err(TooFewSamples { samples: n, beyond });
    }
    Ok(Percentile {
        value: sorted[rank - 1],
        samples: n,
    })
}

/// Sorts a sample vector in place (NaN-free input) and returns it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// The median of an unsorted set, `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values.to_vec());
    percentile(&s, 50.0).ok().map(|p| p.value)
}

/// First quartile, median and third quartile with the same method as
/// Python's `statistics.quantiles(values, n=4)` (the "exclusive"
/// method), so spreads printed here match the ones an acceptance
/// script computes from the same runs. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n as f64 + 1.0;
    let q = |k: f64| {
        let j = ((k * m / 4.0).floor() as usize).clamp(1, n - 1);
        let delta = k * m / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some([q(1.0), q(2.0), q(3.0)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_thin_tail_and_reports_the_count() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p95 of 100 samples leaves 5 beyond: refused, with the count.
        let err = percentile(&v, 95.0).unwrap_err();
        assert_eq!(
            err,
            TooFewSamples {
                samples: 100,
                beyond: 5
            }
        );
        assert!(err.to_string().contains("100 samples"));
        // p90 leaves exactly 10 beyond: reported, with the count.
        let p90 = percentile(&v, 90.0).unwrap();
        assert_eq!(
            p90,
            Percentile {
                value: 90.0,
                samples: 100
            }
        );
        let v200: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v200, 95.0).unwrap().value, 190.0);
    }

    #[test]
    fn median_is_reported_for_any_non_empty_set() {
        assert_eq!(percentile(&[7.0], 50.0).unwrap().value, 7.0);
        assert!(percentile(&[], 50.0).is_err());
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
    }
}
