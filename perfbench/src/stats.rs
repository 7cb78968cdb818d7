//! Order statistics over raw samples.
//!
//! Percentiles are taken by nearest rank from the exact samples (never
//! from histogram bucket edges), and a percentile is only reported when
//! at least [`MIN_BEYOND`] samples lie beyond it, so a tail figure is never
//! a single outlier.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Samples every timed serving run collects at least, whatever the window:
/// enough for its p90 to keep [`MIN_BEYOND`] samples beyond it with margin.
pub const MIN_SAMPLES: usize = 120;

/// The 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n`
/// samples: the smallest rank whose share of samples at or below it
/// reaches `p` percent.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    assert!(n > 0, "no samples");
    // Integer arithmetic on hundredths of a percent avoids float rounding
    // at exact ranks (p = 90, n = 100 must give rank 90, not 91).
    let hundredths = (p * 100.0).round() as u128;
    let rank = (hundredths * n as u128).div_ceil(10_000) as usize;
    rank.clamp(1, n)
}

/// Percentile `p` of `samples` by nearest rank, or an error naming the
/// sample count when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if samples.is_empty() {
        return Err(format!("p{p} of no samples"));
    }
    let rank = nearest_rank(samples.len(), p);
    let beyond = samples.len() - rank;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {} samples has only {beyond} beyond it (need {MIN_BEYOND})",
            samples.len()
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median by nearest rank (the lower middle value for an even count),
/// without the samples-beyond rule: used for repeated set-up timings.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), 50.0) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        // Descending on purpose: percentiles must sort for themselves.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        assert_eq!(nearest_rank(100, 50.0), 50);
        assert_eq!(nearest_rank(100, 90.0), 90);
        assert_eq!(nearest_rank(100, 99.0), 99);
        assert_eq!(nearest_rank(100, 100.0), 100);
        assert_eq!(nearest_rank(5, 50.0), 3);
        assert_eq!(nearest_rank(1, 50.0), 1);
        // ceil(0.9 * 101) = 91.
        assert_eq!(nearest_rank(101, 90.0), 91);
        assert_eq!(nearest_rank(7, 0.01), 1);
    }

    #[test]
    fn percentiles_are_exact_samples() {
        let samples = one_to(200);
        assert_eq!(percentile(&samples, 50.0), Ok(100.0));
        assert_eq!(percentile(&samples, 90.0), Ok(180.0));
        assert_eq!(percentile(&samples, 95.0), Ok(190.0));
        let odd = [3.5, 1.25, 9.0, 7.0, 2.0, 8.0, 4.0, 6.0, 5.0, 10.0, 11.0, 12.0, 13.0, 14.0];
        // Sorted: 1.25, 2, 3.5, 4, ...; p20 is rank ceil(0.2 * 14) = 3.
        assert_eq!(percentile(&odd[..], 20.0), Ok(3.5));
        assert_eq!(median(&odd), 7.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let samples = one_to(100);
        // p90 of 100: rank 90, exactly 10 beyond — reportable.
        assert_eq!(percentile(&samples, 90.0), Ok(90.0));
        // p99 of 100: rank 99, one beyond — refused.
        assert!(percentile(&samples, 99.0).unwrap_err().contains("only 1 beyond"));
        // p99 becomes reportable at 1000 samples (rank 990, 10 beyond).
        assert_eq!(percentile(&one_to(1000), 99.0), Ok(990.0));
        assert!(percentile(&one_to(999), 99.0).is_err());
        // A median needs 20 samples (rank 10, 10 beyond).
        assert_eq!(percentile(&one_to(20), 50.0), Ok(10.0));
        assert!(percentile(&one_to(19), 50.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
        // The minimum a run collects always supports its p90.
        assert!(percentile(&one_to(MIN_SAMPLES), 90.0).is_ok());
    }

    #[test]
    fn median_of_repeats_is_a_sample() {
        assert_eq!(median(&[0.3, 0.1, 0.2]), 0.2);
        assert_eq!(median(&[0.4, 0.1, 0.3, 0.2]), 0.2);
        assert_eq!(median(&[5.0]), 5.0);
    }
}
