//! Two-sample Kolmogorov–Smirnov test.
//!
//! Used by the KSWIN extension detector, which compares the empirical
//! distribution of a recent sample window against a uniformly drawn sample
//! of older observations.

use crate::{Result, StatsError};

/// Result of a two-sample KS test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsTestResult {
    /// The KS statistic: the supremum distance between the two empirical
    /// CDFs.
    pub statistic: f64,
    /// Asymptotic p-value (Kolmogorov distribution).
    pub p_value: f64,
}

/// Two-sample Kolmogorov–Smirnov test.
///
/// Sorts copies of both samples and delegates to [`ks_two_sample_sorted`];
/// callers that already maintain their samples in sorted order (KSWIN's
/// incrementally sorted sliding window) should call the sorted variant
/// directly and skip the `O(n log n)` work entirely.
///
/// # Errors
///
/// Returns [`StatsError::InsufficientData`] if either sample is empty.
pub fn ks_two_sample(sample1: &[f64], sample2: &[f64]) -> Result<KsTestResult> {
    if sample1.is_empty() || sample2.is_empty() {
        return Err(StatsError::InsufficientData {
            required: 1,
            available: 0,
        });
    }
    let mut a: Vec<f64> = sample1.to_vec();
    let mut b: Vec<f64> = sample2.to_vec();
    a.sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
    b.sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
    ks_two_sample_sorted(&a, &b)
}

/// Two-sample Kolmogorov–Smirnov test over samples that are **already sorted
/// ascending**: a single linear merge-scan of the two empirical CDFs.
///
/// The statistic depends only on the order statistics, so any permutation of
/// tied values (including `-0.0` vs `0.0`, which compare equal) yields the
/// identical result — which is what lets KSWIN maintain its samples
/// incrementally instead of re-sorting per element.
///
/// # Errors
///
/// Returns [`StatsError::InsufficientData`] if either sample is empty.
pub fn ks_two_sample_sorted(a: &[f64], b: &[f64]) -> Result<KsTestResult> {
    if a.is_empty() || b.is_empty() {
        return Err(StatsError::InsufficientData {
            required: 1,
            available: 0,
        });
    }
    let n1 = a.len();
    let n2 = b.len();
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < n1 && j < n2 {
        // `min` is NaN only when both heads are NaN. Neither loop below
        // could then advance, so the scan ends here.
        let x = a[i].min(b[j]);
        if x.is_nan() {
            break;
        }
        while i < n1 && a[i] <= x {
            i += 1;
        }
        while j < n2 && b[j] <= x {
            j += 1;
        }
        let f1 = i as f64 / n1 as f64;
        let f2 = j as f64 / n2 as f64;
        d = d.max((f1 - f2).abs());
    }

    let ne = (n1 as f64 * n2 as f64) / (n1 as f64 + n2 as f64);
    let lambda = (ne.sqrt() + 0.12 + 0.11 / ne.sqrt()) * d;
    Ok(KsTestResult {
        statistic: d,
        p_value: kolmogorov_survival(lambda),
    })
}

/// Kolmogorov distribution survival function
/// `Q(λ) = 2 Σ_{k≥1} (−1)^{k−1} exp(−2 k² λ²)`.
fn kolmogorov_survival(lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64) * (k as f64) * lambda * lambda).exp();
        sum += sign * term;
        if term < 1e-12 {
            break;
        }
        sign = -sign;
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_samples() {
        assert!(ks_two_sample(&[], &[1.0]).is_err());
        assert!(ks_two_sample(&[1.0], &[]).is_err());
    }

    #[test]
    fn identical_samples_have_high_p() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let r = ks_two_sample(&xs, &xs).unwrap();
        assert!(r.statistic < 1e-12);
        assert!(r.p_value > 0.99);
    }

    #[test]
    fn disjoint_samples_have_statistic_one() {
        let a: Vec<f64> = (0..50).map(|i| i as f64 * 0.01).collect();
        let b: Vec<f64> = (0..50).map(|i| 10.0 + i as f64 * 0.01).collect();
        let r = ks_two_sample(&a, &b).unwrap();
        assert!((r.statistic - 1.0).abs() < 1e-12);
        assert!(r.p_value < 1e-10);
    }

    #[test]
    fn shifted_distributions_detected() {
        // Deterministic "uniform" grids with a clear shift.
        let a: Vec<f64> = (0..200).map(|i| i as f64 / 200.0).collect();
        let b: Vec<f64> = (0..200).map(|i| 0.3 + i as f64 / 200.0).collect();
        let r = ks_two_sample(&a, &b).unwrap();
        assert!(r.statistic > 0.25);
        assert!(r.p_value < 1e-4);
    }

    #[test]
    fn statistic_symmetric() {
        let a = [0.1, 0.4, 0.35, 0.8, 0.23];
        let b = [0.2, 0.5, 0.9, 0.7];
        let r1 = ks_two_sample(&a, &b).unwrap();
        let r2 = ks_two_sample(&b, &a).unwrap();
        assert!((r1.statistic - r2.statistic).abs() < 1e-12);
        assert!((r1.p_value - r2.p_value).abs() < 1e-12);
    }

    #[test]
    fn sorted_variant_matches_unsorted_bit_for_bit() {
        // Unsorted, tied, signed-zero-laden samples: the public entry point
        // (sort + merge-scan) and the pre-sorted path must agree exactly.
        let a = [0.4, -0.0, 0.0, 0.4, 1e300, 5e-324, 0.4, -1.0];
        let b = [0.2, 0.2, -0.0, 0.9, 0.4, -5e-324];
        let via_sort = ks_two_sample(&a, &b).unwrap();
        let mut sa = a.to_vec();
        let mut sb = b.to_vec();
        sa.sort_by(|x, y| x.partial_cmp(y).unwrap());
        sb.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let direct = ks_two_sample_sorted(&sa, &sb).unwrap();
        assert_eq!(via_sort.statistic.to_bits(), direct.statistic.to_bits());
        assert_eq!(via_sort.p_value.to_bits(), direct.p_value.to_bits());
        // Swapping tied equal values (a different permutation of the
        // multiset) cannot change the result.
        let sa_perm: Vec<f64> = {
            let mut v = sa.clone();
            // -0.0 and 0.0 compare equal; exchange them.
            let zeros: Vec<usize> = v
                .iter()
                .enumerate()
                .filter(|(_, x)| **x == 0.0)
                .map(|(i, _)| i)
                .collect();
            if zeros.len() >= 2 {
                v.swap(zeros[0], zeros[1]);
            }
            v
        };
        let permuted = ks_two_sample_sorted(&sa_perm, &sb).unwrap();
        assert_eq!(permuted.statistic.to_bits(), direct.statistic.to_bits());
        assert_eq!(permuted.p_value.to_bits(), direct.p_value.to_bits());
    }

    #[test]
    fn sorted_variant_ends_the_scan_at_two_nan_heads() {
        // NaN-last samples: once both heads are NaN the scan stops, with the
        // distance found over the values before them.
        let a = [0.1, 0.2, f64::NAN, f64::NAN];
        let b = [0.15, f64::NAN];
        let r = ks_two_sample_sorted(&a, &b).unwrap();
        assert_eq!(r.statistic, 0.25);
        assert!((0.0..=1.0).contains(&r.p_value));
    }

    #[test]
    fn sorted_variant_rejects_empty_samples() {
        assert!(ks_two_sample_sorted(&[], &[1.0]).is_err());
        assert!(ks_two_sample_sorted(&[1.0], &[]).is_err());
    }

    #[test]
    fn kolmogorov_survival_monotone() {
        let mut prev = 1.0;
        for i in 0..40 {
            let lambda = i as f64 * 0.1;
            let q = kolmogorov_survival(lambda);
            assert!(q <= prev + 1e-12);
            assert!((0.0..=1.0).contains(&q));
            prev = q;
        }
    }
}
