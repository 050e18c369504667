//! EDDM — Early Drift Detection Method (Baena-García et al., 2006).
//!
//! EDDM tracks the *distance between consecutive errors* instead of the error
//! rate: while the learner is improving, errors get further apart. The
//! detector maintains the running mean `p'` and standard deviation `s'` of
//! that distance, remembers the maximum of `p' + 2 s'`, and compares the
//! current value against the maximum:
//!
//! * warning when `(p' + 2 s') / (p'_max + 2 s'_max) < α` (default 0.95),
//! * drift  when the ratio drops below `β` (default 0.90).
//!
//! Detection only starts after `min_errors` (30) errors have been observed.
//! On drift the statistics are reset.

use optwin_core::snapshot::{check_version, field, float_field, float_value};
use optwin_core::{CoreError, DriftDetector, DriftStatus};

use crate::DetectorSpec;

/// Serialization format version of [`Eddm`]'s state snapshot.
const SNAPSHOT_VERSION: u64 = 1;

/// Configuration for [`Eddm`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EddmConfig {
    /// Warning threshold α (ratio of current to maximum distance statistic).
    pub alpha: f64,
    /// Drift threshold β (< α).
    pub beta: f64,
    /// Minimum number of *errors* observed before detection starts.
    pub min_errors: u64,
}

impl Default for EddmConfig {
    fn default() -> Self {
        Self {
            alpha: 0.95,
            beta: 0.90,
            min_errors: 30,
        }
    }
}

/// The EDDM drift detector.
#[derive(Debug, Clone)]
pub struct Eddm {
    config: EddmConfig,
    /// Elements since the last reset.
    n: u64,
    /// Index (within the current concept) of the previous error.
    last_error_at: Option<u64>,
    /// Number of errors since the last reset.
    error_count: u64,
    /// Running mean of the distance between errors.
    dist_mean: f64,
    /// Running M2 (Welford) of the distance between errors.
    dist_m2: f64,
    /// Maximum recorded value of `p' + 2 s'`.
    max_stat: f64,
    elements_seen: u64,
    drifts_detected: u64,
    last_status: DriftStatus,
}

impl Eddm {
    /// Creates a detector with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics with [`DetectorSpec::validate`]'s error if the thresholds do
    /// not satisfy `0 < β < α <= 1`.
    #[must_use]
    pub fn new(config: EddmConfig) -> Self {
        DetectorSpec::Eddm { config }.assert_valid();
        Self {
            config,
            n: 0,
            last_error_at: None,
            error_count: 0,
            dist_mean: 0.0,
            dist_m2: 0.0,
            max_stat: 0.0,
            elements_seen: 0,
            drifts_detected: 0,
            last_status: DriftStatus::Stable,
        }
    }

    /// Creates a detector with the original paper's defaults
    /// (α = 0.95, β = 0.90, 30 errors).
    #[must_use]
    pub fn with_defaults() -> Self {
        Self::new(EddmConfig::default())
    }

    /// Mean distance between errors since the last reset (diagnostics).
    #[must_use]
    pub fn mean_error_distance(&self) -> f64 {
        self.dist_mean
    }

    fn restart(&mut self) {
        self.n = 0;
        self.last_error_at = None;
        self.error_count = 0;
        self.dist_mean = 0.0;
        self.dist_m2 = 0.0;
        self.max_stat = 0.0;
    }
}

impl DriftDetector for Eddm {
    fn add_element(&mut self, value: f64) -> DriftStatus {
        self.elements_seen += 1;
        self.n += 1;
        let is_error = value > 0.0;

        if !is_error {
            self.last_status = DriftStatus::Stable;
            return self.last_status;
        }

        // Distance from the previous error (in number of instances).
        let distance = match self.last_error_at {
            Some(prev) => (self.n - prev) as f64,
            None => self.n as f64,
        };
        self.last_error_at = Some(self.n);
        self.error_count += 1;

        // Welford update of the distance statistics.
        let delta = distance - self.dist_mean;
        self.dist_mean += delta / self.error_count as f64;
        let delta2 = distance - self.dist_mean;
        self.dist_m2 += delta * delta2;
        let std = if self.error_count > 1 {
            (self.dist_m2 / self.error_count as f64).max(0.0).sqrt()
        } else {
            0.0
        };

        let stat = self.dist_mean + 2.0 * std;

        if self.error_count < self.config.min_errors {
            self.max_stat = self.max_stat.max(stat);
            self.last_status = DriftStatus::Stable;
            return self.last_status;
        }

        if stat > self.max_stat {
            self.max_stat = stat;
            self.last_status = DriftStatus::Stable;
            return self.last_status;
        }

        let ratio = if self.max_stat > 0.0 {
            stat / self.max_stat
        } else {
            1.0
        };
        let status = if ratio < self.config.beta {
            self.drifts_detected += 1;
            self.restart();
            DriftStatus::Drift
        } else if ratio < self.config.alpha {
            DriftStatus::Warning
        } else {
            DriftStatus::Stable
        };
        self.last_status = status;
        status
    }

    fn reset(&mut self) {
        self.restart();
        self.last_status = DriftStatus::Stable;
    }

    fn name(&self) -> &'static str {
        "EDDM"
    }

    fn elements_seen(&self) -> u64 {
        self.elements_seen
    }

    fn drifts_detected(&self) -> u64 {
        self.drifts_detected
    }

    fn supports_real_valued_input(&self) -> bool {
        false
    }

    /// Serializes the raw error-distance accumulators (Welford mean/M2, last
    /// error position, recorded maximum) verbatim for bit-exact resumption.
    fn snapshot_state(&self) -> Option<serde::Value> {
        use serde::Serialize as _;
        Some(serde::Value::Object(vec![
            ("version".to_string(), serde::Value::UInt(SNAPSHOT_VERSION)),
            ("n".to_string(), serde::Value::UInt(self.n)),
            ("last_error_at".to_string(), self.last_error_at.to_value()),
            (
                "error_count".to_string(),
                serde::Value::UInt(self.error_count),
            ),
            ("dist_mean".to_string(), float_value(self.dist_mean)),
            ("dist_m2".to_string(), float_value(self.dist_m2)),
            ("max_stat".to_string(), float_value(self.max_stat)),
            (
                "elements_seen".to_string(),
                serde::Value::UInt(self.elements_seen),
            ),
            (
                "drifts_detected".to_string(),
                serde::Value::UInt(self.drifts_detected),
            ),
            ("last_status".to_string(), self.last_status.to_value()),
        ]))
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), CoreError> {
        check_version(state, SNAPSHOT_VERSION, "EDDM")?;
        let n: u64 = field(state, "n")?;
        let last_error_at: Option<u64> = field(state, "last_error_at")?;
        if let Some(at) = last_error_at {
            if at > n {
                return Err(optwin_core::snapshot::invalid(format!(
                    "last_error_at ({at}) exceeds n ({n})"
                )));
            }
        }
        let error_count: u64 = field(state, "error_count")?;
        let dist_mean = float_field(state, "dist_mean")?;
        let dist_m2 = float_field(state, "dist_m2")?;
        let max_stat = float_field(state, "max_stat")?;
        let elements_seen: u64 = field(state, "elements_seen")?;
        let drifts_detected: u64 = field(state, "drifts_detected")?;
        let last_status: DriftStatus = field(state, "last_status")?;

        self.n = n;
        self.last_error_at = last_error_at;
        self.error_count = error_count;
        self.dist_mean = dist_mean;
        self.dist_m2 = dist_m2;
        self.max_stat = max_stat;
        self.elements_seen = elements_seen;
        self.drifts_detected = drifts_detected;
        self.last_status = last_status;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::bernoulli;

    #[test]
    #[should_panic(expected = "thresholds must satisfy")]
    fn rejects_inconsistent_thresholds() {
        let _ = Eddm::new(EddmConfig {
            alpha: 0.9,
            beta: 0.95,
            min_errors: 30,
        });
    }

    #[test]
    fn correct_predictions_never_fire() {
        let mut d = Eddm::with_defaults();
        for _ in 0..10_000 {
            assert_eq!(d.add_element(0.0), DriftStatus::Stable);
        }
        assert_eq!(d.drifts_detected(), 0);
    }

    #[test]
    fn shrinking_error_distance_detected() {
        // EDDM produces occasional false positives on stationary streams (the
        // paper measured 6–17 per run), so this test does not require a
        // perfectly silent pre-drift phase; it requires that a detection
        // lands shortly after the true change point.
        let mut d = Eddm::with_defaults();
        let mut detections = Vec::new();
        for i in 0..20_000u64 {
            // Errors get much more frequent after the drift point.
            let p = if i < 10_000 { 0.02 } else { 0.40 };
            if d.add_element(bernoulli(i, p)) == DriftStatus::Drift {
                detections.push(i);
            }
        }
        assert!(
            detections.iter().any(|&i| (10_000..10_600).contains(&i)),
            "no detection shortly after the drift: {detections:?}"
        );
    }

    #[test]
    fn stationary_error_rate_fp_rate_is_bounded() {
        let mut d = Eddm::with_defaults();
        let mut drifts = 0;
        for i in 0..30_000u64 {
            if d.add_element(bernoulli(i, 0.1)) == DriftStatus::Drift {
                drifts += 1;
            }
        }
        // EDDM is the baseline with the highest FP rate after ECDD in the
        // paper's measurements; bound it loosely.
        assert!(drifts <= 60, "excessive false positives: {drifts}");
    }

    #[test]
    fn mean_error_distance_tracks_inverse_rate() {
        let mut d = Eddm::with_defaults();
        for i in 0..5_000u64 {
            d.add_element(bernoulli(i, 0.1));
        }
        // Errors at rate 0.1 → average spacing near 10.
        assert!((d.mean_error_distance() - 10.0).abs() < 3.0);
    }

    #[test]
    fn metadata_and_reset() {
        let mut d = Eddm::with_defaults();
        assert_eq!(d.name(), "EDDM");
        assert!(!d.supports_real_valued_input());
        for i in 0..200u64 {
            d.add_element(bernoulli(i, 0.2));
        }
        d.reset();
        assert_eq!(d.mean_error_distance(), 0.0);
        assert_eq!(d.elements_seen(), 200);
    }

    #[test]
    fn add_batch_matches_element_fold() {
        let stream: Vec<f64> = (0..9_000u64)
            .map(|i| {
                let p = match i {
                    0..=3_999 => 0.10,
                    4_000..=6_999 => 0.45,
                    _ => 0.75,
                };
                bernoulli(i, p)
            })
            .collect();
        crate::test_util::assert_batch_equivalence(Eddm::with_defaults, &stream);
    }

    #[test]
    fn snapshot_restore_resumes_with_identical_decisions() {
        let stream: Vec<f64> = (0..9_000u64)
            .map(|i| {
                let p = match i {
                    0..=3_999 => 0.10,
                    4_000..=6_999 => 0.45,
                    _ => 0.75,
                };
                bernoulli(i, p)
            })
            .collect();
        // Include a cut in the pristine state (no error seen yet is
        // impossible at rate 0.1 after a few elements, so cut 0 covers it).
        crate::test_util::assert_snapshot_equivalence(
            Eddm::with_defaults,
            &stream,
            &[0, 23, 2_500, 4_200, 9_000],
        );
    }

    #[test]
    fn restore_rejects_bad_snapshots() {
        let mut d = Eddm::with_defaults();
        assert!(d.restore_state(&serde::Value::Null).is_err());

        let mut donor = Eddm::with_defaults();
        for i in 0..300u64 {
            donor.add_element(bernoulli(i, 0.2));
        }
        // An inconsistent error position is rejected.
        let serde::Value::Object(mut fields) = donor.snapshot_state().unwrap() else {
            panic!("snapshot must be an object")
        };
        for (k, v) in &mut fields {
            if k == "last_error_at" {
                *v = serde::Value::UInt(10_000);
            }
        }
        let err = d.restore_state(&serde::Value::Object(fields)).unwrap_err();
        assert!(err.to_string().contains("last_error_at"), "{err}");
    }
}
