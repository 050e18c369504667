//! STEPD — Statistical Test of Equal Proportions Detector
//! (Nishida & Yamauchi, 2007).
//!
//! STEPD keeps the most recent `window_size` (default 30) prediction results
//! and compares the learner's accuracy in that recent window against its
//! accuracy over all older observations since the last reset, using the
//! two-proportion z-test with continuity correction. A small p-value means
//! recent accuracy is significantly different from the overall accuracy and a
//! drift (p < `alpha_drift`) or warning (p < `alpha_warning`) is reported.

use std::collections::VecDeque;

use optwin_core::snapshot::{check_version, field, invalid};
use optwin_core::{CoreError, DriftDetector, DriftStatus};
use optwin_stats::tests::equal_proportions_test;

use crate::DetectorSpec;

/// Serialization format version of [`Stepd`]'s state snapshot.
const SNAPSHOT_VERSION: u64 = 1;

/// Configuration for [`Stepd`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepdConfig {
    /// Size of the recent window (the original paper uses 30).
    pub window_size: usize,
    /// Significance level for drifts (default 0.003).
    pub alpha_drift: f64,
    /// Significance level for warnings (default 0.05).
    pub alpha_warning: f64,
}

impl Default for StepdConfig {
    fn default() -> Self {
        Self {
            window_size: 30,
            alpha_drift: 0.003,
            alpha_warning: 0.05,
        }
    }
}

/// The STEPD drift detector.
#[derive(Debug, Clone)]
pub struct Stepd {
    config: StepdConfig,
    /// Recent results: `true` = correct prediction.
    recent: VecDeque<bool>,
    /// Number of correct predictions in `recent`.
    recent_correct: u64,
    /// Older observations (since last reset) outside the recent window.
    older_total: u64,
    older_correct: u64,
    elements_seen: u64,
    drifts_detected: u64,
    last_status: DriftStatus,
}

impl Stepd {
    /// Creates a detector with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics with [`DetectorSpec::validate`]'s error if `window_size` is
    /// zero or above [`optwin_core::MAX_WINDOW`], or the significance levels
    /// are not in `(0, 1)` with `alpha_drift < alpha_warning`.
    #[must_use]
    pub fn new(config: StepdConfig) -> Self {
        DetectorSpec::Stepd { config }.assert_valid();
        Self {
            config,
            recent: VecDeque::with_capacity(config.window_size),
            recent_correct: 0,
            older_total: 0,
            older_correct: 0,
            elements_seen: 0,
            drifts_detected: 0,
            last_status: DriftStatus::Stable,
        }
    }

    /// Creates a detector with the original paper's defaults
    /// (window 30, α_drift 0.003, α_warning 0.05).
    #[must_use]
    pub fn with_defaults() -> Self {
        Self::new(StepdConfig::default())
    }

    /// Overall accuracy since the last reset (diagnostics).
    #[must_use]
    pub fn overall_accuracy(&self) -> f64 {
        let total = self.older_total + self.recent.len() as u64;
        if total == 0 {
            return 0.0;
        }
        (self.older_correct + self.recent_correct) as f64 / total as f64
    }

    fn restart(&mut self) {
        self.recent.clear();
        self.recent_correct = 0;
        self.older_total = 0;
        self.older_correct = 0;
    }

    /// Window/counter maintenance: graduation of the oldest recent result
    /// plus the push, without the proportions test.
    #[inline]
    fn push_result(&mut self, correct: bool) {
        if self.recent.len() == self.config.window_size {
            // The oldest recent observation graduates into the "older" pool.
            let graduated = self.recent.pop_front().expect("window is non-empty");
            if graduated {
                self.older_correct += 1;
                self.recent_correct -= 1;
            }
            self.older_total += 1;
        }
        self.recent.push_back(correct);
        if correct {
            self.recent_correct += 1;
        }
    }
}

impl DriftDetector for Stepd {
    fn add_element(&mut self, value: f64) -> DriftStatus {
        self.elements_seen += 1;
        // Input is an error indicator / loss; anything > 0 counts as a wrong
        // prediction, so "correct" is its complement.
        let correct = value <= 0.0;
        self.push_result(correct);

        // Only test once both segments are populated (the original paper
        // requires at least 2·window observations overall).
        if self.older_total < self.config.window_size as u64 {
            self.last_status = DriftStatus::Stable;
            return self.last_status;
        }

        let result = equal_proportions_test(
            self.older_correct as f64,
            self.older_total as f64,
            self.recent_correct as f64,
            self.recent.len() as f64,
        );
        let status = match result {
            Ok(r) => {
                // Only react when recent accuracy dropped below the overall
                // accuracy (an accuracy increase is not a concept drift worth
                // retraining for).
                let recent_acc = self.recent_correct as f64 / self.recent.len() as f64;
                let older_acc = self.older_correct as f64 / self.older_total as f64;
                if recent_acc >= older_acc {
                    DriftStatus::Stable
                } else if r.p_value < self.config.alpha_drift {
                    self.drifts_detected += 1;
                    self.restart();
                    DriftStatus::Drift
                } else if r.p_value < self.config.alpha_warning {
                    DriftStatus::Warning
                } else {
                    DriftStatus::Stable
                }
            }
            Err(_) => DriftStatus::Stable,
        };
        self.last_status = status;
        status
    }

    fn name(&self) -> &'static str {
        "STEPD"
    }

    fn elements_seen(&self) -> u64 {
        self.elements_seen
    }

    fn drifts_detected(&self) -> u64 {
        self.drifts_detected
    }

    /// Struct size plus the recent-results ring, counted at capacity.
    fn mem_footprint(&self) -> usize {
        std::mem::size_of_val(self) + self.recent.capacity() * std::mem::size_of::<bool>()
    }

    /// Serializes the recent result window (a bit-packed blob, one bit per
    /// buffered result) plus the integer "older" pool counters.
    /// `recent_correct` is derived (the number of `true` entries in the
    /// window), so it is recomputed on restore rather than trusted from the
    /// wire.
    fn snapshot_state(&self) -> serde::Value {
        use serde::Serialize as _;
        let recent: Vec<bool> = self.recent.iter().copied().collect();
        serde::Value::Object(vec![
            ("version".to_string(), serde::Value::UInt(SNAPSHOT_VERSION)),
            (
                "recent".to_string(),
                optwin_core::snapshot::encode_bool_seq(&recent),
            ),
            (
                "older_total".to_string(),
                serde::Value::UInt(self.older_total),
            ),
            (
                "older_correct".to_string(),
                serde::Value::UInt(self.older_correct),
            ),
            (
                "elements_seen".to_string(),
                serde::Value::UInt(self.elements_seen),
            ),
            (
                "drifts_detected".to_string(),
                serde::Value::UInt(self.drifts_detected),
            ),
            ("last_status".to_string(), self.last_status.to_value()),
        ])
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), CoreError> {
        check_version(state, SNAPSHOT_VERSION, "STEPD")?;
        let recent: Vec<bool> = optwin_core::snapshot::bool_seq_field(state, "recent")?;
        if recent.len() > self.config.window_size {
            return Err(invalid(format!(
                "recent window has {} entries, configuration allows {}",
                recent.len(),
                self.config.window_size
            )));
        }
        let older_total: u64 = field(state, "older_total")?;
        let older_correct: u64 = field(state, "older_correct")?;
        if older_correct > older_total {
            return Err(invalid(format!(
                "older_correct ({older_correct}) exceeds older_total ({older_total})"
            )));
        }
        let elements_seen: u64 = field(state, "elements_seen")?;
        let drifts_detected: u64 = field(state, "drifts_detected")?;
        let last_status: DriftStatus = field(state, "last_status")?;

        self.recent_correct = recent.iter().filter(|&&c| c).count() as u64;
        self.recent = recent.into_iter().collect();
        self.older_total = older_total;
        self.older_correct = older_correct;
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
    #[should_panic(expected = "`window_size` must be positive")]
    fn rejects_zero_window() {
        let _ = Stepd::new(StepdConfig {
            window_size: 0,
            ..StepdConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "`alpha_drift` levels must satisfy")]
    fn rejects_inverted_alphas() {
        let _ = Stepd::new(StepdConfig {
            window_size: 30,
            alpha_drift: 0.1,
            alpha_warning: 0.01,
        });
    }

    #[test]
    fn stable_accuracy_is_stable() {
        let mut d = Stepd::with_defaults();
        let mut drifts = 0;
        for i in 0..20_000u64 {
            if d.add_element(bernoulli(i, 0.2)) == DriftStatus::Drift {
                drifts += 1;
            }
        }
        // STEPD is known for a comparatively high false-positive rate (the
        // paper measured up to dozens per run); bound it loosely.
        assert!(drifts <= 20, "too many false positives: {drifts}");
        assert!((d.overall_accuracy() - 0.8).abs() < 0.15);
    }

    #[test]
    fn accuracy_drop_detected_quickly() {
        let mut d = Stepd::with_defaults();
        let mut detected_at = None;
        for i in 0..4_000u64 {
            let p = if i < 2_000 { 0.05 } else { 0.60 };
            if d.add_element(bernoulli(i, p)) == DriftStatus::Drift {
                detected_at = Some(i);
                break;
            }
        }
        let at = detected_at.expect("STEPD must detect the accuracy drop");
        assert!(at >= 2_000, "false positive at {at}");
        // STEPD reacts within a few recent-window lengths.
        assert!(at < 2_200, "delay too large: {}", at - 2_000);
    }

    #[test]
    fn accuracy_increase_not_flagged() {
        let mut d = Stepd::with_defaults();
        for i in 0..4_000u64 {
            let p = if i < 2_000 { 0.6 } else { 0.05 };
            assert_ne!(d.add_element(bernoulli(i, p)), DriftStatus::Drift);
        }
    }

    #[test]
    fn warning_zone_exists() {
        let mut d = Stepd::new(StepdConfig {
            window_size: 30,
            alpha_drift: 0.0001,
            alpha_warning: 0.2,
        });
        let mut warnings = 0;
        for i in 0..3_000u64 {
            let p = if i < 2_000 { 0.1 } else { 0.3 };
            if d.add_element(bernoulli(i, p)) == DriftStatus::Warning {
                warnings += 1;
            }
        }
        assert!(warnings > 0, "a moderate shift should produce warnings");
    }

    #[test]
    fn metadata() {
        let mut d = Stepd::with_defaults();
        for i in 0..200u64 {
            d.add_element(bernoulli(i, 0.2));
        }
        assert_eq!(d.elements_seen(), 200);
        assert_eq!(d.name(), "STEPD");
        assert!(!crate::DetectorSpec::default_for("stepd")
            .unwrap()
            .binary_only());
    }

    #[test]
    fn add_batch_matches_element_fold() {
        let stream: Vec<f64> = (0..8_000u64)
            .map(|i| {
                let p = match i {
                    0..=2_999 => 0.08,
                    3_000..=5_499 => 0.40,
                    _ => 0.70,
                };
                bernoulli(i, p)
            })
            .collect();
        crate::test_util::assert_batch_equivalence(Stepd::with_defaults, &stream);
    }

    #[test]
    fn snapshot_restore_resumes_with_identical_decisions() {
        let stream: Vec<f64> = (0..8_000u64)
            .map(|i| {
                let p = match i {
                    0..=2_999 => 0.08,
                    3_000..=5_499 => 0.40,
                    _ => 0.70,
                };
                bernoulli(i, p)
            })
            .collect();
        crate::test_util::assert_snapshot_equivalence(
            Stepd::with_defaults,
            &stream,
            &[0, 15, 1_200, 3_100, 8_000],
        );
    }

    #[test]
    fn restore_rejects_bad_snapshots() {
        let mut d = Stepd::with_defaults();
        assert!(d.restore_state(&serde::Value::Null).is_err());

        let mut donor = Stepd::with_defaults();
        for i in 0..200u64 {
            donor.add_element(bernoulli(i, 0.2));
        }
        let state = donor.snapshot_state();
        // A smaller restoring window rejects the oversized recent buffer.
        let mut small = Stepd::new(StepdConfig {
            window_size: 5,
            ..StepdConfig::default()
        });
        let err = small.restore_state(&state).unwrap_err();
        assert!(err.to_string().contains("recent window"), "{err}");

        // Inconsistent older-pool counters are rejected.
        let serde::Value::Object(mut fields) = state else {
            panic!("snapshot must be an object")
        };
        for (k, v) in &mut fields {
            if k == "older_correct" {
                *v = serde::Value::UInt(1_000_000);
            }
        }
        let err = d.restore_state(&serde::Value::Object(fields)).unwrap_err();
        assert!(err.to_string().contains("older_correct"), "{err}");
    }
}
