//! DDM — Drift Detection Method (Gama et al., 2004).
//!
//! DDM models the learner's error count as a binomial variable. It tracks the
//! running error rate `p_i` and its standard deviation
//! `s_i = sqrt(p_i (1 − p_i) / i)`, remembers the point where `p + s` was
//! minimal (`p_min + s_min`), and flags
//!
//! * a **warning** when `p_i + s_i ≥ p_min + warning_level · s_min`
//!   (default 2 standard deviations), and
//! * a **drift**   when `p_i + s_i ≥ p_min + drift_level · s_min`
//!   (default 3 standard deviations; the paper's `δ`),
//!
//! after at least `min_instances` (30) observations. On drift the statistics
//! are reset.

use optwin_core::snapshot::{check_version, field, float_field, float_value};
use optwin_core::{CoreError, DriftDetector, DriftStatus};

use crate::DetectorSpec;

/// Serialization format version of [`Ddm`]'s state snapshot.
const SNAPSHOT_VERSION: u64 = 1;

/// Configuration for [`Ddm`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdmConfig {
    /// Minimum number of observations before drift detection starts.
    pub min_instances: u64,
    /// Number of `s_min` units above `p_min` that triggers a warning.
    pub warning_level: f64,
    /// Number of `s_min` units above `p_min` that triggers a drift.
    pub drift_level: f64,
}

impl Default for DdmConfig {
    fn default() -> Self {
        Self {
            min_instances: 30,
            warning_level: 2.0,
            drift_level: 3.0,
        }
    }
}

/// The DDM drift detector.
#[derive(Debug, Clone)]
pub struct Ddm {
    config: DdmConfig,
    /// Observations since the last reset.
    n: u64,
    /// Error count since the last reset.
    errors: f64,
    p_min: f64,
    s_min: f64,
    elements_seen: u64,
    drifts_detected: u64,
    last_status: DriftStatus,
}

impl Ddm {
    /// Creates a detector with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics with [`DetectorSpec::validate`]'s error if either level is
    /// non-finite or non-positive, or `drift_level <= warning_level`.
    #[must_use]
    pub fn new(config: DdmConfig) -> Self {
        DetectorSpec::Ddm { config }.assert_valid();
        Self {
            config,
            n: 0,
            errors: 0.0,
            p_min: f64::MAX,
            s_min: f64::MAX,
            elements_seen: 0,
            drifts_detected: 0,
            last_status: DriftStatus::Stable,
        }
    }

    /// Creates a detector with the MOA defaults (30 / 2σ / 3σ).
    #[must_use]
    pub fn with_defaults() -> Self {
        Self::new(DdmConfig::default())
    }

    /// Current error-rate estimate since the last reset.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.errors / self.n as f64
        }
    }

    /// Minimum recorded `p + s` components (diagnostics).
    #[must_use]
    pub fn minimums(&self) -> (f64, f64) {
        (self.p_min, self.s_min)
    }

    fn restart(&mut self) {
        self.n = 0;
        self.errors = 0.0;
        self.p_min = f64::MAX;
        self.s_min = f64::MAX;
    }
}

impl DriftDetector for Ddm {
    fn add_element(&mut self, value: f64) -> DriftStatus {
        self.elements_seen += 1;
        // Any strictly positive value counts as an error (binary input).
        let error = if value > 0.0 { 1.0 } else { 0.0 };
        self.n += 1;
        self.errors += error;

        let n = self.n as f64;
        let p = self.errors / n;
        let s = (p * (1.0 - p) / n).max(0.0).sqrt();

        if self.n < self.config.min_instances {
            self.last_status = DriftStatus::Stable;
            return self.last_status;
        }

        if p + s <= self.p_min + self.s_min {
            self.p_min = p;
            self.s_min = s;
        }

        // Strict inequalities so that a perfect learner (p = s = p_min =
        // s_min = 0) never trips the thresholds.
        let status = if p + s > self.p_min + self.config.drift_level * self.s_min {
            self.drifts_detected += 1;
            self.restart();
            DriftStatus::Drift
        } else if p + s > self.p_min + self.config.warning_level * self.s_min {
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
        "DDM"
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

    /// Serializes the raw binomial accumulators (`n`, error count) and the
    /// recorded `p_min`/`s_min` minimums verbatim, so the restored detector
    /// evaluates exactly the same thresholds the original would have.
    fn snapshot_state(&self) -> Option<serde::Value> {
        use serde::Serialize as _;
        Some(serde::Value::Object(vec![
            ("version".to_string(), serde::Value::UInt(SNAPSHOT_VERSION)),
            ("n".to_string(), serde::Value::UInt(self.n)),
            ("errors".to_string(), float_value(self.errors)),
            ("p_min".to_string(), float_value(self.p_min)),
            ("s_min".to_string(), float_value(self.s_min)),
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
        check_version(state, SNAPSHOT_VERSION, "DDM")?;
        let n: u64 = field(state, "n")?;
        let finite = |name: &str, x: f64| {
            if x.is_finite() {
                Ok(())
            } else {
                Err(optwin_core::snapshot::invalid(format!(
                    "{name} ({x}) must be finite"
                )))
            }
        };
        let errors = float_field(state, "errors")?;
        finite("errors", errors)?;
        // `errors` counts whole observations, so it must stay within [0, n];
        // anything else makes the error-rate estimate p = errors/n nonsense.
        if !(0.0..=n as f64).contains(&errors) {
            return Err(optwin_core::snapshot::invalid(format!(
                "errors ({errors}) must lie in [0, n = {n}]"
            )));
        }
        // `p_min`/`s_min` start at f64::MAX (which is finite), so the plain
        // finiteness check covers the pristine state too.
        let p_min = float_field(state, "p_min")?;
        finite("p_min", p_min)?;
        let s_min = float_field(state, "s_min")?;
        finite("s_min", s_min)?;
        let elements_seen: u64 = field(state, "elements_seen")?;
        let drifts_detected: u64 = field(state, "drifts_detected")?;
        let last_status: DriftStatus = field(state, "last_status")?;

        self.n = n;
        self.errors = errors;
        self.p_min = p_min;
        self.s_min = s_min;
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
    #[should_panic(expected = "levels must satisfy")]
    fn rejects_inconsistent_levels() {
        let _ = Ddm::new(DdmConfig {
            min_instances: 30,
            warning_level: 3.0,
            drift_level: 2.0,
        });
    }

    #[test]
    fn no_detection_before_min_instances() {
        let mut d = Ddm::with_defaults();
        for i in 0..29u64 {
            assert_eq!(d.add_element(bernoulli(i, 0.5)), DriftStatus::Stable);
        }
    }

    #[test]
    fn stationary_error_rate_is_stable() {
        let mut d = Ddm::with_defaults();
        let mut drifts = 0;
        for i in 0..20_000u64 {
            if d.add_element(bernoulli(i, 0.15)) == DriftStatus::Drift {
                drifts += 1;
            }
        }
        assert!(drifts <= 3, "too many false positives: {drifts}");
        assert!((d.error_rate() - 0.15).abs() < 0.05);
    }

    #[test]
    fn error_rate_increase_detected_with_warning_first() {
        let mut d = Ddm::with_defaults();
        let mut first_warning = None;
        let mut first_drift = None;
        for i in 0..6_000u64 {
            let p = if i < 3_000 { 0.05 } else { 0.45 };
            match d.add_element(bernoulli(i, p)) {
                DriftStatus::Warning if first_warning.is_none() => first_warning = Some(i),
                // DDM has a well-known cold-start quirk: right after
                // `min_instances` the recorded minimum is based on very few
                // samples, so an unlucky error cluster can fire spuriously.
                // Ignore that start-up region and judge the steady state.
                DriftStatus::Drift if i >= 500 => {
                    first_drift = Some(i);
                    break;
                }
                _ => {}
            }
        }
        let drift = first_drift.expect("DDM must detect the shift");
        assert!(drift >= 3_000, "false positive at {drift}");
        assert!(drift < 3_300, "delay too large: {}", drift - 3_000);
        if let Some(w) = first_warning {
            assert!(w <= drift);
        }
    }

    #[test]
    fn improvement_is_not_flagged() {
        let mut d = Ddm::with_defaults();
        for i in 0..6_000u64 {
            let p = if i < 3_000 { 0.45 } else { 0.05 };
            assert_ne!(d.add_element(bernoulli(i, p)), DriftStatus::Drift);
        }
    }

    #[test]
    fn resets_after_drift_and_detects_again() {
        let mut d = Ddm::with_defaults();
        let mut detections = Vec::new();
        for i in 0..12_000u64 {
            let p = match i {
                0..=3_999 => 0.05,
                4_000..=7_999 => 0.35,
                _ => 0.70,
            };
            if d.add_element(bernoulli(i, p)) == DriftStatus::Drift {
                detections.push(i);
            }
        }
        assert!(detections.len() >= 2, "detections: {detections:?}");
        assert!(detections.iter().any(|&i| (4_000..4_600).contains(&i)));
        // After the first reset DDM accumulates ~4 000 stable observations,
        // so the cumulative error rate reacts more slowly to the second
        // shift; allow a correspondingly longer delay.
        assert!(detections.iter().any(|&i| (8_000..9_200).contains(&i)));
        assert_eq!(d.drifts_detected() as usize, detections.len());
    }

    #[test]
    fn binary_only_metadata() {
        let d = Ddm::with_defaults();
        assert!(!d.supports_real_valued_input());
        assert_eq!(d.name(), "DDM");
        let (p_min, s_min) = d.minimums();
        assert_eq!(p_min, f64::MAX);
        assert_eq!(s_min, f64::MAX);
    }

    #[test]
    fn add_batch_matches_element_fold() {
        let stream: Vec<f64> = (0..9_000u64)
            .map(|i| {
                let p = match i {
                    0..=3_999 => 0.05,
                    4_000..=6_999 => 0.35,
                    _ => 0.70,
                };
                bernoulli(i, p)
            })
            .collect();
        crate::test_util::assert_batch_equivalence(Ddm::with_defaults, &stream);
    }

    #[test]
    fn snapshot_restore_resumes_with_identical_decisions() {
        let stream: Vec<f64> = (0..9_000u64)
            .map(|i| {
                let p = match i {
                    0..=3_999 => 0.05,
                    4_000..=6_999 => 0.35,
                    _ => 0.70,
                };
                bernoulli(i, p)
            })
            .collect();
        crate::test_util::assert_snapshot_equivalence(
            Ddm::with_defaults,
            &stream,
            &[0, 17, 2_000, 4_300, 9_000],
        );
    }

    #[test]
    fn restore_rejects_bad_snapshots() {
        let mut d = Ddm::with_defaults();
        assert!(d.restore_state(&serde::Value::Null).is_err());
        let err = d
            .restore_state(&serde::Value::Object(vec![(
                "version".to_string(),
                serde::Value::UInt(99),
            )]))
            .unwrap_err();
        assert!(err.to_string().contains("version"));

        // Non-finite accumulators are rejected and nothing is assigned.
        let mut donor = Ddm::with_defaults();
        for i in 0..100u64 {
            donor.add_element(bernoulli(i, 0.2));
        }
        let serde::Value::Object(mut fields) = donor.snapshot_state().unwrap() else {
            panic!("snapshot must be an object")
        };
        for (k, v) in &mut fields {
            if k == "errors" {
                *v = serde::Value::Float(f64::INFINITY);
            }
        }
        let before = d.elements_seen();
        let err = d.restore_state(&serde::Value::Object(fields)).unwrap_err();
        assert!(err.to_string().contains("finite"), "{err}");
        assert_eq!(d.elements_seen(), before);

        // An error count outside [0, n] is rejected: p = errors/n would be
        // negative or above one.
        let serde::Value::Object(mut fields) = donor.snapshot_state().unwrap() else {
            panic!("snapshot must be an object")
        };
        for (k, v) in &mut fields {
            if k == "errors" {
                *v = serde::Value::Float(-5.0);
            }
        }
        let err = d.restore_state(&serde::Value::Object(fields)).unwrap_err();
        assert!(err.to_string().contains("errors"), "{err}");
    }

    #[test]
    fn manual_reset() {
        let mut d = Ddm::with_defaults();
        for i in 0..100u64 {
            d.add_element(bernoulli(i, 0.3));
        }
        d.reset();
        assert_eq!(d.error_rate(), 0.0);
        assert_eq!(d.elements_seen(), 100);
    }
}
