//! Page–Hinkley test (extension detector).
//!
//! The Page–Hinkley test is a sequential change-detection scheme for the mean
//! of a signal. It maintains the cumulative difference between the
//! observations and their running mean (minus a small tolerance `delta`) and
//! compares it against its historical minimum; when the gap exceeds a
//! threshold `lambda`, a change is flagged. It is not part of the paper's
//! baseline set but is a classic single-pass detector useful for ablations.

use optwin_core::snapshot::{check_version, field, float_field, float_value};
use optwin_core::{CoreError, DriftDetector, DriftStatus};

use crate::DetectorSpec;

/// Serialization format version of [`PageHinkley`]'s state snapshot.
const SNAPSHOT_VERSION: u64 = 1;

/// Configuration for [`PageHinkley`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageHinkleyConfig {
    /// Minimum number of observations before detection starts.
    pub min_instances: u64,
    /// Magnitude tolerance: changes smaller than this are ignored.
    pub delta: f64,
    /// Detection threshold λ on the cumulative statistic.
    pub lambda: f64,
    /// Forgetting factor applied to the running mean (1.0 = plain mean).
    pub alpha: f64,
    /// Fraction of λ at which a warning is reported.
    pub warning_fraction: f64,
}

impl Default for PageHinkleyConfig {
    fn default() -> Self {
        Self {
            min_instances: 30,
            delta: 0.005,
            lambda: 50.0,
            alpha: 0.9999,
            warning_fraction: 0.5,
        }
    }
}

/// The Page–Hinkley drift detector (detects increases of the mean).
#[derive(Debug, Clone)]
pub struct PageHinkley {
    config: PageHinkleyConfig,
    n: u64,
    mean: f64,
    cumulative: f64,
    min_cumulative: f64,
    elements_seen: u64,
    drifts_detected: u64,
    last_status: DriftStatus,
}

impl PageHinkley {
    /// Creates a detector with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics with [`DetectorSpec::validate`]'s error if `delta` or
    /// `lambda` is non-finite, `lambda` is not positive, or `alpha` or
    /// `warning_fraction` is outside `(0, 1]`.
    #[must_use]
    pub fn new(config: PageHinkleyConfig) -> Self {
        DetectorSpec::PageHinkley { config }.assert_valid();
        Self {
            config,
            n: 0,
            mean: 0.0,
            cumulative: 0.0,
            min_cumulative: f64::MAX,
            elements_seen: 0,
            drifts_detected: 0,
            last_status: DriftStatus::Stable,
        }
    }

    /// Creates a detector with the classic defaults (δ = 0.005, λ = 50).
    #[must_use]
    pub fn with_defaults() -> Self {
        Self::new(PageHinkleyConfig::default())
    }

    /// Current value of the cumulative test statistic minus its minimum.
    #[must_use]
    pub fn statistic(&self) -> f64 {
        if self.min_cumulative == f64::MAX {
            0.0
        } else {
            self.cumulative - self.min_cumulative
        }
    }

    fn restart(&mut self) {
        self.n = 0;
        self.mean = 0.0;
        self.cumulative = 0.0;
        self.min_cumulative = f64::MAX;
    }
}

impl DriftDetector for PageHinkley {
    fn add_element(&mut self, value: f64) -> DriftStatus {
        self.elements_seen += 1;
        let n = self.n + 1;
        // Running (optionally fading) mean.
        let mean = self.mean + (value - self.mean) / n as f64;
        let cumulative = self.config.alpha * self.cumulative + (value - mean - self.config.delta);
        // A NaN or ±inf value would make the statistics non-finite for good,
        // and `stat > λ` would never hold again. Such a value is counted but
        // leaves the statistics alone.
        if !(mean.is_finite() && cumulative.is_finite()) {
            self.last_status = DriftStatus::Stable;
            return self.last_status;
        }
        self.n = n;
        self.mean = mean;
        self.cumulative = cumulative;
        self.min_cumulative = self.min_cumulative.min(cumulative);

        if self.n < self.config.min_instances {
            self.last_status = DriftStatus::Stable;
            return self.last_status;
        }

        let stat = self.cumulative - self.min_cumulative;
        let status = if stat > self.config.lambda {
            self.drifts_detected += 1;
            self.restart();
            DriftStatus::Drift
        } else if stat > self.config.warning_fraction * self.config.lambda {
            DriftStatus::Warning
        } else {
            DriftStatus::Stable
        };
        self.last_status = status;
        status
    }

    fn name(&self) -> &'static str {
        "PageHinkley"
    }

    fn elements_seen(&self) -> u64 {
        self.elements_seen
    }

    fn drifts_detected(&self) -> u64 {
        self.drifts_detected
    }

    /// Serializes the raw running mean, cumulative statistic and its minimum
    /// verbatim (the minimum starts at `f64::MAX`, which is finite and
    /// round-trips exactly; [`float_value`] also keeps non-finite values
    /// readable).
    fn snapshot_state(&self) -> serde::Value {
        use serde::Serialize as _;
        serde::Value::Object(vec![
            ("version".to_string(), serde::Value::UInt(SNAPSHOT_VERSION)),
            ("n".to_string(), serde::Value::UInt(self.n)),
            ("mean".to_string(), float_value(self.mean)),
            ("cumulative".to_string(), float_value(self.cumulative)),
            (
                "min_cumulative".to_string(),
                float_value(self.min_cumulative),
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

    /// Accepts non-finite statistics: before non-finite updates were
    /// skipped, a NaN or infinite input made them live state, so snapshots
    /// written then can hold them.
    fn restore_state(&mut self, state: &serde::Value) -> Result<(), CoreError> {
        check_version(state, SNAPSHOT_VERSION, "PageHinkley")?;
        let n: u64 = field(state, "n")?;
        let mean = float_field(state, "mean")?;
        let cumulative = float_field(state, "cumulative")?;
        let min_cumulative = float_field(state, "min_cumulative")?;
        let elements_seen: u64 = field(state, "elements_seen")?;
        let drifts_detected: u64 = field(state, "drifts_detected")?;
        let last_status: DriftStatus = field(state, "last_status")?;

        self.n = n;
        self.mean = mean;
        self.cumulative = cumulative;
        self.min_cumulative = min_cumulative;
        self.elements_seen = elements_seen;
        self.drifts_detected = drifts_detected;
        self.last_status = last_status;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{bernoulli, jitter};

    #[test]
    #[should_panic(expected = "`lambda` must be positive")]
    fn rejects_bad_lambda() {
        let _ = PageHinkley::new(PageHinkleyConfig {
            lambda: 0.0,
            ..PageHinkleyConfig::default()
        });
    }

    #[test]
    fn stationary_stream_is_stable() {
        let mut d = PageHinkley::with_defaults();
        let mut drifts = 0;
        for i in 0..30_000u64 {
            if d.add_element(bernoulli(i, 0.2)) == DriftStatus::Drift {
                drifts += 1;
            }
        }
        assert!(drifts <= 1, "drifts = {drifts}");
    }

    #[test]
    fn mean_increase_detected() {
        let mut d = PageHinkley::with_defaults();
        let mut detected_at = None;
        for i in 0..6_000u64 {
            let base = if i < 3_000 { 0.1 } else { 0.5 };
            let x = (base + 0.1 * jitter(i)).clamp(0.0, 1.0);
            if d.add_element(x) == DriftStatus::Drift {
                detected_at = Some(i);
                break;
            }
        }
        let at = detected_at.expect("Page-Hinkley must detect the mean increase");
        assert!(at >= 3_000);
        assert!(at < 3_400, "delay = {}", at - 3_000);
    }

    #[test]
    fn statistic_resets_after_drift() {
        let mut d = PageHinkley::with_defaults();
        for i in 0..6_000u64 {
            let base = if i < 3_000 { 0.1 } else { 0.5 };
            d.add_element((base + 0.1 * jitter(i)).clamp(0.0, 1.0));
        }
        assert!(d.drifts_detected() >= 1);
        // After the reset the statistic should be far from the threshold.
        assert!(d.statistic() < 50.0);
    }

    #[test]
    fn warning_zone_reported() {
        let mut d = PageHinkley::new(PageHinkleyConfig {
            lambda: 20.0,
            ..PageHinkleyConfig::default()
        });
        let mut saw_warning = false;
        for i in 0..6_000u64 {
            let base = if i < 3_000 { 0.1 } else { 0.5 };
            let status = d.add_element((base + 0.1 * jitter(i)).clamp(0.0, 1.0));
            if status == DriftStatus::Warning {
                saw_warning = true;
            }
            if status == DriftStatus::Drift {
                break;
            }
        }
        assert!(saw_warning, "warning zone should precede the drift");
    }

    #[test]
    fn metadata() {
        let d = PageHinkley::with_defaults();
        assert_eq!(d.name(), "PageHinkley");
        assert!(!crate::DetectorSpec::default_for("page_hinkley")
            .unwrap()
            .binary_only());
        assert_eq!(d.statistic(), 0.0);
    }

    #[test]
    fn add_batch_matches_element_fold() {
        let stream: Vec<f64> = (0..8_000u64)
            .map(|i| {
                let base = if i < 4_000 { 0.1 } else { 0.5 };
                (base + 0.05 * jitter(i)).clamp(0.0, 1.0)
            })
            .collect();
        crate::test_util::assert_batch_equivalence(PageHinkley::with_defaults, &stream);
    }

    #[test]
    fn snapshot_restore_resumes_with_identical_decisions() {
        let stream: Vec<f64> = (0..8_000u64)
            .map(|i| {
                let base = if i < 4_000 { 0.1 } else { 0.5 };
                (base + 0.05 * jitter(i)).clamp(0.0, 1.0)
            })
            .collect();
        crate::test_util::assert_snapshot_equivalence(
            PageHinkley::with_defaults,
            &stream,
            &[0, 11, 2_000, 4_100, 8_000],
        );
    }

    #[test]
    fn restore_rejects_bad_snapshots() {
        let mut d = PageHinkley::with_defaults();
        assert!(d.restore_state(&serde::Value::Null).is_err());
        let mut donor = PageHinkley::with_defaults();
        for i in 0..200u64 {
            donor.add_element(bernoulli(i, 0.2));
        }
        // A missing field is rejected and nothing is assigned.
        let serde::Value::Object(fields) = donor.snapshot_state() else {
            panic!("snapshot must be an object")
        };
        let truncated: Vec<(String, serde::Value)> =
            fields.into_iter().filter(|(k, _)| k != "mean").collect();
        let before = d.elements_seen();
        let err = d
            .restore_state(&serde::Value::Object(truncated))
            .unwrap_err();
        assert!(err.to_string().contains("mean"), "{err}");
        assert_eq!(d.elements_seen(), before);

        // A snapshot written before non-finite updates were skipped can hold
        // NaN statistics. It restores and round-trips bit-exactly (the NaNs
        // are blobs, so the value trees compare bitwise).
        let serde::Value::Object(mut fields) = donor.snapshot_state() else {
            panic!("snapshot must be an object")
        };
        for (key, value) in &mut fields {
            if key == "mean" || key == "cumulative" {
                *value = float_value(f64::NAN);
            }
        }
        let state = serde::Value::Object(fields);
        let mut restored = PageHinkley::with_defaults();
        restored.restore_state(&state).unwrap();
        assert!(restored.cumulative.is_nan());
        assert_eq!(restored.snapshot_state(), state);
    }

    /// One NaN or ±inf must not silence the detector, alone or as a
    /// cascade's guard. The stream has 10% errors, rising to 50% from
    /// element 3,000, with the poison value at element 1,500; the poisoned
    /// run must still catch that drift close to where its clean twin does.
    #[test]
    fn non_finite_value_does_not_silence_the_detector() {
        let clean: Vec<f64> = (0..6_000u64)
            .map(|i| bernoulli(i, if i < 3_000 { 0.1 } else { 0.5 }))
            .collect();
        let first_after_drift = |drifts: Vec<usize>| drifts.into_iter().find(|&i| i >= 3_000);
        for spec in [
            "page_hinkley",
            "cascade:guard=page_hinkley,confirm=[optwin:w_max=2000]",
        ] {
            let spec: crate::DetectorSpec = spec.parse().unwrap();
            let clean_at = first_after_drift(spec.build().unwrap().add_batch(&clean).drift_indices)
                .unwrap_or_else(|| panic!("{spec}: the clean stream's drift is missed"));
            for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut stream = clean.clone();
                stream[1_500] = poison;
                let at = first_after_drift(spec.build().unwrap().add_batch(&stream).drift_indices);
                let at = at.unwrap_or_else(|| panic!("{spec} went silent after {poison}"));
                assert!(
                    at.abs_diff(clean_at) <= 100,
                    "{spec} after {poison}: drift at {at}, clean twin at {clean_at}"
                );
            }
        }
    }
}
