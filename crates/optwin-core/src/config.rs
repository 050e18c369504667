//! OPTWIN configuration.

use crate::{CoreError, Result};

/// Largest window any detector may be configured with: OPTWIN's `w_min` and
/// `w_max`, KSWIN's and STEPD's `window_size`, and a cascade's `replay`.
///
/// Each of these sizes an allocation made when the detector is built, before
/// any data arrives, so an unbounded value aborts the process on a failed
/// allocation instead of returning an error. 2^22 = 4,194,304 elements is
/// 168× the paper's `w_max` of 25,000. At the cap an OPTWIN cut table takes
/// ~370 MB (88 B per entry) and its window ring 32 MiB, so one detector's
/// up-front allocations stay well under 1 GiB. The table is computed in
/// full when first served, and its fill time grows with `w_max`: the
/// paper's 25,000 entries take about 0.55 s on two cores.
pub const MAX_WINDOW: usize = 1 << 22;

/// Checks one window size against [`MAX_WINDOW`].
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] naming `field` when `size` exceeds
/// [`MAX_WINDOW`].
pub fn check_window_size(field: &'static str, size: usize) -> Result<()> {
    if size > MAX_WINDOW {
        return Err(CoreError::InvalidConfig {
            field,
            message: format!("must be at most {MAX_WINDOW}, got {size}"),
        });
    }
    Ok(())
}

/// Which direction of change should be reported as a drift.
///
/// The paper's Algorithm 1 is symmetric (any significant change in mean or
/// standard deviation is a drift), but §3.4 notes that the implementation
/// used in the experiments only reports a drift when the learner got *worse*
/// (`μ_new ≥ μ_hist`), because that is when retraining is useful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DriftDirection {
    /// Only flag drifts where the error mean increased (the paper's
    /// experimental setting; the default).
    #[default]
    DegradationOnly,
    /// Flag drifts in either direction (the setting analysed by
    /// Theorem 3.1).
    Both,
}

/// Configuration for the [`crate::Optwin`] detector.
///
/// Use [`OptwinConfig::builder`] to construct one; the builder validates all
/// parameters and fills in the paper's defaults (`δ = 0.99`, `ρ = 0.5`,
/// `w_min = 30`, `w_max = 25 000`, `η = 1e-5`).
#[derive(Debug, Clone, PartialEq)]
pub struct OptwinConfig {
    /// Confidence level δ ∈ (0, 1) for the drift detection. Each of the four
    /// internal test applications uses `δ' = δ^(1/4)`.
    pub delta: f64,
    /// Robustness ρ ∈ (0, ∞): the minimum ratio by which `μ_new` must vary
    /// relative to `σ_hist` to count as a concept drift.
    pub rho: f64,
    /// Minimum window size before any detection is attempted (the paper
    /// fixes this to 30).
    pub w_min: usize,
    /// Maximum window size `w_max ∈ [w_min, ∞)`.
    pub w_max: usize,
    /// Small stabiliser added to both standard deviations in the f-test to
    /// avoid division by zero (the paper uses `1e-5`).
    pub eta: f64,
    /// Drift direction filter (see [`DriftDirection`]).
    pub direction: DriftDirection,
    /// Optional warning confidence level. When set (e.g. `0.95`), the
    /// detector reports [`crate::DriftStatus::Warning`] when the tests reject
    /// at this relaxed confidence but not yet at `delta`. `None` disables
    /// warning reporting.
    pub warning_delta: Option<f64>,
}

impl Default for OptwinConfig {
    fn default() -> Self {
        Self {
            delta: 0.99,
            rho: 0.5,
            w_min: 30,
            w_max: 25_000,
            eta: 1e-5,
            direction: DriftDirection::DegradationOnly,
            warning_delta: Some(0.95),
        }
    }
}

impl OptwinConfig {
    /// Starts building a configuration from the paper's defaults.
    #[must_use]
    pub fn builder() -> OptwinConfigBuilder {
        OptwinConfigBuilder::default()
    }

    /// The per-test confidence `δ' = δ^(1/4)` (§3.3 of the paper: two tests
    /// are used to find the cut and two to check it).
    #[must_use]
    pub fn delta_prime(&self) -> f64 {
        self.delta.powf(0.25)
    }

    /// The per-test warning confidence, if warnings are enabled.
    #[must_use]
    pub fn warning_delta_prime(&self) -> Option<f64> {
        self.warning_delta.map(|d| d.powf(0.25))
    }

    /// Validates every field, returning a description of the first violation
    /// found. Window sizes above [`MAX_WINDOW`] are rejected.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if any parameter is out of range.
    pub fn validate(&self) -> Result<()> {
        if !(self.delta > 0.0 && self.delta < 1.0) {
            return Err(CoreError::InvalidConfig {
                field: "delta",
                message: format!("must lie in (0, 1), got {}", self.delta),
            });
        }
        if let Some(w) = self.warning_delta {
            if !(w > 0.0 && w < 1.0) {
                return Err(CoreError::InvalidConfig {
                    field: "warning_delta",
                    message: format!("must lie in (0, 1), got {w}"),
                });
            }
            if w >= self.delta {
                return Err(CoreError::InvalidConfig {
                    field: "warning_delta",
                    message: format!("must be strictly below delta ({}), got {w}", self.delta),
                });
            }
        }
        if !(self.rho > 0.0) || !self.rho.is_finite() {
            return Err(CoreError::InvalidConfig {
                field: "rho",
                message: format!("must be positive and finite, got {}", self.rho),
            });
        }
        if self.w_min < 5 {
            return Err(CoreError::InvalidConfig {
                field: "w_min",
                message: format!("must be at least 5, got {}", self.w_min),
            });
        }
        if self.w_max < self.w_min {
            return Err(CoreError::InvalidConfig {
                field: "w_max",
                message: format!(
                    "must be at least w_min ({}), got {}",
                    self.w_min, self.w_max
                ),
            });
        }
        check_window_size("w_min", self.w_min)?;
        check_window_size("w_max", self.w_max)?;
        if !(self.eta >= 0.0) || !self.eta.is_finite() {
            return Err(CoreError::InvalidConfig {
                field: "eta",
                message: format!("must be non-negative and finite, got {}", self.eta),
            });
        }
        Ok(())
    }
}

/// Builder for [`OptwinConfig`].
#[derive(Debug, Clone, Default)]
pub struct OptwinConfigBuilder {
    config: OptwinConfig,
}

impl OptwinConfigBuilder {
    /// Sets the detection confidence δ (default `0.99`).
    #[must_use]
    pub fn confidence(mut self, delta: f64) -> Self {
        self.config.delta = delta;
        self
    }

    /// Sets the robustness ρ (default `0.5`).
    #[must_use]
    pub fn robustness(mut self, rho: f64) -> Self {
        self.config.rho = rho;
        self
    }

    /// Sets the minimum window size (default `30`).
    #[must_use]
    pub fn min_window(mut self, w_min: usize) -> Self {
        self.config.w_min = w_min;
        self
    }

    /// Sets the maximum window size (default `25_000`).
    #[must_use]
    pub fn max_window(mut self, w_max: usize) -> Self {
        self.config.w_max = w_max;
        self
    }

    /// Sets the f-test stabiliser η (default `1e-5`).
    #[must_use]
    pub fn eta(mut self, eta: f64) -> Self {
        self.config.eta = eta;
        self
    }

    /// Sets the drift-direction filter (default
    /// [`DriftDirection::DegradationOnly`]).
    #[must_use]
    pub fn direction(mut self, direction: DriftDirection) -> Self {
        self.config.direction = direction;
        self
    }

    /// Enables warning reporting at the given confidence (default `0.95`), or
    /// disables it with `None`.
    #[must_use]
    pub fn warning_confidence(mut self, delta: Option<f64>) -> Self {
        self.config.warning_delta = delta;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if any parameter is out of range.
    pub fn build(self) -> Result<OptwinConfig> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = OptwinConfig::default();
        assert_eq!(c.delta, 0.99);
        assert_eq!(c.rho, 0.5);
        assert_eq!(c.w_min, 30);
        assert_eq!(c.w_max, 25_000);
        assert_eq!(c.eta, 1e-5);
        assert_eq!(c.direction, DriftDirection::DegradationOnly);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn delta_prime_is_fourth_root() {
        let c = OptwinConfig::default();
        assert!((c.delta_prime() - 0.99_f64.powf(0.25)).abs() < 1e-15);
        assert!((c.warning_delta_prime().unwrap() - 0.95_f64.powf(0.25)).abs() < 1e-15);
    }

    #[test]
    fn builder_sets_all_fields() {
        let c = OptwinConfig::builder()
            .confidence(0.999)
            .robustness(0.1)
            .min_window(50)
            .max_window(500)
            .eta(1e-6)
            .direction(DriftDirection::Both)
            .warning_confidence(None)
            .build()
            .unwrap();
        assert_eq!(c.delta, 0.999);
        assert_eq!(c.rho, 0.1);
        assert_eq!(c.w_min, 50);
        assert_eq!(c.w_max, 500);
        assert_eq!(c.eta, 1e-6);
        assert_eq!(c.direction, DriftDirection::Both);
        assert_eq!(c.warning_delta, None);
    }

    #[test]
    fn rejects_invalid_values() {
        assert!(OptwinConfig::builder().confidence(0.0).build().is_err());
        assert!(OptwinConfig::builder().confidence(1.0).build().is_err());
        assert!(OptwinConfig::builder().robustness(0.0).build().is_err());
        assert!(OptwinConfig::builder()
            .robustness(f64::NAN)
            .build()
            .is_err());
        assert!(OptwinConfig::builder().min_window(2).build().is_err());
        assert!(OptwinConfig::builder()
            .min_window(100)
            .max_window(50)
            .build()
            .is_err());
        assert!(OptwinConfig::builder().eta(-1.0).build().is_err());
        assert!(OptwinConfig::builder()
            .warning_confidence(Some(0.999))
            .build()
            .is_err());
        assert!(OptwinConfig::builder()
            .warning_confidence(Some(1.5))
            .build()
            .is_err());
    }

    #[test]
    fn error_messages_name_the_field() {
        let err = OptwinConfig::builder().confidence(2.0).build().unwrap_err();
        assert!(err.to_string().contains("delta"));
        let err = OptwinConfig::builder()
            .min_window(100)
            .max_window(10)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("w_max"));
    }
}
