//! The OPTWIN drift detector (Algorithm 1 of the paper).

use std::sync::Arc;

use crate::config::{DriftDirection, OptwinConfig};
use crate::cut::{CutEntry, CutTable};
use crate::detector::{DriftDetector, DriftStatus};
use crate::window::SplitWindow;
use crate::Result;

/// The OPTWIN ("OPTimal WINdow") concept-drift detector.
///
/// See the crate-level documentation for the algorithm overview and
/// [`OptwinConfig`] for the tunable parameters. The detector ingests one
/// error observation per learner prediction via
/// [`DriftDetector::add_element`]; each call costs amortized O(1). Its
/// [`CutTable`] is complete for `[w_min, w_max]` before the constructor
/// returns, so ingestion only indexes it.
#[derive(Debug, Clone)]
pub struct Optwin {
    config: OptwinConfig,
    cut: Arc<CutTable>,
    window: SplitWindow,
    /// Number of window elements that are not exactly 0.0 or 1.0. When this
    /// is zero the stream is binary and the variance-ratio test is skipped
    /// (see `tests_reject` for the rationale).
    non_binary_in_window: usize,
    last_status: DriftStatus,
    elements_seen: u64,
    drifts_detected: u64,
    warnings_detected: u64,
}

/// The per-split test statistics consulted by both the drift and the warning
/// thresholds. Computed **once** per window evaluation: the statistics depend
/// only on the window and the split, not on the critical values, so the
/// warning check reuses them instead of redoing the sqrt/divide work.
///
/// All gates are plain booleans combined without short-circuiting in
/// [`TestStatistics::rejects`]; the floating-point computations have no side
/// effects, so the statistics can be computed (or skipped) independently of
/// the threshold checks without changing any decision. A statistic whose gate
/// is closed is never compared, so its lane holds a placeholder `0.0`.
#[derive(Debug, Clone, Copy)]
struct TestStatistics {
    /// Degradation-direction gate (§3.4): false suppresses both tests.
    direction_ok: bool,
    /// F-test eligibility: non-binary window contents *and* the §3.1 spread
    /// margin hold.
    f_applicable: bool,
    /// Variance-ratio statistic (η-stabilised); placeholder `0.0` while
    /// `direction_ok & f_applicable` is closed.
    f_value: f64,
    /// Mean robustness margin (§3.1): `|μ_new − μ_hist| ≥ ρ·σ_hist`.
    mean_margin_ok: bool,
    /// Welch t statistic magnitude; placeholder `0.0` while
    /// `direction_ok & mean_margin_ok` is closed.
    t_value: f64,
}

impl TestStatistics {
    /// `true` when either test rejects at the supplied critical values.
    #[inline]
    fn rejects(&self, t_crit: f64, f_crit: f64) -> bool {
        self.direction_ok
            & ((self.f_applicable & (self.f_value > f_crit))
                | (self.mean_margin_ok & (self.t_value > t_crit)))
    }
}

impl Optwin {
    /// Creates a detector with the given configuration. Its cut table is
    /// interned in the process-wide [`crate::CutTableRegistry`]: every
    /// detector with an equal `(δ, warning δ, ρ, w_min)` shares one table,
    /// whatever its `w_max`, so a table's entries are computed once per
    /// process however many detectors (or engine streams) use it. The first
    /// detector of a key (or of a larger `w_max` than its table covers)
    /// computes the table in full, on this thread and the scoped threads it
    /// spawns; ingestion never computes an entry.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::InvalidConfig`] if the configuration is
    /// invalid.
    pub fn new(config: OptwinConfig) -> Result<Self> {
        let cut = crate::CutTableRegistry::global().get_or_build(&config)?;
        let capacity = config.w_max;
        Ok(Self {
            config,
            cut,
            window: SplitWindow::with_capacity(capacity),
            non_binary_in_window: 0,
            last_status: DriftStatus::Stable,
            elements_seen: 0,
            drifts_detected: 0,
            warnings_detected: 0,
        })
    }

    /// Creates a detector with the paper's default configuration
    /// (`δ = 0.99`, `ρ = 0.5`, `w_max = 25 000`).
    ///
    /// # Errors
    ///
    /// Never fails in practice (the defaults are valid); the `Result` is kept
    /// for signature uniformity.
    pub fn with_defaults() -> Result<Self> {
        Self::new(OptwinConfig::default())
    }

    /// The configuration this detector was built with.
    #[must_use]
    pub fn config(&self) -> &OptwinConfig {
        &self.config
    }

    /// The cut table backing this detector (shareable with other instances).
    #[must_use]
    pub fn cut_table(&self) -> Arc<CutTable> {
        Arc::clone(&self.cut)
    }

    /// Current window length.
    #[must_use]
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// The most recent status reported by [`DriftDetector::add_element`].
    #[must_use]
    pub fn last_status(&self) -> DriftStatus {
        self.last_status
    }

    /// Number of warnings reported since construction.
    #[must_use]
    pub fn warnings_detected(&self) -> u64 {
        self.warnings_detected
    }

    /// Mean of the current `W_hist` sub-window (diagnostics).
    #[must_use]
    pub fn hist_mean(&self) -> f64 {
        self.window.hist_mean()
    }

    /// Mean of the current `W_new` sub-window (diagnostics).
    #[must_use]
    pub fn new_mean(&self) -> f64 {
        self.window.new_mean()
    }

    /// Computes the t- and f-test statistics and their eligibility gates for
    /// the current window split. The result is checked against the drift and
    /// warning critical values via [`TestStatistics::rejects`] — one
    /// computation serves both threshold pairs.
    ///
    /// Two interpretation choices (documented in DESIGN.md §5) are applied on
    /// top of the literal Algorithm 1:
    ///
    /// * **Robustness margin for the mean test.** §3.1 defines ρ as "the
    ///   minimum ratio by which μ_new has to vary in relation to σ_hist to
    ///   count as a concept drift", so the t-test branch additionally
    ///   requires `|μ_new − μ_hist| ≥ ρ·σ_hist`. Without this margin the
    ///   t-test rejects on arbitrarily small (but statistically significant)
    ///   fluctuations once the window is long, which contradicts both the
    ///   definition of ρ and the near-zero false-positive rates reported in
    ///   the paper.
    /// * **Variance test only for non-binary streams.** For a Bernoulli
    ///   error stream the variance is a deterministic function of the mean
    ///   (σ² = p(1−p)), the sample variance ratio is far from
    ///   F-distributed, and the f-test would fire on ordinary sampling
    ///   noise. The f-test is therefore only applied when the window
    ///   contains at least one non-{0,1} value; binary streams are covered
    ///   by the (margin-gated) mean test, exactly like the binomial-based
    ///   baselines (DDM, ECDD).
    fn compute_statistics(&self, entry: &CutEntry) -> TestStatistics {
        let n_hist = entry.split as f64;
        let n_new = (entry.window_len - entry.split) as f64;

        let mean_hist = self.window.hist_mean();
        let mean_new = self.window.new_mean();
        let std_hist = self.window.hist_std();

        // Optional degradation-only gate (§3.4): only changes where the error
        // mean did not decrease are eligible.
        let direction_ok =
            !(self.config.direction == DriftDirection::DegradationOnly && mean_new < mean_hist);

        // Robustness margin (§3.1): μ_new must differ from μ_hist by at least
        // ρ·σ_hist before the mean-shift branch may flag a drift. Written as
        // `!(<)` so a NaN margin comparison keeps the original fall-through
        // behaviour.
        let mean_diff = (mean_hist - mean_new).abs();
        let mean_margin_ok = !(mean_diff < self.config.rho * std_hist);

        // σ_new feeds only the f-branch (dead on binary windows) and the
        // t-statistic's standard error (dead while the margin gate is
        // closed). When both consumers are masked off its sqrt is skipped;
        // the placeholder is never read because every use below sits behind
        // one of these two masks.
        let non_binary = self.non_binary_in_window > 0;
        let t_open = direction_ok & mean_margin_ok;
        let std_new = if non_binary | t_open {
            self.window.new_std()
        } else {
            0.0
        };

        // f-test (Algorithm 1, line 11) with the η stabiliser; see above for
        // the binary-content gate. The same §3.1 robustness margin is applied
        // to the spread: the new standard deviation must exceed the
        // historical one by at least ρ·σ_hist (or fall below it by that much
        // in the symmetric configuration) before the statistical test is
        // consulted.
        let f_margin_ok = match self.config.direction {
            DriftDirection::DegradationOnly => std_new - std_hist >= self.config.rho * std_hist,
            DriftDirection::Both => (std_new - std_hist).abs() >= self.config.rho * std_hist,
        };
        let f_applicable = non_binary & f_margin_ok;

        // The statistic is consulted by `TestStatistics::rejects` only behind
        // the `direction_ok & f_applicable` mask, so when that mask is closed
        // the value is dead and the two squarings and the division can be
        // skipped without changing any decision (the placeholder 0.0 is
        // never compared). On binary streams this removes the whole f-branch
        // from the per-element cost.
        let eta = self.config.eta;
        let f_value = if direction_ok & f_applicable {
            (std_new + eta).powi(2) / (std_hist + eta).powi(2)
        } else {
            0.0
        };

        // Welch t-test (Algorithm 1, line 14). The magnitude of the statistic
        // is compared against the one-sided critical value; with the
        // degradation gate above this amounts to testing μ_new > μ_hist.
        // Masked the same way as the f-statistic: when the robustness margin
        // already rules the mean branch out (the overwhelmingly common case
        // on a stationary stream), the standard-error square root is dead
        // work and is skipped.
        let t_value = if direction_ok & mean_margin_ok {
            let se = (std_hist * std_hist / n_hist + std_new * std_new / n_new).sqrt();
            if se > 0.0 {
                mean_diff / se
            } else if mean_diff == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            0.0
        };

        TestStatistics {
            direction_ok,
            f_applicable,
            f_value,
            mean_margin_ok,
            t_value,
        }
    }

    /// `true` when a value is an exact binary error indicator.
    fn is_binary(value: f64) -> bool {
        value == 0.0 || value == 1.0
    }

    /// Appends `value` to the window, evicting the oldest element when the
    /// window is at `w_max` (Algorithm 1, lines 5–6) and maintaining the
    /// binary-content counter.
    #[inline]
    fn push_value(&mut self, value: f64) {
        self.elements_seen += 1;
        if self.window.len() == self.config.w_max {
            if let Some(popped) = self.window.pop_front() {
                if !Self::is_binary(popped) {
                    self.non_binary_in_window = self.non_binary_in_window.saturating_sub(1);
                }
            }
        }
        self.window.push(value);
        if !Self::is_binary(value) {
            self.non_binary_in_window += 1;
        }
    }

    /// The cut-table entry for the current window length (Algorithm 1,
    /// lines 7–10). The table covers `[w_min, w_max]` of this detector's
    /// configuration, and evaluation only runs at window lengths in that
    /// range, so the index never fails.
    #[inline]
    fn current_entry(&self) -> CutEntry {
        self.cut.entries()[self.window.len() - self.config.w_min]
    }

    /// Applies the split and runs the drift/warning tests for the current
    /// window against `entry` (Algorithm 1, lines 7–16), updating every
    /// counter.
    #[inline]
    fn evaluate_window(&mut self, entry: &CutEntry) -> DriftStatus {
        self.window.set_split(entry.split);
        let stats = self.compute_statistics(entry);

        // Drift tests (lines 11–16).
        if stats.rejects(entry.t_crit, entry.f_crit) {
            self.drifts_detected += 1;
            self.window.clear();
            self.non_binary_in_window = 0;
            self.last_status = DriftStatus::Drift;
            return self.last_status;
        }

        // Warning zone: the relaxed thresholds reject but the strict ones do
        // not. The statistics are reused — only the threshold comparison
        // differs between the two checks.
        if let (Some(t_warn), Some(f_warn)) = (entry.t_warn, entry.f_warn) {
            if stats.rejects(t_warn, f_warn) {
                self.warnings_detected += 1;
                self.last_status = DriftStatus::Warning;
                return self.last_status;
            }
        }

        self.last_status = DriftStatus::Stable;
        self.last_status
    }
}

/// Serialization format version of [`Optwin`]'s state snapshot.
const SNAPSHOT_VERSION: u64 = 1;

/// Serializes a raw `WindowMoments` accumulator as a 4-element array.
fn moments_to_value(raw: (u64, f64, f64, f64)) -> serde::Value {
    use crate::snapshot::float_value;
    serde::Value::Array(vec![
        serde::Value::UInt(raw.0),
        float_value(raw.1),
        float_value(raw.2),
        float_value(raw.3),
    ])
}

/// Parses a 4-element array back into a raw `WindowMoments` accumulator.
fn moments_from_value(value: &serde::Value, field: &str) -> Result<(u64, f64, f64, f64)> {
    let invalid = |message: String| crate::CoreError::InvalidSnapshot { message };
    let serde::Value::Array(items) = value else {
        return Err(invalid(format!("`{field}` must be a 4-element array")));
    };
    if items.len() != 4 {
        return Err(invalid(format!(
            "`{field}` must have 4 elements, got {}",
            items.len()
        )));
    }
    let count = <u64 as serde::Deserialize>::from_value(&items[0])
        .map_err(|e| invalid(format!("`{field}[0]`: {e}")))?;
    let mut floats = [0.0; 3];
    for (k, slot) in floats.iter_mut().enumerate() {
        // Non-finite accumulators restore verbatim: a window fed ±1e300
        // legitimately saturates its sum-of-squares to +inf, and restore
        // must accept every state `snapshot_state` can emit.
        *slot = crate::snapshot::float_from_value(&items[k + 1])
            .map_err(|e| invalid(format!("`{field}[{}]`: {e}", k + 1)))?;
    }
    Ok((count, floats[0], floats[1], floats[2]))
}

use crate::snapshot::{check_version, field as snapshot_field, invalid as invalid_snapshot};

impl DriftDetector for Optwin {
    fn add_element(&mut self, value: f64) -> DriftStatus {
        self.push_value(value);

        // Not enough data yet (Algorithm 1, lines 3–4).
        if self.window.len() < self.config.w_min {
            self.last_status = DriftStatus::Stable;
            return self.last_status;
        }

        // Optimal cut lookup and split maintenance (lines 7–10).
        let entry = self.current_entry();
        self.evaluate_window(&entry)
    }

    fn reset(&mut self) {
        self.window.clear();
        self.non_binary_in_window = 0;
        self.last_status = DriftStatus::Stable;
    }

    fn name(&self) -> &'static str {
        "OPTWIN"
    }

    fn elements_seen(&self) -> u64 {
        self.elements_seen
    }

    fn drifts_detected(&self) -> u64 {
        self.drifts_detected
    }

    fn supports_real_valued_input(&self) -> bool {
        true
    }

    /// Struct size plus the eagerly allocated `w_max`-sized window ring.
    /// The `Arc<CutTable>` is excluded: [`Optwin::new`] takes it from the
    /// registry, which shares one table among all detectors with the same
    /// `(δ, warning δ, ρ, w_min)`, so it is fleet-amortized cost, not
    /// per-stream cost.
    fn mem_footprint(&self) -> usize {
        std::mem::size_of_val(self) + self.window.heap_bytes()
    }

    /// Serializes the full mutable state: window contents (a compact binary
    /// blob — the window can hold `w_max` elements), split point, the two
    /// raw moment accumulators (bit-exact — see
    /// [`SplitWindow::from_state`]), the binary-content counter, and the
    /// lifetime counters. The immutable configuration and the cut table are
    /// *not* serialized; restoration happens into a detector constructed with
    /// the same configuration (`w_max` is embedded for validation).
    fn snapshot_state(&self) -> Option<serde::Value> {
        use serde::Serialize as _;
        Some(serde::Value::Object(vec![
            ("version".to_string(), serde::Value::UInt(SNAPSHOT_VERSION)),
            (
                "w_max".to_string(),
                serde::Value::UInt(self.config.w_max as u64),
            ),
            (
                "window".to_string(),
                crate::snapshot::encode_f64_seq(&self.window.to_vec()),
            ),
            (
                "split".to_string(),
                serde::Value::UInt(self.window.split() as u64),
            ),
            (
                "hist_moments".to_string(),
                moments_to_value(self.window.hist_moments_raw()),
            ),
            (
                "new_moments".to_string(),
                moments_to_value(self.window.new_moments_raw()),
            ),
            (
                "non_binary_in_window".to_string(),
                serde::Value::UInt(self.non_binary_in_window as u64),
            ),
            ("last_status".to_string(), self.last_status.to_value()),
            (
                "elements_seen".to_string(),
                serde::Value::UInt(self.elements_seen),
            ),
            (
                "drifts_detected".to_string(),
                serde::Value::UInt(self.drifts_detected),
            ),
            (
                "warnings_detected".to_string(),
                serde::Value::UInt(self.warnings_detected),
            ),
        ]))
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<()> {
        let invalid = |message: String| invalid_snapshot(message);
        check_version(state, SNAPSHOT_VERSION, "OPTWIN")?;
        let w_max: u64 = snapshot_field(state, "w_max")?;
        if w_max != self.config.w_max as u64 {
            return Err(invalid(format!(
                "snapshot was taken with w_max = {w_max}, detector has w_max = {}",
                self.config.w_max
            )));
        }
        // Window elements are raw user input and restore verbatim —
        // `add_element` never rejected them, so restore cannot either.
        let values: Vec<f64> = crate::snapshot::f64_seq_field(state, "window")?;
        let split = usize::try_from(snapshot_field::<u64>(state, "split")?)
            .map_err(|_| invalid("`split` out of range".to_string()))?;
        let hist_raw = moments_from_value(
            state
                .get("hist_moments")
                .ok_or_else(|| invalid("missing field `hist_moments`".to_string()))?,
            "hist_moments",
        )?;
        let new_raw = moments_from_value(
            state
                .get("new_moments")
                .ok_or_else(|| invalid("missing field `new_moments`".to_string()))?,
            "new_moments",
        )?;
        let window = SplitWindow::from_state(self.config.w_max, &values, split, hist_raw, new_raw)
            .ok_or_else(|| {
                invalid(format!(
                    "inconsistent window state (len {}, split {split}, capacity {})",
                    values.len(),
                    self.config.w_max
                ))
            })?;

        let non_binary = usize::try_from(snapshot_field::<u64>(state, "non_binary_in_window")?)
            .map_err(|_| invalid("`non_binary_in_window` out of range".to_string()))?;
        if non_binary > values.len() {
            return Err(invalid(format!(
                "non_binary_in_window ({non_binary}) exceeds window length ({})",
                values.len()
            )));
        }
        // Parse everything before assigning anything: a failure below must
        // leave the detector exactly as it was, never half-restored.
        let last_status: DriftStatus = snapshot_field(state, "last_status")?;
        let elements_seen: u64 = snapshot_field(state, "elements_seen")?;
        let drifts_detected: u64 = snapshot_field(state, "drifts_detected")?;
        let warnings_detected: u64 = snapshot_field(state, "warnings_detected")?;

        self.window = window;
        self.non_binary_in_window = non_binary;
        self.last_status = last_status;
        self.elements_seen = elements_seen;
        self.drifts_detected = drifts_detected;
        self.warnings_detected = warnings_detected;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(rho: f64) -> OptwinConfig {
        OptwinConfig::builder()
            .robustness(rho)
            .max_window(1_000)
            .build()
            .unwrap()
    }

    /// Deterministic pseudo-noise in [-0.5, 0.5) used to avoid zero variances
    /// without pulling in a RNG dependency.
    fn jitter(i: u64) -> f64 {
        let x = i
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    }

    /// OPTWIN's inline statistics against the textbook formulas, computed
    /// from the two sub-window slices: Welch's t (Algorithm 1, line 14) and
    /// the η-stabilised variance ratio (line 11).
    #[test]
    fn inline_statistics_match_textbook_welch_t_and_variance_ratio() {
        use optwin_stats::descriptive::{mean, sample_variance};

        let mut d = Optwin::new(small_config(0.5)).unwrap();
        let w = 400;
        let entry = d.cut.entry(w).unwrap();
        // Non-binary values whose mean and spread both rise at the split.
        for i in 0..w {
            let noise = jitter(i as u64);
            d.push_value(if i < entry.split {
                0.2 + 0.05 * noise
            } else {
                0.5 + 0.3 * noise
            });
        }
        d.window.set_split(entry.split);
        let stats = d.compute_statistics(&entry);
        // Every gate is open, so both lanes hold real statistics.
        assert!(stats.direction_ok && stats.mean_margin_ok && stats.f_applicable);

        let values = d.window.to_vec();
        let (hist, new) = values.split_at(entry.split);
        let (mean_hist, mean_new) = (mean(hist).unwrap(), mean(new).unwrap());
        let (var_hist, var_new) = (
            sample_variance(hist).unwrap(),
            sample_variance(new).unwrap(),
        );
        let welch_t = (mean_new - mean_hist)
            / (var_hist / hist.len() as f64 + var_new / new.len() as f64).sqrt();
        let eta = d.config.eta;
        let ratio = ((var_new.sqrt() + eta) / (var_hist.sqrt() + eta)).powi(2);
        assert!(
            (stats.t_value - welch_t).abs() <= 1e-9 * welch_t,
            "t: {} vs {welch_t}",
            stats.t_value
        );
        assert!(
            (stats.f_value - ratio).abs() <= 1e-9 * ratio,
            "f: {} vs {ratio}",
            stats.f_value
        );
    }

    #[test]
    fn no_detection_before_w_min() {
        let mut d = Optwin::new(small_config(0.5)).unwrap();
        for i in 0..29 {
            assert_eq!(
                d.add_element(if i % 2 == 0 { 0.0 } else { 1.0 }),
                DriftStatus::Stable
            );
        }
        assert_eq!(d.window_len(), 29);
    }

    #[test]
    fn stationary_stream_produces_no_drift() {
        let mut d = Optwin::new(small_config(0.5)).unwrap();
        // Stationary noisy error rate around 0.2.
        for i in 0..5_000u64 {
            let x = 0.2 + 0.05 * jitter(i);
            let status = d.add_element(x);
            assert_ne!(status, DriftStatus::Drift, "false positive at element {i}");
        }
        assert_eq!(d.drifts_detected(), 0);
    }

    #[test]
    fn sudden_mean_increase_is_detected_quickly() {
        let mut d = Optwin::new(small_config(0.5)).unwrap();
        let mut detected_at = None;
        for i in 0..3_000u64 {
            let base = if i < 1_500 { 0.10 } else { 0.45 };
            let x = base + 0.05 * jitter(i);
            if d.add_element(x) == DriftStatus::Drift {
                detected_at = Some(i);
                break;
            }
        }
        let at = detected_at.expect("drift must be detected");
        assert!(at >= 1_500, "false positive at {at}");
        assert!(
            at < 1_500 + 400,
            "detection delay too large: {}",
            at - 1_500
        );
    }

    #[test]
    fn variance_only_change_is_detected() {
        // The paper's motivating example: identical means, very different
        // spread. ADWIN-style mean-only detectors cannot see this.
        let mut d = Optwin::new(
            OptwinConfig::builder()
                .robustness(0.5)
                .max_window(1_000)
                .direction(DriftDirection::Both)
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut detected_at = None;
        for i in 0..3_000u64 {
            let x = if i < 1_500 {
                // Mean 0.5, small spread.
                0.5 + 0.1 * jitter(i)
            } else {
                // Mean 0.5, extreme spread (alternating 0 / 1).
                if i % 2 == 0 {
                    0.0
                } else {
                    1.0
                }
            };
            if d.add_element(x) == DriftStatus::Drift {
                detected_at = Some(i);
                break;
            }
        }
        let at = detected_at.expect("variance drift must be detected");
        assert!(at >= 1_500, "false positive at {at}");
        assert!(at < 1_800, "variance detection delay too large: {at}");
    }

    #[test]
    fn degradation_only_ignores_improvement() {
        // Error rate drops sharply; with the default degradation-only gate no
        // drift should be reported.
        let mut d = Optwin::new(small_config(0.5)).unwrap();
        for i in 0..3_000u64 {
            let base = if i < 1_500 { 0.45 } else { 0.10 };
            let x = base + 0.05 * jitter(i);
            assert_ne!(
                d.add_element(x),
                DriftStatus::Drift,
                "improvement flagged as drift at {i}"
            );
        }
        // The symmetric configuration does flag it.
        let mut d = Optwin::new(
            OptwinConfig::builder()
                .robustness(0.5)
                .max_window(1_000)
                .direction(DriftDirection::Both)
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut found = false;
        for i in 0..3_000u64 {
            let base = if i < 1_500 { 0.45 } else { 0.10 };
            let x = base + 0.05 * jitter(i);
            if d.add_element(x) == DriftStatus::Drift {
                found = true;
                assert!(i >= 1_500);
                break;
            }
        }
        assert!(found, "symmetric detector must flag the improvement");
    }

    #[test]
    fn detector_resets_after_drift_and_keeps_working() {
        let mut d = Optwin::new(small_config(1.0)).unwrap();
        let mut detections = Vec::new();
        for i in 0..6_000u64 {
            // Three regimes; two upward drifts.
            let base = match i {
                0..=1_999 => 0.05,
                2_000..=3_999 => 0.30,
                _ => 0.60,
            };
            let x = (base + 0.05 * jitter(i)).clamp(0.0, 1.0);
            if d.add_element(x) == DriftStatus::Drift {
                detections.push(i);
            }
        }
        assert_eq!(d.drifts_detected() as usize, detections.len());
        assert!(
            detections.len() >= 2,
            "expected both drifts, got {detections:?}"
        );
        assert!(detections.iter().any(|&i| (2_000..2_600).contains(&i)));
        assert!(detections.iter().any(|&i| (4_000..4_600).contains(&i)));
        // After a detection the window restarts.
        assert!(d.window_len() < 6_000);
    }

    #[test]
    fn warning_precedes_drift_for_gradual_change() {
        let mut d = Optwin::new(small_config(0.5)).unwrap();
        let mut first_warning = None;
        let mut first_drift = None;
        for i in 0..6_000u64 {
            // Slow linear ramp from 0.1 to 0.5 between 2000 and 4000.
            let base = if i < 2_000 {
                0.1
            } else if i < 4_000 {
                0.1 + 0.4 * ((i - 2_000) as f64 / 2_000.0)
            } else {
                0.5
            };
            let x = (base + 0.04 * jitter(i)).clamp(0.0, 1.0);
            match d.add_element(x) {
                DriftStatus::Warning if first_warning.is_none() => first_warning = Some(i),
                DriftStatus::Drift if first_drift.is_none() => {
                    first_drift = Some(i);
                    break;
                }
                _ => {}
            }
        }
        let drift = first_drift.expect("gradual drift must eventually be detected");
        assert!(drift >= 2_000);
        if let Some(w) = first_warning {
            assert!(w <= drift, "warning should not come after the drift");
        }
        assert!(d.warnings_detected() > 0 || first_warning.is_none());
    }

    #[test]
    fn shared_cut_table_between_detectors() {
        let config = small_config(0.5);
        let mut d1 = Optwin::new(config.clone()).unwrap();
        let mut d2 = Optwin::new(config).unwrap();
        assert!(Arc::ptr_eq(&d1.cut_table(), &d2.cut_table()));
        // Identical inputs produce identical outputs.
        for i in 0..2_000u64 {
            let base = if i < 1_000 { 0.1 } else { 0.5 };
            let x = base + 0.05 * jitter(i);
            assert_eq!(d1.add_element(x), d2.add_element(x));
        }
        assert_eq!(d1.drifts_detected(), d2.drifts_detected());
    }

    #[test]
    fn manual_reset_clears_window_but_not_counters() {
        let mut d = Optwin::new(small_config(0.5)).unwrap();
        for i in 0..100u64 {
            d.add_element(0.2 + 0.01 * jitter(i));
        }
        assert_eq!(d.elements_seen(), 100);
        d.reset();
        assert_eq!(d.window_len(), 0);
        assert_eq!(d.elements_seen(), 100);
        assert_eq!(d.last_status(), DriftStatus::Stable);
    }

    #[test]
    fn add_batch_reports_drift_indices() {
        let mut d = Optwin::new(small_config(1.0)).unwrap();
        let stream: Vec<f64> = (0..2_000u64)
            .map(|i| {
                let base = if i < 1_000 { 0.05 } else { 0.6 };
                (base + 0.05 * jitter(i)).clamp(0.0, 1.0)
            })
            .collect();
        let hits = d.add_batch(&stream).drift_indices;
        assert!(!hits.is_empty());
        assert!(hits[0] >= 1_000);
    }

    /// `add_batch` (the trait's default fold) makes byte-for-byte the same
    /// decisions as calling `add_element` per element, across drift resets,
    /// window saturation and every batch split.
    #[test]
    fn add_batch_is_identical_to_element_fold() {
        let stream: Vec<f64> = (0..6_000u64)
            .map(|i| {
                let base = match i {
                    0..=1_999 => 0.05,
                    2_000..=3_999 => 0.30,
                    _ => 0.60,
                };
                (base + 0.05 * jitter(i)).clamp(0.0, 1.0)
            })
            .collect();

        for &chunk in &[1usize, 7, 128, 1_000, 6_000] {
            let mut scalar = Optwin::new(small_config(0.5)).unwrap();
            let mut batched = Optwin::new(small_config(0.5)).unwrap();

            let mut scalar_drifts = Vec::new();
            let mut scalar_warnings = Vec::new();
            for (i, &x) in stream.iter().enumerate() {
                match scalar.add_element(x) {
                    DriftStatus::Drift => scalar_drifts.push(i),
                    DriftStatus::Warning => scalar_warnings.push(i),
                    DriftStatus::Stable => {}
                }
            }

            let mut batch_drifts = Vec::new();
            let mut batch_warnings = Vec::new();
            for (k, xs) in stream.chunks(chunk).enumerate() {
                let outcome = batched.add_batch(xs);
                batch_drifts.extend(outcome.drift_indices.iter().map(|&i| k * chunk + i));
                batch_warnings.extend(outcome.warning_indices.iter().map(|&i| k * chunk + i));
            }

            assert_eq!(batch_drifts, scalar_drifts, "chunk = {chunk}");
            assert_eq!(batch_warnings, scalar_warnings, "chunk = {chunk}");
            assert_eq!(batched.elements_seen(), scalar.elements_seen());
            assert_eq!(batched.drifts_detected(), scalar.drifts_detected());
            assert_eq!(batched.warnings_detected(), scalar.warnings_detected());
            assert_eq!(batched.window_len(), scalar.window_len());
            assert_eq!(batched.last_status(), scalar.last_status());
        }
    }

    #[test]
    fn add_batch_saturated_window_stays_equivalent() {
        // Window pinned at w_max for most of the run: exercises the last
        // table entry and ring-buffer eviction.
        let config = OptwinConfig::builder()
            .robustness(0.5)
            .max_window(200)
            .build()
            .unwrap();
        let stream: Vec<f64> = (0..2_000u64).map(|i| 0.3 + 0.1 * jitter(i)).collect();
        let mut scalar = Optwin::new(config.clone()).unwrap();
        let mut batched = Optwin::new(config).unwrap();
        for &x in &stream {
            scalar.add_element(x);
        }
        let outcome = batched.add_batch(&stream);
        assert_eq!(outcome.len, stream.len());
        assert_eq!(batched.window_len(), scalar.window_len());
        assert_eq!(batched.drifts_detected(), scalar.drifts_detected());
        assert!((batched.hist_mean() - scalar.hist_mean()).abs() < 1e-15);
        assert!((batched.new_mean() - scalar.new_mean()).abs() < 1e-15);
    }

    #[test]
    fn shared_table_constructor_uses_the_global_registry() {
        let config = OptwinConfig::builder()
            .robustness(0.375)
            .max_window(333)
            .build()
            .unwrap();
        let d1 = Optwin::new(config.clone()).unwrap();
        let d2 = Optwin::new(config.clone()).unwrap();
        assert!(Arc::ptr_eq(&d1.cut_table(), &d2.cut_table()));
        let interned = crate::CutTableRegistry::global()
            .get_or_build(&config)
            .unwrap();
        assert!(Arc::ptr_eq(&d1.cut_table(), &interned));
    }

    #[test]
    fn snapshot_restore_resumes_with_identical_decisions() {
        let stream: Vec<f64> = (0..6_000u64)
            .map(|i| {
                let base = match i {
                    0..=1_999 => 0.05,
                    2_000..=3_999 => 0.30,
                    _ => 0.60,
                };
                (base + 0.05 * jitter(i)).clamp(0.0, 1.0)
            })
            .collect();

        // Snapshot at several cut points, including right after a drift reset
        // (~2_100) and mid-saturation.
        for &cut in &[0usize, 17, 1_000, 2_100, 4_500] {
            let mut original = Optwin::new(small_config(0.5)).unwrap();
            original.add_batch(&stream[..cut]);
            let state = original
                .snapshot_state()
                .expect("OPTWIN supports snapshots");
            assert!(
                matches!(state.get("window"), Some(serde::Value::Str(_))),
                "the window is embedded as a blob string"
            );

            // Round-trip the state value through the crate's own accessors
            // to mimic what an engine-level persistence layer does.
            let mut restored = Optwin::new(small_config(0.5)).unwrap();
            restored.restore_state(&state).unwrap();

            assert_eq!(restored.window_len(), original.window_len());
            assert_eq!(restored.elements_seen(), original.elements_seen());
            assert_eq!(restored.drifts_detected(), original.drifts_detected());

            let rest = &stream[cut..];
            let a = original.add_batch(rest);
            let b = restored.add_batch(rest);
            assert_eq!(a, b, "divergence after restoring at {cut}");
            assert_eq!(original.drifts_detected(), restored.drifts_detected());
            assert_eq!(original.warnings_detected(), restored.warnings_detected());
            assert_eq!(original.last_status(), restored.last_status());
            assert_eq!(
                original.hist_mean().to_bits(),
                restored.hist_mean().to_bits()
            );
        }
    }

    #[test]
    fn restore_rejects_bad_snapshots() {
        let mut d = Optwin::new(small_config(0.5)).unwrap();
        // Not an object.
        assert!(matches!(
            d.restore_state(&serde::Value::Null),
            Err(crate::CoreError::InvalidSnapshot { .. })
        ));
        // Wrong w_max.
        let mut other = Optwin::new(
            OptwinConfig::builder()
                .robustness(0.5)
                .max_window(500)
                .build()
                .unwrap(),
        )
        .unwrap();
        other.add_batch(&[0.1, 0.2, 0.3]);
        let state = other.snapshot_state().unwrap();
        let err = d.restore_state(&state).unwrap_err();
        assert!(err.to_string().contains("w_max"));
        // Tampered version.
        let serde::Value::Object(mut fields) = state.clone() else {
            panic!("snapshot must be an object")
        };
        for (k, v) in &mut fields {
            if k == "version" {
                *v = serde::Value::UInt(99);
            }
        }
        let err = other
            .restore_state(&serde::Value::Object(fields))
            .unwrap_err();
        assert!(err.to_string().contains("version"));

        // Non-finite moment accumulators restore verbatim (saturation is a
        // reachable live state, not corruption) and round-trip bit-exactly,
        // written back as one-element blobs since JSON has no NaN or inf.
        let serde::Value::Object(mut fields) = state.clone() else {
            panic!("snapshot must be an object")
        };
        for (k, v) in &mut fields {
            if k == "new_moments" {
                let serde::Value::Array(items) = v else {
                    panic!("moments must be an array")
                };
                items[2] = serde::Value::Float(f64::INFINITY);
                items[3] = serde::Value::Float(f64::NAN);
            }
        }
        let saturated = serde::Value::Object(fields);
        other.restore_state(&saturated).unwrap();
        let round_tripped = other.snapshot_state().unwrap();
        let moments = round_tripped.get("new_moments").unwrap();
        let (_, _, m2, m3) = moments_from_value(moments, "new_moments").unwrap();
        assert_eq!(m2, f64::INFINITY);
        assert!(m3.is_nan());
        let serde::Value::Array(items) = moments else {
            panic!("moments must be an array")
        };
        assert!(matches!(items[2], serde::Value::Str(_)));

        // A failure after the window has been parsed must leave the detector
        // untouched (no half-restored state): advance the detector past the
        // snapshot point, then attempt a restore whose trailing counter
        // field is missing.
        let serde::Value::Object(fields) = state else {
            panic!("snapshot must be an object")
        };
        let truncated: Vec<(String, serde::Value)> = fields
            .into_iter()
            .filter(|(k, _)| k != "elements_seen")
            .collect();
        other.add_batch(&[0.4, 0.45, 0.5]);
        let before_window = other.window_len();
        let before_elements = other.elements_seen();
        assert_ne!(before_window, 3, "detector must have diverged");
        let err = other
            .restore_state(&serde::Value::Object(truncated))
            .unwrap_err();
        assert!(err.to_string().contains("elements_seen"));
        assert_eq!(other.window_len(), before_window);
        assert_eq!(other.elements_seen(), before_elements);
    }

    #[test]
    fn metadata_accessors() {
        let d = Optwin::with_defaults().unwrap();
        assert_eq!(d.name(), "OPTWIN");
        assert!(d.supports_real_valued_input());
        assert_eq!(d.config().w_max, 25_000);
        assert_eq!(d.window_len(), 0);
        assert_eq!(d.last_status(), DriftStatus::Stable);
        assert_eq!(d.hist_mean(), 0.0);
        assert_eq!(d.new_mean(), 0.0);
        let table = d.cut_table();
        assert_eq!(table.w_max(), 25_000);
    }
}
