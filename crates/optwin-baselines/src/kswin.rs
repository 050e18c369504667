//! KSWIN — Kolmogorov–Smirnov WINdowing (extension detector).
//!
//! KSWIN keeps a window of the most recent `window_size` observations and
//! tests, with the two-sample Kolmogorov–Smirnov statistic, whether the most
//! recent `stat_size` observations come from the same distribution as the
//! older part of the window. Because the KS test is distribution-free it
//! reacts to any change of the error distribution, not just mean shifts.
//!
//! This implementation compares the recent slice against the *entire* older
//! portion of the window (instead of a random sub-sample as in some reference
//! implementations), which keeps the detector fully deterministic.
//!
//! The two KS samples are maintained as **incrementally sorted** arrays: each
//! step moves at most three elements (the evicted oldest value, the value
//! graduating from the recent slice into the older one, and the new arrival)
//! by binary-searched insert/remove, so the per-element cost is a single
//! linear KS merge-scan instead of two `O(n log n)` sorts. The KS statistic
//! depends only on order statistics — any permutation of tied values yields
//! the same result — so this is decision-identical to re-sorting from scratch.

use std::cmp::Ordering;
use std::collections::VecDeque;

use optwin_core::snapshot::{check_version, field, invalid};
use optwin_core::{CoreError, DriftDetector, DriftStatus};
use optwin_stats::tests::ks_two_sample_sorted;

use crate::DetectorSpec;

/// The order of KSWIN's sorted mirrors: ascending, NaN last. Every other
/// pair compares as `partial_cmp` does, so `-0.0` and `0.0` tie (the KS
/// statistic cannot tell them apart). The incremental updates and the full
/// rebuild share it, so a restored detector sorts NaNs as the live one did.
fn by_value(x: &f64, y: &f64) -> Ordering {
    x.partial_cmp(y)
        .unwrap_or_else(|| x.is_nan().cmp(&y.is_nan()))
}

/// Inserts `value` into `xs` (sorted by [`by_value`]), keeping it sorted.
fn insert_sorted(xs: &mut Vec<f64>, value: f64) {
    let pos = xs.partition_point(|x| by_value(x, &value) == Ordering::Less);
    xs.insert(pos, value);
}

/// Removes one element tying with `value` under [`by_value`] from `xs`.
/// Returns `false` when no such element exists (only possible when the
/// mirrors have desynced); the caller then falls back to a full rebuild.
fn remove_sorted(xs: &mut Vec<f64>, value: f64) -> bool {
    let pos = xs.partition_point(|x| by_value(x, &value) == Ordering::Less);
    if pos < xs.len() && by_value(&xs[pos], &value) == Ordering::Equal {
        xs.remove(pos);
        true
    } else {
        false
    }
}

/// Serialization format version of [`Kswin`]'s state snapshot.
const SNAPSHOT_VERSION: u64 = 1;

/// Configuration for [`Kswin`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KswinConfig {
    /// Total sliding-window size (default 300).
    pub window_size: usize,
    /// Size of the recent slice compared against the rest (default 30).
    pub stat_size: usize,
    /// Significance level α for the KS test (default `1e-4`).
    ///
    /// The test runs after every ingested element, so α must be chosen with
    /// the implied multiple-testing in mind; `1e-4` keeps the false-positive
    /// rate low while still reacting to genuine shifts within a few dozen
    /// elements.
    pub alpha: f64,
}

impl Default for KswinConfig {
    fn default() -> Self {
        Self {
            window_size: 300,
            stat_size: 30,
            alpha: 1e-4,
        }
    }
}

/// The KSWIN drift detector.
#[derive(Debug, Clone)]
pub struct Kswin {
    config: KswinConfig,
    window: VecDeque<f64>,
    /// Ascending-sorted mirror of the older window portion (first
    /// `window_size − stat_size` elements), maintained incrementally while
    /// the window is full.
    older_sorted: Vec<f64>,
    /// Ascending-sorted mirror of the recent slice (last `stat_size`
    /// elements).
    recent_sorted: Vec<f64>,
    /// Whether the sorted mirrors reflect the current window contents. False
    /// after construction, reset, restore and drift truncation; the next
    /// full-window step rebuilds them.
    sorted_valid: bool,
    elements_seen: u64,
    drifts_detected: u64,
    last_status: DriftStatus,
}

impl Kswin {
    /// Creates a detector with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics with [`DetectorSpec::validate`]'s error if `stat_size` is
    /// zero, `window_size <= 2 * stat_size` or above
    /// [`optwin_core::MAX_WINDOW`], or `alpha` is outside `(0, 1)`.
    #[must_use]
    pub fn new(config: KswinConfig) -> Self {
        DetectorSpec::Kswin { config }.assert_valid();
        Self {
            window: VecDeque::with_capacity(config.window_size),
            older_sorted: Vec::with_capacity(config.window_size - config.stat_size),
            recent_sorted: Vec::with_capacity(config.stat_size),
            sorted_valid: false,
            config,
            elements_seen: 0,
            drifts_detected: 0,
            last_status: DriftStatus::Stable,
        }
    }

    /// Creates a detector with the defaults (window 300, slice 30,
    /// α = 1e-4).
    #[must_use]
    pub fn with_defaults() -> Self {
        Self::new(KswinConfig::default())
    }

    /// Number of elements currently buffered.
    #[must_use]
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Rebuilds both sorted mirrors from the (full) window.
    fn rebuild_sorted(&mut self) {
        let split = self.window.len() - self.config.stat_size;
        self.older_sorted.clear();
        self.recent_sorted.clear();
        self.older_sorted
            .extend(self.window.iter().copied().take(split));
        self.recent_sorted
            .extend(self.window.iter().copied().skip(split));
        self.older_sorted.sort_by(by_value);
        self.recent_sorted.sort_by(by_value);
        self.sorted_valid = true;
    }

    /// One ingestion step. While the window is full the sorted KS samples are
    /// updated by moving exactly three elements (evicted, graduating, new)
    /// instead of re-sorting both slices.
    fn step(&mut self, value: f64) -> DriftStatus {
        self.elements_seen += 1;
        let split = self.config.window_size - self.config.stat_size;
        if self.window.len() == self.config.window_size {
            // The oldest recent element graduates into the older sample once
            // the new value arrives; capture it before the shift.
            let graduate = self.window[split];
            let evicted = self.window.pop_front().expect("window is full");
            if self.sorted_valid {
                if remove_sorted(&mut self.older_sorted, evicted)
                    && remove_sorted(&mut self.recent_sorted, graduate)
                {
                    insert_sorted(&mut self.older_sorted, graduate);
                    insert_sorted(&mut self.recent_sorted, value);
                } else {
                    self.sorted_valid = false;
                }
            }
        }
        self.window.push_back(value);

        if self.window.len() < self.config.window_size {
            self.last_status = DriftStatus::Stable;
            return self.last_status;
        }

        if !self.sorted_valid {
            self.rebuild_sorted();
        }

        let status = match ks_two_sample_sorted(&self.recent_sorted, &self.older_sorted) {
            Ok(r) if r.p_value < self.config.alpha => {
                self.drifts_detected += 1;
                // Keep only the recent slice: it represents the new concept.
                self.window.drain(..split);
                self.sorted_valid = false;
                DriftStatus::Drift
            }
            Ok(r) if r.p_value < self.config.alpha * 10.0 => DriftStatus::Warning,
            _ => DriftStatus::Stable,
        };
        self.last_status = status;
        status
    }
}

impl DriftDetector for Kswin {
    fn add_element(&mut self, value: f64) -> DriftStatus {
        self.step(value)
    }

    fn reset(&mut self) {
        self.window.clear();
        self.sorted_valid = false;
        self.last_status = DriftStatus::Stable;
    }

    fn name(&self) -> &'static str {
        "KSWIN"
    }

    fn elements_seen(&self) -> u64 {
        self.elements_seen
    }

    fn drifts_detected(&self) -> u64 {
        self.drifts_detected
    }

    /// Struct size plus the window ring and both sorted mirrors, counted at
    /// capacity (all three are pre-allocated to their full size).
    fn mem_footprint(&self) -> usize {
        std::mem::size_of_val(self)
            + (self.window.capacity()
                + self.older_sorted.capacity()
                + self.recent_sorted.capacity())
                * std::mem::size_of::<f64>()
    }

    /// Serializes the buffered window contents verbatim, as a compact
    /// binary blob, plus the lifetime counters — KSWIN's entire mutable
    /// state is the raw window.
    fn snapshot_state(&self) -> Option<serde::Value> {
        use serde::Serialize as _;
        let window: Vec<f64> = self.window.iter().copied().collect();
        Some(serde::Value::Object(vec![
            ("version".to_string(), serde::Value::UInt(SNAPSHOT_VERSION)),
            (
                "window".to_string(),
                optwin_core::snapshot::encode_f64_seq(&window),
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
        ]))
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), CoreError> {
        check_version(state, SNAPSHOT_VERSION, "KSWIN")?;
        let window: Vec<f64> = optwin_core::snapshot::f64_seq_field(state, "window")?;
        if window.len() > self.config.window_size {
            return Err(invalid(format!(
                "window has {} entries, configuration allows {}",
                window.len(),
                self.config.window_size
            )));
        }
        // Window elements are raw user input and restore verbatim —
        // `add_element` never rejected them, so restore cannot either.
        let elements_seen: u64 = field(state, "elements_seen")?;
        let drifts_detected: u64 = field(state, "drifts_detected")?;
        let last_status: DriftStatus = field(state, "last_status")?;

        self.window = window.into_iter().collect();
        self.sorted_valid = false;
        self.elements_seen = elements_seen;
        self.drifts_detected = drifts_detected;
        self.last_status = last_status;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::jitter;

    #[test]
    fn nan_laden_stream_finishes_and_restores_like_the_live_detector() {
        // One error in ten, and a NaN every 40 elements from element 1 000:
        // both sorted samples soon hold NaNs, which once stalled the KS scan.
        let stream: Vec<f64> = (0..6_000u64)
            .map(|i| {
                if i >= 1_000 && i % 40 == 0 {
                    f64::NAN
                } else {
                    f64::from(u8::from(i % 10 == 0))
                }
            })
            .collect();
        let mut live = Kswin::with_defaults();
        live.add_batch(&stream[..3_000]);
        let mut restored = Kswin::with_defaults();
        restored
            .restore_state(&live.snapshot_state().unwrap())
            .unwrap();
        let rest = &stream[3_000..];
        assert_eq!(live.add_batch(rest), restored.add_batch(rest));
        assert_eq!(live.drifts_detected(), restored.drifts_detected());
    }

    #[test]
    #[should_panic(expected = "`window_size` must exceed twice the stat_size")]
    fn rejects_window_smaller_than_slices() {
        let _ = Kswin::new(KswinConfig {
            window_size: 50,
            stat_size: 30,
            alpha: 0.005,
        });
    }

    #[test]
    fn no_detection_until_window_full() {
        let mut d = Kswin::with_defaults();
        for i in 0..299u64 {
            assert_eq!(d.add_element(0.3 + 0.1 * jitter(i)), DriftStatus::Stable);
        }
        assert_eq!(d.window_len(), 299);
    }

    #[test]
    fn stationary_stream_is_mostly_stable() {
        let mut d = Kswin::with_defaults();
        let mut drifts = 0;
        for i in 0..20_000u64 {
            if d.add_element(0.3 + 0.2 * jitter(i)) == DriftStatus::Drift {
                drifts += 1;
            }
        }
        assert!(drifts <= 4, "drifts = {drifts}");
    }

    #[test]
    fn distribution_shift_detected() {
        let mut d = Kswin::with_defaults();
        let mut detected_at = None;
        for i in 0..6_000u64 {
            let x = if i < 3_000 {
                0.2 + 0.1 * jitter(i)
            } else {
                0.7 + 0.1 * jitter(i)
            };
            if d.add_element(x) == DriftStatus::Drift {
                detected_at = Some(i);
                break;
            }
        }
        let at = detected_at.expect("KSWIN must detect a distribution shift");
        assert!(at >= 3_000, "false positive at {at}");
        assert!(at < 3_100, "delay = {}", at - 3_000);
    }

    #[test]
    fn variance_change_detected() {
        // KS reacts to shape changes, not only mean shifts.
        let mut d = Kswin::with_defaults();
        let mut detected = false;
        for i in 0..6_000u64 {
            let x = if i < 3_000 {
                0.5 + 0.02 * jitter(i)
            } else {
                0.5 + 0.9 * jitter(i)
            };
            if d.add_element(x) == DriftStatus::Drift {
                detected = true;
                assert!(i >= 3_000, "false positive at {i}");
                break;
            }
        }
        assert!(detected);
    }

    #[test]
    fn window_shrinks_after_detection() {
        let mut d = Kswin::with_defaults();
        for i in 0..3_200u64 {
            let x = if i < 3_000 { 0.1 } else { 0.9 } + 0.05 * jitter(i);
            d.add_element(x);
            if d.drifts_detected() > 0 {
                break;
            }
        }
        assert!(d.drifts_detected() > 0);
        assert_eq!(d.window_len(), 30);
    }

    #[test]
    fn reset_and_metadata() {
        let mut d = Kswin::with_defaults();
        for i in 0..500u64 {
            d.add_element(0.5 + 0.1 * jitter(i));
        }
        d.reset();
        assert_eq!(d.window_len(), 0);
        assert_eq!(d.name(), "KSWIN");
        assert!(d.supports_real_valued_input());
    }

    #[test]
    fn incremental_sort_matches_naive_resort() {
        use optwin_stats::tests::ks_two_sample;
        // Drive the detector alongside a naive reference that re-copies and
        // re-sorts both samples every step (the pre-optimization behaviour);
        // every per-element decision must match. The tail of the stream is
        // quantized to a small grid to force heavy tie traffic (including
        // exact 0.0 / 1.0) through the binary insert/remove paths.
        let cfg = KswinConfig::default();
        let mut d = Kswin::new(cfg);
        let mut window: VecDeque<f64> = VecDeque::new();
        for i in 0..6_000u64 {
            let x = if i < 2_000 {
                0.2 + 0.1 * jitter(i)
            } else if i < 4_000 {
                (0.65 + 0.1 * jitter(i)).clamp(0.0, 1.0)
            } else {
                ((i * 37) % 11) as f64 / 10.0
            };
            if window.len() == cfg.window_size {
                window.pop_front();
            }
            window.push_back(x);
            let expected = if window.len() < cfg.window_size {
                DriftStatus::Stable
            } else {
                let split = window.len() - cfg.stat_size;
                let older: Vec<f64> = window.iter().copied().take(split).collect();
                let recent: Vec<f64> = window.iter().copied().skip(split).collect();
                match ks_two_sample(&recent, &older) {
                    Ok(r) if r.p_value < cfg.alpha => {
                        window.drain(..split);
                        DriftStatus::Drift
                    }
                    Ok(r) if r.p_value < cfg.alpha * 10.0 => DriftStatus::Warning,
                    _ => DriftStatus::Stable,
                }
            };
            assert_eq!(d.add_element(x), expected, "element {i}");
        }
        assert!(d.drifts_detected() > 0, "stream must exercise drift resets");
    }

    #[test]
    fn add_batch_matches_element_fold() {
        let stream: Vec<f64> = (0..4_000u64)
            .map(|i| {
                let base = if i < 2_000 { 0.2 } else { 0.65 };
                (base + 0.1 * jitter(i)).clamp(0.0, 1.0)
            })
            .collect();
        crate::test_util::assert_batch_equivalence(Kswin::with_defaults, &stream);
    }

    #[test]
    fn snapshot_restore_resumes_with_identical_decisions() {
        let stream: Vec<f64> = (0..4_000u64)
            .map(|i| {
                let base = if i < 2_000 { 0.2 } else { 0.65 };
                (base + 0.1 * jitter(i)).clamp(0.0, 1.0)
            })
            .collect();
        // Cuts before the window fills, mid-stream, and right after the
        // drift region (where the window was truncated to the recent slice).
        crate::test_util::assert_snapshot_equivalence(
            Kswin::with_defaults,
            &stream,
            &[0, 150, 1_000, 2_100, 4_000],
        );
    }

    #[test]
    fn restore_rejects_bad_snapshots() {
        let mut d = Kswin::with_defaults();
        assert!(d.restore_state(&serde::Value::Null).is_err());

        let mut donor = Kswin::with_defaults();
        for i in 0..500u64 {
            donor.add_element(0.5 + 0.1 * jitter(i));
        }
        let state = donor.snapshot_state().unwrap();
        // A restoring configuration with a smaller window rejects the
        // oversized buffer.
        let mut small = Kswin::new(KswinConfig {
            window_size: 80,
            stat_size: 20,
            alpha: 1e-4,
        });
        let err = small.restore_state(&state).unwrap_err();
        assert!(err.to_string().contains("window has"), "{err}");
    }
}
