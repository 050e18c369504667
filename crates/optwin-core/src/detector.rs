//! The common drift-detector interface shared by OPTWIN and every baseline.
//!
//! All detectors in this workspace (OPTWIN in this crate; ADWIN, DDM, EDDM,
//! STEPD, ECDD and the extensions in `optwin-baselines`) implement
//! [`DriftDetector`]. The contract is **batch-first**: production callers
//! hand the detector whole slices of observations via
//! [`DriftDetector::add_batch`] and receive a [`BatchOutcome`] summarising
//! where drifts and warnings fired; [`DriftDetector::add_element`] remains
//! the element-wise primitive the batch path is defined against. The two are
//! required to be *observationally identical*: `add_batch(xs)` must report
//! exactly the indices at which a fold of `add_element` over `xs` would have
//! returned [`DriftStatus::Drift`] (and likewise for warnings), leaving the
//! detector in the same state. Every detector but one uses the trait's
//! default fold, so for them this holds by construction. The exception is
//! the cascade in `optwin-baselines`: it hands its guard the whole slice and
//! skips a dormant stretch in bulk, which keeps its stable path several
//! times cheaper than plain OPTWIN. The contract test-suite in
//! `tests/detector_contract.rs` enforces the equivalence for every detector
//! the workspace ships.
//!
//! Every detector also snapshots its state ([`DriftDetector::snapshot_state`]
//! and [`DriftDetector::restore_state`]): the engine's hibernation tier,
//! snapshots and checkpoints are built on that pair. Which inputs a
//! detector accepts is not part of the trait; `DetectorSpec::binary_only`
//! in `optwin-baselines` answers that for every spec.

use serde::{Deserialize, Serialize};

use crate::CoreError;

/// Outcome of ingesting one element into a drift detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DriftStatus {
    /// No evidence of change.
    #[default]
    Stable,
    /// The detector's warning threshold was exceeded, but not its drift
    /// threshold. Callers typically start buffering data for a replacement
    /// model when this is reported.
    Warning,
    /// A concept drift was detected. Detectors reset their internal state
    /// when they report this, so the caller should likewise reset or retrain
    /// its learner.
    Drift,
}

impl DriftStatus {
    /// `true` if this status is [`DriftStatus::Drift`].
    #[must_use]
    pub fn is_drift(self) -> bool {
        self == DriftStatus::Drift
    }

    /// `true` if this status is [`DriftStatus::Warning`].
    #[must_use]
    pub fn is_warning(self) -> bool {
        self == DriftStatus::Warning
    }
}

/// Outcome of ingesting a batch of elements into a drift detector.
///
/// Indices are 0-based positions **within the batch**; callers tracking a
/// global stream position add their own offset.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BatchOutcome {
    /// Batch indices at which [`DriftStatus::Drift`] was reported.
    pub drift_indices: Vec<usize>,
    /// Batch indices at which [`DriftStatus::Warning`] was reported.
    pub warning_indices: Vec<usize>,
}

impl BatchOutcome {
    /// Number of drifts flagged in the batch.
    #[must_use]
    pub fn drifts(&self) -> usize {
        self.drift_indices.len()
    }

    /// `true` if at least one drift was flagged.
    #[must_use]
    pub fn has_drift(&self) -> bool {
        !self.drift_indices.is_empty()
    }

    /// Records the status of the element at `index`. Intended for
    /// `add_batch` implementations.
    #[inline]
    pub fn record(&mut self, index: usize, status: DriftStatus) {
        match status {
            DriftStatus::Drift => self.drift_indices.push(index),
            DriftStatus::Warning => self.warning_indices.push(index),
            DriftStatus::Stable => {}
        }
    }
}

/// An online, error-rate-based concept-drift detector.
///
/// Implementations observe one value per learner prediction — a binary error
/// indicator (`0.0` = correct, `1.0` = wrong) or a real-valued loss — and
/// decide whether the distribution of those values has changed.
pub trait DriftDetector {
    /// Ingests one observation and returns the detector's verdict.
    ///
    /// Implementations must reset their own internal state when they return
    /// [`DriftStatus::Drift`] so that detection can resume immediately.
    fn add_element(&mut self, value: f64) -> DriftStatus;

    /// Ingests a whole slice of observations, reporting every drift and
    /// warning position within it.
    ///
    /// The default implementation folds [`DriftDetector::add_element`] over
    /// the slice, and every detector but the cascade uses it. The cascade
    /// overrides it to feed its guard the whole slice and to extend its
    /// replay ring in bulk while dormant. An override must be
    /// observationally identical to the fold — same indices, same final
    /// state, same counters.
    fn add_batch(&mut self, values: &[f64]) -> BatchOutcome {
        let mut outcome = BatchOutcome::default();
        for (i, &value) in values.iter().enumerate() {
            outcome.record(i, self.add_element(value));
        }
        outcome
    }

    /// A short, stable, human-readable name (e.g. `"OPTWIN"`, `"ADWIN"`).
    fn name(&self) -> &'static str;

    /// Total number of elements ingested since construction (drift
    /// detections do not reset it).
    fn elements_seen(&self) -> u64;

    /// Number of drifts flagged since construction.
    fn drifts_detected(&self) -> u64;

    /// Serializes the detector's complete mutable state into a JSON-shaped
    /// [`serde::Value`] tree.
    ///
    /// This is the single write hook behind every engine snapshot,
    /// hibernation blob and checkpoint. Shipped detectors write the wire-v4
    /// layout of [`crate::snapshot`]: sequences as binary blobs, scalar
    /// floats through [`crate::snapshot::float_value`]. A custom detector
    /// may write any value tree its own [`DriftDetector::restore_state`]
    /// reads back.
    ///
    /// The contract is **exactness**: feeding a detector restored through
    /// [`DriftDetector::restore_state`] any further input must produce
    /// *identical* decisions (and counters) to feeding the original,
    /// uninterrupted detector the same input. Configuration is deliberately
    /// *not* part of the state — restoration happens into a detector freshly
    /// constructed with the same configuration (typically from the same
    /// spec), so only the stream-dependent state crosses the snapshot.
    fn snapshot_state(&self) -> serde::Value;

    /// Approximate resident memory footprint of this detector in bytes:
    /// the size of the detector struct itself plus every heap buffer it
    /// owns (window rings, bucket rows, sorted mirrors, scratch space),
    /// counted at **capacity**, not length — capacity is what the
    /// allocator actually holds.
    ///
    /// Shared structures (OPTWIN's `Arc<CutTable>`, ECDD's process-wide
    /// control-limit cache) are deliberately excluded: they are amortized
    /// across a whole fleet and counting them per stream would overstate
    /// per-stream cost by orders of magnitude.
    ///
    /// The default implementation returns `size_of_val(self)` (correct for
    /// heap-free detectors — DDM, EDDM, Page–Hinkley and ECDD ship no
    /// per-instance heap buffers); detectors that own heap storage
    /// override it. The engine's hibernation tier uses this to surface
    /// resident bytes per stream and per shard.
    fn mem_footprint(&self) -> usize {
        std::mem::size_of_val(self)
    }

    /// Restores state captured by [`DriftDetector::snapshot_state`] into
    /// this detector, which must have been freshly constructed with the same
    /// configuration as the snapshotted one. Shipped detectors also read the
    /// JSON-array layout the retired v1–v3 writer produced.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSnapshot`] when the value tree does not
    /// describe a valid state for this detector's configuration.
    fn restore_state(&mut self, state: &serde::Value) -> std::result::Result<(), CoreError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial detector that fires every `period` elements, used to test
    /// the trait helpers.
    struct Periodic {
        period: u64,
        seen: u64,
        drifts: u64,
    }

    impl DriftDetector for Periodic {
        fn add_element(&mut self, _value: f64) -> DriftStatus {
            self.seen += 1;
            if self.seen.is_multiple_of(self.period) {
                self.drifts += 1;
                DriftStatus::Drift
            } else {
                DriftStatus::Stable
            }
        }
        fn name(&self) -> &'static str {
            "periodic"
        }
        fn elements_seen(&self) -> u64 {
            self.seen
        }
        fn drifts_detected(&self) -> u64 {
            self.drifts
        }
        fn snapshot_state(&self) -> serde::Value {
            serde::Value::UInt(self.seen)
        }
        fn restore_state(&mut self, state: &serde::Value) -> Result<(), CoreError> {
            self.seen = u64::from_value(state).map_err(|e| CoreError::InvalidSnapshot {
                message: e.to_string(),
            })?;
            Ok(())
        }
    }

    #[test]
    fn status_helpers() {
        assert!(DriftStatus::Drift.is_drift());
        assert!(!DriftStatus::Stable.is_drift());
        assert!(DriftStatus::Warning.is_warning());
        assert!(!DriftStatus::Drift.is_warning());
        assert_eq!(DriftStatus::default(), DriftStatus::Stable);
    }

    #[test]
    fn default_add_batch_matches_element_fold() {
        let mut batched = Periodic {
            period: 3,
            seen: 0,
            drifts: 0,
        };
        let mut scalar = Periodic {
            period: 3,
            seen: 0,
            drifts: 0,
        };
        let xs = [0.0; 11];
        let outcome = batched.add_batch(&xs);
        let mut expected = Vec::new();
        for (i, &x) in xs.iter().enumerate() {
            if scalar.add_element(x) == DriftStatus::Drift {
                expected.push(i);
            }
        }
        assert_eq!(outcome.drift_indices, expected);
        assert_eq!(outcome.drifts(), 3);
        assert!(outcome.has_drift());
        assert_eq!(batched.elements_seen(), scalar.elements_seen());
        assert_eq!(batched.drifts_detected(), scalar.drifts_detected());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut d = Periodic {
            period: 2,
            seen: 0,
            drifts: 0,
        };
        let outcome = d.add_batch(&[]);
        assert_eq!(outcome, BatchOutcome::default());
        assert!(!outcome.has_drift());
        assert_eq!(d.elements_seen(), 0);
    }

    #[test]
    fn batch_outcome_record_tracks_statuses() {
        let mut o = BatchOutcome::default();
        o.record(0, DriftStatus::Stable);
        o.record(1, DriftStatus::Warning);
        o.record(2, DriftStatus::Drift);
        assert_eq!(o.warning_indices, vec![1]);
        assert_eq!(o.drift_indices, vec![2]);
    }

    #[test]
    fn drift_status_serde_round_trip() {
        for status in [
            DriftStatus::Stable,
            DriftStatus::Warning,
            DriftStatus::Drift,
        ] {
            let value = status.to_value();
            assert_eq!(DriftStatus::from_value(&value).unwrap(), status);
        }
        assert!(DriftStatus::from_value(&serde::Value::Str("Bogus".into())).is_err());
    }

    #[test]
    fn trait_object_usable() {
        let mut d: Box<dyn DriftDetector> = Box::new(Periodic {
            period: 2,
            seen: 0,
            drifts: 0,
        });
        assert_eq!(d.add_element(0.0), DriftStatus::Stable);
        assert_eq!(d.add_element(0.0), DriftStatus::Drift);
        // add_batch is usable through the trait object too.
        let hits = d.add_batch(&[0.0, 0.0, 0.0, 0.0]).drift_indices;
        assert_eq!(hits, vec![1, 3]);
    }
}
