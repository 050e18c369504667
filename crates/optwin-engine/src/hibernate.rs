//! The hibernation tier: cold-stream detector-state compression.
//!
//! A fleet of millions of streams is bounded by resident memory, not CPU:
//! every registered stream holds a fully materialized detector (OPTWIN at
//! the paper's `w_max = 25 000` buffers every window element — ~200 KiB per
//! stream), yet under Zipf-skewed production traffic the overwhelming
//! majority of streams see no records for long stretches. Hibernation
//! trades that idle footprint for a compact blob: a shard worker that
//! observes a stream ingesting nothing for
//! [`HibernationPolicy::cold_after_flushes`] consecutive flush barriers
//! serializes the detector's complete mutable state through
//! [`DriftDetector::snapshot_state`] — the same wire-v4 state every engine
//! snapshot and checkpoint holds, with windows as compact binary blobs —
//! frees the live detector, and keeps only the blob plus a few cached
//! counters. The next record for the stream rehydrates it transparently: a
//! fresh detector is built from the stream's [`DetectorSpec`] and the blob
//! is restored into it before the record is ingested.
//!
//! The whole tier rides on the PR 5 snapshot contract: restores are
//! **bit-exact**, so a fleet that hibernates and rehydrates emits byte-for-
//! byte identical [`crate::DriftEvent`]s (and `seq` numbers, and state
//! snapshots) to a fleet that never sleeps — enforced by
//! `tests/engine_hibernation.rs` and the forced-cycle adversarial proptest.
//!
//! Every stream can hibernate: each carries the [`DetectorSpec`] its
//! detector is rebuilt from, and every detector snapshots its state.
//! Hibernated streams stay first-class: they
//! migrate across shards during [`crate::EngineHandle::rebalance`] (the
//! blob moves instead of the detector), appear in queries and stats with a
//! `hibernated` flag, and persist inside engine snapshots *without being
//! woken* — their blob is embedded verbatim, and a restoring builder with
//! hibernation configured re-creates them still asleep.
//!
//! The tier composes with the [`crate::checkpoint`] durability subsystem
//! (wire v5) through the per-stream dirty bit: falling asleep is a state
//! *transition*, so the sweep marks the stream dirty and the next delta
//! overlay captures its compressed entry — after which the sleeper costs
//! nothing at every subsequent barrier until it wakes. A fleet recovered
//! from a checkpoint directory therefore brings its cold tier back
//! *asleep*, blobs verbatim, with rehydration deferred exactly as a plain
//! snapshot restore would.

use optwin_baselines::DetectorSpec;
use optwin_core::DriftDetector;

use crate::error::EngineError;

/// When shard workers put idle streams to sleep.
///
/// Configured via [`crate::EngineBuilder::hibernation`]; without it the
/// engine never hibernates (every detector stays resident — the historical
/// behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HibernationPolicy {
    /// A stream is *cold* — and is compressed at the next sweep — once this
    /// many consecutive [`crate::EngineHandle::flush`] barriers have passed
    /// with no records for it. `0` is the forced mode used by equivalence
    /// tests: **every** stream hibernates at **every** flush barrier,
    /// active or not.
    pub cold_after_flushes: u32,
}

impl HibernationPolicy {
    /// A policy that hibernates streams idle for `flushes` consecutive
    /// flush barriers.
    #[must_use]
    pub fn cold_after_flushes(flushes: u32) -> Self {
        Self {
            cold_after_flushes: flushes,
        }
    }
}

impl Default for HibernationPolicy {
    /// Hibernate after 4 recordless flush barriers — late enough that a
    /// stream bursting once per couple of flushes never thrashes, early
    /// enough that a mostly-cold fleet sheds its footprint within a handful
    /// of barriers.
    fn default() -> Self {
        Self::cold_after_flushes(4)
    }
}

/// A sleeping detector: its complete mutable state compressed to a compact
/// blob, plus the few counters queries need answered without waking it.
pub(crate) struct HibernatedDetector {
    /// The detector's wire-v4 state value — windows and bucket rows ride as
    /// base64 binary frames inside the tree, so the blob is within a small
    /// factor of the raw state entropy rather than of the live buffer
    /// capacity. Held as the value tree rather than JSON text, so a sleep
    /// and wake cycle never pays a text encode or parse; engine snapshots
    /// and checkpoints embed the tree verbatim.
    blob: serde::Value,
    /// The detector's stable name (identity for queries and snapshot
    /// validation).
    name: &'static str,
    /// Cached [`DriftDetector::drifts_detected`] at capture time, so stream
    /// queries are answered without waking the detector (the element count
    /// lives on the stream as `seq` and needs no cache).
    drifts_detected: u64,
}

impl HibernatedDetector {
    /// Compresses `detector`'s state.
    pub(crate) fn capture(detector: &dyn DriftDetector) -> Self {
        Self {
            blob: detector.snapshot_state(),
            name: detector.name(),
            drifts_detected: detector.drifts_detected(),
        }
    }

    /// Re-assembles a sleeper from a persisted snapshot entry: the restore
    /// path that keeps a hibernated stream asleep instead of materializing
    /// its detector. Returns `None` when the entry's state does not carry
    /// the lifetime counters every shipped detector serializes — the
    /// caller then falls back to an awake restore, which is always
    /// correct.
    pub(crate) fn from_persisted(name: &'static str, state: &serde::Value) -> Option<Self> {
        let counter = |field: &str| match state.get(field) {
            Some(&serde::Value::UInt(n)) => Some(n),
            Some(&serde::Value::Int(n)) => u64::try_from(n).ok(),
            _ => None,
        };
        // Both lifetime counters must be present: their absence marks a
        // state this constructor cannot vouch for.
        counter("elements_seen")?;
        let drifts_detected = counter("drifts_detected")?;
        Some(Self {
            blob: state.clone(),
            name,
            drifts_detected,
        })
    }

    /// Decompresses the sleeper back into a live detector built from
    /// `spec`, bit-exact with the detector that was captured.
    ///
    /// # Errors
    ///
    /// [`EngineError::Hibernation`] when the spec cannot build (impossible
    /// for blobs this engine captured — the stream ran that very spec) or
    /// the blob does not restore (possible only for a corrupted persisted
    /// snapshot that was restored asleep, i.e. unvalidated).
    pub(crate) fn wake(
        &self,
        stream: u64,
        spec: &DetectorSpec,
    ) -> Result<Box<dyn DriftDetector + Send>, EngineError> {
        let err = |message: String| EngineError::Hibernation { stream, message };
        let mut detector = spec
            .build()
            .map_err(|e| err(format!("rebuilding `{spec}`: {e}")))?;
        detector
            .restore_state(&self.blob)
            .map_err(|e| err(format!("restoring hibernated state: {e}")))?;
        Ok(detector)
    }

    /// The detector's stable name.
    pub(crate) fn name(&self) -> &'static str {
        self.name
    }

    /// Cached lifetime drift count.
    pub(crate) fn drifts_detected(&self) -> u64 {
        self.drifts_detected
    }

    /// Heap bytes held by the compressed state blob (the value tree's
    /// strings, arrays and objects — base64 frames dominate).
    pub(crate) fn blob_bytes(&self) -> usize {
        value_heap_bytes(&self.blob)
    }
}

/// Approximate heap footprint of a state value tree: container capacities
/// plus string capacities, recursively.
fn value_heap_bytes(value: &serde::Value) -> usize {
    use serde::Value;
    match value {
        Value::Null | Value::Bool(_) | Value::Int(_) | Value::UInt(_) | Value::Float(_) => 0,
        Value::Str(s) => s.capacity(),
        Value::Array(items) => {
            items.capacity() * std::mem::size_of::<Value>()
                + items.iter().map(value_heap_bytes).sum::<usize>()
        }
        Value::Object(fields) => {
            fields.capacity() * std::mem::size_of::<(String, Value)>()
                + fields
                    .iter()
                    .map(|(key, v)| key.capacity() + value_heap_bytes(v))
                    .sum::<usize>()
        }
    }
}

/// The detector slot of a stream: resident or compressed.
pub(crate) enum DetectorSlot {
    /// A fully materialized detector.
    Live(Box<dyn DriftDetector + Send>),
    /// A compressed sleeper.
    Hibernated(HibernatedDetector),
}

impl DetectorSlot {
    /// `true` when the slot holds a compressed sleeper.
    pub(crate) fn is_hibernated(&self) -> bool {
        matches!(self, DetectorSlot::Hibernated(_))
    }

    /// The detector's stable name, answered without waking.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            DetectorSlot::Live(d) => d.name(),
            DetectorSlot::Hibernated(h) => h.name(),
        }
    }

    /// The detector's wire-v4 state value. A sleeper returns its blob —
    /// how a sleeping stream embeds itself in an engine snapshot without
    /// waking.
    pub(crate) fn state_value(&self) -> serde::Value {
        match self {
            DetectorSlot::Live(d) => d.snapshot_state(),
            DetectorSlot::Hibernated(h) => h.blob.clone(),
        }
    }

    /// Lifetime drift count, answered without waking.
    pub(crate) fn drifts_detected(&self) -> u64 {
        match self {
            DetectorSlot::Live(d) => d.drifts_detected(),
            DetectorSlot::Hibernated(h) => h.drifts_detected(),
        }
    }

    /// Resident bytes of this slot: the live detector's
    /// [`DriftDetector::mem_footprint`], or the sleeper's bookkeeping plus
    /// its blob.
    pub(crate) fn mem_bytes(&self) -> usize {
        match self {
            DetectorSlot::Live(d) => d.mem_footprint(),
            DetectorSlot::Hibernated(h) => std::mem::size_of::<Self>() + h.blob_bytes(),
        }
    }

    /// Bytes held in a hibernated blob (0 for a live detector).
    pub(crate) fn hibernated_bytes(&self) -> usize {
        match self {
            DetectorSlot::Live(_) => 0,
            DetectorSlot::Hibernated(h) => h.blob_bytes(),
        }
    }
}
