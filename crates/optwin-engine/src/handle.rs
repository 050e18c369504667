//! The non-blocking front door: shard worker threads and the cloneable
//! [`EngineHandle`] that feeds them.
//!
//! [`crate::EngineBuilder::build`] spawns one long-lived OS thread per
//! shard; each worker owns its shard's `(stream id → detector)` map
//! outright, so the hot path needs no locking. The returned [`EngineHandle`]
//! is cheaply cloneable (an `Arc` plus per-shard channel senders): any
//! number of producer threads can [`EngineHandle::submit`] record batches,
//! which partitions them by `stream % shards` and enqueues each partition on
//! the owning shard's bounded queue, returning immediately. Detections flow
//! out through the configured [`crate::EventSink`]s from the worker threads;
//! the submitting thread never sees them.
//!
//! Backpressure is accounted in **records, per shard**: `submit` blocks
//! while a target shard's queue is at capacity, [`EngineHandle::try_submit`]
//! instead fails fast with [`EngineError::QueueFull`] and enqueues nothing.
//! [`EngineHandle::flush`] and [`EngineHandle::shutdown`] are barriers: they
//! ride the same FIFO channels as the records, so when they return, every
//! record previously submitted *by the calling thread* has been fully
//! processed and the sinks have been flushed.
//!
//! Every control operation — flush, registration, the statistics queries,
//! snapshots, checkpoints and rebalance migrations — is one primitive: a
//! closure shipped to each target worker as [`ShardMsg::Barrier`], run there
//! with `&mut` access to the [`Worker`], and answered over a reply channel
//! (see `EngineHandle::barrier`).

use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use optwin_baselines::DetectorSpec;
use optwin_core::{DriftDetector, DriftStatus};

use crate::checkpoint::{
    CheckpointConfig, CheckpointReport, CheckpointState, Durability, WalWriter,
};
use crate::error::{EngineError, StreamSnapshot};
use crate::event::DriftEvent;
use crate::hibernate::{DetectorSlot, HibernatedDetector, HibernationPolicy};
use crate::persist::{EngineSnapshot, StreamStateSnapshot, ENGINE_SNAPSHOT_VERSION};
use crate::router::Router;
use crate::sink::EventSink;

/// Decay factor of the per-shard batch-latency EWMA: each new batch
/// contributes 20 % — responsive to load shifts without jittering on a
/// single slow batch.
const BATCH_EWMA_ALPHA: f64 = 0.2;

/// Observed load of one shard worker.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShardLoad {
    /// The shard index.
    pub shard: usize,
    /// Streams currently placed on this shard.
    pub streams: usize,
    /// Lifetime records of the streams **currently placed** on this shard
    /// (migrated streams carry their history with them) — the
    /// placement-attributed load [`EngineStats::imbalance`] and
    /// [`EngineHandle::rebalance`] act on.
    pub stream_records: u64,
    /// Lifetime records this *worker* has processed (history stays with the
    /// worker that did the work, so this diverges from `stream_records`
    /// after a migration).
    pub records: u64,
    /// Records currently sitting in this shard's queue (instantaneous
    /// occupancy at the time of the query).
    pub queue_depth: usize,
    /// Exponentially-weighted moving average of the wall-clock seconds this
    /// worker spends processing one submitted batch partition. Zero until
    /// the first batch lands.
    pub batch_ewma_seconds: f64,
    /// Resident detector bytes of the streams placed on this shard: each
    /// live detector's [`DriftDetector::mem_footprint`] plus each sleeping
    /// stream's compressed-state bookkeeping — the memory counterpart of
    /// [`ShardLoad::stream_records`].
    pub resident_bytes: usize,
    /// Streams currently hibernated on this shard.
    pub hibernated_streams: usize,
    /// Bytes held in hibernated state blobs on this shard (a subset of
    /// [`ShardLoad::resident_bytes`]).
    pub hibernated_bytes: usize,
    /// Lifetime hibernated→live rehydrations this worker has performed.
    pub rehydrations: u64,
}

/// Aggregate lifetime counters across all streams of an engine, plus the
/// per-shard and per-stream load breakdown that makes imbalance observable
/// from the handle.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EngineStats {
    /// Number of registered streams.
    pub streams: usize,
    /// Total elements ingested across all streams.
    pub elements: u64,
    /// Total drifts flagged across all streams.
    pub drifts: u64,
    /// Per-shard load (indexed by shard).
    pub shards: Vec<ShardLoad>,
    /// Lifetime records per stream, sorted by stream id.
    pub stream_records: Vec<(u64, u64)>,
}

impl EngineStats {
    /// Load-imbalance ratio across shards: the hottest shard's
    /// placement-attributed record count ([`ShardLoad::stream_records`])
    /// over the mean (1.0 = perfectly balanced; 1.0 for an engine that has
    /// ingested nothing). Drops back toward 1.0 after a successful
    /// rebalance, since moved streams take their history with them.
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        imbalance(
            &self
                .shards
                .iter()
                .map(|s| s.stream_records)
                .collect::<Vec<_>>(),
        )
    }

    /// Resident detector bytes across all shards (live footprints plus
    /// hibernated blobs) — see [`ShardLoad::resident_bytes`].
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.resident_bytes).sum()
    }

    /// Streams currently hibernated across all shards.
    #[must_use]
    pub fn hibernated_streams(&self) -> usize {
        self.shards.iter().map(|s| s.hibernated_streams).sum()
    }

    /// Bytes held in hibernated state blobs across all shards.
    #[must_use]
    pub fn hibernated_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.hibernated_bytes).sum()
    }

    /// Lifetime hibernated→live rehydrations across all shards.
    #[must_use]
    pub fn rehydrations(&self) -> u64 {
        self.shards.iter().map(|s| s.rehydrations).sum()
    }
}

/// Renders a byte count with a binary-unit suffix (`1.5MiB`), for the
/// [`EngineStats`] display table.
fn fmt_bytes(bytes: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes}B")
    } else {
        format!("{value:.1}{}", UNITS[unit])
    }
}

impl fmt::Display for EngineStats {
    /// Compact multi-line dump for CLIs: aggregate counters, one line per
    /// shard, and the hottest streams.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} streams · {} records · {} drifts · imbalance {:.2} · mem {} \
             ({} hibernated, {} blobs)",
            self.streams,
            self.elements,
            self.drifts,
            self.imbalance(),
            fmt_bytes(self.resident_bytes()),
            self.hibernated_streams(),
            fmt_bytes(self.hibernated_bytes())
        )?;
        for shard in &self.shards {
            writeln!(
                f,
                "  shard {}: {} streams · {} records · {} processed · queue {} · \
                 batch EWMA {:.3}ms · mem {} ({} hibernated, {} blobs)",
                shard.shard,
                shard.streams,
                shard.stream_records,
                shard.records,
                shard.queue_depth,
                shard.batch_ewma_seconds * 1e3,
                fmt_bytes(shard.resident_bytes),
                shard.hibernated_streams,
                fmt_bytes(shard.hibernated_bytes)
            )?;
        }
        // Top-k selection, not a full sort: stats() carries one entry per
        // stream and fleets are large.
        let mut hottest: Vec<(u64, u64)> = self.stream_records.clone();
        let by_heat = |a: &(u64, u64), b: &(u64, u64)| b.1.cmp(&a.1).then(a.0.cmp(&b.0));
        if hottest.len() > 5 {
            hottest.select_nth_unstable_by(4, by_heat);
            hottest.truncate(5);
        }
        hottest.sort_unstable_by(by_heat);
        if !hottest.is_empty() {
            write!(f, "  hottest streams:")?;
            for (stream, records) in hottest {
                write!(f, " #{stream} ({records})")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// `max / mean` of a load vector (1.0 when the total load is zero).
fn imbalance(loads: &[u64]) -> f64 {
    let total: u64 = loads.iter().sum();
    match loads.iter().max() {
        Some(&max) if total > 0 => max as f64 * loads.len() as f64 / total as f64,
        _ => 1.0,
    }
}

/// What a [`EngineHandle::rebalance`] call did.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceReport {
    /// Streams considered.
    pub streams: usize,
    /// Streams actually migrated to a different shard.
    pub moved: usize,
    /// Per-shard lifetime records of the streams under the old placement.
    pub load_before: Vec<u64>,
    /// Per-shard lifetime records of the streams under the new placement.
    pub load_after: Vec<u64>,
}

impl RebalanceReport {
    /// `max / mean` shard load before the rebalance (1.0 = balanced).
    #[must_use]
    pub fn imbalance_before(&self) -> f64 {
        imbalance(&self.load_before)
    }

    /// `max / mean` shard load after the rebalance.
    #[must_use]
    pub fn imbalance_after(&self) -> f64 {
        imbalance(&self.load_after)
    }
}

impl fmt::Display for RebalanceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rebalance: moved {}/{} streams, imbalance {:.2} -> {:.2}",
            self.moved,
            self.streams,
            self.imbalance_before(),
            self.imbalance_after()
        )
    }
}

/// Messages a worker accepts over its FIFO channel. Barriers ride the same
/// queue as records, so each one runs only after every record enqueued
/// before it has been processed.
enum ShardMsg {
    /// A partition of a submitted batch (all records belong to this shard).
    Records(Vec<(u64, f64)>),
    /// A control operation, run on the worker thread with `&mut` access to
    /// the worker; it sends its own reply.
    Barrier(Box<dyn FnOnce(&mut Worker) + Send>),
    /// Exit the worker loop after draining everything queued before this.
    Shutdown,
}

/// One shard's statistics query answer: its streams plus its own load
/// counters (queue occupancy is accounted handle-side).
pub(crate) struct ShardReport {
    streams: Vec<StreamSnapshot>,
    /// Lifetime records this worker has ingested.
    records: u64,
    /// EWMA of per-batch processing latency, seconds.
    batch_ewma_seconds: f64,
    /// Resident detector bytes across the shard's streams.
    resident_bytes: usize,
    /// Streams currently hibernated.
    hibernated_streams: usize,
    /// Bytes held in hibernated state blobs.
    hibernated_bytes: usize,
    /// Lifetime rehydrations performed by this worker.
    rehydrations: u64,
}

/// Queue accounting shared between producers and workers.
///
/// The channels themselves are unbounded; boundedness comes from this
/// record-level ledger, which lets `try_submit` reserve space on *all*
/// target shards atomically (a partial enqueue would break the
/// all-or-nothing contract).
struct QueueState {
    /// Records currently queued per shard.
    depth: Mutex<Vec<usize>>,
    /// Signalled whenever a worker dequeues records or the engine closes.
    space: Condvar,
    /// Set when any worker exits (shutdown or panic): the engine no longer
    /// makes progress, so producers must stop waiting.
    closed: AtomicBool,
    /// Set when a worker exits by panic.
    poisoned: AtomicBool,
    /// The first ingestion-time error recorded by a worker since the last
    /// [`EngineHandle::take_error`] (e.g. an unknown stream with no
    /// default spec), surfaced by [`EngineHandle::flush`]. Later errors are
    /// dropped, so a flood of bad records cannot grow memory.
    error: Mutex<Option<EngineError>>,
}

impl QueueState {
    fn record_error(&self, error: EngineError) {
        self.error
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get_or_insert(error);
    }

    /// Why a worker no longer answers: [`EngineError::Poisoned`] when one
    /// died by panic, [`EngineError::ChannelClosed`] after a shutdown.
    fn worker_gone(&self) -> EngineError {
        if self.poisoned.load(Ordering::SeqCst) {
            EngineError::Poisoned
        } else {
            EngineError::ChannelClosed
        }
    }
}

/// Per-stream state owned by exactly one shard worker.
pub(crate) struct StreamState {
    /// The detector — resident, or compressed to a hibernated blob.
    pub(crate) slot: DetectorSlot,
    /// The spec the stream's detector was built from. Recorded so operators
    /// can introspect live streams ([`EngineHandle::stream_spec`]),
    /// snapshots are self-describing, and a sleeping stream's detector can
    /// be rebuilt on its next record.
    pub(crate) spec: DetectorSpec,
    /// Elements ingested for this stream so far (the next element's sequence
    /// number).
    pub(crate) seq: u64,
    /// Wall-clock seconds spent inside the detector for this stream.
    pub(crate) seconds: f64,
    /// Values staged for the current batch (reused across batches).
    staged: Vec<f64>,
    /// [`StreamState::seq`] as observed at the previous flush barrier — the
    /// idleness reference for the hibernation sweep.
    last_flush_seq: u64,
    /// Consecutive flush barriers at which `seq` had not moved.
    idle_flushes: u32,
    /// `true` when this stream's persisted entry changed since the last
    /// checkpoint capture: set at creation, after every ingested batch,
    /// when the hibernation sweep compresses the stream (the entry's
    /// `hibernated` flag and state layout change even though the logical
    /// detector state does not), and when a migration installs the stream
    /// on a new shard (the entry's `shard` changes). Cleared only by
    /// checkpoint capture — the delta overlay holds exactly the streams
    /// with this bit set.
    dirty: bool,
}

impl StreamState {
    /// A stream at position 0. `slot` is hibernated only for a stream
    /// restored asleep (see [`crate::EngineBuilder::hibernation`]): its
    /// persisted state stays compressed until the stream's next record.
    pub(crate) fn new(slot: DetectorSlot, spec: DetectorSpec) -> Self {
        Self {
            slot,
            spec,
            seq: 0,
            seconds: 0.0,
            staged: Vec::new(),
            last_flush_seq: 0,
            idle_flushes: 0,
            dirty: true,
        }
    }

    /// Seeds the restored position: `seq`, lifetime seconds, and the
    /// idleness reference (so a restored stream is not misread as
    /// freshly-active at its first flush barrier).
    pub(crate) fn restore_position(&mut self, seq: u64, seconds: f64) {
        self.seq = seq;
        self.seconds = seconds;
        self.last_flush_seq = seq;
    }

    /// Compresses the live detector into a hibernated blob, freeing the
    /// detector and the staging buffer. No-op (returning `false`) when the
    /// stream is already asleep.
    fn hibernate(&mut self) -> bool {
        let DetectorSlot::Live(detector) = &self.slot else {
            return false;
        };
        debug_assert!(self.staged.is_empty(), "hibernating mid-batch");
        self.slot = DetectorSlot::Hibernated(HibernatedDetector::capture(detector.as_ref()));
        // Drop the staging buffer's capacity along with the detector: a
        // cold stream should cost its blob, not its last batch size.
        self.staged = Vec::new();
        true
    }

    /// Decompresses a hibernated stream back into a live detector,
    /// bit-exact with the one that was captured. No-op when already live.
    ///
    /// # Errors
    ///
    /// [`EngineError::Hibernation`] — see [`HibernatedDetector::wake`]. The
    /// stream stays asleep (and its blob intact) on error.
    fn rehydrate(&mut self, stream: u64) -> Result<(), EngineError> {
        let DetectorSlot::Hibernated(sleeper) = &self.slot else {
            return Ok(());
        };
        self.slot = DetectorSlot::Live(sleeper.wake(stream, &self.spec)?);
        Ok(())
    }
}

/// A shard: a disjoint set of streams processed sequentially by one worker.
#[derive(Default)]
struct ShardState {
    /// This shard's index (for [`StreamSnapshot::shard`]).
    shard_index: usize,
    streams: HashMap<u64, StreamState>,
    /// First-seen order of the streams staged in the current batch.
    batch_order: Vec<u64>,
    /// Event staging buffer, reused across batches.
    events: Vec<DriftEvent>,
    /// Lifetime records ingested by this worker (migrated streams keep their
    /// own counters; this one follows the *worker*).
    records: u64,
    /// Batch partitions processed (0 ⇔ the EWMA below is unseeded).
    batches: u64,
    /// EWMA of the wall-clock seconds spent processing one batch partition
    /// (zero until the first batch).
    batch_ewma_seconds: f64,
    /// When set, the sweep run at every flush barrier compresses cold
    /// streams (see [`crate::hibernate`]).
    hibernation: Option<HibernationPolicy>,
    /// Lifetime hibernated→live rehydrations performed by this worker.
    rehydrations: u64,
    /// Checkpoint directory WAL segments are written into (set iff the
    /// engine checkpoints).
    wal_dir: Option<PathBuf>,
    /// Durability level WAL segments are written with (from
    /// [`crate::CheckpointPolicy::durability`]).
    wal_durability: Durability,
    /// The current write-ahead-log segment. `None` until the first
    /// checkpoint barrier activates logging (everything before that barrier
    /// is covered by the base it captures), and after a WAL I/O failure
    /// (the error surfaces at the next flush; durability degrades to the
    /// last checkpoint until a new one rotates segments successfully).
    wal: Option<WalWriter>,
}

impl ShardState {
    /// Stages `records` on their streams, creating unknown streams from the
    /// default spec (or recording [`EngineError::UnknownStream`] and
    /// skipping the record when there is none). Returns whether every
    /// record was staged.
    fn stage(
        &mut self,
        records: &[(u64, f64)],
        default_spec: Option<&DetectorSpec>,
        queue: &QueueState,
    ) -> bool {
        self.batch_order.clear();
        let mut all_staged = true;
        for &(stream, value) in records {
            let state = match self.streams.entry(stream) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(e) => match default_spec {
                    Some(spec) => match spec.build() {
                        Ok(detector) => {
                            e.insert(StreamState::new(DetectorSlot::Live(detector), spec.clone()))
                        }
                        Err(error) => {
                            // Unreachable for a builder-validated spec, but a
                            // worker must never panic over it.
                            queue.record_error(EngineError::InvalidSpec(error.to_string()));
                            all_staged = false;
                            continue;
                        }
                    },
                    None => {
                        queue.record_error(EngineError::UnknownStream(stream));
                        all_staged = false;
                        continue;
                    }
                },
            };
            if state.staged.is_empty() {
                self.batch_order.push(stream);
            }
            state.staged.push(value);
        }
        all_staged
    }

    /// Runs every staged stream's detector through its batch path and
    /// emits the events — sorted by `(stream, seq)` within this call —
    /// into the sinks.
    fn apply(&mut self, sinks: &[Arc<dyn EventSink>], emit_warnings: bool, queue: &QueueState) {
        self.events.clear();
        for &stream in &self.batch_order {
            let state = self.streams.get_mut(&stream).expect("staged above");
            if state.slot.is_hibernated() {
                if let Err(error) = state.rehydrate(stream) {
                    // Keep the blob intact and drop this batch's records for
                    // the stream; the next batch retries the wake.
                    queue.record_error(error);
                    state.staged.clear();
                    continue;
                }
                self.rehydrations += 1;
            }
            let DetectorSlot::Live(detector) = &mut state.slot else {
                unreachable!("rehydrated above");
            };
            let started = Instant::now();
            let outcome = detector.add_batch(&state.staged);
            state.seconds += started.elapsed().as_secs_f64();

            self.events
                .extend(outcome.drift_indices.iter().map(|&i| DriftEvent {
                    stream,
                    seq: state.seq + i as u64,
                    status: DriftStatus::Drift,
                }));
            if emit_warnings {
                self.events
                    .extend(outcome.warning_indices.iter().map(|&i| DriftEvent {
                        stream,
                        seq: state.seq + i as u64,
                        status: DriftStatus::Warning,
                    }));
            }
            state.seq += state.staged.len() as u64;
            state.staged.clear();
            state.dirty = true;
        }

        self.events.sort_unstable_by_key(|e| (e.stream, e.seq));
        for event in &self.events {
            for sink in sinks {
                sink.emit(event);
            }
        }
    }

    /// Folds one processed batch partition into the load counters. A batch
    /// counter (not a 0.0 sentinel) marks the unseeded EWMA, since a coarse
    /// clock can legitimately measure a batch at exactly zero seconds.
    fn note_batch(&mut self, records: usize, seconds: f64) {
        self.records += records as u64;
        if self.batches == 0 {
            self.batch_ewma_seconds = seconds;
        } else {
            self.batch_ewma_seconds += BATCH_EWMA_ALPHA * (seconds - self.batch_ewma_seconds);
        }
        self.batches += 1;
    }

    /// One stream's statistics view.
    fn stream_snapshot(&self, stream: u64, state: &StreamState) -> StreamSnapshot {
        StreamSnapshot {
            stream,
            shard: self.shard_index,
            elements: state.seq,
            drifts: state.slot.drifts_detected(),
            detector_seconds: state.seconds,
            detector: state.slot.name(),
            spec: state.spec.clone(),
            hibernated: state.slot.is_hibernated(),
            mem_bytes: state.slot.mem_bytes(),
        }
    }

    fn query(&self) -> ShardReport {
        let streams: Vec<StreamSnapshot> = self
            .streams
            .iter()
            .map(|(&stream, state)| self.stream_snapshot(stream, state))
            .collect();
        ShardReport {
            resident_bytes: streams.iter().map(|s| s.mem_bytes).sum(),
            hibernated_streams: streams.iter().filter(|s| s.hibernated).count(),
            hibernated_bytes: self
                .streams
                .values()
                .map(|state| state.slot.hibernated_bytes())
                .sum(),
            streams,
            records: self.records,
            batch_ewma_seconds: self.batch_ewma_seconds,
            rehydrations: self.rehydrations,
        }
    }

    /// Serializes one stream's persisted entry. A sleeping stream embeds
    /// its blob verbatim — snapshotting a mostly-cold fleet never
    /// materializes its detectors; the blob holds the same wire-v4 state
    /// the live detector would write.
    fn snapshot_entry(&self, stream: u64) -> StreamStateSnapshot {
        let state = &self.streams[&stream];
        StreamStateSnapshot {
            stream,
            seq: state.seq,
            detector: state.slot.name().to_string(),
            detector_seconds: state.seconds,
            spec: Some(state.spec.clone()),
            shard: Some(self.shard_index),
            state: state.slot.state_value(),
            hibernated: state.slot.is_hibernated(),
        }
    }

    /// Serializes the entries of the streams `keep` selects, in id order.
    fn snapshot(&self, keep: impl Fn(&StreamState) -> bool) -> Vec<StreamStateSnapshot> {
        let mut ids: Vec<u64> = self
            .streams
            .iter()
            .filter(|(_, state)| keep(state))
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        ids.into_iter()
            .map(|stream| self.snapshot_entry(stream))
            .collect()
    }

    /// The worker half of a checkpoint barrier: finalizes the current WAL
    /// segment, rotates to the segment of `generation + 1`, and captures
    /// the dirty streams' entries (all streams when `full`), clearing their
    /// dirty bits.
    ///
    /// Ordering matters for crash safety: the rotation happens *before*
    /// the capture, so if the handle side fails or crashes before the
    /// manifest lands, the finalized old segment is still ≥ the last
    /// durable manifest generation and recovery replays it — nothing
    /// processed is ever outside both the checkpoint and the log.
    fn checkpoint_capture(
        &mut self,
        generation: u64,
        full: bool,
    ) -> Result<Vec<StreamStateSnapshot>, EngineError> {
        if let Some(wal) = self.wal.take() {
            wal.finish()?;
        }
        if let Some(dir) = &self.wal_dir {
            self.wal = Some(WalWriter::create(
                dir,
                generation + 1,
                self.shard_index,
                self.wal_durability,
            )?);
        }
        let entries = self.snapshot(|state| full || state.dirty);
        for entry in &entries {
            self.streams
                .get_mut(&entry.stream)
                .expect("listed above")
                .dirty = false;
        }
        Ok(entries)
    }

    /// Removes the named streams and hands their state back — the outbound
    /// half of a migration.
    fn extract(&mut self, streams: Vec<u64>) -> Vec<(u64, StreamState)> {
        streams
            .into_iter()
            .filter_map(|stream| Some((stream, self.streams.remove(&stream)?)))
            .collect()
    }

    /// Adopts migrated streams — the inbound half of a migration.
    fn install(&mut self, states: Vec<(u64, StreamState)>) {
        for (stream, mut state) in states {
            debug_assert!(
                !self.streams.contains_key(&stream),
                "migration target already owns stream {stream}"
            );
            // A migrated stream's persisted `shard` field changed, so the
            // next delta checkpoint must re-capture it here (the source
            // shard no longer owns it at all).
            state.dirty = true;
            self.streams.insert(stream, state);
        }
    }

    /// The hibernation sweep, run at every flush barrier (before sinks
    /// flush): advances each stream's idleness counter and compresses the
    /// ones that crossed [`HibernationPolicy::cold_after_flushes`]. With
    /// `cold_after_flushes == 0` every stream hibernates at every barrier,
    /// active or not — the forced mode equivalence tests use.
    fn hibernation_sweep(&mut self) {
        let Some(policy) = self.hibernation else {
            return;
        };
        for state in self.streams.values_mut() {
            if state.seq != state.last_flush_seq {
                state.last_flush_seq = state.seq;
                state.idle_flushes = 0;
                if policy.cold_after_flushes > 0 {
                    continue;
                }
            } else {
                state.idle_flushes = state.idle_flushes.saturating_add(1);
            }
            if state.idle_flushes >= policy.cold_after_flushes && state.hibernate() {
                // A hibernation transition changes the persisted entry (the
                // `hibernated` flag and blob form), so the next delta
                // checkpoint must re-capture the stream.
                state.dirty = true;
            }
        }
    }
}

/// Marks the engine closed when the worker exits — normally *or* by panic —
/// so producers blocked on backpressure wake up instead of hanging.
struct WorkerGuard {
    queue: Arc<QueueState>,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.queue.poisoned.store(true, Ordering::SeqCst);
            self.queue.record_error(EngineError::Poisoned);
        }
        self.queue.closed.store(true, Ordering::SeqCst);
        self.queue.space.notify_all();
    }
}

/// A shard worker: the shard's state plus the sinks, default spec, warning
/// flag and queue ledger the records path reads. Barrier closures receive
/// `&mut Worker` on the worker thread.
struct Worker {
    shard: ShardState,
    default_spec: Option<DetectorSpec>,
    sinks: Vec<Arc<dyn EventSink>>,
    emit_warnings: bool,
    queue: Arc<QueueState>,
}

impl Worker {
    #[allow(clippy::needless_pass_by_value)]
    fn run(mut self, rx: Receiver<ShardMsg>) {
        let _guard = WorkerGuard {
            queue: Arc::clone(&self.queue),
        };
        let shard_index = self.shard.shard_index;
        // Exiting when `recv` fails makes dropping the last handle an
        // implicit shutdown: all senders gone, nothing can arrive anymore.
        while let Ok(msg) = rx.recv() {
            match msg {
                ShardMsg::Records(records) => {
                    {
                        let mut depth = self
                            .queue
                            .depth
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner);
                        depth[shard_index] = depth[shard_index].saturating_sub(records.len());
                    }
                    self.queue.space.notify_all();
                    let started = Instant::now();
                    let all_staged =
                        self.shard
                            .stage(&records, self.default_spec.as_ref(), &self.queue);
                    let mut seconds = started.elapsed().as_secs_f64();
                    // Log-then-apply: the batch lands in the write-ahead log
                    // before any detector sees it, so a crash mid-batch
                    // replays it in full. Records no stream took stay out:
                    // they changed nothing, and replaying them would fail
                    // every recovery with the error they already raised. A
                    // WAL I/O failure degrades durability rather than
                    // availability — the error surfaces at the next barrier
                    // and logging stops until the next checkpoint rotates a
                    // fresh segment in.
                    if let Some(wal) = self.shard.wal.as_mut() {
                        let logged = if all_staged {
                            wal.append_records(&records)
                        } else {
                            let streams = &self.shard.streams;
                            let staged: Vec<(u64, f64)> = records
                                .iter()
                                .filter(|(stream, _)| streams.contains_key(stream))
                                .copied()
                                .collect();
                            wal.append_records(&staged)
                        };
                        if let Err(error) = logged {
                            self.queue.record_error(error);
                            self.shard.wal = None;
                        }
                    }
                    let started = Instant::now();
                    self.shard
                        .apply(&self.sinks, self.emit_warnings, &self.queue);
                    seconds += started.elapsed().as_secs_f64();
                    self.shard.note_batch(records.len(), seconds);
                }
                ShardMsg::Barrier(op) => op(&mut self),
                ShardMsg::Shutdown => break,
            }
        }
        self.flush_sinks();
    }

    fn flush_sinks(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }

    /// Registers a stream with `detector`, built from `spec`. The
    /// registration is durable: the WAL logs the spec string, and recovery
    /// replays the registration verbatim.
    fn register(
        &mut self,
        stream: u64,
        detector: Box<dyn DriftDetector + Send>,
        spec: DetectorSpec,
    ) -> Result<(), EngineError> {
        if self.shard.streams.contains_key(&stream) {
            return Err(EngineError::DuplicateStream(stream));
        }
        if let Some(wal) = self.shard.wal.as_mut() {
            if let Err(error) = wal.append_register(stream, &spec) {
                self.queue.record_error(error);
                self.shard.wal = None;
            }
        }
        self.shard
            .streams
            .insert(stream, StreamState::new(DetectorSlot::Live(detector), spec));
        Ok(())
    }
}

/// State shared by every clone of an [`EngineHandle`].
struct HandleShared {
    queue: Arc<QueueState>,
    /// The stream → shard routing table. Read-locked by every send path,
    /// write-locked by [`EngineHandle::rebalance`] (see [`crate::router`]).
    router: Router,
    /// Worker join handles, taken by the first successful
    /// [`EngineHandle::shutdown`].
    workers: Mutex<Vec<JoinHandle<()>>>,
    emit_warnings: bool,
    queue_capacity: usize,
    /// Durability bookkeeping for the checkpoint subsystem (wire v5):
    /// the target directory, the policy, the next generation number and
    /// the overlay-chain accounting driving base/delta decisions. `None`
    /// when the engine was built without [`crate::EngineBuilder::checkpoint`].
    checkpoint: Option<Mutex<CheckpointState>>,
}

/// A cheaply-cloneable, thread-safe front door to a running engine.
///
/// Obtained from [`crate::EngineBuilder::build`]. Clones share the same
/// worker threads and queues; dropping the last clone lets the workers
/// drain and exit on their own.
///
/// Queueing and barrier semantics: `submit` blocks on a full shard queue
/// while [`EngineHandle::try_submit`] fails fast; [`EngineHandle::flush`],
/// the query methods and [`EngineHandle::snapshot`] ride the same FIFO
/// channels as the records, so each acts as a barrier for everything this
/// thread submitted before it; [`EngineHandle::shutdown`] additionally
/// drains the queues and joins the workers.
pub struct EngineHandle {
    /// Per-clone channel senders (`mpsc::Sender` is `Sync`, so a single
    /// handle may also be shared by reference across threads).
    senders: Vec<Sender<ShardMsg>>,
    shared: Arc<HandleShared>,
}

impl Clone for EngineHandle {
    fn clone(&self) -> Self {
        Self {
            senders: self.senders.clone(),
            shared: Arc::clone(&self.shared),
        }
    }
}

impl std::fmt::Debug for EngineHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineHandle")
            .field("shards", &self.senders.len())
            .field("emit_warnings", &self.shared.emit_warnings)
            .field("queue_capacity", &self.shared.queue_capacity)
            .field("closed", &self.shared.queue.closed.load(Ordering::SeqCst))
            .finish()
    }
}

/// Spawns the shard workers and assembles the handle. Called by
/// [`crate::EngineBuilder::build`] after validation. `initial_streams` is
/// the per-shard placement of restored and pre-registered streams; it seeds
/// the routing table, so non-modulo placements (a restored v3 snapshot)
/// stick.
pub(crate) fn spawn_engine(
    emit_warnings: bool,
    queue_capacity: usize,
    default_spec: Option<DetectorSpec>,
    sinks: Vec<Arc<dyn EventSink>>,
    initial_streams: Vec<HashMap<u64, StreamState>>,
    hibernation: Option<HibernationPolicy>,
    checkpoint: Option<CheckpointConfig>,
) -> EngineHandle {
    let shards = initial_streams.len();
    let queue = Arc::new(QueueState {
        depth: Mutex::new(vec![0; shards]),
        space: Condvar::new(),
        closed: AtomicBool::new(false),
        poisoned: AtomicBool::new(false),
        error: Mutex::new(None),
    });
    let router = Router::new(
        shards,
        initial_streams
            .iter()
            .enumerate()
            .flat_map(|(shard, streams)| streams.keys().map(move |&stream| (stream, shard))),
    );

    let mut senders = Vec::with_capacity(shards);
    let mut workers = Vec::with_capacity(shards);
    for (shard_index, streams) in initial_streams.into_iter().enumerate() {
        let (tx, rx) = channel();
        let shard = ShardState {
            shard_index,
            streams,
            hibernation,
            // Workers start with the WAL *inactive* even when checkpointing
            // is configured: logging begins at the first checkpoint barrier
            // (the builder runs a full one right after spawn), so recovery
            // replay itself is never re-logged against a stale generation.
            wal_dir: checkpoint.as_ref().map(|c| c.dir.clone()),
            wal_durability: checkpoint
                .as_ref()
                .map(|c| c.policy.durability)
                .unwrap_or_default(),
            ..ShardState::default()
        };
        let worker = Worker {
            shard,
            default_spec: default_spec.clone(),
            sinks: sinks.clone(),
            emit_warnings,
            queue: Arc::clone(&queue),
        };
        let worker = std::thread::Builder::new()
            .name(format!("optwin-shard-{shard_index}"))
            .spawn(move || worker.run(rx))
            .expect("failed to spawn engine shard worker");
        senders.push(tx);
        workers.push(worker);
    }

    EngineHandle {
        senders,
        shared: Arc::new(HandleShared {
            queue,
            router,
            workers: Mutex::new(workers),
            emit_warnings,
            queue_capacity,
            checkpoint: checkpoint.map(|config| Mutex::new(CheckpointState::new(config))),
        }),
    }
}

impl EngineHandle {
    /// Number of shards (worker threads).
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.senders.len()
    }

    /// Per-shard queue capacity, in records.
    #[must_use]
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue_capacity
    }

    /// The shard records for `stream` currently route to — the routing
    /// table's answer, whether the stream is registered or not (unknown ids
    /// report the shard they *would* land on). The modulo default applies
    /// unless a restore or a [`EngineHandle::rebalance`] pinned the stream
    /// elsewhere.
    #[must_use]
    pub fn shard_of(&self, stream: u64) -> usize {
        self.shared.router.read().shard_of(stream)
    }

    /// Number of streams currently routed away from their `id % shards`
    /// default (0 until a rebalance or a placement-preserving restore moves
    /// one).
    #[must_use]
    pub fn rerouted_streams(&self) -> usize {
        self.shared.router.read().pin_count()
    }

    /// Enqueues a batch of `(stream id, value)` records and returns
    /// immediately; the shard workers process them asynchronously and push
    /// any detections into the sinks.
    ///
    /// Records are partitioned by `stream % shards`; per-stream order is the
    /// submission order (across all clones, submission order is whatever
    /// order the `submit` calls won the internal reservation). **Blocks**
    /// while a target shard's queue is at capacity; use
    /// [`EngineHandle::try_submit`] to fail fast instead.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ChannelClosed`] after
    /// [`EngineHandle::shutdown`] (or a worker death), or
    /// [`EngineError::Poisoned`] when internal state was poisoned by a
    /// panicking thread. Records referencing unknown streams are validated
    /// on the worker: with a default spec they auto-register, without one
    /// the offending records are dropped and the error surfaces at the next
    /// [`EngineHandle::flush`].
    pub fn submit(&self, records: &[(u64, f64)]) -> Result<(), EngineError> {
        self.submit_inner(records, true)
    }

    /// Non-blocking [`EngineHandle::submit`]: if any target shard's queue
    /// lacks room for its partition, returns [`EngineError::QueueFull`]
    /// **without enqueuing anything** (space is reserved on all shards
    /// atomically), so the caller can retry the whole batch later or shed
    /// load.
    ///
    /// # Errors
    ///
    /// [`EngineError::QueueFull`] on backpressure; otherwise as
    /// [`EngineHandle::submit`].
    pub fn try_submit(&self, records: &[(u64, f64)]) -> Result<(), EngineError> {
        self.submit_inner(records, false)
    }

    fn submit_inner(&self, records: &[(u64, f64)], block: bool) -> Result<(), EngineError> {
        if records.is_empty() {
            return Ok(());
        }
        let nshards = self.senders.len();
        // The router read lock is held across partitioning *and* the sends
        // below: a concurrent rebalance (write lock) can therefore never
        // observe — or invalidate — a half-enqueued batch.
        let router = self.shared.router.read();
        let mut parts: Vec<Vec<(u64, f64)>> = vec![Vec::new(); nshards];
        for &record in records {
            parts[router.shard_of(record.0)].push(record);
        }

        {
            let queue = &self.shared.queue;
            let capacity = self.shared.queue_capacity;
            let mut depth = queue.depth.lock().map_err(|_| EngineError::Poisoned)?;
            loop {
                if queue.closed.load(Ordering::SeqCst) {
                    return Err(EngineError::ChannelClosed);
                }
                // A partition larger than the whole capacity is admitted once
                // its shard's queue is empty, so oversized batches make
                // progress instead of deadlocking.
                let fits = parts.iter().enumerate().all(|(i, part)| {
                    part.is_empty() || depth[i] + part.len() <= capacity || depth[i] == 0
                });
                if fits {
                    break;
                }
                if !block {
                    return Err(EngineError::QueueFull);
                }
                depth = queue.space.wait(depth).map_err(|_| EngineError::Poisoned)?;
            }
            for (i, part) in parts.iter().enumerate() {
                depth[i] += part.len();
            }
        }

        for (i, part) in parts.into_iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            self.senders[i]
                .send(ShardMsg::Records(part))
                .map_err(|_| EngineError::ChannelClosed)?;
        }
        Ok(())
    }

    /// Registers a stream: validates `spec`, builds its detector on the
    /// calling thread, and records the spec on the stream, blocking until
    /// the owning shard worker acknowledges (so a subsequent
    /// [`EngineHandle::submit`] from this thread is guaranteed to find the
    /// stream registered). The registration is write-ahead logged when the
    /// engine checkpoints.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidSpec`] when the spec's parameters are
    /// out of range, [`EngineError::DuplicateStream`] if the id is already
    /// registered (the stream keeps its original detector), or
    /// [`EngineError::ChannelClosed`] when the engine has shut down.
    pub fn register_stream_spec(&self, stream: u64, spec: DetectorSpec) -> Result<(), EngineError> {
        let detector = spec
            .build()
            .map_err(|e| EngineError::InvalidSpec(e.to_string()))?;
        // Route-and-send under the router read lock so a concurrent
        // rebalance cannot move the stream between lookup and enqueue.
        let router = self.shared.router.read();
        let shard = router.shard_of(stream);
        let register = move |worker: &mut Worker| worker.register(stream, detector, spec);
        self.barrier(router, [(shard, register)])?.remove(0)
    }

    /// The [`DetectorSpec`] a live stream is running, so operators can
    /// introspect a fleet without bookkeeping on the side. Returns `None`
    /// when the stream is not registered.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ChannelClosed`] when the engine has shut down.
    pub fn stream_spec(&self, stream: u64) -> Result<Option<DetectorSpec>, EngineError> {
        Ok(self.stream_stats(stream)?.map(|s| s.spec))
    }

    /// Barrier: waits until every record submitted (by this thread) before
    /// this call has been processed and the sinks have been flushed.
    ///
    /// # Errors
    ///
    /// Returns the first ingestion error recorded since the last flush
    /// (e.g. [`EngineError::UnknownStream`] for records dropped by an
    /// engine without a default spec — only the first is kept, later ones
    /// are discarded), [`EngineError::ChannelClosed`] when the engine has
    /// shut down, or [`EngineError::Poisoned`] after a worker panic. An
    /// ingestion error does not skip the checkpoint cadence; a failed
    /// automatic checkpoint is returned in its place.
    pub fn flush(&self) -> Result<(), EngineError> {
        self.barrier_all(self.shared.router.read(), |worker: &mut Worker| {
            // Flush barriers double as the hibernation sweep points: a
            // batch never ends mid-flush, so every stream's staging buffer
            // is empty here.
            worker.shard.hibernation_sweep();
            worker.flush_sinks();
        })?;
        let ingest_error = self.take_error();
        // Checkpoint cadence rides the same barrier: with the queues
        // drained, the dirty sets are exact and the capture is a clean
        // cut. It runs even when ingestion dropped records, or a flood of
        // those would keep the log growing without a checkpoint.
        // `every_flushes == 0` disables the automatic cadence (explicit
        // [`EngineHandle::checkpoint`] calls only).
        if let Some(state) = &self.shared.checkpoint {
            let due = {
                let mut state = state.lock().map_err(|_| EngineError::Poisoned)?;
                state.flushes_since += 1;
                state.policy.every_flushes > 0 && state.flushes_since >= state.policy.every_flushes
            };
            if due {
                self.run_checkpoint(false, false)?;
            }
        }
        ingest_error.map_or(Ok(()), Err)
    }

    /// The one shard barrier: enqueues `op` on each listed shard — behind
    /// every record already queued there — and returns the replies in list
    /// order once every target worker has run its closure.
    ///
    /// `router` is the caller's router guard. It is held while the closures
    /// are enqueued, so no rebalance can cut between routing and sending,
    /// and dropped before the replies are awaited; pass a reference (or
    /// `None` when the caller already holds the lock) to keep holding it.
    ///
    /// # Errors
    ///
    /// When a target worker has exited: [`EngineError::Poisoned`] if a
    /// worker died by panic, [`EngineError::ChannelClosed`] otherwise.
    fn barrier<G, R, F>(
        &self,
        router: G,
        ops: impl IntoIterator<Item = (usize, F)>,
    ) -> Result<Vec<R>, EngineError>
    where
        R: Send + 'static,
        F: FnOnce(&mut Worker) -> R + Send + 'static,
    {
        let queue = &self.shared.queue;
        let mut replies = Vec::new();
        for (shard, op) in ops {
            let (reply, response) = channel();
            self.senders[shard]
                .send(ShardMsg::Barrier(Box::new(move |worker| {
                    let _ = reply.send(op(worker));
                })))
                .map_err(|_| queue.worker_gone())?;
            replies.push(response);
        }
        drop(router);
        replies
            .into_iter()
            .map(|response| response.recv().map_err(|_| queue.worker_gone()))
            .collect()
    }

    /// [`EngineHandle::barrier`] with the same closure on every shard.
    fn barrier_all<G, R, F>(&self, router: G, op: F) -> Result<Vec<R>, EngineError>
    where
        R: Send + 'static,
        F: FnOnce(&mut Worker) -> R + Clone + Send + 'static,
    {
        let ops = (0..self.senders.len()).map(|shard| (shard, op.clone()));
        self.barrier(router, ops)
    }

    /// A barrier with no work of its own: returns the first ingestion error
    /// recorded since the last [`EngineHandle::take_error`], once every
    /// record queued before the call has been processed.
    pub(crate) fn settle(&self) -> Result<(), EngineError> {
        self.barrier_all(self.shared.router.read(), |_: &mut Worker| {})?;
        self.take_error().map_or(Ok(()), Err)
    }

    /// Removes and returns the oldest pending ingestion error; any later
    /// ones were discarded when they were recorded.
    /// [`EngineHandle::flush`] calls this internally; it is public for
    /// callers that poll instead of flushing.
    #[must_use]
    pub fn take_error(&self) -> Option<EngineError> {
        self.shared
            .queue
            .error
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }

    /// Per-shard reports (streams plus shard load), as a barrier (reflects
    /// all records submitted by this thread before the call). Indexed by
    /// shard.
    fn query_all(&self) -> Result<Vec<ShardReport>, EngineError> {
        self.barrier_all(self.shared.router.read(), |worker: &mut Worker| {
            worker.shard.query()
        })
    }

    /// Lifetime statistics for every registered stream, sorted by stream id.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ChannelClosed`] when the engine has shut down.
    pub fn stream_snapshots(&self) -> Result<Vec<StreamSnapshot>, EngineError> {
        let mut snapshots: Vec<StreamSnapshot> = self
            .query_all()?
            .into_iter()
            .flat_map(|report| report.streams)
            .collect();
        snapshots.sort_unstable_by_key(|s| s.stream);
        Ok(snapshots)
    }

    /// Lifetime statistics for one stream, if registered.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ChannelClosed`] when the engine has shut down.
    pub fn stream_stats(&self, stream: u64) -> Result<Option<StreamSnapshot>, EngineError> {
        let router = self.shared.router.read();
        let shard = router.shard_of(stream);
        let lookup = move |worker: &mut Worker| {
            let shard = &worker.shard;
            let state = shard.streams.get(&stream)?;
            Some(shard.stream_snapshot(stream, state))
        };
        Ok(self.barrier(router, [(shard, lookup)])?.remove(0))
    }

    /// Aggregate lifetime counters across all streams, including the
    /// per-shard load breakdown (records ingested, instantaneous queue
    /// occupancy, batch-latency EWMA) and per-stream record counts — the
    /// observability surface behind [`EngineHandle::rebalance`]. `Display`
    /// renders it as a compact table for CLI dumps.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ChannelClosed`] when the engine has shut down,
    /// or [`EngineError::Poisoned`] after a worker panic.
    pub fn stats(&self) -> Result<EngineStats, EngineError> {
        let reports = self.query_all()?;
        let depths: Vec<usize> = self
            .shared
            .queue
            .depth
            .lock()
            .map_err(|_| EngineError::Poisoned)?
            .clone();
        let mut stream_records: Vec<(u64, u64)> = reports
            .iter()
            .flat_map(|report| report.streams.iter().map(|s| (s.stream, s.elements)))
            .collect();
        stream_records.sort_unstable();
        Ok(EngineStats {
            streams: stream_records.len(),
            elements: stream_records.iter().map(|&(_, n)| n).sum(),
            drifts: reports
                .iter()
                .flat_map(|report| report.streams.iter().map(|s| s.drifts))
                .sum(),
            shards: reports
                .iter()
                .enumerate()
                .map(|(shard, report)| ShardLoad {
                    shard,
                    streams: report.streams.len(),
                    stream_records: report.streams.iter().map(|s| s.elements).sum(),
                    records: report.records,
                    queue_depth: depths.get(shard).copied().unwrap_or(0),
                    batch_ewma_seconds: report.batch_ewma_seconds,
                    resident_bytes: report.resident_bytes,
                    hibernated_streams: report.hibernated_streams,
                    hibernated_bytes: report.hibernated_bytes,
                    rehydrations: report.rehydrations,
                })
                .collect(),
            stream_records,
        })
    }

    /// Recomputes the stream placement from each stream's lifetime records
    /// and migrates the moved streams' state between shard workers —
    /// detector, spec, `seq` counter, lifetime stats — atomically with
    /// respect to every other handle operation.
    ///
    /// The plan is greedy bin-packing (longest-processing-time): streams
    /// sorted by lifetime records (ties by id) are assigned one by one to
    /// the least-loaded shard. The call acts as its own barrier —
    /// the migration messages ride the same FIFO queues as records, and the
    /// router's write lock excludes concurrent submits — so per-stream
    /// record order, and therefore every future [`DriftEvent`] and its
    /// `seq`, is exactly what it would have been without the rebalance.
    /// Moving a stream moves its *future* work only; per-shard lifetime
    /// `records` counters stay with the workers that did the work.
    ///
    /// Returns a [`RebalanceReport`] with the move count and the before /
    /// after load vectors. When the greedy plan matches the current
    /// placement the call is a cheap no-op (`moved == 0`, no messages
    /// beyond the load query).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ChannelClosed`] when the engine has shut
    /// down.
    pub fn rebalance(&self) -> Result<RebalanceReport, EngineError> {
        let nshards = self.senders.len();
        let mut router = self.shared.router.write();

        // Load query under the write lock: the answer reflects exactly the
        // records that will have been processed before the migration cut.
        let reports = self.barrier_all(&router, |worker: &mut Worker| worker.shard.query())?;
        // (stream, current shard, lifetime records)
        let mut streams: Vec<(u64, usize, u64)> = Vec::new();
        for (shard, report) in reports.into_iter().enumerate() {
            for s in report.streams {
                streams.push((s.stream, shard, s.elements));
            }
        }

        let mut load_before = vec![0; nshards];
        for &(_, shard, load) in &streams {
            load_before[shard] += load;
        }

        // Greedy LPT: heaviest stream first onto the least-loaded shard
        // (ties by lowest shard index). Deterministic for a given load
        // vector. Streams with **no observed load stay put** — packing them
        // by LPT would dump every zero onto one shard (adding 0 never
        // advances the minimum), and there is no evidence to justify moving
        // them anyway.
        streams.sort_unstable_by_key(|&(stream, _, load)| (std::cmp::Reverse(load), stream));
        let mut load_after = vec![0; nshards];
        let mut assignment: Vec<(u64, usize)> = Vec::with_capacity(streams.len());
        let mut moves: Vec<(u64, usize, usize)> = Vec::new(); // (stream, from, to)
        for &(stream, current, load) in &streams {
            let target = if load > 0 {
                load_after
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &shard_load)| shard_load)
                    .map_or(0, |(i, _)| i)
            } else {
                current
            };
            load_after[target] += load;
            assignment.push((stream, target));
            if target != current {
                moves.push((stream, current, target));
            }
        }

        // LPT from scratch is not monotone against an arbitrary existing
        // placement (e.g. loads {3,3}|{2,2,2} re-pack to {3,2,2}|{3,2}): a
        // plan that does not *strictly* lower the hottest shard is
        // discarded and the current placement kept — so rebalance never
        // makes things worse and repeated calls cannot thrash.
        if !moves.is_empty() && load_after.iter().max() >= load_before.iter().max() {
            moves.clear();
            assignment.clear();
            assignment.extend(
                streams
                    .iter()
                    .map(|&(stream, current, _)| (stream, current)),
            );
            load_after.clone_from(&load_before);
        }

        let report = RebalanceReport {
            streams: streams.len(),
            moved: moves.len(),
            load_before,
            load_after,
        };
        if moves.is_empty() {
            return Ok(report);
        }

        // Extract every moved stream from its source shard (a per-shard
        // barrier: all previously routed records are already processed when
        // it runs)...
        let mut outgoing: Vec<Vec<u64>> = vec![Vec::new(); nshards];
        for &(stream, from, _) in &moves {
            outgoing[from].push(stream);
        }
        let extract = outgoing
            .into_iter()
            .enumerate()
            .filter(|(_, streams)| !streams.is_empty())
            .map(|(shard, streams)| {
                (shard, move |worker: &mut Worker| {
                    worker.shard.extract(streams)
                })
            });
        let mut extracted: HashMap<u64, StreamState> = self
            .barrier(&router, extract)?
            .into_iter()
            .flatten()
            .collect();

        // ... and install it on its destination.
        let mut incoming: Vec<Vec<(u64, StreamState)>> = (0..nshards).map(|_| Vec::new()).collect();
        for &(stream, _, to) in &moves {
            if let Some(state) = extracted.remove(&stream) {
                incoming[to].push((stream, state));
            }
        }
        let install = incoming
            .into_iter()
            .enumerate()
            .filter(|(_, states)| !states.is_empty())
            .map(|(shard, states)| {
                (shard, move |worker: &mut Worker| {
                    worker.shard.install(states)
                })
            });
        self.barrier(&router, install)?;

        // Only now does the routing table flip: every record submitted
        // after the write lock releases follows the new placement.
        router.repin(assignment);

        // A migration changes stream → shard ownership, which the WAL
        // cannot express (segments are per-shard and replay in shard
        // order). Cutting a checkpoint at the migration barrier — while
        // the router write lock still excludes new records — keeps
        // recovery exact: everything before the move is covered by the
        // checkpoint, everything after logs under the new owner.
        if self.shared.checkpoint.is_some() {
            self.run_checkpoint(false, true)?;
        }
        Ok(report)
    }

    /// Cuts a checkpoint **now**, as a barrier: everything submitted by
    /// this thread before the call is covered. Writes a delta overlay of
    /// the streams dirty since the previous checkpoint — or a fresh full
    /// base when there is none yet or the overlay chain has outgrown
    /// [`crate::CheckpointPolicy::compact_ratio`] × the base (compaction) —
    /// then the manifest, then prunes files no longer referenced.
    /// Checkpoints also run automatically at flush barriers per
    /// [`crate::CheckpointPolicy::every_flushes`]; this method is for
    /// explicit cut points (before a planned handover, after a bulk load).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Checkpoint`] when the engine was built
    /// without [`crate::EngineBuilder::checkpoint`] or when writing to the
    /// checkpoint directory fails, [`EngineError::ChannelClosed`] when the
    /// engine has shut down, or [`EngineError::Poisoned`] after a worker
    /// panic.
    pub fn checkpoint(&self) -> Result<CheckpointReport, EngineError> {
        self.run_checkpoint(false, false)
    }

    /// The checkpoint cycle shared by [`EngineHandle::checkpoint`], the
    /// flush cadence and the rebalance hook. `router_locked` is `true` when
    /// the caller already holds the router write lock (rebalance) —
    /// `std::sync::RwLock` is not reentrant.
    ///
    /// Write ordering is the crash-safety contract: delta/base file first,
    /// manifest (the commit point) second, garbage collection last — and
    /// every file lands via write-to-temp + rename. A crash between any
    /// two steps leaves the previous manifest authoritative and the WAL
    /// segments it needs intact.
    pub(crate) fn run_checkpoint(
        &self,
        force_full: bool,
        router_locked: bool,
    ) -> Result<CheckpointReport, EngineError> {
        let Some(state_mutex) = &self.shared.checkpoint else {
            return Err(EngineError::Checkpoint(
                "engine was built without a checkpoint directory \
                 (EngineBuilder::checkpoint)"
                    .to_string(),
            ));
        };
        let mut state = state_mutex.lock().map_err(|_| EngineError::Poisoned)?;
        let full = force_full || state.wants_full();
        let generation = state.next_generation;

        // The capture barrier: every worker finalizes its WAL segment,
        // rotates to generation + 1 and returns its (dirty or full) entry
        // set. Holding the checkpoint lock serializes concurrent cuts;
        // the router read lock keeps the shard set stable underneath.
        let router = (!router_locked).then(|| self.shared.router.read());
        let captures = self.barrier_all(router, move |worker: &mut Worker| {
            worker.shard.checkpoint_capture(generation, full)
        });
        // Past the barrier, shards have already cleared dirty bits; any
        // failure before the manifest lands marks the state degraded so the
        // next checkpoint writes a full base instead of a (possibly
        // incomplete) delta. The workers have also rotated their logs to
        // `generation + 1`, so the next attempt takes the generation after
        // it: reusing this one would re-create, and so truncate, the
        // segments holding every record logged since.
        let result = captures.and_then(|captures| {
            let mut streams: Vec<StreamStateSnapshot> = Vec::new();
            for capture in captures {
                streams.extend(capture?);
            }
            streams.sort_unstable_by_key(|entry| entry.stream);
            state.commit(
                generation,
                full,
                streams,
                self.senders.len(),
                self.shared.emit_warnings,
            )
        });
        if result.is_err() {
            state.degraded = true;
            state.next_generation = generation + 1;
        }
        result
    }

    /// Serializes the state of every stream into an [`EngineSnapshot`], as
    /// a barrier: the snapshot reflects every record submitted by this
    /// thread before the call. Restore it with
    /// [`crate::EngineBuilder::restore`], which needs no configuration: the
    /// snapshot embeds `{spec, state}` per stream (see
    /// [`EngineSnapshot::is_self_describing`]). Each entry also records the
    /// stream's **shard placement**, so a restore reproduces a rebalanced
    /// (tuned) routing table instead of resetting to modulo.
    ///
    /// Always writes wire format v4: detector windows and bucket rows are
    /// embedded as base64 binary blobs (bit-packed / fixed-point-delta /
    /// raw frames, whichever is smallest per sequence — see
    /// [`optwin_core::snapshot`]). Every [`DetectorSpec`] kind (OPTWIN, the
    /// baselines and the composites) serializes its state with bit-exact
    /// resumption.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ChannelClosed`] when the engine has shut
    /// down, or [`EngineError::Poisoned`] after a worker panic.
    pub fn snapshot(&self) -> Result<EngineSnapshot, EngineError> {
        let shards = self.barrier_all(self.shared.router.read(), |worker: &mut Worker| {
            worker.shard.snapshot(|_| true)
        })?;
        let mut streams: Vec<StreamStateSnapshot> = shards.into_iter().flatten().collect();
        streams.sort_unstable_by_key(|s| s.stream);
        Ok(EngineSnapshot {
            version: ENGINE_SNAPSHOT_VERSION,
            shards: self.senders.len(),
            emit_warnings: self.shared.emit_warnings,
            streams,
        })
    }

    /// Alias of [`EngineHandle::snapshot`], kept for existing callers.
    ///
    /// # Errors
    ///
    /// As [`EngineHandle::snapshot`].
    pub fn snapshot_compact(&self) -> Result<EngineSnapshot, EngineError> {
        self.snapshot()
    }

    /// Drains every queue, stops the workers and joins their threads. After
    /// this, every `submit`/`flush`/query on any clone fails with
    /// [`EngineError::ChannelClosed`]. Safe to call more than once (later
    /// calls are no-ops).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Poisoned`] when a worker thread panicked, or
    /// the first pending ingestion error (as [`EngineHandle::flush`]).
    pub fn shutdown(&self) -> Result<(), EngineError> {
        {
            // Taken so a shutdown cannot cut a concurrent migration in
            // half (the write lock is held across extract + install).
            let _router = self.shared.router.read();
            for sender in &self.senders {
                // A closed channel means the worker is already gone — fine.
                let _ = sender.send(ShardMsg::Shutdown);
            }
        }
        let workers: Vec<JoinHandle<()>> = {
            let mut guard = self
                .shared
                .workers
                .lock()
                .map_err(|_| EngineError::Poisoned)?;
            guard.drain(..).collect()
        };
        let mut poisoned = false;
        for worker in workers {
            poisoned |= worker.join().is_err();
        }
        if poisoned {
            return Err(EngineError::Poisoned);
        }
        match self.take_error() {
            Some(error) => Err(error),
            None => Ok(()),
        }
    }
}
