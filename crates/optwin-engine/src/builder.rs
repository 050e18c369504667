//! Construction of the service-style engine.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use optwin_baselines::DetectorSpec;

use crate::checkpoint::{self, CheckpointConfig, CheckpointPolicy, RecoveredLog, ReplayOp};
use crate::error::EngineError;
use crate::handle::{shard_of, spawn_engine, EngineHandle, StreamState};
use crate::hibernate::{DetectorSlot, HibernatedDetector, HibernationPolicy};
use crate::persist::EngineSnapshot;
use crate::sink::EventSink;

/// Default per-shard queue capacity, in records. Large enough to keep the
/// workers busy across submission hiccups, small enough that a stalled
/// consumer exerts backpressure within a few megabytes.
pub const DEFAULT_QUEUE_CAPACITY: usize = 65_536;

/// The shard count [`EngineBuilder::new`] starts from: one shard per
/// available CPU core (4 when the core count is unknown).
#[must_use]
pub fn default_shards() -> usize {
    std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
}

/// Builder for a running engine: shard count, the streams and their
/// [`DetectorSpec`]s, warning policy, event sinks, queue capacity and an
/// optional snapshot to restore.
///
/// [`EngineBuilder::build`] spawns one long-lived worker thread per shard
/// and returns the cheaply-cloneable [`EngineHandle`] front door. A stream
/// enters the engine only by registration — [`EngineBuilder::stream_spec`],
/// [`EngineHandle::register_stream_spec`] or a restored snapshot entry —
/// always as a [`DetectorSpec`], which makes every stream introspectable
/// and every snapshot self-describing. Records for any other stream id are
/// dropped and reported as [`EngineError::UnknownStream`]. See the crate
/// docs for a complete example.
#[must_use]
pub struct EngineBuilder {
    shards: usize,
    emit_warnings: bool,
    queue_capacity: usize,
    sinks: Vec<Arc<dyn EventSink>>,
    restore: Option<EngineSnapshot>,
    streams: Vec<(u64, DetectorSpec)>,
    hibernation: Option<HibernationPolicy>,
    checkpoint: Option<(PathBuf, CheckpointPolicy)>,
    recovered: Option<RecoveredLog>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for EngineBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineBuilder")
            .field("shards", &self.shards)
            .field("emit_warnings", &self.emit_warnings)
            .field("queue_capacity", &self.queue_capacity)
            .field("sinks", &self.sinks.len())
            .field(
                "restore_streams",
                &self.restore.as_ref().map(EngineSnapshot::stream_count),
            )
            .field("pre_registered", &self.streams.len())
            .finish()
    }
}

impl EngineBuilder {
    /// Starts a builder with the default configuration: one shard per
    /// available CPU core, warnings disabled, no sinks, no streams, and a
    /// [`DEFAULT_QUEUE_CAPACITY`]-record queue per shard.
    pub fn new() -> Self {
        Self {
            shards: default_shards(),
            emit_warnings: false,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            sinks: Vec::new(),
            restore: None,
            streams: Vec::new(),
            hibernation: None,
            checkpoint: None,
            recovered: None,
        }
    }

    /// Sets the shard (worker thread) count. Validated at
    /// [`EngineBuilder::build`]; zero is rejected there with
    /// [`EngineError::ZeroShards`].
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Emits [`optwin_core::DriftStatus::Warning`] events in addition to
    /// drifts (default: drifts only).
    pub fn emit_warnings(mut self, emit: bool) -> Self {
        self.emit_warnings = emit;
        self
    }

    /// Sets the per-shard queue capacity in records (default
    /// [`DEFAULT_QUEUE_CAPACITY`]). [`EngineHandle::submit`] blocks while a
    /// target shard holds this many unprocessed records. Zero is rejected at
    /// build time.
    pub fn queue_capacity(mut self, records: usize) -> Self {
        self.queue_capacity = records;
        self
    }

    /// Enables the hibernation tier (see [`crate::hibernate`]): at every
    /// [`EngineHandle::flush`] barrier, each shard worker compresses the
    /// detector state of streams that have been idle for
    /// [`HibernationPolicy::cold_after_flushes`] consecutive barriers into
    /// a compact blob and frees the detector. The next record for such a
    /// stream rebuilds the detector from the stream's [`DetectorSpec`] and
    /// restores the blob — bit-exact, so the fleet's events and `seq`
    /// numbers are byte-identical to a never-hibernating run. Restoring a
    /// snapshot with hibernated entries through a builder with this knob
    /// set re-creates those streams still asleep (their detectors are never
    /// materialized); without it they restore awake. Default: no
    /// hibernation.
    pub fn hibernation(mut self, policy: HibernationPolicy) -> Self {
        self.hibernation = Some(policy);
        self
    }

    /// Adds an event sink. May be called repeatedly; every worker emits each
    /// event into every sink, in the order they were added.
    pub fn sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Pre-registers a stream: at build time the spec is validated, its
    /// detector constructed, and the spec recorded on the stream
    /// (duplicates are rejected there). This is how heterogeneous fleets
    /// are assembled from configuration — different specs for different
    /// stream ids (a [`crate::FleetConfig`] file's entries, for instance).
    /// Streams can also be registered later via
    /// [`EngineHandle::register_stream_spec`].
    pub fn stream_spec(mut self, stream: u64, spec: DetectorSpec) -> Self {
        self.streams.push((stream, spec));
        self
    }

    /// Enables the durability subsystem (see [`crate::checkpoint`]): the
    /// engine checkpoints into `dir` per `policy` — a full wire-v4 base
    /// snapshot first, then **delta overlays** of only the streams dirty
    /// since the previous checkpoint, compacted back into a fresh base once
    /// the chain outgrows [`CheckpointPolicy::compact_ratio`] — and every
    /// record batch between checkpoints is appended to a per-shard
    /// write-ahead log. [`EngineBuilder::build`] creates the directory and
    /// cuts an initial full checkpoint, so the WAL is active from the first
    /// record; after a crash, [`EngineBuilder::recover_from_dir`] resumes
    /// bit-exactly from the same directory. A directory that already holds
    /// a checkpoint is resumed that way or not at all: `build` refuses to
    /// write a fresh engine over it.
    pub fn checkpoint(mut self, dir: impl AsRef<Path>, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some((dir.as_ref().to_path_buf(), policy));
        self
    }

    /// Recovers a crashed (or cleanly stopped) engine from a checkpoint
    /// directory written by [`EngineBuilder::checkpoint`]: loads the base
    /// snapshot, applies the delta overlays, and replays the write-ahead
    /// log tail — record batches and registrations the crash caught after
    /// the last checkpoint. The recovered fleet makes **bit-identical**
    /// subsequent decisions (same events, same `seq`) to an uninterrupted
    /// run; hibernated streams recover still asleep when the builder
    /// hibernates. Checkpointing continues into the same directory (an
    /// initial full checkpoint is cut at build), under the policy set by a
    /// preceding [`EngineBuilder::checkpoint`] call for the same directory,
    /// or the default [`CheckpointPolicy`].
    ///
    /// The directory is all a recovery needs: the log holds every
    /// [`EngineHandle::register_stream_spec`] call, and every other stream
    /// is in the checkpoint. Records an engine dropped as
    /// [`EngineError::UnknownStream`] are not logged, so they never fail a
    /// recovery. When the replay fails anyway (a persisted state that does
    /// not restore, say), `build` returns its error and leaves the
    /// directory as it was.
    ///
    /// Replaces any [`EngineBuilder::restore`] snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidSnapshot`] when the manifest, base,
    /// an overlay or a WAL segment is missing, truncated, corrupt, or of
    /// an unsupported version. A torn trailing WAL frame (the crash cut a
    /// write short) is **not** an error — it reads as clean end-of-log.
    pub fn recover_from_dir(mut self, dir: impl AsRef<Path>) -> Result<Self, EngineError> {
        let dir = dir.as_ref();
        let (snapshot, log) = checkpoint::load_recovery(dir)?;
        let policy = match &self.checkpoint {
            Some((existing, policy)) if existing == dir => *policy,
            _ => CheckpointPolicy::default(),
        };
        self.checkpoint = Some((dir.to_path_buf(), policy));
        self.restore = Some(snapshot);
        self.recovered = Some(log);
        Ok(self)
    }

    /// Restores every stream recorded in `snapshot` when the engine is
    /// built. Each stream is rebuilt from the [`DetectorSpec`] its entry
    /// embeds (wire format v2+) — no configuration required. A v1 entry
    /// embeds none: fill its [`crate::StreamStateSnapshot::spec`] before
    /// restoring. The serialized state is restored into the fresh
    /// detector, so the new engine makes identical subsequent decisions to
    /// the snapshotted one. The snapshot's shard count, warning policy and
    /// per-stream shards are provenance, not constraints — this builder's
    /// settings win, and every stream lands on `id % shards`.
    pub fn restore(mut self, snapshot: EngineSnapshot) -> Self {
        self.restore = Some(snapshot);
        self
    }

    /// Validates the configuration, spawns one worker thread per shard
    /// (restoring and pre-registering streams into their owning shards) and
    /// returns the engine's front door.
    ///
    /// Every OPTWIN cut table a spec here can reach is complete before the
    /// workers start: pre-registered and restored streams build their
    /// detectors now, and streams restored asleep have their tables filled
    /// through [`DetectorSpec::warm_cut_tables`].
    ///
    /// # Errors
    ///
    /// * [`EngineError::ZeroShards`] / [`EngineError::ZeroQueueCapacity`]
    ///   for degenerate parameters,
    /// * [`EngineError::InvalidSpec`] when a [`EngineBuilder::stream_spec`]
    ///   spec fails validation,
    /// * [`EngineError::InvalidSnapshot`] when a snapshot stream has no
    ///   spec, the snapshot's version is unsupported, a detector name does
    ///   not match what the spec builds, or a detector rejects its
    ///   serialized state,
    /// * [`EngineError::DuplicateStream`] when a stream id is pre-registered
    ///   (or restored) twice,
    /// * [`EngineError::Checkpoint`] when the checkpoint directory cannot be
    ///   created, or already holds a checkpoint this builder does not
    ///   recover,
    /// * the first error the recovery replay hit (such as
    ///   [`EngineError::Hibernation`] for a stream recovered asleep whose
    ///   state does not restore when its logged records wake it). Nothing
    ///   in the directory changes then.
    pub fn build(self) -> Result<EngineHandle, EngineError> {
        if self.shards == 0 {
            return Err(EngineError::ZeroShards);
        }
        if self.queue_capacity == 0 {
            return Err(EngineError::ZeroQueueCapacity);
        }
        // A fresh engine's generation-0 base would replace an existing
        // checkpoint, and its stale WAL segments would then replay into the
        // wrong state at the next recovery.
        if let Some((dir, _)) = &self.checkpoint {
            let recovering = self.recovered.as_ref().is_some_and(|log| &log.dir == dir);
            if !recovering && dir.join(checkpoint::MANIFEST_FILE).exists() {
                return Err(EngineError::Checkpoint(format!(
                    "{} already holds a checkpoint; resume it with \
                     EngineBuilder::recover_from_dir or choose an empty directory",
                    dir.display()
                )));
            }
        }
        let mut initial: Vec<HashMap<u64, StreamState>> =
            (0..self.shards).map(|_| HashMap::new()).collect();

        if let Some(snapshot) = self.restore {
            snapshot.check_version()?;
            for entry in snapshot.streams {
                let stream = entry.stream;
                let shard = &mut initial[shard_of(stream, self.shards)];
                if shard.contains_key(&stream) {
                    return Err(EngineError::DuplicateStream(stream));
                }
                // A v1 entry embeds no spec: the caller fills it in.
                let Some(spec) = entry.spec else {
                    return Err(EngineError::InvalidSnapshot(format!(
                        "stream {stream} has no detector spec; fill its `spec` \
                         before restoring"
                    )));
                };
                if spec.detector_name() != entry.detector {
                    return Err(EngineError::InvalidSnapshot(format!(
                        "stream {stream}: snapshot was taken from a `{}` detector but the \
                         spec `{spec}` builds `{}`",
                        entry.detector,
                        spec.detector_name()
                    )));
                }
                let invalid = |e: &dyn std::fmt::Display| {
                    EngineError::InvalidSnapshot(format!("stream {stream}: spec `{spec}`: {e}"))
                };
                // Hibernated entry restoring into a hibernating engine: keep
                // the stream asleep — its state tree becomes the blob
                // directly and no detector is materialized, so a snapshot of
                // a mostly-cold million-stream fleet restores in the cold
                // footprint. Falls through to the awake path (always
                // correct) when the entry lacks the counters the sleeper
                // caches, or for a non-hibernating builder.
                let sleeper = if self.hibernation.is_some() && entry.hibernated {
                    HibernatedDetector::from_persisted(spec.detector_name(), &entry.state)
                } else {
                    None
                };
                let slot = match sleeper {
                    Some(sleeper) => {
                        // The sleeper wakes on a shard worker: fill the cut
                        // tables its detector will take now.
                        spec.warm_cut_tables().map_err(|e| invalid(&e))?;
                        DetectorSlot::Hibernated(sleeper)
                    }
                    None => {
                        let mut detector = spec.build().map_err(|e| invalid(&e))?;
                        detector.restore_state(&entry.state).map_err(|e| {
                            EngineError::InvalidSnapshot(format!("stream {stream}: {e}"))
                        })?;
                        DetectorSlot::Live(detector)
                    }
                };
                let mut state = StreamState::new(slot, spec);
                state.restore_position(entry.seq, entry.detector_seconds);
                shard.insert(stream, state);
            }
        }

        for (stream, spec) in self.streams {
            let detector = spec
                .build()
                .map_err(|e| EngineError::InvalidSpec(format!("stream {stream}: {e}")))?;
            let shard = &mut initial[shard_of(stream, self.shards)];
            if shard.contains_key(&stream) {
                return Err(EngineError::DuplicateStream(stream));
            }
            shard.insert(stream, StreamState::new(DetectorSlot::Live(detector), spec));
        }

        let checkpoint = match self.checkpoint {
            Some((dir, policy)) => {
                std::fs::create_dir_all(&dir).map_err(|e| {
                    EngineError::Checkpoint(format!(
                        "creating checkpoint directory {}: {e}",
                        dir.display()
                    ))
                })?;
                Some(CheckpointConfig {
                    dir,
                    policy,
                    next_generation: self.recovered.as_ref().map_or(0, |log| log.next_generation),
                })
            }
            None => None,
        };
        let checkpointing = checkpoint.is_some();
        let handle = spawn_engine(
            self.emit_warnings,
            self.queue_capacity,
            self.sinks,
            initial,
            self.hibernation,
            checkpoint,
        );

        // Recovery replay: re-submit the WAL tail in its logged order. The
        // workers' WALs are still inactive here, so the replay is not
        // re-logged against a stale generation; the initial full checkpoint
        // below covers it instead. Re-registrations of streams the delta
        // chain also captured are expected — the checkpoint entry already
        // restored them above — and skipped.
        if let Some(log) = self.recovered {
            for op in log.ops {
                match op {
                    ReplayOp::Records(records) => handle.submit(&records)?,
                    ReplayOp::Register(stream, spec) => {
                        match handle.register_stream_spec(stream, spec) {
                            Ok(()) | Err(EngineError::DuplicateStream(_)) => {}
                            Err(error) => return Err(error),
                        }
                    }
                }
            }
            // A replay error fails the build here, before the checkpoint
            // below prunes the log the dropped records exist in.
            handle.settle()?;
        }

        // The initial full checkpoint: a barrier behind any replayed
        // records, it activates the per-shard WALs, rolls the directory
        // forward past every recovered generation, and prunes the files
        // recovery consumed. A fresh directory gets its generation-0 base
        // the same way.
        if checkpointing {
            handle.run_checkpoint(true)?;
        }
        Ok(handle)
    }
}
