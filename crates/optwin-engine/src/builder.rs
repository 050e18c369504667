//! Construction of the service-style engine.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use optwin_baselines::DetectorSpec;
use optwin_core::{DriftDetector, SnapshotEncoding};

use crate::checkpoint::{self, CheckpointConfig, CheckpointPolicy, RecoveredLog, ReplayOp};
use crate::error::EngineError;
use crate::fleet::FleetConfig;
use crate::handle::{
    spawn_engine, DetectorSource, EngineHandle, SharedDetectorFactory, StreamState,
};
use crate::hibernate::{HibernatedDetector, HibernationPolicy};
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

/// Builder for a running engine: shard count, default detector (a
/// declarative [`DetectorSpec`] or a closure factory), warning policy, event
/// sinks, queue capacity and an optional snapshot to restore.
///
/// [`EngineBuilder::build`] spawns one long-lived worker thread per shard
/// and returns the cheaply-cloneable [`EngineHandle`] front door. The
/// canonical construction path is declarative —
/// [`EngineBuilder::default_spec`] for homogeneous fleets,
/// [`EngineBuilder::stream_spec`] / [`EngineHandle::register_stream_spec`]
/// for heterogeneous ones — which makes every stream introspectable and
/// every snapshot self-describing. The closure-factory and
/// explicit-instance paths survive as escape hatches for custom detector
/// types. See the crate docs for a complete example.
#[must_use]
pub struct EngineBuilder {
    shards: usize,
    emit_warnings: bool,
    queue_capacity: usize,
    source: Option<DetectorSource>,
    sinks: Vec<Arc<dyn EventSink>>,
    restore: Option<EngineSnapshot>,
    streams: Vec<(u64, Box<dyn DriftDetector + Send>)>,
    spec_streams: Vec<(u64, DetectorSpec)>,
    auto_rebalance: Option<f64>,
    snapshot_encoding: SnapshotEncoding,
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
            .field("has_factory", &self.source.is_some())
            .field("sinks", &self.sinks.len())
            .field(
                "restore_streams",
                &self.restore.as_ref().map(EngineSnapshot::stream_count),
            )
            .field(
                "pre_registered",
                &(self.streams.len() + self.spec_streams.len()),
            )
            .finish()
    }
}

impl EngineBuilder {
    /// Starts a builder with the default configuration: one shard per
    /// available CPU core, warnings disabled, no sinks, no default detector,
    /// and a [`DEFAULT_QUEUE_CAPACITY`]-record queue per shard.
    pub fn new() -> Self {
        Self {
            shards: default_shards(),
            emit_warnings: false,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            source: None,
            sinks: Vec::new(),
            restore: None,
            streams: Vec::new(),
            spec_streams: Vec::new(),
            auto_rebalance: None,
            snapshot_encoding: SnapshotEncoding::Json,
            hibernation: None,
            checkpoint: None,
            recovered: None,
        }
    }

    /// Starts a builder pre-loaded with a fleet configuration: a JSON map
    /// of `stream id → spec string`, e.g.
    /// `{"0": "optwin:rho=0.5", "1": "adwin:delta=0.002"}`. Every entry is
    /// pre-registered declaratively (as [`EngineBuilder::stream_spec`]
    /// would), so the built engine is fully config-driven — no closures,
    /// no code changes per fleet.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidFleetConfig`] for malformed JSON, a
    /// non-object top level, an unparsable stream id or spec string, or a
    /// duplicate stream id.
    pub fn from_config_json(text: &str) -> Result<Self, EngineError> {
        Ok(Self::from_fleet(FleetConfig::from_json(text)?))
    }

    /// [`EngineBuilder::from_config_json`], reading the JSON from a file.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidFleetConfig`] when the file cannot be
    /// read, plus every error `from_config_json` reports.
    pub fn from_config_path(path: impl AsRef<Path>) -> Result<Self, EngineError> {
        Ok(Self::from_fleet(FleetConfig::from_path(path)?))
    }

    /// Pre-registers every stream of an already-parsed [`FleetConfig`]
    /// (warnings, if any, are the caller's to surface).
    pub fn from_fleet(fleet: FleetConfig) -> Self {
        fleet
            .streams
            .into_iter()
            .fold(Self::new(), |builder, (stream, spec)| {
                builder.stream_spec(stream, spec)
            })
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
    /// [`DEFAULT_QUEUE_CAPACITY`]). [`EngineHandle::submit`] blocks — and
    /// [`EngineHandle::try_submit`] fails fast — while a target shard holds
    /// this many unprocessed records. Zero is rejected at build time.
    pub fn queue_capacity(mut self, records: usize) -> Self {
        self.queue_capacity = records;
        self
    }

    /// Enables automatic load-aware rebalancing: every
    /// [`EngineHandle::flush`] checks the shard record-load imbalance
    /// (hottest shard over mean) and, when it exceeds `threshold`, runs a
    /// [`crate::RebalancePolicy::Records`] rebalance at that flush barrier.
    /// `threshold` must exceed 1.0 (1.0 = perfectly balanced); values
    /// around 1.25–2.0 are sensible. Validated at build time. Explicit
    /// [`EngineHandle::rebalance`] calls remain available either way.
    pub fn auto_rebalance(mut self, threshold: f64) -> Self {
        self.auto_rebalance = Some(threshold);
        self
    }

    /// Sets the sequence layout [`EngineHandle::snapshot`] writes:
    /// [`SnapshotEncoding::Json`] (the default) produces the historical v3
    /// wire format with windows as JSON number arrays;
    /// [`SnapshotEncoding::Binary`] produces the v4 compact format with
    /// windows as base64 binary blobs — several × smaller at large `w_max`,
    /// still bit-exact on restore. Regardless of this knob,
    /// [`EngineHandle::snapshot_compact`] always writes v4 and
    /// [`EngineBuilder::restore`] accepts every version (v1–v4).
    pub fn snapshot_encoding(mut self, encoding: SnapshotEncoding) -> Self {
        self.snapshot_encoding = encoding;
        self
    }

    /// Enables the hibernation tier (see [`crate::hibernate`]): at every
    /// [`EngineHandle::flush`] barrier, each shard worker compresses the
    /// detector state of streams that have been idle for
    /// [`HibernationPolicy::cold_after_flushes`] consecutive barriers into
    /// a compact blob and frees the detector. The next record for such a
    /// stream rebuilds the detector from the stream's [`DetectorSpec`] and
    /// restores the blob — bit-exact, so the fleet's events and `seq`
    /// numbers are byte-identical to a never-hibernating run. Only
    /// spec-registered streams participate. Restoring a snapshot with
    /// hibernated entries through a builder with this knob set re-creates
    /// those streams still asleep (their detectors are never materialized);
    /// without it they restore awake. Default: no hibernation.
    pub fn hibernation(mut self, policy: HibernationPolicy) -> Self {
        self.hibernation = Some(policy);
        self
    }

    /// Installs the default [`DetectorSpec`]: unknown stream ids
    /// auto-register on first sight with `spec.build()`, recording the spec
    /// so the stream is introspectable ([`EngineHandle::stream_spec`]) and
    /// snapshots of it restore with no factory. This is the canonical
    /// configuration path; the spec is validated at
    /// [`EngineBuilder::build`]. Replaces any previously installed default
    /// (spec or closure).
    pub fn default_spec(mut self, spec: DetectorSpec) -> Self {
        self.source = Some(DetectorSource::Spec(spec));
        self
    }

    /// Installs a closure detector factory: unknown stream ids auto-register
    /// by calling it on first sight. The factory is shared by all shard
    /// workers, hence `Send + Sync`. Streams it creates record no spec — an
    /// escape hatch for custom detector types; prefer
    /// [`EngineBuilder::default_spec`] when the detector can be described
    /// declaratively. Replaces any previously installed default.
    pub fn factory<F>(self, factory: F) -> Self
    where
        F: Fn(u64) -> Box<dyn DriftDetector + Send> + Send + Sync + 'static,
    {
        self.shared_factory(Arc::new(factory))
    }

    /// Installs an already-shared closure detector factory (useful when the
    /// caller keeps a clone). See [`EngineBuilder::factory`].
    pub fn shared_factory(mut self, factory: SharedDetectorFactory) -> Self {
        self.source = Some(DetectorSource::Closure(factory));
        self
    }

    /// Adds an event sink. May be called repeatedly; every worker emits each
    /// event into every sink, in the order they were added.
    pub fn sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Pre-registers a stream with an explicit detector instance (duplicates
    /// are rejected at build time). The stream records no [`DetectorSpec`];
    /// prefer [`EngineBuilder::stream_spec`] when possible. Streams can also
    /// be registered later via [`EngineHandle::register_stream`] /
    /// [`EngineHandle::register_stream_spec`] or auto-registered by the
    /// default spec/factory.
    pub fn stream(mut self, stream: u64, detector: Box<dyn DriftDetector + Send>) -> Self {
        self.streams.push((stream, detector));
        self
    }

    /// Pre-registers a stream declaratively: at build time the spec is
    /// validated, its detector constructed, and the spec recorded on the
    /// stream. This is how heterogeneous fleets are assembled from
    /// configuration — different specs for different stream ids, no
    /// closures anywhere.
    pub fn stream_spec(mut self, stream: u64, spec: DetectorSpec) -> Self {
        self.spec_streams.push((stream, spec));
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
    /// bit-exactly from the same directory.
    pub fn checkpoint(mut self, dir: impl AsRef<Path>, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some((dir.as_ref().to_path_buf(), policy));
        self
    }

    /// Recovers a crashed (or cleanly stopped) engine from a checkpoint
    /// directory written by [`EngineBuilder::checkpoint`]: loads the base
    /// snapshot, applies the delta overlays, and replays the write-ahead
    /// log tail — record batches and declarative registrations the crash
    /// caught after the last checkpoint. The recovered fleet makes
    /// **bit-identical** subsequent decisions (same events, same `seq`)
    /// to an uninterrupted run; hibernated streams recover still asleep
    /// when the builder hibernates. Checkpointing continues into the same
    /// directory (an initial full checkpoint is cut at build), under the
    /// policy set by a preceding [`EngineBuilder::checkpoint`] call for
    /// the same directory, or the default [`CheckpointPolicy`].
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
    /// built. Streams whose snapshot embeds a [`DetectorSpec`] (wire format
    /// v2+, spec-registered) are rebuilt from that spec — **no factory
    /// required**. Spec-less streams (v1 snapshots, or streams registered
    /// with explicit instances / a closure factory) are rebuilt through this
    /// builder's default spec or factory, which must then be configured. In
    /// both cases the serialized state is restored into the fresh detector,
    /// so the new engine makes identical subsequent decisions to the
    /// snapshotted one. The snapshot's shard count and warning policy are
    /// provenance, not constraints — this builder's settings win. Streams
    /// with a recorded shard placement (wire format v3) re-pin to
    /// `recorded_shard % shards`, reproducing a rebalanced routing table;
    /// older snapshots re-pin by `id % shards`.
    pub fn restore(mut self, snapshot: EngineSnapshot) -> Self {
        self.restore = Some(snapshot);
        self
    }

    /// Validates the configuration, spawns one worker thread per shard
    /// (restoring and pre-registering streams into their owning shards) and
    /// returns the engine's front door.
    ///
    /// # Errors
    ///
    /// * [`EngineError::ZeroShards`] / [`EngineError::ZeroQueueCapacity`]
    ///   for degenerate parameters,
    /// * [`EngineError::InvalidSpec`] when the default spec or a
    ///   [`EngineBuilder::stream_spec`] spec fails validation,
    /// * [`EngineError::InvalidSnapshot`] when a snapshot stream has no
    ///   embedded spec and no default spec/factory is configured, the
    ///   snapshot's version is unsupported, a detector name does not match
    ///   what the spec/factory builds, or a detector rejects its serialized
    ///   state,
    /// * [`EngineError::DuplicateStream`] when a stream id is pre-registered
    ///   (or restored) twice.
    pub fn build(self) -> Result<EngineHandle, EngineError> {
        if self.shards == 0 {
            return Err(EngineError::ZeroShards);
        }
        if self.queue_capacity == 0 {
            return Err(EngineError::ZeroQueueCapacity);
        }
        if let Some(threshold) = self.auto_rebalance {
            // Written so NaN also lands in the error branch.
            if threshold <= 1.0 || !threshold.is_finite() {
                return Err(EngineError::InvalidRebalanceThreshold(format!(
                    "must be a finite ratio above 1.0 (1.0 = perfectly balanced), got {threshold}"
                )));
            }
        }
        if let Some(DetectorSource::Spec(spec)) = &self.source {
            spec.validate()
                .map_err(|e| EngineError::InvalidSpec(e.to_string()))?;
        }

        let mut initial: Vec<HashMap<u64, StreamState>> =
            (0..self.shards).map(|_| HashMap::new()).collect();
        let shard_of = |stream: u64| (stream % self.shards as u64) as usize;
        // Duplicate ids can no longer be caught by per-shard map collisions
        // alone: two occurrences of one id may target *different* shards
        // (a restored placement vs. the modulo default).
        let mut seen = std::collections::HashSet::new();

        if let Some(snapshot) = self.restore {
            snapshot.check_version()?;
            for stream_snapshot in snapshot.streams {
                let stream = stream_snapshot.stream;
                // v3 placement-preserving entry: land on the recorded shard
                // (folded into the new shard count); older entries fall back
                // to the modulo default.
                let target = stream_snapshot
                    .shard
                    .map_or_else(|| shard_of(stream), |shard| shard % self.shards);
                // Hibernated entry restoring into a hibernating engine: keep
                // the stream asleep — its state tree becomes the blob
                // directly and no detector is materialized, so a snapshot of
                // a mostly-cold million-stream fleet restores in the cold
                // footprint. Falls through to the awake path (always
                // correct) when the entry lacks the counters the sleeper
                // caches, or for a non-hibernating builder.
                if self.hibernation.is_some() && stream_snapshot.hibernated {
                    if let Some(spec) = &stream_snapshot.spec {
                        if spec.detector_name() != stream_snapshot.detector {
                            return Err(EngineError::InvalidSnapshot(format!(
                                "stream {}: snapshot was taken from a `{}` detector but the \
                                 embedded spec `{}` builds `{}`",
                                stream,
                                stream_snapshot.detector,
                                spec,
                                spec.detector_name()
                            )));
                        }
                        if let Some(sleeper) = HibernatedDetector::from_persisted(
                            spec.detector_name(),
                            &stream_snapshot.state,
                        ) {
                            let mut state = StreamState::asleep(sleeper, spec.clone());
                            state.restore_position(
                                stream_snapshot.seq,
                                stream_snapshot.detector_seconds,
                            );
                            if !seen.insert(stream) {
                                return Err(EngineError::DuplicateStream(stream));
                            }
                            initial[target].insert(stream, state);
                            continue;
                        }
                    }
                }
                // v2 self-describing entry: rebuild from the embedded spec.
                // Spec-less entry: fall back to the default spec/factory.
                let (mut detector, spec) = match &stream_snapshot.spec {
                    Some(spec) => {
                        let detector = spec.build().map_err(|e| {
                            EngineError::InvalidSnapshot(format!(
                                "stream {stream}: embedded spec `{spec}`: {e}"
                            ))
                        })?;
                        (detector, Some(spec.clone()))
                    }
                    None => match &self.source {
                        Some(source) => source.make(stream).map_err(|e| {
                            EngineError::InvalidSnapshot(format!("stream {stream}: {e}"))
                        })?,
                        None => {
                            return Err(EngineError::InvalidSnapshot(format!(
                                "stream {stream} has no embedded detector spec; restoring it \
                                 requires a default spec or detector factory"
                            )))
                        }
                    },
                };
                if detector.name() != stream_snapshot.detector {
                    return Err(EngineError::InvalidSnapshot(format!(
                        "stream {}: snapshot was taken from a `{}` detector but the \
                         spec/factory builds `{}`",
                        stream,
                        stream_snapshot.detector,
                        detector.name()
                    )));
                }
                detector
                    .restore_state(&stream_snapshot.state)
                    .map_err(|e| EngineError::InvalidSnapshot(format!("stream {stream}: {e}")))?;
                let mut state = StreamState::with_spec(detector, spec);
                state.restore_position(stream_snapshot.seq, stream_snapshot.detector_seconds);
                if !seen.insert(stream) {
                    return Err(EngineError::DuplicateStream(stream));
                }
                initial[target].insert(stream, state);
            }
        }

        for (stream, detector) in self.streams {
            if !seen.insert(stream) {
                return Err(EngineError::DuplicateStream(stream));
            }
            initial[shard_of(stream)].insert(stream, StreamState::new(detector));
        }
        for (stream, spec) in self.spec_streams {
            let detector = spec
                .build()
                .map_err(|e| EngineError::InvalidSpec(format!("stream {stream}: {e}")))?;
            if !seen.insert(stream) {
                return Err(EngineError::DuplicateStream(stream));
            }
            initial[shard_of(stream)].insert(stream, StreamState::with_spec(detector, Some(spec)));
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
            self.source,
            self.sinks,
            initial,
            self.auto_rebalance,
            self.snapshot_encoding,
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
        }

        // The initial full checkpoint: a barrier behind any replayed
        // records, it activates the per-shard WALs, rolls the directory
        // forward past every recovered generation, and prunes the files
        // recovery consumed. A fresh directory gets its generation-0 base
        // the same way.
        if checkpointing {
            handle.run_checkpoint(true, false)?;
            if let Some(error) = handle.take_error() {
                return Err(error);
            }
        }
        Ok(handle)
    }
}
