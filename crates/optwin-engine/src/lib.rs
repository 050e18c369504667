//! # optwin-engine — a service-style, sharded multi-stream drift engine
//!
//! The per-paper crates detect drift in **one** stream at a time. This crate
//! turns the batch-first [`DriftDetector`](optwin_core::DriftDetector)
//! contract into a serving-scale runtime with a service-style front door:
//!
//! * [`EngineBuilder`] configures shard count, the default detector — a
//!   declarative [`optwin_baselines::DetectorSpec`]
//!   ([`EngineBuilder::default_spec`], the canonical path) or a closure
//!   factory (the escape hatch) — warning policy, event sinks and queue
//!   capacity, then spawns **one long-lived worker thread per shard**. Each
//!   stream is owned by exactly one shard at a time — `id % shards` unless
//!   a restore or a rebalance placed it elsewhere — so per-stream order is
//!   preserved with no locking. Heterogeneous fleets mix specs
//!   per stream via [`EngineBuilder::stream_spec`] /
//!   [`EngineHandle::register_stream_spec`], and
//!   [`EngineHandle::stream_spec`] reports what a live stream is running.
//! * [`EngineHandle`] — cheaply cloneable and thread-safe — is the front
//!   door: [`EngineHandle::submit`] partitions a `(stream id, value)` record
//!   batch onto bounded per-shard queues and **returns immediately**;
//!   [`EngineHandle::try_submit`] fails fast with
//!   [`EngineError::QueueFull`] for backpressure-aware callers;
//!   [`EngineHandle::flush`] and [`EngineHandle::shutdown`] are barriers
//!   that drain the queues (the latter also joins the workers).
//! * Detections leave through pluggable [`EventSink`]s: [`MemorySink`]
//!   (collect and drain in-process), [`JsonLinesSink`] (serialize to a
//!   writer/file), [`CallbackSink`] (invoke a closure) — or any custom
//!   implementation.
//! * Stream placement is a first-class **routing table**: streams route to
//!   `id % shards` by default, and [`EngineHandle::rebalance`] recomputes
//!   the placement from *observed* load ([`RebalancePolicy`]: lifetime
//!   records or detector seconds), migrating each moved stream's state
//!   between workers at a barrier — event streams and per-stream `seq`
//!   stay bit-exact. [`EngineHandle::stats`] exposes the per-shard load
//!   (records, queue occupancy, batch-latency EWMA) behind the decision,
//!   and [`EngineBuilder::auto_rebalance`] triggers the whole cycle
//!   automatically at flush barriers past an imbalance threshold.
//! * [`EngineHandle::snapshot`] serializes every stream's detector state
//!   into an [`EngineSnapshot`]; [`EngineBuilder::restore`] rebuilds a
//!   fresh engine that makes **identical subsequent decisions**, so a
//!   restarted process resumes mid-stream. Snapshots of spec-registered
//!   streams embed `{spec, state, shard}` (wire format v3) and restore
//!   with **zero caller-side factories**, reproducing a rebalanced
//!   placement; all 8 shipped detector kinds serialize their state
//!   bit-exactly. v1/v2 snapshots still load.
//! * Whole fleets load from config files: [`FleetConfig`] /
//!   [`EngineBuilder::from_config_json`] turn a JSON map of
//!   `stream id → spec string` into a fully registered engine.
//! * Production-shaped traffic replays through the [`replay()`] driver:
//!   Zipf-skewed, burst-interleaved arrivals across thousands of streams,
//!   submitted through the ordinary [`EngineHandle::submit`] path with
//!   per-stream order (and therefore every detection) bit-exact versus a
//!   sequential feed — the ingestion layer of the `driftbench` suite.
//! * Million-stream fleets fit in memory through the **hibernation tier**
//!   ([`EngineBuilder::hibernation`], [`HibernationPolicy`]): streams idle
//!   across consecutive flush barriers have their detector state compressed
//!   to a compact blob and the detector freed, then rehydrate bit-exactly
//!   on their next record. [`EngineStats`] reports resident bytes,
//!   hibernated counts and rehydrations per shard, and engine snapshots
//!   persist sleeping streams without waking them.
//! * Long-running services stay durable through the **checkpoint
//!   subsystem** (wire format v5, [`EngineBuilder::checkpoint`] /
//!   [`CheckpointPolicy`]): checkpoints write a base snapshot once and
//!   then **delta overlays** of only the streams dirty since the previous
//!   barrier, a per-shard **write-ahead log** covers the record batches in
//!   between, and the delta chain compacts back into a fresh base past a
//!   configurable size ratio. After a crash,
//!   [`EngineBuilder::recover_from_dir`] replays base → deltas → WAL tail
//!   and resumes **bit-exactly** — same events, same `seq` numbers, and
//!   hibernated streams recover still asleep (see [`checkpoint`]).
//!
//! Batched ingestion through the shard workers stays bit-identical to
//! element-wise ingestion (the detector contract, enforced by
//! `tests/detector_contract.rs`): `submit` + `flush` + a [`MemorySink`]
//! drain yields exactly the events a per-element fold would.
//!
//! # Quick start (service API)
//!
//! ```
//! use std::sync::Arc;
//! use optwin_core::{DriftDetector, Optwin, OptwinConfig};
//! use optwin_engine::{EngineBuilder, MemorySink};
//!
//! // Detections land in a shared sink; detectors are created on first
//! // sight of a stream id (one shared cut table across all of them).
//! let sink = Arc::new(MemorySink::new());
//! let handle = EngineBuilder::new()
//!     .shards(4)
//!     .queue_capacity(8_192)
//!     .factory(|_stream| {
//!         let config = OptwinConfig::builder()
//!             .robustness(1.0)
//!             .max_window(500)
//!             .build()
//!             .expect("valid config");
//!         Box::new(Optwin::with_shared_table(config).expect("valid config"))
//!             as Box<dyn DriftDetector + Send>
//!     })
//!     .sink(Arc::clone(&sink) as Arc<dyn optwin_engine::EventSink>)
//!     .build()
//!     .expect("valid engine");
//!
//! // 8 interleaved streams; stream 3 degrades halfway through. Submission
//! // never waits for detection work.
//! let mut records = Vec::new();
//! for i in 0..4_000u64 {
//!     for stream in 0..8u64 {
//!         let base = if stream == 3 && i >= 2_000 { 0.6 } else { 0.05 };
//!         let noise = 0.01 * ((i % 7) as f64 - 3.0) / 3.0;
//!         records.push((stream, base + noise));
//!     }
//! }
//! for batch in records.chunks(8 * 500) {
//!     handle.submit(batch).expect("engine running");
//! }
//! handle.shutdown().expect("clean drain");
//!
//! let events = sink.drain();
//! assert!(events.iter().all(|e| e.stream == 3));
//! assert!(events.iter().any(|e| e.seq >= 2_000), "drift found after the shift");
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

mod builder;
pub mod checkpoint;
mod error;
mod event;
mod fleet;
mod handle;
pub mod hibernate;
mod persist;
pub mod replay;
mod router;
mod sink;

pub use builder::{default_shards, EngineBuilder, DEFAULT_QUEUE_CAPACITY};
pub use checkpoint::{
    fsync_count, load_checkpoint_dir, CheckpointPolicy, CheckpointReport, Durability,
    CHECKPOINT_WIRE_VERSION,
};
pub use error::{EngineError, StreamSnapshot};
pub use event::DriftEvent;
pub use fleet::FleetConfig;
pub use handle::{
    EngineHandle, EngineStats, RebalancePolicy, RebalanceReport, ShardLoad, SharedDetectorFactory,
};
pub use hibernate::HibernationPolicy;
pub use persist::{wire_version, EngineSnapshot, StreamStateSnapshot, ENGINE_SNAPSHOT_VERSION};
pub use replay::{replay, ReplayConfig, ReplayReport};
pub use sink::{CallbackSink, EventSink, JsonLinesSink, MemorySink};

// Re-exported so engine users can pick a snapshot layout without depending
// on `optwin-core` directly.
pub use optwin_core::SnapshotEncoding;
