//! # optwin-engine — a service-style, sharded multi-stream drift engine
//!
//! The per-paper crates detect drift in **one** stream at a time. This crate
//! turns the batch-first [`DriftDetector`](optwin_core::DriftDetector)
//! contract into a serving-scale runtime with a service-style front door:
//!
//! * [`EngineBuilder`] configures shard count, the streams, warning
//!   policy, event sinks and queue capacity, then spawns **one long-lived
//!   worker thread per shard**. Each stream is owned by shard
//!   `id % shards` for the life of the engine, so per-stream order is
//!   preserved with no locking. A stream enters the engine only by
//!   registration, with the [`optwin_baselines::DetectorSpec`] its detector
//!   is built from: [`EngineBuilder::stream_spec`],
//!   [`EngineHandle::register_stream_spec`] or a restored snapshot entry.
//!   Records for any other id are dropped and reported as
//!   [`EngineError::UnknownStream`], so no record creates engine state.
//!   [`EngineHandle::stream_stats`] reports what a live stream is running.
//! * [`EngineHandle`] — cheaply cloneable and thread-safe — is the front
//!   door: [`EngineHandle::submit`] partitions a `(stream id, value)` record
//!   batch onto bounded per-shard queues and **returns immediately**,
//!   blocking only while a target queue is full;
//!   [`EngineHandle::flush`] and [`EngineHandle::shutdown`] are barriers
//!   that drain the queues (the latter also joins the workers).
//! * Detections leave through pluggable [`EventSink`]s: [`MemorySink`]
//!   (collect and drain in-process), [`JsonLinesSink`] (serialize to a
//!   writer/file), [`CallbackSink`] (invoke a closure) — or any custom
//!   implementation.
//! * [`EngineHandle::stats`] exposes the per-shard load (records, queue
//!   occupancy, batch-latency EWMA, memory), each shard summing its own
//!   streams; [`EngineHandle::stream_snapshots`] is the per-stream view.
//! * [`EngineHandle::snapshot`] serializes every stream's detector state
//!   into an [`EngineSnapshot`]; [`EngineBuilder::restore`] rebuilds a
//!   fresh engine that makes **identical subsequent decisions**, so a
//!   restarted process resumes mid-stream. Snapshots embed
//!   `{spec, state, shard}` per stream (wire format v4, windows as compact
//!   binary blobs) and restore with **no caller-side configuration**; every
//!   detector kind serializes its state bit-exactly. v1–v3 snapshots still
//!   load.
//! * Whole fleets load from config files: [`FleetConfig`] parses a JSON
//!   map of `stream id → spec string`, and [`EngineBuilder::stream_spec`]
//!   registers each entry.
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
//! use optwin_engine::{EngineBuilder, MemorySink};
//!
//! // Detections land in a shared sink; each of the 8 streams is registered
//! // with the same spec (its detectors share one cut table).
//! let sink = Arc::new(MemorySink::new());
//! let spec: optwin_baselines::DetectorSpec =
//!     "optwin:rho=1.0,w_max=500".parse().expect("valid spec");
//! let handle = (0..8u64)
//!     .fold(EngineBuilder::new(), |builder, stream| {
//!         builder.stream_spec(stream, spec.clone())
//!     })
//!     .shards(4)
//!     .queue_capacity(8_192)
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
mod sink;

pub use builder::{default_shards, EngineBuilder, DEFAULT_QUEUE_CAPACITY};
pub use checkpoint::{
    fsync_count, load_checkpoint_dir, CheckpointPolicy, CheckpointReport, Durability,
    CHECKPOINT_WIRE_VERSION,
};
pub use error::{EngineError, StreamSnapshot};
pub use event::DriftEvent;
pub use fleet::FleetConfig;
pub use handle::{EngineHandle, EngineStats, ShardLoad};
pub use hibernate::HibernationPolicy;
pub use persist::{EngineSnapshot, StreamStateSnapshot, ENGINE_SNAPSHOT_VERSION};
pub use sink::{CallbackSink, EventSink, JsonLinesSink, MemorySink};
