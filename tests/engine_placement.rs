//! End-to-end tests of stream placement and per-shard load, run through
//! the public facade exactly as a downstream user would.
//!
//! Every stream lives on shard `id % shards` for the life of its engine.
//! The headline properties:
//!
//! * **Shard-count equivalence** — proptest-generated interleavings of
//!   submits, registrations and flushes on a sharded engine yield exactly
//!   the events (same per-stream `seq`) of a 1-shard reference.
//! * **Restores place by id** — the `shard` a snapshot entry records is
//!   provenance: a restore at any shard count puts every stream on
//!   `id % shards`, and v2 snapshots, which record none, load the same way.
//! * **Observable load** — `stats()` reports per-shard records, queue
//!   occupancy and batch EWMA, and a fleet config file builds a running
//!   engine.

use std::sync::Arc;

use optwin::engine::EngineError;
use optwin::{
    DetectorSpec, DriftEvent, EngineBuilder, EngineHandle, EngineSnapshot, EventSink, FleetConfig,
    MemorySink,
};

/// Deterministic pseudo-random jitter in [-0.5, 0.5) (SplitMix64).
fn jitter(i: u64) -> f64 {
    let mut x = i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    ((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5
}

/// Sorted `(stream, seq)` view of an event list, the canonical form for
/// bit-exact comparison.
fn canonical(mut events: Vec<DriftEvent>) -> Vec<DriftEvent> {
    events.sort_unstable_by_key(|e| (e.stream, e.seq));
    events
}

/// Shard count override for CI matrixing (see `tests/engine_service.rs`).
fn test_shards() -> usize {
    std::env::var("OPTWIN_TEST_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(4)
}

const SKEW_STREAMS: u64 = 16;
const SKEW_TOTAL: usize = 6_000; // elements for stream 0; colder streams get less

/// Zipf-ish skew: stream 0 sees every index, stream `s` every `s+1`-th —
/// so stream 0 carries ~`H(16) ≈ 3.4×` the load of the average stream.
fn skewed_chunk(from: usize, to: usize) -> Vec<(u64, f64)> {
    let mut records = Vec::new();
    for i in from..to {
        for stream in 0..SKEW_STREAMS {
            if i % (stream as usize + 1) != 0 {
                continue;
            }
            // Every stream degrades at its own point of its *own* element
            // sequence so both hot and cold streams produce events.
            let seq_no = i / (stream as usize + 1);
            let drift_at = 1_500 / (stream as usize + 1) + 50 * stream as usize;
            let base = if seq_no < drift_at { 0.08 } else { 0.55 };
            let value = (base + 0.06 * jitter(stream << 32 | i as u64)).clamp(0.0, 1.0);
            records.push((stream, value));
        }
    }
    records
}

/// Lifetime records per stream, sorted by stream id.
fn stream_records(handle: &EngineHandle) -> Vec<(u64, u64)> {
    handle
        .stream_snapshots()
        .expect("engine running")
        .into_iter()
        .map(|s| (s.stream, s.elements))
        .collect()
}

/// An engine running one OPTWIN spec on each of the skewed streams.
fn skewed_engine(shards: usize) -> (EngineHandle, Arc<MemorySink>) {
    let sink = Arc::new(MemorySink::new());
    let spec: DetectorSpec = "optwin:rho=0.5,w_max=400".parse().expect("valid spec");
    let handle = (0..SKEW_STREAMS)
        .fold(EngineBuilder::new(), |builder, stream| {
            builder.stream_spec(stream, spec.clone())
        })
        .shards(shards)
        .sink(Arc::clone(&sink) as Arc<dyn EventSink>)
        .build()
        .expect("valid engine");
    (handle, sink)
}

const CUT: usize = 3_200;

/// The events of an uninterrupted run, plus the events and the snapshot of
/// a run stopped at `CUT`.
fn run_to_cut(shards: usize) -> (Vec<DriftEvent>, Vec<DriftEvent>, EngineSnapshot) {
    let (reference, reference_sink) = skewed_engine(shards);
    reference
        .submit(&skewed_chunk(0, SKEW_TOTAL))
        .expect("engine running");
    reference.flush().expect("no ingestion errors");
    let reference_events = canonical(reference_sink.drain());
    reference.shutdown().expect("clean shutdown");

    let (original, original_sink) = skewed_engine(shards);
    original
        .submit(&skewed_chunk(0, CUT))
        .expect("engine running");
    original.flush().expect("no ingestion errors");
    let early_events = canonical(original_sink.drain());
    let snapshot = original.snapshot().expect("snapshot-capable");
    original.shutdown().expect("clean shutdown");
    (reference_events, early_events, snapshot)
}

/// Restores `snapshot` into a fresh engine with `shards` shards and feeds
/// it the rest of the workload. Returns each stream's `(id, shard)` after
/// the restore, and the events of the rest.
fn resume(snapshot: EngineSnapshot, shards: usize) -> (Vec<(u64, usize)>, Vec<DriftEvent>) {
    let sink = Arc::new(MemorySink::new());
    let restored = EngineBuilder::new()
        .shards(shards)
        .sink(Arc::clone(&sink) as Arc<dyn EventSink>)
        .restore(snapshot)
        .build()
        .expect("self-describing snapshot needs no configuration");
    let placement = restored
        .stream_snapshots()
        .expect("engine running")
        .into_iter()
        .map(|s| (s.stream, s.shard))
        .collect();
    restored
        .submit(&skewed_chunk(CUT, SKEW_TOTAL))
        .expect("engine running");
    restored.flush().expect("no ingestion errors");
    restored.shutdown().expect("clean shutdown");
    (placement, canonical(sink.drain()))
}

/// Every stream on `id % shards`.
fn modulo_placement(shards: usize) -> Vec<(u64, usize)> {
    (0..SKEW_STREAMS)
        .map(|stream| (stream, stream as usize % shards))
        .collect()
}

/// The `shard` a snapshot entry records does not move its stream: with
/// every entry's shard rotated away from `id % shards`, a restore at the
/// recorded shard count and at one more still puts each stream on
/// `id % shards`, and the stitched events equal an uninterrupted run's.
#[test]
fn recorded_shards_do_not_move_restored_streams() {
    let shards = test_shards();
    let (reference_events, early_events, mut snapshot) = run_to_cut(shards);
    for entry in &mut snapshot.streams {
        let stream = entry.stream as usize;
        assert_eq!(entry.shard, Some(stream % shards), "the writer records it");
        entry.shard = Some((stream + 1) % shards);
    }
    let snapshot = EngineSnapshot::from_json(&snapshot.to_json()).expect("well-formed JSON");

    for restore_shards in [shards, shards + 1] {
        let (placement, late_events) = resume(snapshot.clone(), restore_shards);
        assert_eq!(placement, modulo_placement(restore_shards));
        let mut stitched = early_events.clone();
        stitched.extend(late_events);
        assert_eq!(
            canonical(stitched),
            reference_events,
            "restored at {restore_shards} shards"
        );
    }
}

/// v2 snapshots (no `shard` entries) still restore, onto `id % shards`,
/// and decisions stay bit-exact.
#[test]
fn v2_snapshots_restore_with_modulo_placement() {
    let shards = test_shards();
    let (reference_events, early_events, mut v2) = run_to_cut(shards);

    // Downgrade to wire format v2: strip the shard entries.
    v2.version = 2;
    for stream in &mut v2.streams {
        stream.shard = None;
    }
    let v2 = EngineSnapshot::from_json(&v2.to_json()).expect("v2 parses");
    assert_eq!(v2.version, 2);
    assert!(v2.streams.iter().all(|entry| entry.shard.is_none()));

    let (placement, late_events) = resume(v2, shards);
    assert_eq!(placement, modulo_placement(shards));
    let mut stitched = early_events;
    stitched.extend(late_events);
    assert_eq!(canonical(stitched), reference_events);
}

/// Per-shard load is observable from the handle: record counts, queue
/// occupancy, batch EWMA and a Display rendering, with per-stream counts in
/// `stream_snapshots()`.
#[test]
fn stats_expose_per_shard_load_and_render() {
    let (handle, _sink) = skewed_engine(2);
    handle
        .submit(&skewed_chunk(0, 1_000))
        .expect("engine running");
    handle.flush().expect("no ingestion errors");
    let stats = handle.stats().expect("engine running");

    assert_eq!(stats.shards.len(), 2);
    assert_eq!(stats.streams, SKEW_STREAMS as usize);
    let shard_records: u64 = stats.shards.iter().map(|s| s.records).sum();
    assert_eq!(shard_records, stats.elements, "every record is accounted");
    let placed_records: u64 = stats.shards.iter().map(|s| s.stream_records).sum();
    assert_eq!(placed_records, stats.elements, "placement view is complete");
    let records = stream_records(&handle);
    assert_eq!(records.len(), stats.streams);
    let per_stream: u64 = records.iter().map(|&(_, n)| n).sum();
    assert_eq!(per_stream, stats.elements);
    // Stream 0 saw every index; stream 1 every second one.
    assert_eq!(records[0], (0, 1_000));
    assert_eq!(records[1], (1, 500));
    for shard in &stats.shards {
        assert_eq!(shard.queue_depth, 0, "queues are empty after a flush");
        // (`> 0.0` would flake on hosts whose clock is coarser than a
        // small batch's processing time.)
        assert!(
            shard.batch_ewma_seconds.is_finite() && shard.batch_ewma_seconds >= 0.0,
            "EWMA primed by the batch"
        );
        assert!(shard.streams > 0);
    }
    assert!(stats.imbalance() >= 1.0);

    let rendered = stats.to_string();
    assert!(rendered.contains("shard 0:"), "{rendered}");
    assert!(rendered.contains("shard 1:"), "{rendered}");
    let header = format!("{} records", stats.elements);
    assert!(rendered.contains(&header), "{rendered}");
    handle.shutdown().expect("clean shutdown");
}

/// The spec a configured stream runs.
fn configured_spec(handle: &EngineHandle, stream: u64) -> DetectorSpec {
    let stats = handle.stream_stats(stream).expect("engine running");
    stats.expect("configured").spec
}

/// A builder registering each stream of a parsed fleet config.
fn fleet_builder(fleet: FleetConfig) -> EngineBuilder {
    fleet
        .streams
        .into_iter()
        .fold(EngineBuilder::new(), |builder, (stream, spec)| {
            builder.stream_spec(stream, spec)
        })
}

/// A fleet config file builds a fully registered engine with zero code —
/// `FleetConfig::from_path` / `from_json`, one `stream_spec` per entry.
#[test]
fn fleet_config_builds_a_running_engine() {
    // Integration tests run with the package root as CWD, so the
    // checked-in example config (also smoke-run by CI) resolves directly.
    let sink = Arc::new(MemorySink::new());
    let handle = fleet_builder(
        FleetConfig::from_path("configs/fleet_example.json")
            .expect("checked-in example config parses"),
    )
    .shards(2)
    .sink(Arc::clone(&sink) as Arc<dyn EventSink>)
    .build()
    .expect("valid engine");
    let stats = handle.stats().expect("engine running");
    assert_eq!(stats.streams, 6);
    assert_eq!(configured_spec(&handle, 1).id(), "adwin");
    handle
        .submit(&[(0, 0.1), (3, 0.2)])
        .expect("engine running");
    handle.flush().expect("no ingestion errors");
    assert_eq!(handle.stats().expect("engine running").elements, 2);
    handle.shutdown().expect("clean shutdown");

    assert!(matches!(
        FleetConfig::from_path("configs/no_such_fleet.json"),
        Err(EngineError::InvalidFleetConfig(_))
    ));
    // An oversized window is a config error, not an allocation abort.
    assert!(matches!(
        FleetConfig::from_json(r#"{"1": "optwin:w_max=200000000"}"#),
        Err(EngineError::InvalidFleetConfig(message)) if message.contains("w_max")
    ));

    let inline =
        fleet_builder(FleetConfig::from_json(r#"{"9": "ddm"}"#).expect("inline config parses"))
            .shards(1)
            .build()
            .expect("valid engine");
    assert_eq!(configured_spec(&inline, 9).id(), "ddm");
    inline.shutdown().expect("clean shutdown");
}

mod churn_property {
    use super::*;
    use proptest::prelude::*;

    /// One step of the churn workload.
    #[derive(Debug, Clone)]
    enum Op {
        /// Submit a deterministic batch derived from the seed (records over
        /// streams 0..8, 60 % of traffic on streams 0–1, mean flipping with
        /// the seed so ADWIN actually fires). Streams of the batch not yet
        /// registered are first registered with the ADWIN spec.
        Submit(u64),
        /// Register a stream id with the KSWIN spec (may collide — both
        /// engines must agree on the outcome).
        Register(u64),
        /// Flush barrier.
        Flush,
    }

    fn batch_for(seed: u64) -> Vec<(u64, f64)> {
        (0..150u64)
            .map(|i| {
                let h = (seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(i.wrapping_mul(0xBF58_476D_1CE4_E5B9)))
                    >> 7;
                let stream = if h % 10 < 6 { h % 2 } else { 2 + h % 6 };
                let mean = if (seed / 3).is_multiple_of(2) {
                    0.1
                } else {
                    0.9
                };
                let value = (mean + 0.08 * jitter(h)).clamp(0.0, 1.0);
                (stream, value)
            })
            .collect()
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            prop_oneof![
                (0u64..1_000).prop_map(Op::Submit),
                (0u64..12).prop_map(Op::Register),
                (0u8..2).prop_map(|_| Op::Flush),
            ],
            2..24,
        )
    }

    /// Applies the op sequence to a fresh engine with `shards` shards and
    /// returns `(events, per-stream (id, elements, drifts))`.
    fn run(ops: &[Op], shards: usize) -> (Vec<DriftEvent>, Vec<(u64, u64, u64)>) {
        let sink = Arc::new(MemorySink::new());
        let adwin: DetectorSpec = "adwin:delta=0.3,clock=4".parse().expect("valid spec");
        let kswin: DetectorSpec = "kswin:window_size=60,stat_size=12"
            .parse()
            .expect("valid spec");
        let handle = EngineBuilder::new()
            .shards(shards)
            .sink(Arc::clone(&sink) as Arc<dyn EventSink>)
            .build()
            .expect("valid engine");
        let mut registered = std::collections::HashSet::new();
        for op in ops {
            match op {
                Op::Submit(seed) => {
                    let batch = batch_for(*seed);
                    for &(stream, _) in &batch {
                        if registered.insert(stream) {
                            handle
                                .register_stream_spec(stream, adwin.clone())
                                .expect("fresh id");
                        }
                    }
                    handle.submit(&batch).expect("engine running");
                }
                Op::Register(stream) => {
                    let fresh = handle.register_stream_spec(*stream, kswin.clone()).is_ok();
                    assert_eq!(fresh, registered.insert(*stream), "stream {stream}");
                }
                Op::Flush => handle.flush().expect("no ingestion errors"),
            }
        }
        handle.flush().expect("no ingestion errors");
        let streams = handle
            .stream_snapshots()
            .expect("engine running")
            .into_iter()
            .map(|s| (s.stream, s.elements, s.drifts))
            .collect();
        handle.shutdown().expect("clean shutdown");
        let mut events = sink.drain();
        events.sort_unstable_by_key(|e| (e.stream, e.seq));
        (events, streams)
    }

    proptest! {
        /// Any interleaving of submits / registrations / flushes on a
        /// sharded engine yields exactly the event sequence of a 1-shard
        /// reference engine running the same ops.
        #[test]
        fn churn_matches_single_shard_reference(
            ops in arb_ops(),
            shards in 2usize..6,
        ) {
            let (reference_events, reference_streams) = run(&ops, 1);
            let (events, streams) = run(&ops, shards);
            prop_assert_eq!(events, reference_events);
            prop_assert_eq!(streams, reference_streams);
        }
    }
}
