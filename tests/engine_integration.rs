//! End-to-end tests of the sharded multi-stream engine over a mixed
//! workload (all 8 detector kinds of the paper's line-up), run through the
//! public facade exactly as a downstream user would.
//!
//! The headline test drives the acceptance workload for batched ingestion:
//! a **1 M-element, 64-stream** mixed workload through an 8-shard engine,
//! one flush barrier per batch, verified identical to per-element scalar
//! ingestion.

use std::sync::Arc;

use optwin::{
    DetectorFactory, DetectorKind, DriftDetector, DriftEvent, DriftStatus, EngineBuilder,
    EngineHandle, MemorySink,
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

const N_STREAMS: u64 = 64;
const ELEMENTS_PER_STREAM: usize = 15_625; // 64 × 15 625 = 1 000 000
const SHARDS: usize = 8;

/// The detector kind assigned to a stream: the full 8-kind paper line-up,
/// tiled over the streams.
fn kind_of(stream: u64) -> DetectorKind {
    DetectorKind::paper_lineup()[(stream % 8) as usize]
}

/// The `i`-th element of a stream: every stream degrades at its own drift
/// point; binary-only detectors get Bernoulli indicators, the rest get
/// real-valued losses.
fn element(stream: u64, i: usize) -> f64 {
    let drift_at = ELEMENTS_PER_STREAM / 2 + (stream as usize * 37) % 2_000;
    let p = if i < drift_at { 0.06 } else { 0.55 };
    let u = jitter(stream.wrapping_mul(0x9E37_79B9) ^ i as u64) + 0.5;
    if kind_of(stream).binary_only() {
        f64::from(u < p)
    } else {
        (p + 0.4 * (u - 0.5)).clamp(0.0, 1.0)
    }
}

/// Builds the paper line-up detector for a stream, with a small OPTWIN
/// window / KSWIN buffer so the million-element run stays fast in debug
/// builds.
fn build_detector(stream: u64) -> Box<dyn DriftDetector + Send> {
    match kind_of(stream) {
        DetectorKind::Kswin => Box::new(optwin::baselines::Kswin::new(
            optwin::baselines::KswinConfig {
                window_size: 120,
                stat_size: 25,
                alpha: 1e-4,
            },
        )),
        kind => DetectorFactory::with_optwin_window(600).build(kind),
    }
}

/// A factory-backed engine feeding a fresh [`MemorySink`].
fn engine(shards: usize) -> (EngineHandle, Arc<MemorySink>) {
    let sink = Arc::new(MemorySink::new());
    let handle = EngineBuilder::new()
        .shards(shards)
        .factory(build_detector)
        .sink(sink.clone())
        .build()
        .expect("valid engine");
    (handle, sink)
}

/// Submits one batch, waits at a flush barrier and returns the batch's
/// events sorted by `(stream, seq)`.
fn ingest(handle: &EngineHandle, sink: &MemorySink, records: &[(u64, f64)]) -> Vec<DriftEvent> {
    handle.submit(records).expect("engine running");
    handle.flush().expect("factory-backed engine");
    let mut events = sink.drain();
    events.sort_unstable_by_key(|e| (e.stream, e.seq));
    events
}

/// The acceptance workload: 1 M elements over 64 streams on an 8-shard
/// engine, compared event-for-event against scalar per-element ingestion of
/// every stream.
#[test]
fn one_million_elements_across_64_streams_match_scalar_ingestion() {
    let (handle, sink) = engine(SHARDS);
    assert!(handle.num_shards() >= 4);

    // Ingest in interleaved batches of 8 192 records (128 per stream).
    let per_stream_chunk = 128usize;
    let mut records = Vec::with_capacity(per_stream_chunk * N_STREAMS as usize);
    let mut engine_events = Vec::new();
    let mut start = 0usize;
    while start < ELEMENTS_PER_STREAM {
        let end = (start + per_stream_chunk).min(ELEMENTS_PER_STREAM);
        records.clear();
        for stream in 0..N_STREAMS {
            for i in start..end {
                records.push((stream, element(stream, i)));
            }
        }
        engine_events.extend(ingest(&handle, &sink, &records));
        start = end;
    }

    let stats = handle.stats().expect("engine running");
    assert_eq!(stats.streams, N_STREAMS as usize);
    assert_eq!(stats.elements, 1_000_000);
    assert_eq!(stats.drifts, engine_events.len() as u64);
    handle.shutdown().expect("clean shutdown");

    // Scalar reference: per-element ingestion, stream by stream.
    let mut expected = Vec::new();
    for stream in 0..N_STREAMS {
        let mut detector = build_detector(stream);
        for i in 0..ELEMENTS_PER_STREAM {
            if detector.add_element(element(stream, i)) == DriftStatus::Drift {
                expected.push((stream, i as u64));
            }
        }
    }

    // Events arrive in batch order (sorted within each batch); compare
    // against the scalar reference as globally ordered sets.
    let mut got: Vec<(u64, u64)> = engine_events.iter().map(|e| (e.stream, e.seq)).collect();
    got.sort_unstable();
    assert_eq!(
        got, expected,
        "engine events must match scalar ingestion exactly"
    );

    // Every stream was injected with one genuine drift; the line-up detects
    // the vast majority of them.
    let streams_with_detection: std::collections::HashSet<u64> =
        engine_events.iter().map(|e| e.stream).collect();
    assert!(
        streams_with_detection.len() >= 56,
        "only {} of 64 streams saw a detection",
        streams_with_detection.len()
    );
}

/// Shard count must never change results — only wall-clock time.
#[test]
fn results_are_invariant_under_shard_count() {
    let run = |shards: usize| {
        let (handle, sink) = engine(shards);
        let mut events = Vec::new();
        let mut records = Vec::new();
        for chunk_start in (0..4_000usize).step_by(500) {
            records.clear();
            for stream in 0..16u64 {
                for i in chunk_start..chunk_start + 500 {
                    records.push((stream, element(stream, i)));
                }
            }
            events.extend(ingest(&handle, &sink, &records));
        }
        events
    };
    let single = run(1);
    let four = run(4);
    let sixteen = run(16);
    assert_eq!(single, four);
    assert_eq!(four, sixteen);
}

/// Per-stream snapshots expose the counters the serving layer needs.
#[test]
fn stream_snapshots_report_lifetime_counters() {
    let (handle, sink) = engine(4);
    let records: Vec<(u64, f64)> = (0..2_000).map(|i| (2, element(2, i))).collect();
    ingest(&handle, &sink, &records);
    let snap = handle
        .stream_stats(2)
        .expect("engine running")
        .expect("registered by factory");
    assert_eq!(snap.stream, 2);
    assert_eq!(snap.elements, 2_000);
    assert!(snap.detector_seconds >= 0.0);
    assert_eq!(snap.detector, "EDDM");
}
