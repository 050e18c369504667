//! Multi-stream serving on the declarative engine API: one engine watching
//! hundreds of model error streams with **heterogeneous detectors** (a
//! different [`DetectorSpec`] per stream group), detections fanning out
//! through pluggable sinks, and a snapshot/restore round trip demonstrating
//! a **self-describing** mid-stream restart.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example multi_stream_engine
//! ```
//!
//! Simulates a fleet of 256 deployed models, each producing a stream of
//! per-prediction errors. Each model is watched by the detector its team
//! picked — OPTWIN, ADWIN, KSWIN or Page–Hinkley, rotating in blocks of 16
//! stream ids, so every shard runs all four — registered purely from spec
//! strings: no closures, no hand-built detector instances. A handful of
//! models degrade at different points in time; the example fails unless
//! the engine flags every one of them. An [`EngineBuilder`] spawns
//! shard-owning worker threads; the main thread plays the role of a
//! network server, pushing interleaved `(stream, value)` batches through a
//! non-blocking [`EngineHandle`] while the workers detect in parallel.
//! Every drift is simultaneously:
//!
//! * counted live by a [`CallbackSink`] (the "alerting bus"),
//! * appended as JSON lines to a [`JsonLinesSink`] (the "audit log"),
//! * collected by a [`MemorySink`] for the summary below.
//!
//! Halfway through, the engine's per-shard load is dumped, and the engine
//! snapshotted, torn down, and restored into a brand-new engine **without
//! registering a single stream** — the snapshot embeds each stream's
//! `{spec, state}`, so the restarted process rebuilds all 256
//! heterogeneous detectors from the JSON alone and produces exactly the
//! events the original would have. The snapshot
//! ([`EngineHandle::snapshot`]) is wire v4: detector windows travel as
//! bit-packed / fixed-point binary blobs instead of JSON number arrays.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use optwin::engine::{
    CallbackSink, EngineBuilder, EngineHandle, EventSink, JsonLinesSink, MemorySink,
};
use optwin::{DetectorSpec, DriftEvent};

const N_STREAMS: u64 = 256;
const ELEMENTS_PER_STREAM: usize = 10_000;
const BATCH_PER_STREAM: usize = 250;

/// Deterministic jitter in [-0.5, 0.5).
fn jitter(i: u64) -> f64 {
    let mut x = i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    ((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5
}

/// Streams divisible by 37 degrade at an id-dependent point; the rest stay
/// healthy.
fn element(stream: u64, i: usize) -> f64 {
    let degraded = stream.is_multiple_of(37) && i >= 4_000 + (stream as usize % 11) * 300;
    let base = if degraded { 0.42 } else { 0.07 };
    (base + 0.05 * jitter(stream << 32 | i as u64)).clamp(0.0, 1.0)
}

/// The heterogeneous fleet: each block of 16 consecutive stream ids runs
/// the detector its team picked, written exactly as it would appear in a
/// config file. A stream lives on shard `id % shards`, so at up to 16
/// shards every shard gets streams of all four kinds. All four accept
/// real-valued losses; the OPTWIN group shares one cut table through the
/// process-wide registry.
fn spec_of(stream: u64) -> DetectorSpec {
    let text = match (stream / 16) % 4 {
        // High robustness: with hundreds of streams checked at every
        // element, only shifts of at least one historical standard
        // deviation are worth paging anyone about.
        0 => "optwin:rho=1.0,w_max=2000",
        1 => "adwin:delta=0.002",
        2 => "kswin:window_size=300,stat_size=30,alpha=0.0001",
        _ => "page_hinkley:lambda=50,delta=0.005",
    };
    text.parse().expect("valid spec string")
}

/// Submits the half-open element range `[from, to)` of every stream in
/// interleaved batches.
fn feed(handle: &EngineHandle, from: usize, to: usize) -> Result<(), Box<dyn std::error::Error>> {
    let mut records = Vec::with_capacity(N_STREAMS as usize * BATCH_PER_STREAM);
    let mut position = from;
    while position < to {
        let end = (position + BATCH_PER_STREAM).min(to);
        records.clear();
        for stream in 0..N_STREAMS {
            for i in position..end {
                records.push((stream, element(stream, i)));
            }
        }
        // Non-blocking: the shard workers chew on this while the next batch
        // is being staged. Backpressure kicks in at the queue bound.
        handle.submit(&records)?;
        position = end;
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let shards = optwin::engine::default_shards();
    println!(
        "engine: {shards} shards, {N_STREAMS} streams x {ELEMENTS_PER_STREAM} elements \
         ({} records total), heterogeneous detectors per stream",
        N_STREAMS as usize * ELEMENTS_PER_STREAM
    );

    let audit_path = std::env::temp_dir().join("optwin_multi_stream_events.jsonl");
    let live_alerts = Arc::new(AtomicU64::new(0));

    let base_engine = |sink: &Arc<MemorySink>, audit: JsonLinesSink| -> EngineBuilder {
        let alerts = Arc::clone(&live_alerts);
        EngineBuilder::new()
            .shards(shards)
            .queue_capacity(64 * 1_024)
            .sink(Arc::clone(sink) as Arc<dyn EventSink>)
            .sink(Arc::new(audit))
            .sink(Arc::new(CallbackSink::new(move |_event: &DriftEvent| {
                alerts.fetch_add(1, Ordering::Relaxed);
            })))
    };

    // ---- Phase 1: the fleet is assembled declaratively — one spec per
    // stream, no closures — then fed the first half of every stream,
    // snapshotted and torn down.
    let first_half = Arc::new(MemorySink::new());
    let mut builder = base_engine(&first_half, JsonLinesSink::create(&audit_path)?);
    for stream in 0..N_STREAMS {
        builder = builder.stream_spec(stream, spec_of(stream));
    }
    let handle = builder.build()?;
    // Live introspection: ask the engine what stream 2 is running.
    println!(
        "stream 2 runs: {}",
        handle.stream_stats(2)?.expect("registered by spec").spec
    );

    let started = Instant::now();
    feed(&handle, 0, ELEMENTS_PER_STREAM / 2)?;
    handle.flush()?;
    let phase1 = started.elapsed();

    // Load observability: the flush barrier is the natural point to inspect
    // per-shard load. Every stream lives on shard `id % shards`, and the
    // detector kinds, which cost different amounts per record, rotate in
    // blocks of 16 ids, so every shard carries a like mix of work (compare
    // the batch EWMA column).
    print!("per-shard load after phase 1:\n{}", handle.stats()?);

    // Snapshot the fleet for the restart (wire v4, compact binary blobs).
    let snapshot = handle.snapshot()?;
    handle.shutdown()?;
    assert!(
        snapshot.is_self_describing(),
        "every stream was spec-registered"
    );
    assert_eq!(snapshot.version, 4, "snapshot writes wire v4");
    let snapshot_json = snapshot.to_json();
    println!(
        "phase 1: {} elements in {phase1:.2?}; self-describing snapshot captured {} streams \
         (v4 binary: {} KiB)",
        N_STREAMS as usize * ELEMENTS_PER_STREAM / 2,
        snapshot.stream_count(),
        snapshot_json.len() / 1024,
    );

    // ---- Phase 2: a "restarted process" restores the snapshot from its
    // JSON form alone — no register calls, no knowledge of which stream ran
    // which detector. The specs embedded in the snapshot
    // rebuild the whole heterogeneous fleet.
    let snapshot = optwin::engine::EngineSnapshot::from_json(&snapshot_json)?;
    let second_half = Arc::new(MemorySink::new());
    let restored = base_engine(
        &second_half,
        JsonLinesSink::new(std::io::BufWriter::new(
            std::fs::OpenOptions::new().append(true).open(&audit_path)?,
        )),
    )
    .restore(snapshot)
    .build()?;

    let resumed = Instant::now();
    feed(&restored, ELEMENTS_PER_STREAM / 2, ELEMENTS_PER_STREAM)?;
    let stats = restored.stats()?;
    restored.shutdown()?;
    let phase2 = resumed.elapsed();

    println!(
        "phase 2: self-describing restore, engine now reports {} elements total \
         across {} streams ({phase2:.2?})",
        stats.elements, stats.streams,
    );
    let ingest = phase1 + phase2;
    println!(
        "ingest: {} elements in {ingest:.2?} ({:.1} M elements/s), \
         {} live alerts via CallbackSink, audit log at {}",
        stats.elements,
        stats.elements as f64 / ingest.as_secs_f64() / 1e6,
        live_alerts.load(Ordering::Relaxed),
        audit_path.display(),
    );

    let mut events = first_half.drain();
    events.extend(second_half.drain());
    events.sort_unstable_by_key(|e| (e.stream, e.seq));
    println!("drift events: {}", events.len());
    for event in &events {
        println!(
            "  model {:>3} ({:>12}) drifted at element {:>5}",
            event.stream,
            spec_of(event.stream).id(),
            event.seq
        );
    }

    // Every degraded model must be caught — across the restart boundary,
    // whatever detector it runs. (A few healthy models draw early false
    // alarms, so their silence is not checked.)
    let degraded: Vec<u64> = (0..N_STREAMS).filter(|s| s % 37 == 0).collect();
    let caught: Vec<u64> = degraded
        .iter()
        .copied()
        .filter(|s| events.iter().any(|e| e.stream == *s))
        .collect();
    println!(
        "degraded models: {:?}; flagged by the engine: {:?}",
        degraded, caught
    );
    assert_eq!(caught, degraded, "every degraded model must be flagged");
    Ok(())
}
