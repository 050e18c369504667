//! Crash-recovery harness for the durability subsystem (checkpoint wire
//! format v5): delta checkpoints, the per-shard write-ahead log, and
//! [`EngineBuilder::recover_from_dir`].
//!
//! The headline property is **bit-exact resume**: an engine killed
//! mid-ingest — by a real `std::process::abort()` in a re-executed child
//! process, or by an in-process worker panic injected through a panicking
//! sink — recovers from its checkpoint directory and emits byte-for-byte
//! the events (stream, `seq`, status) of an uninterrupted reference run, for
//! all 8 shipped detector kinds, with hibernated streams recovering still
//! asleep. The suite also proves delta-chain compaction equivalence under
//! proptest-generated dirty sets, pins the incremental-size win (a 1 %-dirty
//! delta stays ≤ 5 % of its base), and fuzzes the directory against
//! truncation, checksum flips and missing files — every corruption must
//! surface as [`EngineError::InvalidSnapshot`], never a panic, while a torn
//! WAL tail (the crash cut an append short) reads as clean end-of-log.
//! Durability levels are pinned by a call-count probe: `PageCache` issues
//! zero fsyncs, `Fsync` syncs every commit point and append barrier.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use optwin::core::snapshot::float_field;
use optwin::engine::{fsync_count, load_checkpoint_dir, CheckpointPolicy, Durability, EngineError};
use optwin::{
    DetectorSpec, DriftEvent, EngineBuilder, EngineHandle, EventSink, HibernationPolicy, MemorySink,
};

// ---------------------------------------------------------------------------
// The workload: 8 streams, one per detector kind, deterministic input
// ---------------------------------------------------------------------------

const STREAMS: u64 = 8;
const TOTAL: usize = 4_000;
/// Elements per stream covered by the last checkpoint in the crash
/// scenarios (the workers flush — and therefore checkpoint — up to here).
const COVERED: usize = 2_000;
/// Elements per stream at the crash: `COVERED..CRASH` lives only in the
/// write-ahead log when the process dies.
const CRASH: usize = 2_400;

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

fn spec_of(stream: u64) -> DetectorSpec {
    let text = match stream % 8 {
        0 => "optwin:rho=0.5,w_max=600",
        1 => "adwin",
        2 => "ddm",
        3 => "eddm",
        4 => "stepd",
        5 => "ecdd",
        6 => "page_hinkley",
        _ => "kswin:window_size=120,stat_size=25,alpha=0.0001",
    };
    text.parse().expect("valid spec string")
}

/// The `i`-th element of a stream: every stream degrades at its own drift
/// point past [`COVERED`]; binary-only detectors get Bernoulli indicators.
fn element(stream: u64, i: usize) -> f64 {
    let drift_at = 2_000 + (stream as usize * 173) % 1_100;
    let p = if i < drift_at { 0.06 } else { 0.55 };
    let u = jitter(stream.wrapping_mul(0x5150_5150) ^ i as u64) + 0.5;
    if spec_of(stream).binary_only() {
        f64::from(u < p)
    } else {
        (p + 0.4 * (u - 0.5)).clamp(0.0, 1.0)
    }
}

/// A fresh, empty scratch directory unique to this test + process.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("optwin-ckpt-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn build_fleet(
    checkpoint: Option<(&Path, CheckpointPolicy)>,
    hibernation: Option<HibernationPolicy>,
) -> (EngineHandle, Arc<MemorySink>) {
    let sink = Arc::new(MemorySink::new());
    let mut builder = EngineBuilder::new()
        .shards(4)
        .sink(Arc::clone(&sink) as Arc<dyn EventSink>);
    if let Some((dir, policy)) = checkpoint {
        builder = builder.checkpoint(dir, policy);
    }
    if let Some(policy) = hibernation {
        builder = builder.hibernation(policy);
    }
    for stream in 0..STREAMS {
        builder = builder.stream_spec(stream, spec_of(stream));
    }
    (builder.build().expect("valid engine"), sink)
}

/// Feeds `from..to` to every stream in 250-element chunks, flushing after
/// each chunk — under `CheckpointPolicy::every_flushes(1)` that is one
/// checkpoint per chunk.
fn feed_flushing(handle: &EngineHandle, from: usize, to: usize) {
    let mut records = Vec::new();
    for start in (from..to).step_by(250) {
        let end = (start + 250).min(to);
        records.clear();
        for stream in 0..STREAMS {
            for i in start..end {
                records.push((stream, element(stream, i)));
            }
        }
        handle.submit(&records).expect("engine running");
        handle.flush().expect("no ingestion errors");
    }
}

/// Submits `from..to` for every stream in one batch **without flushing**,
/// then uses the stats barrier to guarantee the workers have processed (and
/// therefore WAL-logged) it: the window ends up in the log only, exactly
/// the state a crash must recover from.
fn feed_wal_only(handle: &EngineHandle, from: usize, to: usize) {
    let mut records = Vec::new();
    for stream in 0..STREAMS {
        for i in from..to {
            records.push((stream, element(stream, i)));
        }
    }
    handle.submit(&records).expect("engine running");
    let _ = handle.stats().expect("engine running");
}

fn canonical(mut events: Vec<DriftEvent>) -> Vec<DriftEvent> {
    events.sort_unstable_by_key(|e| (e.stream, e.seq));
    events
}

/// The uninterrupted reference: all events of the full run whose `seq` is
/// at or past `from` (the recovered engine re-emits the replayed window, so
/// its event set starts at the last checkpoint's coverage).
fn reference_events_from(from: usize) -> Vec<DriftEvent> {
    let (handle, sink) = build_fleet(None, None);
    feed_flushing(&handle, 0, TOTAL);
    let events = canonical(sink.drain());
    handle.shutdown().expect("clean shutdown");
    events
        .into_iter()
        .filter(|e| e.seq as usize >= from)
        .collect()
}

/// Recovers `dir`, feeds the remaining stream and returns every event the
/// recovered engine emitted — replayed window included.
fn recover_and_finish(dir: &Path, resume_from: usize) -> Vec<DriftEvent> {
    let sink = Arc::new(MemorySink::new());
    let handle = EngineBuilder::new()
        .shards(4)
        .sink(Arc::clone(&sink) as Arc<dyn EventSink>)
        .recover_from_dir(dir)
        .expect("recoverable directory")
        .build()
        .expect("valid engine");
    feed_flushing(&handle, resume_from, TOTAL);
    let events = canonical(sink.drain());
    handle.shutdown().expect("clean shutdown");
    events
}

// ---------------------------------------------------------------------------
// Process-level crash: a real abort, a real recovery
// ---------------------------------------------------------------------------

/// The child half of the process-kill harness: runs the checkpointed
/// workload up to [`CRASH`] and dies without warning. Only meaningful when
/// re-executed by `crash_recovery_survives_process_kill` (gated on the
/// directory env var); inert under a plain `--ignored` sweep.
#[test]
#[ignore = "re-executed as a crashing child process by the recovery harness"]
fn crash_child_ingests_then_aborts() {
    let Ok(dir) = std::env::var("OPTWIN_CRASH_CHILD_DIR") else {
        return;
    };
    let (handle, _sink) = build_fleet(
        Some((Path::new(&dir), CheckpointPolicy::every_flushes(1))),
        None,
    );
    feed_flushing(&handle, 0, COVERED);
    feed_wal_only(&handle, COVERED, CRASH);
    // No shutdown, no flush, no checkpoint: the stats barrier above proved
    // the records reached the workers (and thus the log); everything else
    // dies with the process.
    std::process::abort();
}

/// Kills a checkpointing engine with `std::process::abort()` mid-ingest —
/// a real SIGABRT in a separate process, nothing in-process to soften the
/// landing — then recovers the directory and proves the resumed fleet's
/// events are byte-identical to an uninterrupted run, for all 8 detector
/// kinds at once.
#[test]
fn crash_recovery_survives_process_kill() {
    let dir = scratch_dir("process-kill");
    let exe = std::env::current_exe().expect("test binary path");
    let status = std::process::Command::new(exe)
        .args([
            "crash_child_ingests_then_aborts",
            "--exact",
            "--ignored",
            "--nocapture",
        ])
        .env("OPTWIN_CRASH_CHILD_DIR", &dir)
        .status()
        .expect("spawn crashing child");
    assert!(
        !status.success(),
        "the child must die by abort, not exit cleanly: {status}"
    );

    // The directory must already tell a coherent story before any recovery
    // runs: the last durable checkpoint covers exactly `COVERED` elements
    // per stream — the aborted window lives in the WAL, not the overlays.
    let merged = load_checkpoint_dir(&dir).expect("recoverable directory");
    assert_eq!(merged.stream_count(), STREAMS as usize);
    for stream in &merged.streams {
        assert_eq!(
            stream.seq, COVERED as u64,
            "stream {} checkpoint coverage",
            stream.stream
        );
    }

    let events = recover_and_finish(&dir, CRASH);
    let expected = reference_events_from(COVERED);
    assert!(
        !expected.is_empty(),
        "the workload must drift after the checkpoint coverage"
    );
    assert_eq!(
        events, expected,
        "recovered fleet must resume bit-exactly after a process kill"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// In-process crash: a panicking sink kills a shard worker mid-batch
// ---------------------------------------------------------------------------

/// Panics on the first event at `seq ≥ PILL_SEQ` once armed — a
/// worker-thread crash injected mid-batch. Sinks run on the worker after
/// the write-ahead-log append, so the log already holds the fatal batch.
struct PoisonPill {
    armed: AtomicBool,
}

const PILL_SEQ: u64 = 1_500;

impl EventSink for PoisonPill {
    fn emit(&self, event: &DriftEvent) {
        if event.seq >= PILL_SEQ && self.armed.swap(false, Ordering::SeqCst) {
            panic!("poison pill swallowed at {event:?}");
        }
    }
}

/// A shard worker dies by panic in the middle of a batch; `flush` and
/// `shutdown` report [`EngineError::Poisoned`]; the directory recovers
/// bit-exactly — including the dead worker's streams, whose fatal batch
/// was write-ahead logged before they saw it.
#[test]
fn poisoned_worker_recovery_is_bit_exact() {
    /// A stream registered at runtime, by spec.
    const PILL: u64 = 100;
    let pill_spec: DetectorSpec = "adwin".parse().expect("valid spec");
    let records_for = |from: usize, to: usize| -> Vec<(u64, f64)> {
        (from..to)
            .flat_map(|i| (0..STREAMS).chain([PILL]).map(move |s| (s, element(s, i))))
            .collect()
    };

    // Reference: the identical fleet, never crashing.
    let reference = {
        let (handle, sink) = build_fleet(None, None);
        handle
            .register_stream_spec(PILL, pill_spec.clone())
            .expect("fresh stream id");
        for start in (0..TOTAL).step_by(500) {
            handle
                .submit(&records_for(start, (start + 500).min(TOTAL)))
                .expect("engine running");
            handle.flush().expect("no ingestion errors");
        }
        let events = canonical(sink.drain());
        handle.shutdown().expect("clean shutdown");
        events
    };

    let dir = scratch_dir("poisoned-worker");
    let pill = Arc::new(PoisonPill {
        armed: AtomicBool::new(false),
    });
    let builder = EngineBuilder::new()
        .shards(4)
        .sink(Arc::clone(&pill) as Arc<dyn EventSink>)
        .checkpoint(&dir, CheckpointPolicy::every_flushes(1));
    let handle = (0..STREAMS)
        .fold(builder, |builder, s| builder.stream_spec(s, spec_of(s)))
        .build()
        .expect("valid engine");
    handle
        .register_stream_spec(PILL, pill_spec)
        .expect("fresh stream id");
    for start in (0..1_500).step_by(500) {
        handle
            .submit(&records_for(start, start + 500))
            .expect("engine running");
        handle.flush().expect("no ingestion errors");
    }
    // The fatal window: the first drift at `PILL_SEQ` or later kills its
    // worker mid-batch. Every shard logged its partition before applying
    // it, so nothing here is lost.
    pill.armed.store(true, Ordering::SeqCst);
    handle
        .submit(&records_for(1_500, 1_700))
        .expect("engine running");
    assert_eq!(handle.flush(), Err(EngineError::Poisoned));
    assert_eq!(handle.shutdown(), Err(EngineError::Poisoned));

    // Recovery needs no configuration: every stream, the one registered at
    // runtime included, rebuilds from its checkpointed spec.
    let sink = Arc::new(MemorySink::new());
    let recovered = EngineBuilder::new()
        .shards(4)
        .sink(Arc::clone(&sink) as Arc<dyn EventSink>)
        .recover_from_dir(&dir)
        .expect("recoverable directory")
        .build()
        .expect("valid engine");
    for start in (1_700..TOTAL).step_by(500) {
        recovered
            .submit(&records_for(start, (start + 500).min(TOTAL)))
            .expect("engine running");
        recovered.flush().expect("no ingestion errors");
    }
    let events = canonical(sink.drain());
    recovered.shutdown().expect("clean shutdown");

    let expected: Vec<DriftEvent> = reference
        .into_iter()
        .filter(|e| e.seq >= PILL_SEQ)
        .collect();
    assert!(!expected.is_empty(), "the workload must drift after 1500");
    assert_eq!(
        events, expected,
        "recovery after a worker panic must resume bit-exactly"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A registration that only the write-ahead log holds — made after the
/// build's initial checkpoint, with no checkpoint after it — survives a
/// crash: recovery with no default spec brings the stream back with its
/// spec, and it resumes bit-exactly.
#[test]
fn wal_only_registration_survives_a_crash() {
    const LATE: u64 = 100;
    let spec = spec_of(LATE);
    let feed = |handle: &EngineHandle, from: usize, to: usize| {
        let records: Vec<(u64, f64)> = (from..to).map(|i| (LATE, element(LATE, i))).collect();
        handle.submit(&records).expect("engine running");
    };

    let reference = {
        let (handle, sink) = build_fleet(None, None);
        handle
            .register_stream_spec(LATE, spec.clone())
            .expect("fresh stream id");
        feed(&handle, 0, TOTAL);
        handle.flush().expect("no ingestion errors");
        let events = canonical(sink.drain());
        handle.shutdown().expect("clean shutdown");
        events
    };

    let dir = scratch_dir("wal-only-registration");
    let (handle, _sink) = build_fleet(Some((&dir, CheckpointPolicy::every_flushes(0))), None);
    handle
        .register_stream_spec(LATE, spec.clone())
        .expect("fresh stream id");
    feed(&handle, 0, CRASH);
    // The stats barrier proves the worker logged both; no checkpoint
    // follows.
    let _ = handle.stats().expect("engine running");
    handle.shutdown().expect("clean shutdown");
    let checkpointed = load_checkpoint_dir(&dir).expect("loadable directory");
    assert!(
        checkpointed.streams.iter().all(|s| s.stream != LATE),
        "only the write-ahead log may hold the late stream"
    );

    let sink = Arc::new(MemorySink::new());
    let recovered = EngineBuilder::new()
        .shards(4)
        .sink(Arc::clone(&sink) as Arc<dyn EventSink>)
        .recover_from_dir(&dir)
        .expect("recoverable directory")
        .build()
        .expect("valid engine");
    assert_eq!(
        recovered.stream_spec(LATE).expect("engine running"),
        Some(spec)
    );
    feed(&recovered, CRASH, TOTAL);
    recovered.flush().expect("no ingestion errors");
    let events = canonical(sink.drain());
    recovered.shutdown().expect("clean shutdown");

    assert!(
        events.iter().any(|e| e.seq as usize >= CRASH),
        "the late stream must drift after the crash"
    );
    assert_eq!(
        events, reference,
        "a WAL-only registration must resume bit-exactly"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Hibernation: sleeping streams recover asleep
// ---------------------------------------------------------------------------

/// A fully hibernated fleet checkpoints its compressed blobs; recovery
/// re-creates every stream **still asleep** (no detector materialized until
/// its first record) and still resumes bit-exactly.
#[test]
fn hibernated_streams_recover_asleep() {
    let dir = scratch_dir("hibernated");
    let (handle, _sink) = build_fleet(
        Some((&dir, CheckpointPolicy::every_flushes(1))),
        Some(HibernationPolicy::cold_after_flushes(0)),
    );
    feed_flushing(&handle, 0, COVERED);
    handle.shutdown().expect("clean shutdown");

    let merged = load_checkpoint_dir(&dir).expect("recoverable directory");
    assert!(
        merged.streams.iter().all(|s| s.hibernated),
        "the forced policy must have every stream asleep at capture"
    );

    let sink = Arc::new(MemorySink::new());
    let recovered = EngineBuilder::new()
        .shards(4)
        .sink(Arc::clone(&sink) as Arc<dyn EventSink>)
        .hibernation(HibernationPolicy::default())
        .recover_from_dir(&dir)
        .expect("recoverable directory")
        .build()
        .expect("valid engine");
    let stats = recovered.stats().expect("engine running");
    assert_eq!(
        stats.hibernated_streams(),
        STREAMS as usize,
        "recovery must not wake sleeping streams"
    );
    assert_eq!(stats.elements, STREAMS * COVERED as u64);

    feed_flushing(&recovered, COVERED, TOTAL);
    let events = canonical(sink.drain());
    assert_eq!(
        recovered.stats().expect("engine running").rehydrations(),
        STREAMS
    );
    recovered.shutdown().expect("clean shutdown");
    assert_eq!(
        events,
        reference_events_from(COVERED),
        "asleep recovery must resume bit-exactly"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Saturation: non-finite accumulators survive the checkpoint text
// ---------------------------------------------------------------------------

/// A saturated stream must not make the whole checkpoint unrecoverable.
/// OPTWIN fed alternating `±1e300` runs with `inf`/NaN accumulators, which
/// JSON has no number for; ADWIN rejects those values and keeps its
/// aggregates finite. Next to a healthy DDM stream that drifts, recovery
/// resumes every stream bit-exactly — same events, same final state —
/// against an uninterrupted reference run. (`adwin.rs` round-trips a
/// saturated ADWIN snapshot.)
#[test]
fn saturated_streams_recover_bit_exact() {
    let dir = scratch_dir("saturated");
    let specs = ["adwin", "optwin:rho=0.5,w_max=600", "ddm"];
    let value = |stream: u64, i: usize| match stream {
        2 => element(2, i),
        _ if i.is_multiple_of(2) => 1e300,
        _ => -1e300,
    };
    let build = |checkpoint: bool| {
        let sink = Arc::new(MemorySink::new());
        let mut builder = EngineBuilder::new()
            .shards(2)
            .sink(Arc::clone(&sink) as Arc<dyn EventSink>);
        if checkpoint {
            builder = builder.checkpoint(&dir, CheckpointPolicy::every_flushes(1));
        }
        for (stream, spec) in (0u64..).zip(specs) {
            builder = builder.stream_spec(stream, spec.parse().expect("valid spec"));
        }
        (builder.build().expect("valid engine"), sink)
    };
    let feed = |handle: &EngineHandle, from: usize, to: usize| {
        for start in (from..to).step_by(500) {
            let records: Vec<(u64, f64)> = (start..start + 500)
                .flat_map(|i| (0..3).map(move |stream| (stream, value(stream, i))))
                .collect();
            handle.submit(&records).expect("engine running");
            handle.flush().expect("no ingestion errors");
        }
    };
    // The events from `COVERED` on, and every stream's final state as JSON.
    let finish = |handle: EngineHandle, sink: &MemorySink| {
        let snapshot = handle.snapshot().expect("snapshot-capable");
        handle.shutdown().expect("clean shutdown");
        let states: Vec<String> = snapshot
            .streams
            .iter()
            .map(|s| serde_json::to_string(&s.state).expect("value trees serialize"))
            .collect();
        let mut events = canonical(sink.drain());
        events.retain(|e| e.seq as usize >= COVERED);
        (events, states)
    };

    let (handle, _sink) = build(true);
    feed(&handle, 0, COVERED);
    handle.shutdown().expect("clean shutdown");
    let merged = load_checkpoint_dir(&dir).expect("loadable directory");
    let sink = Arc::new(MemorySink::new());
    let recovered = EngineBuilder::new()
        .shards(2)
        .sink(Arc::clone(&sink) as Arc<dyn EventSink>)
        .recover_from_dir(&dir)
        .expect("recoverable directory")
        .build()
        .expect("valid engine");
    // ADWIN stayed finite; the checkpoint held OPTWIN's saturated scalars
    // as blobs.
    let adwin = &merged.streams[0].state;
    assert!(
        float_field(adwin, "total_variance").is_ok_and(f64::is_finite),
        "ADWIN's variance must stay finite: {adwin:?}"
    );
    let optwin = &merged.streams[1].state;
    assert!(
        matches!(optwin.get("new_moments"), Some(serde::Value::Array(items))
            if items.iter().any(|x| matches!(x, serde::Value::Str(_)))),
        "OPTWIN's moments must have saturated: {optwin:?}"
    );
    feed(&recovered, COVERED, TOTAL);
    let (reference, reference_sink) = build(false);
    feed(&reference, 0, TOTAL);
    let expected = finish(reference, &reference_sink);
    assert!(!expected.0.is_empty(), "the DDM stream must drift");
    assert_eq!(finish(recovered, &sink), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Compaction equivalence (proptest)
// ---------------------------------------------------------------------------

mod compaction_property {
    use super::*;
    use proptest::prelude::*;

    /// One step of the dirty-set workload.
    #[derive(Debug, Clone)]
    enum Op {
        /// Feed a deterministic batch to the streams whose mask bit is set
        /// (at least one), leaving the rest clean.
        Feed { mask: u8, seed: u64 },
        /// Cut an explicit checkpoint.
        Checkpoint,
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            prop_oneof![
                // One u64 unpacks into (mask, seed): the shim has no tuple
                // strategies.
                (0u64..63_000).prop_map(|x| Op::Feed {
                    mask: (x % 63 + 1) as u8,
                    seed: x / 63,
                }),
                (0u8..2).prop_map(|_| Op::Checkpoint),
            ],
            2..12,
        )
    }

    const PROP_STREAMS: u64 = 6;

    fn apply(handle: &EngineHandle, ops: &[Op], tail_seed: u64) {
        for op in ops {
            match op {
                Op::Feed { mask, seed } => {
                    let mut records = Vec::new();
                    for stream in 0..PROP_STREAMS {
                        if mask & (1 << stream) == 0 {
                            continue;
                        }
                        for i in 0..40u64 {
                            let p = if (seed / 7).is_multiple_of(2) {
                                0.1
                            } else {
                                0.6
                            };
                            let u =
                                jitter(seed.wrapping_mul(31).wrapping_add(stream * 977 + i)) + 0.5;
                            let value = if spec_of(stream).binary_only() {
                                f64::from(u < p)
                            } else {
                                (p + 0.3 * (u - 0.5)).clamp(0.0, 1.0)
                            };
                            records.push((stream, value));
                        }
                    }
                    handle.submit(&records).expect("engine running");
                    handle.flush().expect("no ingestion errors");
                }
                Op::Checkpoint => {
                    handle.checkpoint().expect("checkpoint succeeds");
                }
            }
        }
        // The crash point: a final batch that reaches the WAL but never a
        // checkpoint (shutdown does not cut one).
        let tail: Vec<(u64, f64)> = (0..PROP_STREAMS)
            .flat_map(|stream| {
                (0..25u64).map(move |i| {
                    let u = jitter(tail_seed.wrapping_add(stream * 131 + i)) + 0.5;
                    let value = if spec_of(stream).binary_only() {
                        f64::from(u < 0.5)
                    } else {
                        u
                    };
                    (stream, value)
                })
            })
            .collect();
        handle.submit(&tail).expect("engine running");
        let _ = handle.stats().expect("engine running");
        handle.shutdown().expect("clean shutdown");
    }

    fn build(dir: &Path, shards: usize, ratio: f64) -> (EngineHandle, Arc<MemorySink>) {
        let sink = Arc::new(MemorySink::new());
        let mut builder = EngineBuilder::new()
            .shards(shards)
            .sink(Arc::clone(&sink) as Arc<dyn EventSink>)
            .checkpoint(dir, CheckpointPolicy::every_flushes(0).compact_ratio(ratio));
        for stream in 0..PROP_STREAMS {
            builder = builder.stream_spec(stream, spec_of(stream));
        }
        (builder.build().expect("valid engine"), sink)
    }

    fn recover(dir: &Path) -> (Vec<DriftEvent>, Vec<(u64, u64)>) {
        let sink = Arc::new(MemorySink::new());
        let handle = EngineBuilder::new()
            .shards(3)
            .sink(Arc::clone(&sink) as Arc<dyn EventSink>)
            .recover_from_dir(dir)
            .expect("recoverable directory")
            .build()
            .expect("valid engine");
        // A drifting continuation so post-recovery decisions are compared,
        // not just replayed ones.
        let records: Vec<(u64, f64)> = (0..PROP_STREAMS)
            .flat_map(|stream| {
                (0..120u64).map(move |i| {
                    let u = jitter(stream * 4_099 + i) + 0.5;
                    let value = if spec_of(stream).binary_only() {
                        f64::from(u < 0.7)
                    } else {
                        (0.7 + 0.2 * (u - 0.5)).clamp(0.0, 1.0)
                    };
                    (stream, value)
                })
            })
            .collect();
        handle.submit(&records).expect("engine running");
        handle.flush().expect("no ingestion errors");
        let events = canonical(sink.drain());
        let positions = handle
            .stream_snapshots()
            .expect("engine running")
            .into_iter()
            .map(|s| (s.stream, s.elements))
            .collect();
        handle.shutdown().expect("clean shutdown");
        (events, positions)
    }

    proptest! {
        /// The same workload — identical feeds, flushes and checkpoint
        /// cuts — once under a never-compacting policy (a long delta
        /// chain) and once under an always-eager one (`compact_ratio
        /// 0.0`): the merged on-disk state must be identical modulo
        /// wall-clock `detector_seconds`, and recovery from either
        /// directory — WAL tail and all — must produce identical events
        /// and stream positions.
        #[test]
        fn compacted_chain_recovers_identically(
            ops in arb_ops(),
            shards in 2usize..5,
            tail_seed in 0u64..10_000,
        ) {
            let chain_dir = scratch_dir(&format!("prop-chain-{tail_seed}-{shards}"));
            let compact_dir = scratch_dir(&format!("prop-compact-{tail_seed}-{shards}"));

            let (chain, _sink) = build(&chain_dir, shards, f64::INFINITY);
            apply(&chain, &ops, tail_seed);
            let (compact, _sink) = build(&compact_dir, shards, 0.0);
            apply(&compact, &ops, tail_seed);

            let mut merged_chain = load_checkpoint_dir(&chain_dir).unwrap();
            let mut merged_compact = load_checkpoint_dir(&compact_dir).unwrap();
            for snapshot in [&mut merged_chain, &mut merged_compact] {
                for stream in &mut snapshot.streams {
                    stream.detector_seconds = 0.0;
                }
            }
            prop_assert_eq!(&merged_chain.streams, &merged_compact.streams);

            let (chain_events, chain_positions) = recover(&chain_dir);
            let (compact_events, compact_positions) = recover(&compact_dir);
            prop_assert_eq!(chain_events, compact_events);
            prop_assert_eq!(chain_positions, compact_positions);

            let _ = std::fs::remove_dir_all(&chain_dir);
            let _ = std::fs::remove_dir_all(&compact_dir);
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental-size guard
// ---------------------------------------------------------------------------

/// The point of delta checkpoints, pinned as a regression test: with 1 % of
/// a 200-stream fleet dirty since the last cut, the delta overlay costs at
/// most **5 %** of a full base snapshot. Both sizes print so CI logs track
/// the ratio.
#[test]
fn one_percent_dirty_delta_stays_under_five_percent_of_base() {
    const FLEET: u64 = 200;
    let dir = scratch_dir("size-guard");
    let sink = Arc::new(MemorySink::new());
    let mut builder = EngineBuilder::new()
        .shards(4)
        .sink(Arc::clone(&sink) as Arc<dyn EventSink>)
        // `compact_ratio 0.0` alternates delta → compact, which is exactly
        // the cadence this scenario needs: warm base, then a tiny delta.
        .checkpoint(&dir, CheckpointPolicy::every_flushes(0).compact_ratio(0.0));
    for stream in 0..FLEET {
        builder = builder.stream_spec(stream, spec_of(stream));
    }
    let handle = builder.build().expect("valid engine");

    let feed_streams = |streams: &[u64]| {
        let mut records = Vec::new();
        for &stream in streams {
            for i in 0..60u64 {
                let u = jitter(stream * 7_919 + i) + 0.5;
                let value = if spec_of(stream).binary_only() {
                    f64::from(u < 0.2)
                } else {
                    u
                };
                records.push((stream, value));
            }
        }
        handle.submit(&records).expect("engine running");
        handle.flush().expect("no ingestion errors");
    };

    let all: Vec<u64> = (0..FLEET).collect();
    feed_streams(&all);
    let delta_all = handle.checkpoint().expect("checkpoint succeeds");
    assert!(!delta_all.full, "second checkpoint is the all-dirty delta");
    assert_eq!(delta_all.streams, FLEET as usize);
    feed_streams(&all);
    let compacted = handle.checkpoint().expect("checkpoint succeeds");
    assert!(compacted.full, "ratio 0.0 must compact the chain now");

    // 1 % dirty: two of two hundred streams see records.
    feed_streams(&[17, 93]);
    let delta = handle.checkpoint().expect("checkpoint succeeds");
    handle.shutdown().expect("clean shutdown");
    assert!(!delta.full);
    assert_eq!(delta.streams, 2, "only the dirty streams are captured");
    println!(
        "checkpoint size guard: base = {} bytes, 1%-dirty delta = {} bytes, ratio = {:.2}%",
        delta.base_bytes,
        delta.bytes,
        delta.bytes as f64 / delta.base_bytes as f64 * 100.0
    );
    assert!(
        delta.bytes * 20 <= delta.base_bytes,
        "1%-dirty delta ({} bytes) exceeds 5% of its base ({} bytes)",
        delta.bytes,
        delta.base_bytes
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Corruption fuzzing: fail loudly, never panic — except the torn tail
// ---------------------------------------------------------------------------

/// Builds a small checkpointed directory with a base, a delta chain and a
/// WAL tail, cleanly stopped (the tail stays log-only).
fn corrupt_fixture_dir(name: &str) -> PathBuf {
    let dir = scratch_dir(name);
    let (handle, _sink) = build_fleet(
        Some((
            &dir,
            CheckpointPolicy::every_flushes(1).compact_ratio(f64::INFINITY),
        )),
        None,
    );
    feed_flushing(&handle, 0, 500);
    feed_wal_only(&handle, 500, 600);
    handle.shutdown().expect("clean shutdown");
    dir
}

fn recovery_error(dir: &Path) -> EngineError {
    match EngineBuilder::new().shards(2).recover_from_dir(dir) {
        Err(error) => error,
        Ok(builder) => builder
            .build()
            .expect_err("corrupted directory must fail recovery"),
    }
}

/// Every damaged-directory class — truncated overlay, flipped WAL payload
/// byte, missing base, future manifest version, unparsable manifest —
/// surfaces as [`EngineError::InvalidSnapshot`] and never panics.
#[test]
fn corrupted_checkpoint_dirs_fail_cleanly() {
    // Truncated delta overlay.
    let dir = corrupt_fixture_dir("truncated-delta");
    let delta = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("delta-"))
        })
        .max()
        .expect("the fixture dir has delta overlays");
    let text = std::fs::read_to_string(&delta).unwrap();
    std::fs::write(&delta, &text[..text.len() / 2]).unwrap();
    assert!(
        matches!(recovery_error(&dir), EngineError::InvalidSnapshot(_)),
        "truncated overlay"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // A flipped byte inside a WAL frame payload: the frame checksum must
    // catch it (the segment header is 17 bytes, the frame header 9 — byte
    // 30 sits in the first record batch's payload).
    let dir = corrupt_fixture_dir("flipped-wal");
    let wal = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .max()
        .expect("the fixture dir has WAL segments");
    let mut bytes = std::fs::read(&wal).unwrap();
    assert!(bytes.len() > 31, "tail segment must hold a logged batch");
    bytes[30] ^= 0x5a;
    std::fs::write(&wal, &bytes).unwrap();
    let error = recovery_error(&dir);
    assert!(
        matches!(&error, EngineError::InvalidSnapshot(m) if m.contains("checksum")),
        "flipped WAL byte must fail the frame checksum, got {error:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // Missing base snapshot.
    let dir = corrupt_fixture_dir("missing-base");
    let base = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("base-"))
        })
        .expect("the fixture dir has a base");
    std::fs::remove_file(&base).unwrap();
    let error = recovery_error(&dir);
    assert!(
        matches!(&error, EngineError::InvalidSnapshot(m) if m.contains("base")),
        "missing base must be named, got {error:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // Future manifest version, then outright garbage.
    let dir = corrupt_fixture_dir("bad-manifest");
    let manifest = dir.join("MANIFEST.json");
    let text = std::fs::read_to_string(&manifest).unwrap();
    std::fs::write(&manifest, text.replace("\"version\":5", "\"version\":6")).unwrap();
    assert!(
        matches!(recovery_error(&dir), EngineError::InvalidSnapshot(m) if m.contains("version")),
        "future manifest version"
    );
    std::fs::write(&manifest, "{ not json").unwrap();
    assert!(
        matches!(recovery_error(&dir), EngineError::InvalidSnapshot(_)),
        "unparsable manifest"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The one corruption that is **not** an error: a torn trailing WAL frame —
/// the crash cut an append short — reads as clean end-of-log, and recovery
/// proceeds with everything before it.
#[test]
fn torn_wal_tail_recovers_cleanly() {
    let dir = corrupt_fixture_dir("torn-tail");
    let wal = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .max()
        .expect("the fixture dir has WAL segments");
    let mut bytes = std::fs::read(&wal).unwrap();
    assert!(bytes.len() > 40, "tail segment must hold a logged batch");
    bytes.truncate(bytes.len() - 5);
    std::fs::write(&wal, &bytes).unwrap();

    let handle = EngineBuilder::new()
        .shards(2)
        .recover_from_dir(&dir)
        .expect("a torn tail is clean EOF")
        .build()
        .expect("valid engine");
    let stats = handle.stats().expect("engine running");
    assert_eq!(stats.streams, STREAMS as usize);
    // The torn frame's batch is (partially) lost, everything before it is
    // not: every stream is at least at the checkpoint coverage.
    for report in handle.stream_snapshots().expect("engine running") {
        assert!(
            report.elements >= 500,
            "stream {} lost checkpointed records",
            report.stream
        );
    }
    handle.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Failures around the directory: a failed write, a failed recovery, a
// fresh build over an old checkpoint
// ---------------------------------------------------------------------------

/// A checkpoint whose write fails after its capture barrier leaves the
/// engine degraded: the capture already cleared every dirty bit, so the
/// next checkpoint must write a full base. A directory in place of the
/// overlay's temp file makes the write fail, even for a process running
/// as root, which permission bits would not stop. Only stream 0 sees
/// records between the failure and the heal, so a delta heal would
/// capture stream 0 alone while garbage collection drops the log holding
/// the other streams' records. A stop before the heal and a stop after it
/// both recover bit-exactly.
#[test]
fn failed_checkpoint_write_heals_with_a_full_base() {
    /// Every stream is fed `0..FAILED` before the failed write.
    const FAILED: usize = 1_000;
    /// Stream 0 is fed `FAILED..HEALED` before the heal; the other streams
    /// get theirs after it.
    const HEALED: usize = 1_500;
    let feed = |handle: &EngineHandle, streams: std::ops::Range<u64>, from: usize, to: usize| {
        let records: Vec<(u64, f64)> = streams
            .flat_map(|s| (from..to).map(move |i| (s, element(s, i))))
            .collect();
        handle.submit(&records).expect("engine running");
        handle.flush().expect("no ingestion errors");
    };
    let reference = reference_events_from(0);

    for heal in [false, true] {
        let dir = scratch_dir(if heal {
            "failed-write-healed"
        } else {
            "failed-write-stopped"
        });
        let policy = CheckpointPolicy::every_flushes(0).compact_ratio(f64::INFINITY);
        let (handle, _sink) = build_fleet(Some((&dir, policy)), None);
        feed(&handle, 0..STREAMS, 0, FAILED);
        // The build wrote base 0, so checkpoint 1 is a delta overlay.
        let blocker = dir.join("delta-1.tmp");
        std::fs::create_dir(&blocker).expect("fresh directory");
        let error = handle
            .checkpoint()
            .expect_err("the overlay's temp file is a directory");
        assert!(
            matches!(&error, EngineError::Checkpoint(m) if m.contains("delta-1.tmp")),
            "got {error:?}"
        );
        feed(&handle, 0..1, FAILED, HEALED);
        if heal {
            std::fs::remove_dir(&blocker).expect("the blocker is an empty directory");
            let report = handle.checkpoint().expect("the write path is clear again");
            assert!(
                report.full,
                "the checkpoint after a failed write must be a full base"
            );
            feed(&handle, 1..STREAMS, FAILED, HEALED);
        } else {
            for segment in ["wal-1-0.log", "wal-2-0.log"] {
                assert!(dir.join(segment).exists(), "{segment} must survive");
            }
        }
        handle.shutdown().expect("clean shutdown");

        // Before the heal only the build's base is committed; the healed
        // base covers every record fed before it.
        let coverage = |stream: u64| match (heal, stream) {
            (false, _) => 0,
            (true, 0) => HEALED,
            (true, _) => FAILED,
        };
        for entry in load_checkpoint_dir(&dir).expect("loadable").streams {
            assert_eq!(
                entry.seq,
                coverage(entry.stream) as u64,
                "stream {} checkpoint coverage",
                entry.stream
            );
        }

        let sink = Arc::new(MemorySink::new());
        let recovered = EngineBuilder::new()
            .shards(4)
            .sink(Arc::clone(&sink) as Arc<dyn EventSink>)
            .recover_from_dir(&dir)
            .expect("recoverable directory")
            .build()
            .expect("valid engine");
        feed(&recovered, 0..1, HEALED, TOTAL);
        feed(
            &recovered,
            1..STREAMS,
            if heal { HEALED } else { FAILED },
            TOTAL,
        );
        let events = canonical(sink.drain());
        recovered.shutdown().expect("clean shutdown");
        let expected: Vec<DriftEvent> = reference
            .iter()
            .filter(|e| e.seq as usize >= coverage(e.stream))
            .cloned()
            .collect();
        assert_eq!(
            events, expected,
            "recovery after a failed checkpoint write (healed: {heal}) must be bit-exact"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Checkpoints that keep failing lose no logged record. Each failed
/// capture already rotated the logs, so the next attempt must rotate past
/// those segments, not re-create them empty. A directory in place of the
/// manifest's temp file fails every commit.
#[test]
fn repeated_checkpoint_failures_keep_the_log() {
    let dir = scratch_dir("repeated-failures");
    let (handle, _sink) = build_fleet(Some((&dir, CheckpointPolicy::every_flushes(0))), None);
    let blocker = dir.join("MANIFEST.tmp");
    std::fs::create_dir(&blocker).expect("fresh directory");
    for (from, to) in [(0, 500), (500, 1_000), (1_000, COVERED)] {
        feed_flushing(&handle, from, to);
        let error = handle.checkpoint().expect_err("the manifest cannot land");
        assert!(matches!(error, EngineError::Checkpoint(_)), "got {error:?}");
    }
    feed_wal_only(&handle, COVERED, CRASH);
    handle.shutdown().expect("clean shutdown");
    std::fs::remove_dir(&blocker).expect("the blocker is an empty directory");

    assert_eq!(
        recover_and_finish(&dir, CRASH),
        reference_events_from(0),
        "everything since the build's base must replay from the log"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file of a directory with its bytes, sorted by name.
fn dir_contents(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("readable directory")
        .map(|entry| {
            let path = entry.expect("readable entry").path();
            let name = path.file_name().expect("a file name");
            let bytes = std::fs::read(&path).expect("readable file");
            (name.to_string_lossy().into_owned(), bytes)
        })
        .collect();
    files.sort();
    files
}

/// A recovery without the default spec that auto-registered a stream after
/// the last checkpoint fails on the replay, before the build's initial
/// checkpoint can prune the log: the directory keeps every byte, and a
/// retry with the spec recovers the stream bit-exactly.
#[test]
fn failed_recovery_leaves_the_directory_intact() {
    const LATE: u64 = 42;
    /// Records of the late stream that only the write-ahead log holds.
    const LOGGED: usize = 500;
    let ddm: DetectorSpec = "ddm".parse().expect("valid spec");
    let feed = |handle: &EngineHandle, from: usize, to: usize| {
        let records: Vec<(u64, f64)> = (from..to).map(|i| (LATE, element(LATE, i))).collect();
        handle.submit(&records).expect("engine running");
    };

    let reference = {
        let sink = Arc::new(MemorySink::new());
        let handle = EngineBuilder::new()
            .shards(4)
            .default_spec(ddm.clone())
            .sink(Arc::clone(&sink) as Arc<dyn EventSink>)
            .build()
            .expect("valid engine");
        feed(&handle, 0, TOTAL);
        handle.flush().expect("no ingestion errors");
        let events = canonical(sink.drain());
        handle.shutdown().expect("clean shutdown");
        events
    };

    let dir = scratch_dir("failed-recovery");
    let handle = EngineBuilder::new()
        .shards(4)
        .default_spec(ddm.clone())
        .checkpoint(&dir, CheckpointPolicy::every_flushes(0))
        .build()
        .expect("valid engine");
    feed(&handle, 0, LOGGED);
    // The stats barrier proves the worker logged the records; no
    // checkpoint follows.
    let _ = handle.stats().expect("engine running");
    handle.shutdown().expect("clean shutdown");
    let before = dir_contents(&dir);

    let error = EngineBuilder::new()
        .shards(4)
        .recover_from_dir(&dir)
        .expect("recoverable directory")
        .build()
        .expect_err("the replayed stream needs the default spec");
    assert_eq!(error, EngineError::UnknownStream(LATE));
    let after = dir_contents(&dir);
    let names = |files: &[(String, Vec<u8>)]| -> Vec<String> {
        files.iter().map(|(name, _)| name.clone()).collect()
    };
    assert_eq!(
        names(&after),
        names(&before),
        "a failed recovery must keep every file"
    );
    assert!(
        after == before,
        "a failed recovery must leave every file's bytes unchanged"
    );

    let sink = Arc::new(MemorySink::new());
    let recovered = EngineBuilder::new()
        .shards(4)
        .default_spec(ddm)
        .sink(Arc::clone(&sink) as Arc<dyn EventSink>)
        .recover_from_dir(&dir)
        .expect("recoverable directory")
        .build()
        .expect("the default spec brings the stream back");
    assert_eq!(
        recovered
            .stream_stats(LATE)
            .expect("engine running")
            .map(|s| s.elements),
        Some(LOGGED as u64)
    );
    feed(&recovered, LOGGED, TOTAL);
    recovered.flush().expect("no ingestion errors");
    let events = canonical(sink.drain());
    recovered.shutdown().expect("clean shutdown");
    assert!(!events.is_empty(), "the late stream must drift");
    assert_eq!(
        events, reference,
        "the retried recovery must resume bit-exactly"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Records an engine without a default spec drops as unknown stay out of
/// the write-ahead log: the engine reported them once, and a recovery with
/// the same configuration must not fail on them again. The unknown
/// stream's records share a batch, and a shard, with registered streams
/// whose records must still replay bit-exactly.
#[test]
fn dropped_unknown_records_do_not_fail_recovery() {
    /// Routed by modulo to the shard of streams 3 and 7.
    const UNKNOWN: u64 = 99;
    let dir = scratch_dir("dropped-unknown");
    let (handle, _sink) = build_fleet(Some((&dir, CheckpointPolicy::every_flushes(0))), None);
    feed_flushing(&handle, 0, COVERED);
    handle.checkpoint().expect("writable directory");
    let mut records = Vec::new();
    for i in COVERED..CRASH {
        records.extend((0..STREAMS).map(|stream| (stream, element(stream, i))));
        records.push((UNKNOWN, 0.5));
    }
    handle.submit(&records).expect("engine running");
    assert_eq!(handle.flush(), Err(EngineError::UnknownStream(UNKNOWN)));
    handle.shutdown().expect("clean shutdown");

    assert_eq!(
        recover_and_finish(&dir, CRASH),
        reference_events_from(COVERED),
        "a recovery with the original configuration must resume bit-exactly"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flush that returns an ingestion error still counts toward the
/// checkpoint cadence. With no default spec, every flush below carries a
/// record for an unknown stream and returns `UnknownStream`; each must
/// still cut its checkpoint, so the log stays bounded, and a crash after
/// them must recover bit-exactly.
#[test]
fn flushes_with_ingestion_errors_keep_the_checkpoint_cadence() {
    const UNKNOWN: u64 = 99;
    const CHUNK: usize = 250;
    let dir = scratch_dir("unknown-cadence");
    let (handle, _sink) = build_fleet(Some((&dir, CheckpointPolicy::every_flushes(1))), None);
    let mut records = Vec::new();
    for start in (0..COVERED).step_by(CHUNK) {
        records.clear();
        for stream in 0..STREAMS {
            records.extend((start..start + CHUNK).map(|i| (stream, element(stream, i))));
        }
        records.push((UNKNOWN, 0.5));
        handle.submit(&records).expect("engine running");
        assert_eq!(handle.flush(), Err(EngineError::UnknownStream(UNKNOWN)));
    }
    let checkpointed = load_checkpoint_dir(&dir).expect("loadable directory");
    assert_eq!(checkpointed.streams.len(), STREAMS as usize);
    for stream in &checkpointed.streams {
        assert_eq!(stream.seq, COVERED as u64, "stream {}", stream.stream);
    }
    // A record takes at least its 8-byte value in the log, so a log that
    // still held the last flush's records would be larger than this.
    let wal_bytes: u64 = std::fs::read_dir(&dir)
        .expect("readable directory")
        .map(|entry| entry.expect("readable entry"))
        .filter(|entry| entry.file_name().to_string_lossy().starts_with("wal-"))
        .map(|entry| entry.metadata().expect("readable metadata").len())
        .sum();
    assert!(
        wal_bytes < (8 * CHUNK) as u64 * STREAMS,
        "the log holds {wal_bytes} B after a checkpoint at every flush"
    );

    feed_wal_only(&handle, COVERED, CRASH);
    handle.shutdown().expect("clean shutdown");
    assert_eq!(
        recover_and_finish(&dir, CRASH),
        reference_events_from(COVERED),
        "a recovery after the erroring flushes must resume bit-exactly"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fresh build over a directory that already holds a checkpoint is
/// refused, naming the recovery entry point, instead of writing an empty
/// base over it. The old checkpoint is untouched and still recovers
/// bit-exactly.
#[test]
fn fresh_build_refuses_an_existing_checkpoint() {
    let dir = scratch_dir("fresh-over-existing");
    let (handle, _sink) = build_fleet(Some((&dir, CheckpointPolicy::every_flushes(1))), None);
    feed_flushing(&handle, 0, COVERED);
    feed_wal_only(&handle, COVERED, CRASH);
    handle.shutdown().expect("clean shutdown");
    let checkpointed = load_checkpoint_dir(&dir).expect("loadable directory");

    let error = EngineBuilder::new()
        .shards(4)
        .checkpoint(&dir, CheckpointPolicy::default())
        .build()
        .expect_err("the directory already holds a checkpoint");
    assert!(
        matches!(&error, EngineError::Checkpoint(m) if m.contains("recover_from_dir")),
        "got {error:?}"
    );
    assert_eq!(
        load_checkpoint_dir(&dir).expect("loadable directory"),
        checkpointed
    );

    assert_eq!(
        recover_and_finish(&dir, CRASH),
        reference_events_from(COVERED),
        "the refused build must leave the checkpoint recoverable"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Durability levels: the fsync flag is honored (call-count probe)
// ---------------------------------------------------------------------------

/// Power loss cannot be simulated in a test, so the [`Durability::Fsync`]
/// contract is pinned through a call-count probe instead:
/// [`fsync_count`] tallies every `sync_data`/`sync_all` the checkpoint
/// subsystem issues. A `PageCache` run (the default) must issue **none**;
/// an `Fsync` run must sync at the base/MANIFEST commit, at every delta
/// cut, and at every WAL append barrier — and its directory must still
/// recover bit-exactly. Nothing else in this binary uses `Fsync`, so the
/// process-global counter is stable around the PageCache phase.
#[test]
fn fsync_durability_flag_is_honored() {
    // Phase 1 — PageCache (the default): checkpoints, WAL appends and a
    // clean stop, with zero fsyncs issued.
    let before = fsync_count();
    let dir = scratch_dir("durability-pagecache");
    let (handle, _sink) = build_fleet(Some((&dir, CheckpointPolicy::every_flushes(1))), None);
    feed_flushing(&handle, 0, 500);
    feed_wal_only(&handle, 500, 600);
    handle.shutdown().expect("clean shutdown");
    assert_eq!(
        fsync_count(),
        before,
        "PageCache durability must never fsync"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // Phase 2 — Fsync: the probe must tick at the build's base checkpoint,
    // keep ticking across delta cuts, and tick again on WAL-only appends
    // (the append barrier), not just at checkpoints.
    let dir = scratch_dir("durability-fsync");
    let policy = CheckpointPolicy::every_flushes(1).durability(Durability::Fsync);
    let (handle, _sink) = build_fleet(Some((&dir, policy)), None);
    let after_build = fsync_count();
    assert!(
        after_build > before,
        "the build's generation-0 base must be fsynced"
    );
    feed_flushing(&handle, 0, COVERED);
    let after_deltas = fsync_count();
    assert!(
        after_deltas > after_build,
        "delta checkpoints must be fsynced"
    );
    feed_wal_only(&handle, COVERED, CRASH);
    assert!(
        fsync_count() > after_deltas,
        "WAL append barriers must be fsynced even without a checkpoint"
    );
    handle.shutdown().expect("clean shutdown");

    // The synced directory recovers exactly like a PageCache one would:
    // durability changes when bytes hit the platter, never what they say.
    let events = recover_and_finish(&dir, CRASH);
    assert_eq!(
        events,
        reference_events_from(COVERED),
        "Fsync-durability recovery must resume bit-exactly"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// API edges
// ---------------------------------------------------------------------------

/// `checkpoint()` without a configured directory is a clean error, and
/// recovery of a directory that never existed reports InvalidSnapshot.
#[test]
fn checkpoint_api_edges() {
    let (handle, _sink) = build_fleet(None, None);
    let error = handle
        .checkpoint()
        .expect_err("no checkpoint directory configured");
    assert!(
        matches!(&error, EngineError::Checkpoint(m) if m.contains("checkpoint")),
        "got {error:?}"
    );
    handle.shutdown().expect("clean shutdown");

    let missing = scratch_dir("never-written");
    assert!(matches!(
        EngineBuilder::new().recover_from_dir(&missing),
        Err(EngineError::InvalidSnapshot(_))
    ));
}

/// A clean stop is just a crash the engine saw coming: stop without a final
/// checkpoint, recover, and the WAL tail carries the difference. Also pins
/// the report plumbing: the build cuts a full generation-0 base, flush
/// cadence writes deltas, and compaction kicks in past the ratio.
#[test]
fn clean_stop_recovery_and_report_plumbing() {
    let dir = scratch_dir("clean-stop");
    let (handle, _sink) = build_fleet(
        Some((
            &dir,
            CheckpointPolicy::every_flushes(0).compact_ratio(f64::INFINITY),
        )),
        None,
    );
    feed_flushing(&handle, 0, 1_000);
    let first = handle.checkpoint().expect("checkpoint succeeds");
    assert!(!first.full, "generation 0 was the build's base");
    assert_eq!(first.generation, 1);
    assert_eq!(first.streams, STREAMS as usize);
    feed_flushing(&handle, 1_000, COVERED);
    let second = handle.checkpoint().expect("checkpoint succeeds");
    assert_eq!(second.generation, 2);
    assert!(second.delta_chain_bytes >= second.bytes);
    feed_wal_only(&handle, COVERED, CRASH);
    handle.shutdown().expect("clean shutdown");

    let events = recover_and_finish(&dir, CRASH);
    assert_eq!(
        events,
        reference_events_from(COVERED),
        "clean-stop recovery must resume bit-exactly"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
