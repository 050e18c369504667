//! End-to-end tests of the service-style engine API, run through the public
//! facade exactly as a downstream user would.
//!
//! Two headline tests drive the acceptance workload for the API redesign:
//!
//! * **Submit equivalence** — 1 M elements over 64 mixed-detector streams
//!   pushed through the non-blocking [`EngineHandle::submit`] path (bounded
//!   per-shard queues, [`MemorySink`] fan-out) produce exactly the
//!   `DriftEvent`s of feeding every stream's detector directly through
//!   [`DriftDetector::add_batch`], chunked differently.
//! * **Snapshot/restore equivalence** — an engine snapshotted mid-stream and
//!   restored (through its JSON form) into a fresh builder produces exactly
//!   the events the uninterrupted engine produces for the remaining input.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use optwin::engine::EngineError;
use optwin::{
    paper_lineup, DetectorSpec, DriftDetector, DriftEvent, EngineBuilder, EngineHandle,
    EngineSnapshot, EngineStats, EventSink, MemorySink,
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

/// Shard count for the acceptance workloads: 8 by default, overridable via
/// `OPTWIN_TEST_SHARDS` so CI can matrix the whole suite over shard counts
/// (results must be identical for every value — that is the engine's core
/// determinism contract).
fn test_shards() -> usize {
    std::env::var("OPTWIN_TEST_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(8)
}

/// The detector spec assigned to a stream: the paper line-up, tiled over
/// the streams, with a small OPTWIN window so the million-element run stays
/// fast in debug builds.
fn lineup_spec_of(stream: u64) -> &'static DetectorSpec {
    static LINEUP: OnceLock<Vec<(String, DetectorSpec)>> = OnceLock::new();
    let lineup = LINEUP.get_or_init(|| paper_lineup(600));
    &lineup[(stream % lineup.len() as u64) as usize].1
}

/// The `i`-th element of a stream: every stream degrades at its own drift
/// point; binary-only detectors get Bernoulli indicators, the rest get
/// real-valued losses.
fn element(stream: u64, i: usize) -> f64 {
    let drift_at = ELEMENTS_PER_STREAM / 2 + (stream as usize * 37) % 2_000;
    let p = if i < drift_at { 0.06 } else { 0.55 };
    let u = jitter(stream.wrapping_mul(0x9E37_79B9) ^ i as u64) + 0.5;
    if lineup_spec_of(stream).binary_only() {
        f64::from(u < p)
    } else {
        (p + 0.4 * (u - 0.5)).clamp(0.0, 1.0)
    }
}

/// Builds the paper line-up detector for a stream.
fn build_detector(stream: u64) -> Box<dyn DriftDetector + Send> {
    lineup_spec_of(stream)
        .build()
        .expect("paper line-up specs are valid")
}

/// Sorted `(stream, seq, is_drift)` view of an event list, the canonical
/// form for bit-exact comparison (events of different streams interleave
/// arbitrarily in emission order).
fn canonical(mut events: Vec<DriftEvent>) -> Vec<DriftEvent> {
    events.sort_unstable_by_key(|e| (e.stream, e.seq));
    events
}

/// The acceptance workload: 1 M elements over 64 streams submitted through
/// the non-blocking handle with a deliberately small queue bound (so
/// backpressure engages), compared event-for-event against batched
/// ingestion of every stream straight into its own detector.
#[test]
fn one_million_elements_via_submit_match_ingest_batch() {
    let per_stream_chunk = 128usize;
    let chunk_records = per_stream_chunk * N_STREAMS as usize;

    // Service path: pipelined submits, one flush at the end.
    let shards = test_shards();
    let sink = Arc::new(MemorySink::new());
    let builder = EngineBuilder::new()
        .shards(shards)
        // Two chunks of headroom per shard: submission regularly outruns
        // detection, so the bounded queue genuinely blocks.
        .queue_capacity((chunk_records * 2 / shards).max(1))
        .sink(Arc::clone(&sink) as Arc<dyn EventSink>);
    let handle = (0..N_STREAMS)
        .fold(builder, |builder, stream| {
            builder.stream_spec(stream, lineup_spec_of(stream).clone())
        })
        .build()
        .expect("valid engine");
    assert_eq!(handle.num_shards(), shards);

    let mut records = Vec::with_capacity(chunk_records);
    let mut start = 0usize;
    while start < ELEMENTS_PER_STREAM {
        let end = (start + per_stream_chunk).min(ELEMENTS_PER_STREAM);
        records.clear();
        for stream in 0..N_STREAMS {
            for i in start..end {
                records.push((stream, element(stream, i)));
            }
        }
        handle.submit(&records).expect("engine running");
        start = end;
    }
    handle.flush().expect("no ingestion errors");

    let stats = handle.stats().expect("engine running");
    assert_eq!(stats.streams, N_STREAMS as usize);
    assert_eq!(stats.elements, 1_000_000);
    let service_events = canonical(sink.drain());
    assert_eq!(stats.drifts, service_events.len() as u64);
    handle.shutdown().expect("clean shutdown");

    // Batch reference: each stream straight through its detector's
    // `add_batch`, with a different chunking (the detector contract makes
    // chunk boundaries irrelevant).
    let mut expected = Vec::new();
    for stream in 0..N_STREAMS {
        let mut detector = build_detector(stream);
        for start in (0..ELEMENTS_PER_STREAM).step_by(500) {
            let end = (start + 500).min(ELEMENTS_PER_STREAM);
            let values: Vec<f64> = (start..end).map(|i| element(stream, i)).collect();
            let outcome = detector.add_batch(&values);
            expected.extend(
                outcome
                    .drift_indices
                    .iter()
                    .map(|&k| (stream, (start + k) as u64)),
            );
        }
    }
    let got: Vec<(u64, u64)> = service_events.iter().map(|e| (e.stream, e.seq)).collect();
    assert_eq!(
        got, expected,
        "submit path must match add_batch ingestion bit-exactly"
    );
    // Every stream was injected with one genuine drift; the line-up detects
    // the vast majority of them.
    let streams_with_detection: std::collections::HashSet<u64> =
        service_events.iter().map(|e| e.stream).collect();
    assert!(
        streams_with_detection.len() >= 56,
        "only {} of 64 streams saw a detection",
        streams_with_detection.len()
    );
}

/// The OPTWIN spec shared by the snapshot tests: cheap at a small window.
fn optwin_spec(w_max: usize) -> DetectorSpec {
    format!("optwin:rho=0.5,w_max={w_max}")
        .parse()
        .expect("valid spec")
}

/// Builds a service engine that runs the OPTWIN spec on `streams`, plus
/// the streams `restore` brings back, and returns its handle and sink.
fn optwin_engine(
    shards: usize,
    w_max: usize,
    streams: std::ops::Range<u64>,
    restore: Option<EngineSnapshot>,
) -> (EngineHandle, Arc<MemorySink>) {
    let sink = Arc::new(MemorySink::new());
    let mut builder = streams.fold(
        EngineBuilder::new()
            .shards(shards)
            .sink(Arc::clone(&sink) as Arc<dyn EventSink>),
        |builder, stream| builder.stream_spec(stream, optwin_spec(w_max)),
    );
    if let Some(snapshot) = restore {
        builder = builder.restore(snapshot);
    }
    (builder.build().expect("valid engine"), sink)
}

/// Real-valued error stream with a per-stream degradation point.
fn loss(stream: u64, i: usize) -> f64 {
    let drift_at = 4_000 + (stream as usize * 131) % 1_500;
    let base = if i < drift_at { 0.08 } else { 0.5 };
    (base + 0.06 * jitter(stream << 32 | i as u64)).clamp(0.0, 1.0)
}

/// Submits elements `from..to` of [`loss`] for streams `0..streams` in
/// 250-element steps, then flushes.
fn feed_losses(handle: &EngineHandle, streams: u64, from: usize, to: usize) {
    let mut records = Vec::new();
    for start in (from..to).step_by(250) {
        let end = (start + 250).min(to);
        records.clear();
        for stream in 0..streams {
            for i in start..end {
                records.push((stream, loss(stream, i)));
            }
        }
        handle.submit(&records).expect("engine running");
    }
    handle.flush().expect("no ingestion errors");
}

/// The second acceptance test: snapshot mid-stream, restore into a fresh
/// builder (through JSON, as a real restart would), feed the remaining
/// elements — the events must be identical to an uninterrupted engine's,
/// even across a different shard count.
#[test]
fn snapshot_restore_produces_identical_remaining_events() {
    const STREAMS: u64 = 48;
    const TOTAL: usize = 8_000;
    const CUT: usize = 4_500; // past some per-stream drift points, before others
    let feed = |handle: &EngineHandle, from, to| feed_losses(handle, STREAMS, from, to);

    // Uninterrupted reference.
    let (reference, reference_sink) = optwin_engine(test_shards(), 800, 0..STREAMS, None);
    feed(&reference, 0, TOTAL);
    let reference_events = canonical(reference_sink.drain());
    reference.shutdown().expect("clean shutdown");

    // Interrupted run: feed to CUT, snapshot, tear the engine down.
    let (original, original_sink) = optwin_engine(test_shards(), 800, 0..STREAMS, None);
    feed(&original, 0, CUT);
    let early_events = canonical(original_sink.drain());
    let snapshot = original.snapshot().expect("OPTWIN supports snapshots");
    original.shutdown().expect("clean shutdown");
    assert_eq!(snapshot.stream_count(), STREAMS as usize);

    // Restore through the JSON wire format into a *differently sharded*
    // fresh engine and feed the remainder.
    let snapshot = EngineSnapshot::from_json(&snapshot.to_json()).expect("well-formed JSON");
    let (restored, restored_sink) = optwin_engine(7, 800, 0..0, Some(snapshot));
    let stats = restored.stats().expect("engine running");
    assert_eq!(stats.streams, STREAMS as usize);
    assert_eq!(stats.elements, STREAMS * CUT as u64);
    feed(&restored, CUT, TOTAL);
    let late_events = canonical(restored_sink.drain());
    restored.shutdown().expect("clean shutdown");

    // Early + late must equal the uninterrupted run, bit-exactly.
    let mut stitched = early_events;
    stitched.extend(late_events);
    assert_eq!(
        canonical(stitched),
        reference_events,
        "restored engine must resume with identical decisions"
    );
    // Sanity: the workload actually produces detections on both sides of
    // the cut.
    assert!(
        reference_events.iter().any(|e| (e.seq as usize) < CUT)
            && reference_events.iter().any(|e| (e.seq as usize) >= CUT),
        "test workload should drift on both sides of the cut"
    );
}

/// Records for unregistered streams are dropped on the submit path, the
/// rest are ingested, and flush reports the first unknown id. A flood of
/// distinct unknown ids creates no engine state.
#[test]
fn unknown_stream_handling_on_the_submit_path() {
    let (handle, _sink) = optwin_engine(2, 200, 1..2, None);
    handle
        .submit(&[(1, 0.1), (99, 0.5), (1, 0.2)])
        .expect("submit itself succeeds");
    assert_eq!(
        handle.flush().expect_err("unknown stream must surface"),
        EngineError::UnknownStream(99)
    );
    let before = handle.stats().expect("engine running");
    assert_eq!(before.streams, 1);
    assert_eq!(
        before.elements, 2,
        "known-stream records are still ingested"
    );
    let dropped = |stats: &EngineStats| -> u64 { stats.shards.iter().map(|s| s.dropped).sum() };
    assert_eq!(dropped(&before), 1, "the unknown record is counted");

    // 10 000 distinct unknown ids over every shard. The stats barrier
    // (which takes no error) makes the first id's error the pending one, so
    // flush reports it whichever shard drops a later id first.
    let flood: Vec<(u64, f64)> = (1_000..11_000).map(|stream| (stream, 0.5)).collect();
    handle.submit(&flood[..1]).expect("engine running");
    handle.stats().expect("engine running");
    handle.submit(&flood[1..]).expect("engine running");
    assert_eq!(handle.flush(), Err(EngineError::UnknownStream(1_000)));
    let after = handle.stats().expect("engine running");
    assert_eq!(after.streams, before.streams, "no record creates a stream");
    assert_eq!(after.elements, before.elements);
    assert_eq!(after.resident_bytes(), before.resident_bytes());
    assert_eq!(dropped(&after) - dropped(&before), 10_000);
    assert!(after.to_string().contains("(5000 dropped)"), "{after}");
    handle.shutdown().expect("no pending errors left");
}

/// Duplicate stream ids are rejected at build time (pre-registered or
/// restored) and at runtime registration.
#[test]
fn duplicate_streams_are_rejected_everywhere() {
    let spec = optwin_spec(100);
    // Builder-level.
    let err = EngineBuilder::new()
        .shards(2)
        .stream_spec(5, spec.clone())
        .stream_spec(5, spec.clone())
        .build()
        .expect_err("duplicate pre-registration");
    assert_eq!(err, EngineError::DuplicateStream(5));

    // Runtime registration against a pre-registered stream.
    let handle = EngineBuilder::new()
        .shards(2)
        .stream_spec(5, spec.clone())
        .build()
        .expect("valid engine");
    assert_eq!(
        handle
            .register_stream_spec(5, spec.clone())
            .expect_err("duplicate runtime registration"),
        EngineError::DuplicateStream(5)
    );
    handle
        .register_stream_spec(6, spec.clone())
        .expect("new id is fine");
    handle.shutdown().expect("clean shutdown");

    // Restore-level: a snapshot colliding with a pre-registered stream.
    let (donor, _sink) = optwin_engine(2, 100, 5..6, None);
    donor.submit(&[(5, 0.1)]).expect("engine running");
    donor.flush().expect("no errors");
    let snapshot = donor.snapshot().expect("snapshot-capable");
    donor.shutdown().expect("clean shutdown");
    let err = EngineBuilder::new()
        .shards(2)
        .restore(snapshot)
        .stream_spec(5, spec)
        .build()
        .expect_err("restored id collides with pre-registered id");
    assert_eq!(err, EngineError::DuplicateStream(5));
}

/// An ADWIN spec whose `delta` is out of range.
fn degenerate_adwin() -> DetectorSpec {
    DetectorSpec::Adwin {
        config: optwin::baselines::AdwinConfig {
            delta: 0.0,
            ..optwin::baselines::AdwinConfig::default()
        },
    }
}

/// Builder validation: degenerate parameters and stream specs.
#[test]
fn builder_rejects_degenerate_configurations() {
    assert_eq!(
        EngineBuilder::new()
            .shards(0)
            .build()
            .expect_err("no shards"),
        EngineError::ZeroShards
    );
    assert_eq!(
        EngineBuilder::new()
            .queue_capacity(0)
            .build()
            .expect_err("no capacity"),
        EngineError::ZeroQueueCapacity
    );
    let err = EngineBuilder::new()
        .shards(1)
        .stream_spec(0, degenerate_adwin())
        .build()
        .expect_err("invalid stream spec");
    assert!(matches!(err, EngineError::InvalidSpec(_)));
}

/// A sink whose first `flush` parks its worker inside the flush barrier
/// until the test releases it, so queue bounds can be observed
/// deterministically.
struct ParkingSink {
    /// Taken by the first `flush`: it reports the park on the sender, then
    /// waits on the receiver.
    park: Mutex<Option<(Sender<()>, Receiver<()>)>>,
}

impl EventSink for ParkingSink {
    fn emit(&self, _event: &DriftEvent) {}

    fn flush(&self) {
        let park = self.park.lock().expect("not poisoned").take();
        if let Some((parked, release)) = park {
            parked.send(()).expect("the test is waiting");
            // Bounded so a broken test fails instead of hanging forever.
            let _ = release.recv_timeout(Duration::from_secs(30));
        }
    }
}

/// `submit` blocks while a shard queue is at capacity and goes through once
/// the worker drains it, and `submit`/`flush` error once the engine is shut
/// down.
#[test]
fn submit_backpressure_and_shutdown_errors() {
    let (parked_tx, parked) = channel();
    let (release, release_rx) = channel();
    let handle = EngineBuilder::new()
        .shards(1)
        .queue_capacity(4)
        .stream_spec(0, "adwin".parse().expect("valid spec"))
        .sink(Arc::new(ParkingSink {
            park: Mutex::new(Some((parked_tx, release_rx))),
        }))
        .build()
        .expect("valid engine");

    // Park the worker inside a flush barrier.
    let flusher = {
        let handle = handle.clone();
        std::thread::spawn(move || handle.flush())
    };
    parked.recv().expect("the worker parks");
    // One batch fills the queue (4/4) while the worker is parked; the next
    // must wait for room.
    let batch: Vec<(u64, f64)> = (0..4).map(|_| (0u64, 0.5)).collect();
    handle
        .submit(&batch)
        .expect("an empty queue admits a full batch");
    let (returned_tx, returned) = channel();
    let producer = {
        let handle = handle.clone();
        let batch = batch.clone();
        std::thread::spawn(move || {
            let result = handle.submit(&batch);
            returned_tx.send(()).expect("the test is waiting");
            result
        })
    };
    assert_eq!(
        returned.recv_timeout(Duration::from_millis(200)),
        Err(RecvTimeoutError::Timeout),
        "a second full batch must wait while the queue holds 4/4"
    );

    // Release the worker: the queue drains and the waiting batch goes in.
    release.send(()).expect("the worker is parked");
    producer
        .join()
        .expect("no panics")
        .expect("admitted once the queue drains");
    flusher
        .join()
        .expect("no panics")
        .expect("no ingestion errors");
    handle.flush().expect("no ingestion errors");
    let stats = handle.stats().expect("engine running");
    assert_eq!(stats.elements, 8, "both batches ran");

    // Shutdown: all further operations fail with ChannelClosed, on every
    // clone.
    let clone = handle.clone();
    handle.shutdown().expect("clean shutdown");
    assert_eq!(handle.submit(&batch), Err(EngineError::ChannelClosed));
    assert_eq!(clone.submit(&batch), Err(EngineError::ChannelClosed));
    assert_eq!(clone.flush(), Err(EngineError::ChannelClosed));
    assert!(clone.stats().is_err());
    // Idempotent.
    handle.shutdown().expect("second shutdown is a no-op");
}

/// Clones of one handle feed the same engine; per-stream totals add up.
#[test]
fn handle_clones_feed_the_same_engine_from_multiple_threads() {
    let (handle, sink) = optwin_engine(4, 200, 100..104, None);
    let threads: Vec<_> = (0..4u64)
        .map(|t| {
            let handle = handle.clone();
            std::thread::spawn(move || {
                // Each thread owns its own disjoint stream ids, so per-stream
                // order is preserved no matter how submissions interleave.
                let mut records = Vec::new();
                for i in 0..2_000usize {
                    records.push((100 + t, loss(100 + t, i)));
                    if records.len() == 250 {
                        handle.submit(&records).expect("engine running");
                        records.clear();
                    }
                }
                handle.submit(&records).expect("engine running");
            })
        })
        .collect();
    for thread in threads {
        thread.join().expect("no panics");
    }
    handle.flush().expect("no ingestion errors");
    let stats = handle.stats().expect("engine running");
    assert_eq!(stats.streams, 4);
    assert_eq!(stats.elements, 8_000);
    handle.shutdown().expect("clean shutdown");
    // Events (if any) all belong to the four streams.
    assert!(sink.drain().iter().all(|e| (100..104).contains(&e.stream)));
}

/// An engine with `streams` registered by the `ddm` spec.
fn ddm_engine(streams: &[u64], emit_warnings: bool) -> (EngineHandle, Arc<MemorySink>) {
    let sink = Arc::new(MemorySink::new());
    let handle = EngineBuilder::new()
        .shards(test_shards())
        .emit_warnings(emit_warnings)
        .sink(Arc::clone(&sink) as Arc<dyn EventSink>)
        .build()
        .expect("valid engine");
    for &stream in streams {
        handle
            .register_stream_spec(stream, ddm_spec())
            .expect("fresh id");
    }
    (handle, sink)
}

fn ddm_spec() -> DetectorSpec {
    "ddm".parse().expect("valid spec")
}

/// A binary error stream whose error rate jumps from 5 % to 60 % at a
/// per-stream point, so DDM warns and then drifts.
fn ddm_values(stream: u64, len: usize) -> Vec<f64> {
    let drift_at = 150 + 40 * stream as usize;
    (0..len)
        .map(|i| {
            let p = if i < drift_at { 0.05 } else { 0.6 };
            f64::from(jitter(stream << 32 | i as u64) + 0.5 < p)
        })
        .collect()
}

/// `(drift seqs, warning seqs)` of a DDM fed `values` directly through
/// `add_batch`.
fn ddm_reference(values: &[f64]) -> (Vec<u64>, Vec<u64>) {
    let outcome = ddm_spec().build().expect("valid spec").add_batch(values);
    let seqs = |indices: &[usize]| indices.iter().map(|&i| i as u64).collect();
    (seqs(&outcome.drift_indices), seqs(&outcome.warning_indices))
}

/// Event `seq` numbers count each stream's own elements, however the
/// streams interleave across batches.
#[test]
fn events_carry_per_stream_sequence_numbers() {
    const LEN: usize = 400;
    let (handle, sink) = ddm_engine(&[0, 1], false);
    let values = [ddm_values(0, LEN), ddm_values(1, LEN)];
    // The two streams interleave within every 40-record batch.
    for start in (0..LEN).step_by(20) {
        let records: Vec<(u64, f64)> = (start..start + 20)
            .flat_map(|i| [(0, values[0][i]), (1, values[1][i])])
            .collect();
        handle.submit(&records).expect("engine running");
    }
    handle.flush().expect("no ingestion errors");
    let events = canonical(sink.drain());
    let seqs = |stream: u64| -> Vec<u64> {
        events
            .iter()
            .filter(|e| e.stream == stream)
            .map(|e| e.seq)
            .collect()
    };
    let expected = [ddm_reference(&values[0]).0, ddm_reference(&values[1]).0];
    assert!(expected.iter().all(|drifts| !drifts.is_empty()));
    assert_eq!(seqs(0), expected[0]);
    assert_eq!(seqs(1), expected[1]);
    let stats = handle.stats().expect("engine running");
    assert_eq!(stats.elements, 2 * LEN as u64);
    assert_eq!(stats.drifts, (expected[0].len() + expected[1].len()) as u64);
    handle.shutdown().expect("clean shutdown");
}

/// Warning events are opt-in through `EngineBuilder::emit_warnings`.
#[test]
fn warnings_are_opt_in() {
    let values = ddm_values(5, 400);
    let records: Vec<(u64, f64)> = values.iter().map(|&v| (5, v)).collect();
    let run = |emit_warnings: bool| {
        let (handle, sink) = ddm_engine(&[5], emit_warnings);
        handle.submit(&records).expect("engine running");
        handle.flush().expect("no ingestion errors");
        handle.shutdown().expect("clean shutdown");
        canonical(sink.drain())
    };
    let (drifts, warnings) = ddm_reference(&values);
    assert!(!drifts.is_empty() && !warnings.is_empty(), "DDM warns");
    let seqs = |events: &[DriftEvent], drift: bool| -> Vec<u64> {
        events
            .iter()
            .filter(|e| e.is_drift() == drift)
            .map(|e| e.seq)
            .collect()
    };

    let quiet = run(false);
    assert!(quiet.iter().all(DriftEvent::is_drift));
    assert_eq!(seqs(&quiet, true), drifts);

    let chatty = run(true);
    assert_eq!(seqs(&chatty, true), drifts);
    assert_eq!(seqs(&chatty, false), warnings);
}

/// Records for an unregistered stream are an error that ingests nothing
/// for that stream; registering it makes it known.
#[test]
fn unknown_stream_without_factory_is_an_error() {
    let (handle, _sink) = ddm_engine(&[], false);
    // A second unknown id on the same shard, dropped after 42: the engine
    // keeps only the first error, and the next flush starts clean.
    let same_shard = 42 + test_shards() as u64;
    handle
        .submit(&[(42, 0.5), (same_shard, 0.5), (same_shard, 0.5)])
        .expect("submit itself succeeds");
    let err = handle.flush().expect_err("unknown stream must surface");
    assert_eq!(err, EngineError::UnknownStream(42));
    assert!(err.to_string().contains("42"));
    handle.flush().expect("later errors were discarded");
    assert_eq!(handle.stats().expect("engine running").elements, 0);
    assert_eq!(handle.stream_stats(42).expect("engine running"), None);

    handle
        .register_stream_spec(42, ddm_spec())
        .expect("now registered");
    handle.submit(&[(42, 0.5)]).expect("engine running");
    handle.flush().expect("known stream");
    assert_eq!(handle.stats().expect("engine running").elements, 1);
    handle.shutdown().expect("clean shutdown");
}

/// The spec a live stream runs, or `None` when it is not registered.
fn spec_now(handle: &EngineHandle, stream: u64) -> Option<DetectorSpec> {
    let stats = handle.stream_stats(stream).expect("engine running");
    stats.map(|s| s.spec)
}

/// The heterogeneous-fleet spec for a stream: all 8 detector kinds, tiled
/// over the stream ids, with small windows so the run stays fast in debug
/// builds.
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

/// The `i`-th element of a heterogeneous-fleet stream: every stream
/// degrades at its own drift point; binary-only specs get Bernoulli
/// indicators, the rest real-valued losses.
fn spec_element(stream: u64, i: usize) -> f64 {
    let drift_at = 3_000 + (stream as usize * 211) % 1_200;
    let p = if i < drift_at { 0.06 } else { 0.55 };
    let u = jitter(stream.wrapping_mul(0x1234_5677) ^ i as u64) + 0.5;
    if spec_of(stream).binary_only() {
        f64::from(u < p)
    } else {
        (p + 0.4 * (u - 0.5)).clamp(0.0, 1.0)
    }
}

/// The tentpole acceptance test: a heterogeneous fleet covering **all 8
/// detector kinds** is assembled purely from specs, snapshotted mid-stream
/// through `EngineHandle::snapshot()`, and restored through
/// `EngineBuilder::restore()` with **no registration calls** — the v2
/// snapshot is self-describing — after which the restored engine produces
/// bit-exact identical remaining events.
#[test]
fn heterogeneous_spec_fleet_restores_without_any_factory() {
    const STREAMS: u64 = 16; // two streams per detector kind
    const TOTAL: usize = 6_000;
    const CUT: usize = 3_500; // past some per-stream drift points, before others

    let build = |shards: usize| -> (EngineHandle, Arc<MemorySink>) {
        let sink = Arc::new(MemorySink::new());
        let mut builder = EngineBuilder::new()
            .shards(shards)
            .sink(Arc::clone(&sink) as Arc<dyn EventSink>);
        for stream in 0..STREAMS {
            builder = builder.stream_spec(stream, spec_of(stream));
        }
        (builder.build().expect("valid engine"), sink)
    };
    let feed = |handle: &EngineHandle, from: usize, to: usize| {
        let mut records = Vec::new();
        for start in (from..to).step_by(200) {
            let end = (start + 200).min(to);
            records.clear();
            for stream in 0..STREAMS {
                for i in start..end {
                    records.push((stream, spec_element(stream, i)));
                }
            }
            handle.submit(&records).expect("engine running");
        }
        handle.flush().expect("no ingestion errors");
    };

    // Uninterrupted reference.
    let (reference, reference_sink) = build(test_shards());
    feed(&reference, 0, TOTAL);
    let reference_events = canonical(reference_sink.drain());
    reference.shutdown().expect("clean shutdown");

    // Interrupted run: live streams are introspectable by spec, the
    // snapshot is self-describing.
    let (original, original_sink) = build(test_shards());
    for stream in 0..STREAMS {
        assert_eq!(
            spec_now(&original, stream),
            Some(spec_of(stream)),
            "stream {stream} spec introspection"
        );
    }
    feed(&original, 0, CUT);
    let early_events = canonical(original_sink.drain());
    let snapshot = original.snapshot().expect("all 8 kinds snapshot");
    original.shutdown().expect("clean shutdown");
    assert_eq!(snapshot.stream_count(), STREAMS as usize);
    assert!(snapshot.is_self_describing());
    assert!(
        snapshot.streams.iter().all(|entry| entry.shard.is_some()),
        "the writer records each stream's shard"
    );

    // Restore through JSON into a differently-sharded engine with NO
    // stream registration of any kind.
    let snapshot = EngineSnapshot::from_json(&snapshot.to_json()).expect("well-formed JSON");
    let restored_sink = Arc::new(MemorySink::new());
    let restored = EngineBuilder::new()
        .shards(5)
        .sink(Arc::clone(&restored_sink) as Arc<dyn EventSink>)
        .restore(snapshot)
        .build()
        .expect("self-describing snapshot needs no configuration");
    // The restored fleet is still introspectable — specs survived the trip.
    for stream in 0..STREAMS {
        assert_eq!(spec_now(&restored, stream), Some(spec_of(stream)));
    }
    feed(&restored, CUT, TOTAL);
    let late_events = canonical(restored_sink.drain());
    restored.shutdown().expect("clean shutdown");

    let mut stitched = early_events;
    stitched.extend(late_events);
    assert_eq!(
        canonical(stitched),
        reference_events,
        "restored heterogeneous fleet must resume with identical decisions"
    );
    // Sanity: the workload produced detections on both sides of the cut and
    // on most streams (every stream has one genuine drift).
    assert!(
        reference_events.iter().any(|e| (e.seq as usize) < CUT)
            && reference_events.iter().any(|e| (e.seq as usize) >= CUT),
        "test workload should drift on both sides of the cut"
    );
    let streams_with_detection: std::collections::HashSet<u64> =
        reference_events.iter().map(|e| e.stream).collect();
    assert!(
        streams_with_detection.len() >= 12,
        "only {} of 16 streams saw a detection",
        streams_with_detection.len()
    );
}

/// Spec-less entries (a v1 snapshot) restore once the caller fills in
/// each entry's spec, and resume with the events of an uninterrupted run.
/// An entry left without a spec, or given one that builds another detector
/// kind, is refused with an error naming the stream.
#[test]
fn spec_less_snapshots_restore_through_caller_filled_specs() {
    const STREAMS: u64 = 12;
    const TOTAL: usize = 6_000;
    const CUT: usize = 4_500; // past some per-stream drift points, before others
    let spec: DetectorSpec = "optwin:w_max=800".parse().expect("valid spec");
    let build = |restore: Option<EngineSnapshot>| {
        let sink = Arc::new(MemorySink::new());
        let builder = EngineBuilder::new()
            .shards(test_shards())
            .sink(Arc::clone(&sink) as Arc<dyn EventSink>);
        let builder = match restore {
            Some(snapshot) => builder.restore(snapshot),
            None => (0..STREAMS).fold(builder, |builder, stream| {
                builder.stream_spec(stream, spec.clone())
            }),
        };
        builder.build().map(|handle| (handle, sink))
    };
    let feed = |handle: &EngineHandle, from, to| feed_losses(handle, STREAMS, from, to);

    let (reference, reference_sink) = build(None).expect("valid engine");
    feed(&reference, 0, TOTAL);
    let reference_events = canonical(reference_sink.drain());
    reference.shutdown().expect("clean shutdown");

    let (original, original_sink) = build(None).expect("valid engine");
    feed(&original, 0, CUT);
    let early_events = canonical(original_sink.drain());
    let snapshot = original.snapshot().expect("OPTWIN supports snapshots");
    original.shutdown().expect("clean shutdown");
    assert!(snapshot.is_self_describing());

    // Strip every entry's spec and drop its placement, then downgrade the
    // wire format to v1.
    let mut downgraded = snapshot;
    downgraded.version = 1;
    for stream in &mut downgraded.streams {
        stream.spec = None;
        stream.shard = None;
    }
    let v1 = EngineSnapshot::from_json(&downgraded.to_json()).expect("v1 parses");
    assert_eq!(v1.version, 1);
    assert!(v1.streams.iter().all(|s| s.spec.is_none()));
    let filled = |spec: &DetectorSpec| {
        let mut snapshot = v1.clone();
        for entry in &mut snapshot.streams {
            entry.spec = Some(spec.clone());
        }
        snapshot
    };

    let (restored, restored_sink) =
        build(Some(filled(&spec))).expect("caller-filled specs rebuild spec-less entries");
    assert_eq!(spec_now(&restored, 0), Some(spec.clone()));
    feed(&restored, CUT, TOTAL);
    let late_events = canonical(restored_sink.drain());
    restored.shutdown().expect("clean shutdown");

    let mut stitched = early_events;
    stitched.extend(late_events);
    assert_eq!(
        canonical(stitched),
        reference_events,
        "a caller-filled restore must resume with identical decisions"
    );
    assert!(
        reference_events.iter().any(|e| (e.seq as usize) < CUT)
            && reference_events.iter().any(|e| (e.seq as usize) >= CUT),
        "test workload should drift on both sides of the cut"
    );

    // An entry left without a spec, or with one that builds another
    // detector kind, is refused, naming the stream.
    let first = v1.streams[0].stream;
    let mut missing = filled(&spec);
    missing.streams[0].spec = None;
    let adwin: DetectorSpec = "adwin".parse().expect("valid spec");
    for (snapshot, reason) in [(missing, "no detector spec"), (filled(&adwin), "ADWIN")] {
        match build(Some(snapshot)) {
            Err(EngineError::InvalidSnapshot(message)) => {
                assert!(message.starts_with(&format!("stream {first}")), "{message}");
                assert!(message.contains(reason), "{message}");
            }
            Err(other) => panic!("expected InvalidSnapshot, got {other}"),
            Ok(_) => panic!("stream {first} must be refused ({reason})"),
        }
    }
}

/// Registration records the spec on the stream, at build time and at run
/// time, and `register_stream_spec` validates before it registers.
#[test]
fn register_stream_spec_validates_and_records_the_spec() {
    let spec: DetectorSpec = "adwin:delta=0.01".parse().expect("valid spec");
    let handle = EngineBuilder::new()
        .shards(2)
        .stream_spec(7, spec.clone())
        .build()
        .expect("valid engine");
    handle
        .submit(&[(7, 0.0), (7, 1.0)])
        .expect("engine running");
    handle.flush().expect("no errors");
    let stats = handle
        .stream_stats(7)
        .expect("running")
        .expect("registered");
    assert_eq!(stats.detector, "ADWIN");
    assert_eq!(stats.spec, spec);
    assert_eq!(stats.elements, 2);

    // Runtime registration with a different spec.
    let kswin: DetectorSpec = "kswin:window_size=90,stat_size=20".parse().expect("valid");
    handle
        .register_stream_spec(42, kswin.clone())
        .expect("valid spec registers");
    assert_eq!(spec_now(&handle, 42), Some(kswin));
    // Unknown streams report None.
    assert_eq!(spec_now(&handle, 999), None);

    // An invalid spec is rejected before anything is registered.
    assert!(matches!(
        handle.register_stream_spec(43, degenerate_adwin()),
        Err(EngineError::InvalidSpec(_))
    ));
    assert_eq!(spec_now(&handle, 43), None);
    handle.shutdown().expect("clean shutdown");
}

mod snapshot_property {
    use super::*;
    use proptest::prelude::*;

    /// One stream per `DetectorSpec` kind, with small windows so the
    /// property stays fast in debug builds.
    fn prop_spec_of(stream: u64) -> DetectorSpec {
        let text = match stream % 8 {
            0 => "optwin:rho=0.5,w_max=64",
            1 => "adwin",
            2 => "ddm",
            3 => "eddm",
            4 => "stepd",
            5 => "ecdd",
            6 => "page_hinkley",
            _ => "kswin:window_size=60,stat_size=15,alpha=0.0001",
        };
        text.parse().expect("valid spec string")
    }

    /// An 8-kind fleet engine: freshly spec-registered, or restored from a
    /// snapshot alone (the snapshot is self-describing).
    fn fleet_engine(
        shards: usize,
        restore: Option<EngineSnapshot>,
    ) -> (EngineHandle, Arc<MemorySink>) {
        let sink = Arc::new(MemorySink::new());
        let mut builder = EngineBuilder::new()
            .shards(shards)
            .sink(Arc::clone(&sink) as Arc<dyn EventSink>);
        match restore {
            Some(snapshot) => builder = builder.restore(snapshot),
            None => {
                for stream in 0..8u64 {
                    builder = builder.stream_spec(stream, prop_spec_of(stream));
                }
            }
        }
        (builder.build().expect("valid engine"), sink)
    }

    /// The generated value for stream `s` at position `i`: binary-only
    /// detectors get a thresholded indicator, the rest the raw value.
    fn fleet_records(values: &[f64]) -> Vec<(u64, f64)> {
        let mut records = Vec::with_capacity(values.len() * 8);
        for (i, &v) in values.iter().enumerate() {
            for stream in 0..8u64 {
                let x = if prop_spec_of(stream).binary_only() {
                    f64::from(v > 0.5 || (i + stream as usize).is_multiple_of(7))
                } else {
                    v
                };
                records.push((stream, x));
            }
        }
        records
    }

    proptest! {
        /// Snapshot → JSON → restore at an arbitrary cut point of an
        /// arbitrary bounded stream — over a fleet covering **all 8
        /// detector kinds**, in the v4 wire layout — reproduces the
        /// uninterrupted engine's remaining events exactly.
        #[test]
        fn snapshot_round_trip_preserves_remaining_events(
            values in proptest::collection::vec(0.0f64..=1.0, 50..400),
            cut_fraction in 0.0f64..=1.0,
            shards in 1usize..4,
        ) {
            let cut = ((values.len() as f64) * cut_fraction) as usize;
            let cut = cut.min(values.len());
            let records = fleet_records(&values);
            let record_cut = cut * 8;

            // Uninterrupted reference.
            let (reference, reference_sink) = fleet_engine(shards, None);
            reference.submit(&records).expect("engine running");
            reference.flush().expect("no errors");
            let all_events = canonical(reference_sink.drain());
            reference.shutdown().expect("clean shutdown");

            // Interrupted at `cut`.
            let (original, original_sink) = fleet_engine(shards, None);
            original.submit(&records[..record_cut]).expect("engine running");
            original.flush().expect("no errors");
            let early = original_sink.drain();
            let snapshot = original.snapshot().expect("snapshot-capable");
            original.shutdown().expect("clean shutdown");
            prop_assert_eq!(snapshot.version, 4);
            prop_assert!(snapshot.is_self_describing());

            let snapshot = EngineSnapshot::from_json(&snapshot.to_json())
                .expect("well-formed JSON");
            let (restored, restored_sink) = fleet_engine(shards, Some(snapshot));
            restored.submit(&records[record_cut..]).expect("engine running");
            restored.flush().expect("no errors");
            let late = restored_sink.drain();
            restored.shutdown().expect("clean shutdown");

            let mut stitched = early;
            stitched.extend(late);
            prop_assert!(
                canonical(stitched) == all_events,
                "stitched events diverge at cut {cut}"
            );
        }
    }
}
