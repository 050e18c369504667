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

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use optwin::engine::EngineError;
use optwin::{
    paper_lineup, DetectorSpec, DriftDetector, DriftEvent, EngineBuilder, EngineHandle,
    EngineSnapshot, EventSink, MemorySink,
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

/// Builds an OPTWIN-backed service engine (unknown ids auto-register from
/// the default spec) and returns its handle and sink.
fn optwin_engine(
    shards: usize,
    w_max: usize,
    restore: Option<EngineSnapshot>,
) -> (EngineHandle, Arc<MemorySink>) {
    let sink = Arc::new(MemorySink::new());
    let mut builder = EngineBuilder::new()
        .shards(shards)
        .default_spec(optwin_spec(w_max))
        .sink(Arc::clone(&sink) as Arc<dyn EventSink>);
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
    let (reference, reference_sink) = optwin_engine(test_shards(), 800, None);
    feed(&reference, 0, TOTAL);
    let reference_events = canonical(reference_sink.drain());
    reference.shutdown().expect("clean shutdown");

    // Interrupted run: feed to CUT, snapshot, tear the engine down.
    let (original, original_sink) = optwin_engine(test_shards(), 800, None);
    feed(&original, 0, CUT);
    let early_events = canonical(original_sink.drain());
    let snapshot = original.snapshot().expect("OPTWIN supports snapshots");
    original.shutdown().expect("clean shutdown");
    assert_eq!(snapshot.stream_count(), STREAMS as usize);

    // Restore through the JSON wire format into a *differently sharded*
    // fresh engine and feed the remainder.
    let snapshot = EngineSnapshot::from_json(&snapshot.to_json()).expect("well-formed JSON");
    let (restored, restored_sink) = optwin_engine(7, 800, Some(snapshot));
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

/// Unknown streams auto-register through the default spec on the submit
/// path; without one the records are dropped and the error surfaces at
/// flush.
#[test]
fn unknown_stream_handling_on_the_submit_path() {
    // With a default spec: auto-registration on first sight.
    let (handle, _sink) = optwin_engine(3, 200, None);
    handle
        .submit(&[(10, 0.1), (11, 0.2), (10, 0.3)])
        .expect("engine running");
    handle.flush().expect("no errors with a default spec");
    let stats = handle.stats().expect("engine running");
    assert_eq!(stats.streams, 2);
    assert_eq!(stats.elements, 3);
    assert_eq!(
        handle
            .stream_stats(10)
            .expect("engine running")
            .expect("registered")
            .elements,
        2
    );
    handle.shutdown().expect("clean shutdown");

    // Without a default spec: the offending records are dropped, the rest
    // are ingested, and flush reports the error.
    let sink = Arc::new(MemorySink::new());
    let handle = EngineBuilder::new()
        .shards(2)
        .stream_spec(1, optwin_spec(200))
        .sink(Arc::clone(&sink) as Arc<dyn EventSink>)
        .build()
        .expect("valid engine");
    handle
        .submit(&[(1, 0.1), (99, 0.5), (1, 0.2)])
        .expect("submit itself succeeds");
    assert_eq!(
        handle.flush().expect_err("unknown stream must surface"),
        EngineError::UnknownStream(99)
    );
    let stats = handle.stats().expect("engine running");
    assert_eq!(stats.streams, 1);
    assert_eq!(stats.elements, 2, "known-stream records are still ingested");
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
    let (donor, _sink) = optwin_engine(2, 100, None);
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

/// Builder validation and restore preconditions.
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
    // A spec-less (v1-style) entry without a default spec is refused.
    let (donor, _sink) = optwin_engine(2, 100, None);
    donor.submit(&[(1, 0.5)]).expect("engine running");
    donor.flush().expect("no errors");
    let mut snapshot = donor.snapshot().expect("snapshot-capable");
    donor.shutdown().expect("clean shutdown");
    for entry in &mut snapshot.streams {
        entry.spec = None;
    }
    let err = EngineBuilder::new()
        .shards(2)
        .restore(snapshot.clone())
        .build()
        .expect_err("a spec-less restore requires a default spec");
    assert!(matches!(err, EngineError::InvalidSnapshot(_)));
    assert!(err.to_string().contains("default spec"), "{err}");
    // A default spec building a *different* detector kind is refused by
    // name.
    let err = EngineBuilder::new()
        .shards(2)
        .default_spec("adwin".parse().expect("valid spec"))
        .restore(snapshot)
        .build()
        .expect_err("detector kind mismatch");
    assert!(err.to_string().contains("OPTWIN"));
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

/// `try_submit` fails fast — atomically, enqueuing nothing — when a shard
/// queue is at capacity, and `submit`/`flush` error once the engine is shut
/// down.
#[test]
fn try_submit_backpressure_and_shutdown_errors() {
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
    // must be rejected without enqueuing anything.
    let batch: Vec<(u64, f64)> = (0..4).map(|_| (0u64, 0.5)).collect();
    handle
        .try_submit(&batch)
        .expect("an empty queue admits a full batch");
    assert_eq!(handle.try_submit(&batch), Err(EngineError::QueueFull));
    assert_eq!(handle.try_submit(&[(0, 0.1)]), Err(EngineError::QueueFull));

    // Release the worker and drain.
    release.send(()).expect("the worker is parked");
    flusher
        .join()
        .expect("no panics")
        .expect("no ingestion errors");
    handle.flush().expect("no ingestion errors");
    let stats = handle.stats().expect("engine running");
    assert_eq!(stats.elements, 4, "exactly the admitted batch ran");

    // Shutdown: all further operations fail with ChannelClosed, on every
    // clone.
    let clone = handle.clone();
    handle.shutdown().expect("clean shutdown");
    assert_eq!(handle.submit(&batch), Err(EngineError::ChannelClosed));
    assert_eq!(clone.try_submit(&batch), Err(EngineError::ChannelClosed));
    assert_eq!(clone.flush(), Err(EngineError::ChannelClosed));
    assert!(clone.stats().is_err());
    // Idempotent.
    handle.shutdown().expect("second shutdown is a no-op");
}

/// Clones of one handle feed the same engine; per-stream totals add up.
#[test]
fn handle_clones_feed_the_same_engine_from_multiple_threads() {
    let (handle, sink) = optwin_engine(4, 200, None);
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

/// An engine with `streams` registered by the `ddm` spec and no default
/// spec.
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

/// Without a default spec, records for an unknown stream are an error that
/// ingests nothing for that stream; registering it makes it known.
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
/// `EngineBuilder::restore()` with **no default spec and no registration
/// calls** — the v2 snapshot is self-describing — after which the restored
/// engine produces bit-exact identical remaining events.
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
            original.stream_spec(stream).expect("engine running"),
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
        snapshot.records_placement(),
        "v3 snapshots record placement"
    );

    // Restore through JSON into a differently-sharded engine with NO
    // default spec and NO stream registration of any kind.
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
        assert_eq!(
            restored.stream_spec(stream).expect("engine running"),
            Some(spec_of(stream))
        );
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

/// Spec-less entries (a v1 snapshot) also restore declaratively, through
/// the builder's default spec, and resume with the events of an
/// uninterrupted run; a default spec that builds another detector kind is
/// refused, naming the stream.
#[test]
fn spec_less_snapshots_restore_through_the_default_spec() {
    const STREAMS: u64 = 12;
    const TOTAL: usize = 6_000;
    const CUT: usize = 4_500; // past some per-stream drift points, before others
    let spec: DetectorSpec = "optwin:w_max=800".parse().expect("valid spec");
    let build = |spec: &DetectorSpec, restore: Option<EngineSnapshot>| {
        let sink = Arc::new(MemorySink::new());
        let mut builder = EngineBuilder::new()
            .shards(test_shards())
            .default_spec(spec.clone())
            .sink(Arc::clone(&sink) as Arc<dyn EventSink>);
        if let Some(snapshot) = restore {
            builder = builder.restore(snapshot);
        }
        builder.build().map(|handle| (handle, sink))
    };
    let feed = |handle: &EngineHandle, from, to| feed_losses(handle, STREAMS, from, to);

    let (reference, reference_sink) = build(&spec, None).expect("valid engine");
    feed(&reference, 0, TOTAL);
    let reference_events = canonical(reference_sink.drain());
    reference.shutdown().expect("clean shutdown");

    let (original, original_sink) = build(&spec, None).expect("valid engine");
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

    let (restored, restored_sink) =
        build(&spec, Some(v1.clone())).expect("the default spec rebuilds spec-less entries");
    assert_eq!(
        restored.stream_spec(0).expect("engine running"),
        Some(spec.clone())
    );
    feed(&restored, CUT, TOTAL);
    let late_events = canonical(restored_sink.drain());
    restored.shutdown().expect("clean shutdown");

    let mut stitched = early_events;
    stitched.extend(late_events);
    assert_eq!(
        canonical(stitched),
        reference_events,
        "a default-spec restore must resume with identical decisions"
    );
    assert!(
        reference_events.iter().any(|e| (e.seq as usize) < CUT)
            && reference_events.iter().any(|e| (e.seq as usize) >= CUT),
        "test workload should drift on both sides of the cut"
    );

    // A default spec that builds another detector kind is refused.
    let adwin: DetectorSpec = "adwin".parse().expect("valid spec");
    let first = v1.streams[0].stream;
    match build(&adwin, Some(v1)) {
        Err(EngineError::InvalidSnapshot(message)) => {
            assert!(
                message.starts_with(&format!("stream {first}:")),
                "{message}"
            );
            assert!(message.contains("ADWIN"), "{message}");
        }
        Err(other) => panic!("expected InvalidSnapshot, got {other}"),
        Ok(_) => panic!("an ADWIN default spec must not restore OPTWIN state"),
    }
}

/// A default spec auto-registers unknown streams (recording the spec), and
/// `register_stream_spec` validates before it registers.
#[test]
fn default_spec_and_register_stream_spec() {
    let spec: DetectorSpec = "adwin:delta=0.01".parse().expect("valid spec");
    let sink = Arc::new(MemorySink::new());
    let handle = EngineBuilder::new()
        .shards(2)
        .default_spec(spec.clone())
        .sink(Arc::clone(&sink) as Arc<dyn EventSink>)
        .build()
        .expect("valid engine");

    // Auto-registration on first sight records the default spec.
    handle
        .submit(&[(7, 0.0), (8, 1.0)])
        .expect("engine running");
    handle.flush().expect("no errors");
    assert_eq!(handle.stream_spec(7).expect("running"), Some(spec.clone()));
    let stats = handle
        .stream_stats(7)
        .expect("running")
        .expect("registered");
    assert_eq!(stats.detector, "ADWIN");
    assert_eq!(stats.spec, spec);

    // Declarative runtime registration with a different spec.
    let kswin: DetectorSpec = "kswin:window_size=90,stat_size=20".parse().expect("valid");
    handle
        .register_stream_spec(42, kswin.clone())
        .expect("valid spec registers");
    assert_eq!(handle.stream_spec(42).expect("running"), Some(kswin));
    // Unknown streams report None.
    assert_eq!(handle.stream_spec(999).expect("running"), None);

    // An invalid spec is rejected before anything is registered.
    let bad = DetectorSpec::Adwin {
        config: optwin::baselines::AdwinConfig {
            delta: 0.0,
            ..optwin::baselines::AdwinConfig::default()
        },
    };
    assert!(matches!(
        handle.register_stream_spec(43, bad),
        Err(EngineError::InvalidSpec(_))
    ));
    assert_eq!(handle.stream_spec(43).expect("running"), None);

    // A degenerate default spec is rejected at build time.
    let err = EngineBuilder::new()
        .shards(1)
        .default_spec(DetectorSpec::Adwin {
            config: optwin::baselines::AdwinConfig {
                delta: 0.0,
                ..optwin::baselines::AdwinConfig::default()
            },
        })
        .build()
        .expect_err("invalid default spec");
    assert!(matches!(err, EngineError::InvalidSpec(_)));
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
    /// snapshot with no default spec (the snapshot is self-describing).
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
