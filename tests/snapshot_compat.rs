//! Golden-corpus compatibility, corruption-fuzzing and size-regression
//! suite for the engine snapshot wire formats (v1–v4).
//!
//! A heterogeneous 8-detector fleet (one stream per [`DetectorSpec`] kind)
//! is fed a fixed deterministic prefix; the resulting snapshots — one
//! checked-in fixture per wire format under `tests/fixtures/snapshots/` —
//! must keep restoring **bit-exactly** forever: every fixture, restored
//! into a fresh engine and fed the remaining stream, must produce exactly
//! the drift decisions of an uninterrupted reference engine. v4 is the only
//! layout the engine still writes, and a live capture must reproduce the
//! v4 fixtures entry for entry. The v1–v3 fixtures (and `v3-cascade.json`)
//! are frozen output of the retired JSON-array writer: nothing regenerates
//! them, and they pin the read path alone. Regenerate the v4 and v5
//! fixtures (only after a deliberate, versioned format change) with:
//!
//! ```text
//! cargo test --test snapshot_compat regenerate_golden_corpus -- --ignored
//! ```
//!
//! The suite also fuzzes the v4 binary blob layer (truncation, checksum
//! flips, bad magic, count mismatches, invalid base64 — all must surface as
//! [`EngineError::InvalidSnapshot`] with the stream and field named, never
//! a panic) and guards the headline size win: the v4 snapshot of a fixed
//! 64-stream fleet must stay at or below **41,749 bytes**, 40 % of the
//! 104,373 bytes the retired v3 writer produced for it.
//!
//! Composite detectors add a fixture of their own: `v4-cascade.json`
//! snapshots a cascade/ensemble fleet with the pilot cascade captured
//! **mid-escalation** (live confirmer, warm replay ring) and still
//! self-reports wire format 4 — composites are explicitly not a format
//! generation (see the `cascade_fixture` module at the bottom).
//!
//! Wire format **v5** is a checkpoint *directory*, not a single file: the
//! checked-in `v5/` fixture holds a manifest, a base, a delta-overlay chain
//! and a write-ahead-log tail, and must keep **recovering** (base → deltas
//! → WAL replay) into a bit-exact engine forever. Its tests recover from a
//! scratch copy, since recovery itself checkpoints into the directory.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use optwin::engine::EngineError;
use optwin::{
    load_checkpoint_dir, CheckpointPolicy, DetectorSpec, DriftEvent, EngineBuilder, EngineHandle,
    EngineSnapshot, EventSink, HibernationPolicy, MemorySink,
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

// ---------------------------------------------------------------------------
// The corpus fleet: 8 streams, one per detector kind, deterministic input
// ---------------------------------------------------------------------------

const STREAMS: u64 = 8;
const TOTAL: usize = 4_000;
/// The prefix length the checked-in fixtures were generated from. Changing
/// it (or [`element`], or [`spec_of`]) invalidates the corpus — regenerate.
const CUT: usize = 2_500;

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
/// point; binary-only detectors get Bernoulli indicators, the rest
/// real-valued losses.
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

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/snapshots")
}

fn fixture_path(version: u64) -> PathBuf {
    fixtures_dir().join(format!("v{version}.json"))
}

fn hibernated_fixture_path() -> PathBuf {
    fixtures_dir().join("v4-hibernated.json")
}

/// The v5 fixture is a whole checkpoint **directory** (manifest + base +
/// delta chain + WAL tail), covering `0..V5_CHECKPOINTED` through
/// checkpoints and `V5_CHECKPOINTED..CUT` through the log alone.
fn v5_fixture_dir() -> PathBuf {
    fixtures_dir().join("v5")
}

const V5_CHECKPOINTED: usize = 2_000;

/// Copies the v5 fixture into a scratch directory: recovery checkpoints and
/// garbage-collects *into* the directory it recovers, and the checked-in
/// corpus must never be touched.
fn v5_scratch_copy(name: &str) -> PathBuf {
    let scratch =
        std::env::temp_dir().join(format!("optwin-v5-fixture-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let entries = std::fs::read_dir(v5_fixture_dir()).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} — run the ignored `regenerate_golden_corpus` \
             test to rebuild the corpus: {e}",
            v5_fixture_dir().display()
        )
    });
    for entry in entries {
        let entry = entry.expect("fixture dir entry");
        std::fs::copy(entry.path(), scratch.join(entry.file_name())).expect("copy fixture file");
    }
    scratch
}

fn build_fleet(restore: Option<EngineSnapshot>) -> (EngineHandle, Arc<MemorySink>) {
    build_fleet_with(restore, None)
}

fn build_fleet_with(
    restore: Option<EngineSnapshot>,
    hibernation: Option<HibernationPolicy>,
) -> (EngineHandle, Arc<MemorySink>) {
    let sink = Arc::new(MemorySink::new());
    let mut builder = EngineBuilder::new()
        .shards(4)
        .sink(Arc::clone(&sink) as Arc<dyn EventSink>);
    if let Some(policy) = hibernation {
        builder = builder.hibernation(policy);
    }
    match restore {
        Some(snapshot) => builder = builder.restore(snapshot),
        None => {
            for stream in 0..STREAMS {
                builder = builder.stream_spec(stream, spec_of(stream));
            }
        }
    }
    (builder.build().expect("valid engine"), sink)
}

fn feed(handle: &EngineHandle, from: usize, to: usize) {
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
    }
    handle.flush().expect("no ingestion errors");
}

fn canonical(mut events: Vec<DriftEvent>) -> Vec<DriftEvent> {
    events.sort_unstable_by_key(|e| (e.stream, e.seq));
    events
}

/// The uninterrupted reference: the full run's events, split at [`CUT`].
fn reference_events() -> (Vec<DriftEvent>, Vec<DriftEvent>) {
    let (handle, sink) = build_fleet(None);
    feed(&handle, 0, TOTAL);
    let events = canonical(sink.drain());
    handle.shutdown().expect("clean shutdown");
    events.into_iter().partition(|e| (e.seq as usize) < CUT)
}

// ---------------------------------------------------------------------------
// Corpus regeneration (checked-in fixtures; run explicitly with --ignored)
// ---------------------------------------------------------------------------

/// Writes the fixtures the live writer can still produce: `v4.json`,
/// `v4-hibernated.json` and the `v5/` directory. `v1.json`–`v3.json` stay
/// as the retired JSON-array writer left them (v3 a genuine snapshot, v2
/// and v1 its historically exact reductions without `shard` and `spec`).
#[test]
#[ignore = "regenerates the checked-in golden corpus"]
fn regenerate_golden_corpus() {
    let (handle, _sink) = build_fleet(None);
    feed(&handle, 0, CUT);
    let v4 = handle.snapshot().expect("snapshot-capable");
    handle.shutdown().expect("clean shutdown");
    assert_eq!(v4.version, 4);
    std::fs::create_dir_all(fixtures_dir()).expect("fixtures dir");
    std::fs::write(fixture_path(4), v4.to_json()).expect("write fixture");

    // The hibernated variant: the same fleet run under the forced policy,
    // so every stream is asleep when the snapshot is taken. Deliberately
    // still wire format v4 — hibernation adds one optional key per sleeping
    // stream, not a format generation.
    let (handle, _sink) = build_fleet_with(None, Some(HibernationPolicy::cold_after_flushes(0)));
    feed(&handle, 0, CUT);
    let hibernated = handle.snapshot().expect("snapshot-capable");
    handle.shutdown().expect("clean shutdown");
    assert_eq!(hibernated.version, 4);
    assert!(hibernated.streams.iter().all(|s| s.hibernated));
    std::fs::write(hibernated_fixture_path(), hibernated.to_json()).expect("write fixture");

    // The v5 fixture: the same fleet run *with durability on*. Flushing
    // every 500 elements under `every_flushes(1)` leaves a generation-0
    // base plus four delta overlays (the infinite compact ratio keeps the
    // chain); the final `V5_CHECKPOINTED..CUT` window is processed — the
    // stats barrier proves it — but never checkpointed, so it survives only
    // in the write-ahead log, exactly like a crash. The directory is
    // checked in verbatim: manifest, base, deltas, WAL segments.
    let v5_dir = v5_fixture_dir();
    let _ = std::fs::remove_dir_all(&v5_dir);
    let sink = Arc::new(MemorySink::new());
    let mut builder = EngineBuilder::new()
        .shards(4)
        .sink(Arc::clone(&sink) as Arc<dyn EventSink>)
        .checkpoint(
            &v5_dir,
            CheckpointPolicy::every_flushes(1).compact_ratio(f64::INFINITY),
        );
    for stream in 0..STREAMS {
        builder = builder.stream_spec(stream, spec_of(stream));
    }
    let handle = builder.build().expect("valid engine");
    for start in (0..V5_CHECKPOINTED).step_by(500) {
        let mut records = Vec::new();
        for stream in 0..STREAMS {
            for i in start..start + 500 {
                records.push((stream, element(stream, i)));
            }
        }
        handle.submit(&records).expect("engine running");
        handle.flush().expect("no ingestion errors");
    }
    let mut tail = Vec::new();
    for stream in 0..STREAMS {
        for i in V5_CHECKPOINTED..CUT {
            tail.push((stream, element(stream, i)));
        }
    }
    handle.submit(&tail).expect("engine running");
    let _ = handle.stats().expect("engine running");
    handle.shutdown().expect("clean shutdown");

    let merged = load_checkpoint_dir(&v5_dir).expect("fixture recovers");
    assert!(
        merged
            .streams
            .iter()
            .all(|s| s.seq == V5_CHECKPOINTED as u64),
        "v5 checkpoints must cover exactly the flushed prefix"
    );
}

// ---------------------------------------------------------------------------
// Golden-corpus compatibility
// ---------------------------------------------------------------------------

/// Every checked-in fixture — one per wire format generation — restores
/// into an engine whose subsequent drift decisions are identical to a
/// freshly-built reference that never stopped.
#[test]
fn golden_corpus_restores_bit_exact() {
    let (_early, expected_late) = reference_events();
    assert!(
        !expected_late.is_empty(),
        "the corpus workload must drift after the cut"
    );

    for version in 1..=4u64 {
        let path = fixture_path(version);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing fixture {} — run the ignored \
                 `regenerate_golden_corpus` test to rebuild the corpus: {e}",
                path.display()
            )
        });
        let mut snapshot = EngineSnapshot::from_json(&text)
            .unwrap_or_else(|e| panic!("fixture v{version} must parse: {e}"));
        assert_eq!(snapshot.version, version, "fixture v{version} self-reports");
        assert_eq!(snapshot.stream_count(), STREAMS as usize);
        assert_eq!(snapshot.is_self_describing(), version >= 2);
        assert_eq!(
            snapshot.streams.iter().all(|entry| entry.shard.is_some()),
            version >= 3
        );

        // v1 predates embedded specs: the caller fills in the fleet's.
        for entry in &mut snapshot.streams {
            entry.spec.get_or_insert_with(|| spec_of(entry.stream));
        }
        let (restored, sink) = build_fleet(Some(snapshot));
        let stats = restored.stats().expect("engine running");
        assert_eq!(stats.streams, STREAMS as usize, "v{version}");
        assert_eq!(stats.elements, STREAMS * CUT as u64, "v{version}");
        feed(&restored, CUT, TOTAL);
        let late = canonical(sink.drain());
        restored.shutdown().expect("clean shutdown");
        assert_eq!(
            late, expected_late,
            "fixture v{version} must resume with identical decisions"
        );
    }
}

/// The hibernated golden fixture — the corpus fleet snapshotted while every
/// stream was asleep under the forced policy — restores bit-exactly on
/// **both** load paths: a hibernating builder re-creates the streams still
/// asleep (no detector materialized until its first record), and a plain
/// builder wakes everything eagerly. Either way the resumed fleet's
/// decisions are identical to the uninterrupted reference.
///
/// This test is also the explicit no-wire-bump assertion: hibernation adds
/// one optional `hibernated` key per sleeping stream and nothing else, so
/// the fixture still self-reports **version 4** and parses with the same
/// codec as the all-awake `v4.json` (whose bytes contain no trace of the
/// key at all).
#[test]
fn hibernated_fixture_restores_on_both_load_paths() {
    let (_early, expected_late) = reference_events();

    let path = hibernated_fixture_path();
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} — run the ignored \
             `regenerate_golden_corpus` test to rebuild the corpus: {e}",
            path.display()
        )
    });
    assert!(
        text.contains("\"hibernated\""),
        "the hibernated fixture must mark its sleeping streams"
    );
    let awake_text = std::fs::read_to_string(fixture_path(4)).expect("v4 fixture present");
    assert!(
        !awake_text.contains("hibernated"),
        "an all-awake v4 snapshot must not mention hibernation at all"
    );

    let snapshot = EngineSnapshot::from_json(&text).expect("fixture parses");
    assert_eq!(
        snapshot.version, 4,
        "hibernation must not bump the wire format"
    );
    assert_eq!(snapshot.stream_count(), STREAMS as usize);
    assert!(
        snapshot.streams.iter().all(|s| s.hibernated),
        "every corpus stream was asleep at capture"
    );

    // Load path 1: a hibernating builder keeps the fleet asleep...
    let (restored, sink) =
        build_fleet_with(Some(snapshot.clone()), Some(HibernationPolicy::default()));
    let stats = restored.stats().expect("engine running");
    assert_eq!(stats.hibernated_streams(), STREAMS as usize);
    assert_eq!(stats.elements, STREAMS * CUT as u64);
    // ...until records arrive and wake the streams transparently.
    feed(&restored, CUT, TOTAL);
    let late = canonical(sink.drain());
    assert_eq!(
        restored.stats().expect("engine running").rehydrations(),
        STREAMS
    );
    restored.shutdown().expect("clean shutdown");
    assert_eq!(
        late, expected_late,
        "asleep load path must resume bit-exact"
    );

    // Load path 2: a plain builder materializes every detector eagerly.
    let (restored, sink) = build_fleet(Some(snapshot));
    let stats = restored.stats().expect("engine running");
    assert_eq!(stats.hibernated_streams(), 0);
    feed(&restored, CUT, TOTAL);
    let late = canonical(sink.drain());
    restored.shutdown().expect("clean shutdown");
    assert_eq!(late, expected_late, "awake load path must resume bit-exact");
}

/// The v5 checkpoint-directory fixture recovers bit-exactly: base → delta
/// overlays → WAL replay, then the remaining stream, must reproduce the
/// uninterrupted reference's events from the last checkpoint's coverage
/// onward (the recovered engine re-emits the replayed `2000..2500` window —
/// that is the durability contract, not an artifact).
#[test]
fn v5_checkpoint_fixture_recovers_bit_exact() {
    let (early, late) = reference_events();
    let mut expected: Vec<DriftEvent> = early
        .into_iter()
        .filter(|e| e.seq as usize >= V5_CHECKPOINTED)
        .collect();
    expected.extend(late);
    let expected = canonical(expected);
    assert!(
        !expected.is_empty(),
        "the corpus workload must drift after the checkpointed prefix"
    );

    // The checked-in directory self-reports v5 and carries all three file
    // classes the format defines.
    let manifest =
        std::fs::read_to_string(v5_fixture_dir().join("MANIFEST.json")).unwrap_or_else(|e| {
            panic!(
                "missing fixture {} — run the ignored `regenerate_golden_corpus` \
                 test to rebuild the corpus: {e}",
                v5_fixture_dir().display()
            )
        });
    assert!(manifest.contains("\"version\":5"), "{manifest}");
    let names: Vec<String> = std::fs::read_dir(v5_fixture_dir())
        .expect("fixture dir")
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(names.iter().any(|n| n.starts_with("base-")));
    assert!(
        names.iter().filter(|n| n.starts_with("delta-")).count() >= 3,
        "the fixture must exercise a real overlay chain: {names:?}"
    );
    assert!(names.iter().any(|n| n.starts_with("wal-")));

    let scratch = v5_scratch_copy("recover");
    let merged = load_checkpoint_dir(&scratch).expect("fixture loads");
    assert_eq!(merged.stream_count(), STREAMS as usize);
    assert!(merged
        .streams
        .iter()
        .all(|s| s.seq == V5_CHECKPOINTED as u64));

    let sink = Arc::new(MemorySink::new());
    let recovered = EngineBuilder::new()
        .shards(4)
        .sink(Arc::clone(&sink) as Arc<dyn EventSink>)
        .recover_from_dir(&scratch)
        .expect("fixture recovers")
        .build()
        .expect("valid engine");
    let stats = recovered.stats().expect("engine running");
    assert_eq!(
        stats.elements,
        STREAMS * CUT as u64,
        "WAL replay must roll every stream forward to the crash point"
    );
    feed(&recovered, CUT, TOTAL);
    let events = canonical(sink.drain());
    recovered.shutdown().expect("clean shutdown");
    assert_eq!(
        events, expected,
        "fixture v5 must recover with identical decisions"
    );
    let _ = std::fs::remove_dir_all(&scratch);
}

/// Corruption fuzzing against the checked-in v5 fixture: a truncated delta
/// overlay, a flipped WAL payload byte and a missing base must each surface
/// as [`EngineError::InvalidSnapshot`] — never a panic — from a scratch
/// copy of the corpus directory.
#[test]
fn corrupted_v5_fixture_fails_recovery_cleanly() {
    let recovery_error = |dir: &Path| -> EngineError {
        match EngineBuilder::new().shards(2).recover_from_dir(dir) {
            Err(error) => error,
            Ok(builder) => builder
                .build()
                .expect_err("corrupted fixture must fail recovery"),
        }
    };
    let find = |dir: &Path, prefix: &str| -> PathBuf {
        std::fs::read_dir(dir)
            .expect("scratch dir")
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(prefix))
            })
            .max()
            .unwrap_or_else(|| panic!("fixture has no `{prefix}*` file"))
    };

    let scratch = v5_scratch_copy("truncated-delta");
    let delta = find(&scratch, "delta-");
    let text = std::fs::read_to_string(&delta).expect("delta readable");
    std::fs::write(&delta, &text[..text.len() / 2]).expect("truncate delta");
    assert!(
        matches!(recovery_error(&scratch), EngineError::InvalidSnapshot(_)),
        "truncated overlay"
    );
    let _ = std::fs::remove_dir_all(&scratch);

    let scratch = v5_scratch_copy("flipped-wal");
    let wal = find(&scratch, "wal-");
    let mut bytes = std::fs::read(&wal).expect("segment readable");
    assert!(bytes.len() > 31, "the fixture's WAL tail holds a batch");
    bytes[30] ^= 0x5a; // past the 17-byte segment header + 9-byte frame header
    std::fs::write(&wal, &bytes).expect("flip WAL byte");
    let error = recovery_error(&scratch);
    assert!(
        matches!(&error, EngineError::InvalidSnapshot(m) if m.contains("checksum")),
        "flipped WAL byte must fail the frame checksum, got {error:?}"
    );
    let _ = std::fs::remove_dir_all(&scratch);

    let scratch = v5_scratch_copy("missing-base");
    std::fs::remove_file(find(&scratch, "base-")).expect("remove base");
    let error = recovery_error(&scratch);
    assert!(
        matches!(&error, EngineError::InvalidSnapshot(m) if m.contains("base")),
        "missing base must be named, got {error:?}"
    );
    let _ = std::fs::remove_dir_all(&scratch);
}

/// A v4 snapshot taken right now round-trips through JSON and restores
/// bit-exactly — the live-format twin of the corpus test (and the path that
/// will mint the v5 fixture one day).
#[test]
fn live_v4_snapshot_round_trips() {
    let (_early, expected_late) = reference_events();
    let (handle, _sink) = build_fleet(None);
    feed(&handle, 0, CUT);
    let snapshot = handle.snapshot().expect("snapshot-capable");
    handle.shutdown().expect("clean shutdown");
    assert_eq!(snapshot.version, 4);
    assert!(snapshot.is_self_describing());

    let snapshot = EngineSnapshot::from_json(&snapshot.to_json()).expect("well-formed JSON");
    let (restored, sink) = build_fleet(Some(snapshot));
    feed(&restored, CUT, TOTAL);
    let late = canonical(sink.drain());
    restored.shutdown().expect("clean shutdown");
    assert_eq!(late, expected_late);
}

/// One stream entry as the writer lays it out, minus the wall-clock
/// `detector_seconds`: `(stream, seq, spec, shard, state as JSON text)`.
type EntryKey = (u64, u64, Option<String>, Option<usize>, String);

fn entry_keys(snapshot: &EngineSnapshot) -> Vec<EntryKey> {
    snapshot
        .streams
        .iter()
        .map(|s| {
            (
                s.stream,
                s.seq,
                s.spec.as_ref().map(ToString::to_string),
                s.shard,
                serde_json::to_string(&s.state).expect("value trees serialize"),
            )
        })
        .collect()
}

/// Builds a fleet that checkpoints only on request, lets `feed` drive it,
/// checkpoints once and returns the merged checkpoint — a v4
/// [`EngineSnapshot`] produced by the same per-stream writer as
/// [`EngineHandle::snapshot`], read back through its JSON files.
fn checkpointed_capture(
    name: &str,
    shards: usize,
    specs: &[(u64, DetectorSpec)],
    feed: impl FnOnce(&EngineHandle),
) -> EngineSnapshot {
    let dir = std::env::temp_dir().join(format!(
        "optwin-golden-writer-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut builder = EngineBuilder::new()
        .shards(shards)
        .checkpoint(&dir, CheckpointPolicy::every_flushes(0));
    for (stream, spec) in specs {
        builder = builder.stream_spec(*stream, spec.clone());
    }
    let handle = builder.build().expect("valid engine");
    feed(&handle);
    handle.checkpoint().expect("checkpoint writes");
    handle.shutdown().expect("clean shutdown");
    let snapshot = load_checkpoint_dir(&dir).expect("checkpoint loads");
    let _ = std::fs::remove_dir_all(&dir);
    snapshot
}

/// Pins the writer to the golden bytes: the corpus fleet captured live at
/// [`CUT`] reproduces every stream's `{stream, seq, spec, shard, state}` in
/// `v4.json` exactly, after a JSON round trip (only the wall-clock
/// `detector_seconds` is skipped).
#[test]
fn live_writer_reproduces_golden_v4_entries() {
    let specs: Vec<(u64, DetectorSpec)> = (0..STREAMS).map(|s| (s, spec_of(s))).collect();
    let live = checkpointed_capture("corpus", 4, &specs, |handle| feed(handle, 0, CUT));
    let golden = EngineSnapshot::from_json(
        &std::fs::read_to_string(fixture_path(4)).expect("v4 fixture present"),
    )
    .expect("fixture parses");
    assert_eq!(live.version, 4);
    assert_eq!(entry_keys(&live), entry_keys(&golden));
}

/// Pins the writer's bytes, outer layout included (the entry-level pins
/// above compare parsed entries and cannot see it): every checked-in v4
/// document and the v5 fixture's base reprint unchanged through
/// `from_json` → `to_json`.
#[test]
fn golden_documents_reprint_byte_for_byte() {
    for path in [
        fixture_path(4),
        hibernated_fixture_path(),
        fixtures_dir().join("v4-cascade.json"),
        v5_fixture_dir().join("base-0.json"),
    ] {
        let text = std::fs::read_to_string(&path).expect("fixture present");
        let reprinted = EngineSnapshot::from_json(&text)
            .expect("fixture parses")
            .to_json();
        assert!(reprinted == text, "{} reprints differently", path.display());
    }
}

/// A checkpoint's full base is the snapshot document byte for byte: the
/// entries the shard workers encode, merged by stream id, equal
/// `snapshot().to_json()` taken at the barrier just before, for live and
/// sleeping streams of all 8 kinds plus a live and a sleeping cascade.
#[test]
fn checkpoint_base_equals_the_snapshot_json() {
    let dir = std::env::temp_dir().join(format!("optwin-base-bytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cascade: DetectorSpec = "cascade:guard=page_hinkley,confirm=adwin,replay=512"
        .parse()
        .expect("valid composite spec");
    // Streams 0..8 stay awake, 8..16 fall asleep; likewise the cascades
    // 16 and 17.
    let specs: Vec<(u64, DetectorSpec)> = (0..2 * STREAMS)
        .map(|stream| (stream, spec_of(stream)))
        .chain([(16, cascade.clone()), (17, cascade)])
        .collect();
    let mut builder = EngineBuilder::new()
        .shards(4)
        .hibernation(HibernationPolicy::cold_after_flushes(1))
        .checkpoint(&dir, CheckpointPolicy::every_flushes(0).compact_ratio(0.0));
    for (stream, spec) in &specs {
        builder = builder.stream_spec(*stream, spec.clone());
    }
    let handle = builder.build().expect("valid engine");
    let feed = |streams: &[u64], from: usize, to: usize| {
        let records: Vec<(u64, f64)> = streams
            .iter()
            .flat_map(|&stream| (from..to).map(move |i| (stream, element(stream, i))))
            .collect();
        handle.submit(&records).expect("engine running");
        handle.flush().expect("no ingestion errors");
    };
    let all: Vec<u64> = specs.iter().map(|&(stream, _)| stream).collect();
    let awake: Vec<u64> = all
        .iter()
        .copied()
        .filter(|&stream| stream < STREAMS || stream == 16)
        .collect();
    feed(&all, 0, 700);
    // The second flush finds the other streams idle and puts them to sleep.
    feed(&awake, 700, 900);
    assert_eq!(
        handle.stats().expect("engine running").hibernated_streams(),
        all.len() - awake.len()
    );
    // Compact ratio 0: a delta first, then every checkpoint is a base.
    assert!(!handle.checkpoint().expect("writable directory").full);
    let snapshot = handle.snapshot().expect("snapshot-capable");
    let base = handle.checkpoint().expect("writable directory");
    handle.shutdown().expect("clean shutdown");
    assert!(base.full, "{base}");
    assert_eq!(base.streams, all.len());
    let text = std::fs::read_to_string(dir.join(format!("base-{}.json", base.generation)))
        .expect("the base is on disk");
    assert_eq!(base.bytes, text.len() as u64);
    assert!(
        text == snapshot.to_json(),
        "the checkpoint base differs from the snapshot's JSON"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Corruption fuzzing at the engine level
// ---------------------------------------------------------------------------

/// Applies `mutate` to the OPTWIN stream's `window` blob inside a freshly
/// taken v4 snapshot and returns the restore error the builder reports.
fn restore_error_after(mutate: impl Fn(&str) -> String) -> EngineError {
    let (handle, _sink) = build_fleet(None);
    feed(&handle, 0, 700);
    let mut snapshot = handle.snapshot().expect("snapshot-capable");
    handle.shutdown().expect("clean shutdown");

    let state = &mut snapshot
        .streams
        .iter_mut()
        .find(|s| s.detector == "OPTWIN")
        .expect("the fleet has an OPTWIN stream")
        .state;
    let serde::Value::Object(fields) = state else {
        panic!("detector state must be an object")
    };
    let mut mutated = false;
    for (name, value) in fields.iter_mut() {
        if name == "window" {
            let serde::Value::Str(blob) = value else {
                panic!("v4 OPTWIN window must be a blob string")
            };
            *value = serde::Value::Str(mutate(blob));
            mutated = true;
        }
    }
    assert!(mutated, "no window field found to corrupt");

    // Through the JSON wire, exactly as a real restart would hit it.
    let snapshot = EngineSnapshot::from_json(&snapshot.to_json())
        .expect("corruption lives inside a JSON string; the envelope still parses");
    EngineBuilder::new()
        .shards(2)
        .restore(snapshot)
        .build()
        .expect_err("corrupted blob must fail the restore")
}

/// Every corruption class — truncated blobs, flipped checksum bytes, bad
/// magic, element-count mismatches, invalid base64 — surfaces as
/// [`EngineError::InvalidSnapshot`] whose message names the stream and the
/// offending field (a path-like context), and never panics.
#[test]
fn corrupted_v4_blobs_fail_restores_cleanly() {
    use optwin::core::snapshot::{frame_checksum, from_base64, to_base64};

    type Mutation = Box<dyn Fn(&str) -> String>;
    let cases: Vec<(&str, Mutation, &str)> = vec![
        (
            "truncated blob",
            Box::new(|blob: &str| {
                let mut bytes = from_base64(blob).expect("fixture blob decodes");
                bytes.truncate(bytes.len() - 16);
                to_base64(&bytes)
            }),
            "mismatch",
        ),
        (
            "flipped checksum byte",
            Box::new(|blob: &str| {
                let mut bytes = from_base64(blob).expect("fixture blob decodes");
                bytes[10] ^= 0x5a;
                to_base64(&bytes)
            }),
            "checksum mismatch",
        ),
        (
            "bad magic",
            Box::new(|blob: &str| {
                let mut bytes = from_base64(blob).expect("fixture blob decodes");
                bytes[..4].copy_from_slice(b"NOPE");
                to_base64(&bytes)
            }),
            "bad magic",
        ),
        (
            "element count mismatch",
            Box::new(|blob: &str| {
                // Re-sealed with a valid checksum, so the count validation
                // itself (not the checksum) must catch the forgery.
                let mut bytes = from_base64(blob).expect("fixture blob decodes");
                let count = u32::from_le_bytes(bytes[6..10].try_into().unwrap());
                bytes[6..10].copy_from_slice(&(count + 7).to_le_bytes());
                let checksum = frame_checksum(&bytes);
                bytes[10..14].copy_from_slice(&checksum.to_le_bytes());
                to_base64(&bytes)
            }),
            "element count mismatch",
        ),
        (
            "invalid base64",
            Box::new(|blob: &str| format!("{}~~~~", &blob[..blob.len() - 4])),
            "base64",
        ),
    ];

    for (label, mutate, needle) in cases {
        let error = restore_error_after(mutate);
        let EngineError::InvalidSnapshot(message) = &error else {
            panic!("{label}: expected InvalidSnapshot, got {error:?}")
        };
        let text = error.to_string();
        assert!(
            text.contains("stream"),
            "{label}: no stream context: {text}"
        );
        assert!(
            message.contains("window"),
            "{label}: no field context: {text}"
        );
        assert!(
            text.contains(needle),
            "{label}: `{text}` missing `{needle}`"
        );
    }
}

// ---------------------------------------------------------------------------
// Size regression guard
// ---------------------------------------------------------------------------

/// The headline claim of wire format v4, pinned as a regression test: for a
/// fixed 64-stream heterogeneous fleet monitoring binary error streams (the
/// paper's primary input), the v4 snapshot payload is at most 41,749 bytes,
/// 40 % of the 104,373 bytes the retired v3 writer produced for the same
/// fleet. The size is printed so CI logs track it over time.
#[test]
fn v4_snapshot_is_at_most_40_percent_of_v3() {
    const GUARD_STREAMS: u64 = 64;
    const GUARD_ELEMENTS: usize = 2_500;
    const V4_GUARD_BYTES: usize = 41_749;

    let guard_spec = |stream: u64| -> DetectorSpec {
        let text = match stream % 8 {
            0 => "optwin:rho=0.5,w_max=2000",
            1 => "adwin",
            2 => "ddm",
            3 => "eddm",
            4 => "stepd",
            5 => "ecdd",
            6 => "page_hinkley",
            _ => "kswin:window_size=300,stat_size=30,alpha=0.0001",
        };
        text.parse().expect("valid spec string")
    };

    let mut builder = EngineBuilder::new().shards(4);
    for stream in 0..GUARD_STREAMS {
        builder = builder.stream_spec(stream, guard_spec(stream));
    }
    let handle = builder.build().expect("valid engine");

    // Binary error indicators for every stream: all 8 kinds accept them,
    // and they are what the paper's detectors monitor in production.
    let mut records = Vec::new();
    for start in (0..GUARD_ELEMENTS).step_by(500) {
        records.clear();
        for stream in 0..GUARD_STREAMS {
            for i in start..(start + 500).min(GUARD_ELEMENTS) {
                let p = 0.04 + (stream % 7) as f64 * 0.03;
                records.push((
                    stream,
                    f64::from(jitter(stream.wrapping_mul(0xABCD_EF12) ^ i as u64) + 0.5 < p),
                ));
            }
        }
        handle.submit(&records).expect("engine running");
    }
    handle.flush().expect("no ingestion errors");
    let v4 = handle.snapshot().expect("snapshot-capable").to_json();
    handle.shutdown().expect("clean shutdown");

    println!(
        "snapshot size guard: v4 = {} bytes (bound {V4_GUARD_BYTES})",
        v4.len()
    );
    assert!(
        v4.len() <= V4_GUARD_BYTES,
        "v4 ({} bytes) exceeds {V4_GUARD_BYTES} bytes",
        v4.len()
    );
}

// ---------------------------------------------------------------------------
// Composite golden fixture: a cascade captured mid-escalation
// ---------------------------------------------------------------------------

/// The composite half of the corpus: a three-stream fleet — two cascades
/// and a voting ensemble, registered purely through nested spec strings —
/// snapshotted at the exact element where the pilot cascade's confirmer is
/// **live** (escalated past the drift point, drift not yet confirmed). The
/// checked-in `v4-cascade.json` must keep restoring bit-exactly forever,
/// and must keep self-reporting wire format **4**: composites serialize
/// through the existing codec — nested child state inside the detector
/// blob — and are explicitly *not* a format generation. `v3-cascade.json`
/// holds the same state as frozen output of the retired JSON-array writer.
/// Regenerate the v4 fixture (only after a deliberate, versioned change)
/// with:
///
/// ```text
/// cargo test --test snapshot_compat regenerate_cascade_fixture -- --ignored
/// ```
mod cascade_fixture {
    use super::*;
    use optwin::{Cascade, DetectorSpec as Spec, DriftDetector};

    const TOTAL: usize = 3_500;
    const DRIFT_AT: usize = 1_700;

    fn path() -> PathBuf {
        fixtures_dir().join("v4-cascade.json")
    }

    /// The same mid-escalation fleet in the v3 JSON-array layout — frozen
    /// output of the retired writer, never regenerated.
    fn v3_path() -> PathBuf {
        fixtures_dir().join("v3-cascade.json")
    }

    /// The pilot stream's spec: the stream whose mid-escalation moment
    /// decides the snapshot cut.
    const PILOT: &str = "cascade:guard=ddm,confirm=[optwin:w_max=600],replay=256,cooldown=256";

    fn specs() -> Vec<(u64, Spec)> {
        [
            PILOT,
            "ensemble:vote=2,members=[ddm|ecdd|page_hinkley]",
            "cascade:guard=page_hinkley,confirm=adwin,replay=512",
        ]
        .iter()
        .enumerate()
        .map(|(stream, text)| (stream as u64, text.parse().expect("valid composite spec")))
        .collect()
    }

    /// Bernoulli error indicators, rate 0.06 jumping to 0.5 at
    /// [`DRIFT_AT`], decorrelated across the three streams.
    fn element(stream: u64, i: usize) -> f64 {
        let p = if i < DRIFT_AT { 0.06 } else { 0.5 };
        let u = jitter(0x0CA5_CADE ^ stream.wrapping_mul(0x9E37_79B1) ^ i as u64) + 0.5;
        f64::from(u < p)
    }

    /// A standalone replica of the pilot stream's cascade — the concrete
    /// type, so the escalation flag is observable.
    fn pilot_replica() -> Cascade {
        match PILOT.parse::<Spec>().expect("valid composite spec") {
            Spec::Cascade { config } => Cascade::new(config).expect("valid cascade config"),
            _ => unreachable!("the pilot spec is a cascade"),
        }
    }

    /// The snapshot cut: the first element past the drift point on which
    /// the pilot cascade is escalated — confirmer live, warm ring, dormant
    /// flag down. Pure function of the deterministic stream, so the
    /// regeneration test and the compatibility test always agree.
    fn mid_escalation_cut() -> usize {
        let mut replica = pilot_replica();
        for i in 0..TOTAL {
            replica.add_element(element(0, i));
            if i >= DRIFT_AT && replica.is_escalated() {
                return i + 1;
            }
        }
        panic!("the pilot cascade never escalated past the drift point");
    }

    fn build(restore: Option<EngineSnapshot>) -> (EngineHandle, Arc<MemorySink>) {
        let sink = Arc::new(MemorySink::new());
        let mut builder = EngineBuilder::new()
            .shards(2)
            .sink(Arc::clone(&sink) as Arc<dyn EventSink>);
        match restore {
            Some(snapshot) => builder = builder.restore(snapshot),
            None => {
                for (stream, spec) in specs() {
                    builder = builder.stream_spec(stream, spec);
                }
            }
        }
        (builder.build().expect("valid engine"), sink)
    }

    fn feed(handle: &EngineHandle, from: usize, to: usize) {
        let streams = specs().len() as u64;
        let mut records = Vec::new();
        for start in (from..to).step_by(250) {
            let end = (start + 250).min(to);
            records.clear();
            for stream in 0..streams {
                for i in start..end {
                    records.push((stream, element(stream, i)));
                }
            }
            handle.submit(&records).expect("engine running");
        }
        handle.flush().expect("no ingestion errors");
    }

    /// Writes the v4 composite fixture (see the module docs).
    #[test]
    #[ignore = "regenerates the checked-in cascade fixture"]
    fn regenerate_cascade_fixture() {
        let cut = mid_escalation_cut();
        let (handle, _sink) = build(None);
        feed(&handle, 0, cut);
        let snapshot = handle.snapshot().expect("snapshot-capable");
        handle.shutdown().expect("clean shutdown");
        assert_eq!(
            snapshot.version, 4,
            "composites must not bump the wire format"
        );
        assert_eq!(snapshot.stream_count(), specs().len());
        std::fs::create_dir_all(fixtures_dir()).expect("fixtures dir");
        std::fs::write(path(), snapshot.to_json()).expect("write fixture");
    }

    /// Restores the checked-in fixture at `path` (which must self-report
    /// `version`) and checks that the resumed fleet's decisions are
    /// byte-identical to an uninterrupted reference — the cascade confirms
    /// the pending drift exactly where it always would have.
    fn assert_fixture_resumes_bit_exact(path: PathBuf, version: u64) {
        let cut = mid_escalation_cut();
        // Double-check what "mid-escalation" means at this cut: a live
        // confirmer with the drift still unconfirmed.
        {
            let mut replica = pilot_replica();
            for i in 0..cut {
                replica.add_element(element(0, i));
            }
            assert!(replica.is_escalated(), "the cut lands mid-escalation");
            assert_eq!(
                replica.drifts_detected(),
                0,
                "the pending drift is unconfirmed at the cut"
            );
        }

        let (handle, sink) = build(None);
        feed(&handle, 0, TOTAL);
        let all = canonical(sink.drain());
        handle.shutdown().expect("clean shutdown");
        let expected: Vec<DriftEvent> = all.into_iter().filter(|e| e.seq as usize >= cut).collect();
        assert!(
            !expected.is_empty(),
            "the fleet must confirm drifts after the cut"
        );

        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing fixture {} — run the ignored \
                 `regenerate_cascade_fixture` test to rebuild it: {e}",
                path.display()
            )
        });
        let snapshot = EngineSnapshot::from_json(&text).expect("fixture parses");
        assert_eq!(
            snapshot.version, version,
            "composite detectors must not bump the snapshot wire format"
        );
        assert_eq!(snapshot.stream_count(), specs().len());

        let (restored, sink) = build(Some(snapshot));
        feed(&restored, cut, TOTAL);
        let events = canonical(sink.drain());
        restored.shutdown().expect("clean shutdown");
        assert_eq!(
            events,
            expected,
            "the mid-escalation fixture {} must resume with identical decisions",
            path.display()
        );
    }

    /// The checked-in v4 fixture parses with the unchanged v4 codec,
    /// restores a fleet whose pilot cascade is verifiably mid-escalation,
    /// and resumes bit-exactly.
    #[test]
    fn cascade_fixture_restores_mid_escalation_bit_exact() {
        assert_fixture_resumes_bit_exact(path(), 4);
    }

    /// The JSON-array layout of the same state: nested guard, confirmer
    /// and replay-ring arrays inside the composite states keep restoring
    /// bit-exactly.
    #[test]
    fn v3_cascade_fixture_restores_mid_escalation_bit_exact() {
        assert_fixture_resumes_bit_exact(v3_path(), 3);
    }

    /// Pins the writer to the golden bytes: the cascade fleet captured live
    /// at its mid-escalation cut reproduces every stream's
    /// `{stream, seq, spec, shard, state}` in `v4-cascade.json` exactly.
    #[test]
    fn live_writer_reproduces_golden_cascade_entries() {
        let cut = mid_escalation_cut();
        let live = checkpointed_capture("cascade", 2, &specs(), |handle| feed(handle, 0, cut));
        let golden = EngineSnapshot::from_json(
            &std::fs::read_to_string(path()).expect("cascade fixture present"),
        )
        .expect("fixture parses");
        assert_eq!(live.version, 4);
        assert_eq!(entry_keys(&live), entry_keys(&golden));
    }
}
