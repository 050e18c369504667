//! Acceptance tests for the hibernation tier: cold-stream detector-state
//! compression with transparent, **bit-exact** rehydration.
//!
//! The headline gate: a fleet running with hibernation enabled — streams
//! going cold, compressing to blobs, waking on their next record, possibly
//! several times — must emit *byte-identical* events (and `seq` numbers,
//! and final state snapshots) to the same fleet with hibernation disabled.
//! Everything else (stats accounting, persistence of sleeping fleets)
//! layers on top of that.

use std::sync::Arc;

use optwin::{DetectorSpec, DriftEvent, EngineBuilder, EventSink, HibernationPolicy, MemorySink};

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

/// The spec assigned to a stream: the full 8-kind paper line-up, tiled.
fn spec_of(stream: u64) -> DetectorSpec {
    let specs = DetectorSpec::all_defaults();
    specs[(stream as usize) % specs.len()].clone()
}

/// The `i`-th element of a stream: drifts halfway through, binary-only
/// detectors get Bernoulli indicators, the rest real-valued losses.
fn element(stream: u64, i: u64, drift_at: u64) -> f64 {
    let p = if i < drift_at { 0.06 } else { 0.55 };
    let u = jitter(stream.wrapping_mul(0x9E37_79B9) ^ i) + 0.5;
    if spec_of(stream).binary_only() {
        f64::from(u < p)
    } else {
        (p + 0.4 * (u - 0.5)).clamp(0.0, 1.0)
    }
}

/// Event order across shard workers is nondeterministic; per-stream order is
/// the contract. Sort before comparing.
fn sorted(mut events: Vec<DriftEvent>) -> Vec<DriftEvent> {
    events.sort_unstable_by_key(|e| (e.stream, e.seq, e.is_drift()));
    events
}

/// A state tree as JSON text: every float a shipped detector writes is a
/// finite number, whose shortest form is unique to its bits, or a blob of
/// raw bits, so equal text means bit-equal state.
fn state_text(state: &serde::Value) -> String {
    serde_json::to_string(state).expect("value trees serialize")
}

/// Builds a 24-stream mixed-kind engine; `policy` enables hibernation.
fn build_fleet(policy: Option<HibernationPolicy>) -> (optwin::EngineHandle, Arc<MemorySink>) {
    let sink = Arc::new(MemorySink::new());
    let mut builder = EngineBuilder::new()
        .shards(4)
        .sink(Arc::clone(&sink) as Arc<dyn EventSink>);
    if let Some(policy) = policy {
        builder = builder.hibernation(policy);
    }
    for stream in 0..24u64 {
        builder = builder.stream_spec(stream, spec_of(stream));
    }
    (builder.build().expect("valid engine"), sink)
}

/// Each shard's load in `stats` equals the sums over that shard's
/// `stream_snapshots()` entries, and the engine's drift total equals theirs.
fn assert_shard_loads_match_streams(handle: &optwin::EngineHandle, stats: &optwin::EngineStats) {
    let snapshots = handle.stream_snapshots().expect("snapshots");
    assert_eq!(stats.shards.len(), handle.num_shards());
    for load in &stats.shards {
        let own: Vec<_> = snapshots.iter().filter(|s| s.shard == load.shard).collect();
        assert_eq!(
            (
                load.streams,
                load.stream_records,
                load.resident_bytes,
                load.hibernated_streams
            ),
            (
                own.len(),
                own.iter().map(|s| s.elements).sum(),
                own.iter().map(|s| s.mem_bytes).sum(),
                own.iter().filter(|s| s.hibernated).count()
            ),
            "shard {}: (streams, records, resident bytes, hibernated)",
            load.shard
        );
    }
    assert_eq!(
        stats.drifts,
        snapshots.iter().map(|s| s.drifts).sum::<u64>()
    );
}

/// Drives `handle` through `rounds` bursty rounds: each round feeds only the
/// streams active that round (each stream idles two rounds out of five, at
/// a per-stream phase), then flushes — twice, so with `cold_after_flushes`
/// ≤ 2 the idle streams actually cross the threshold mid-run and must
/// rehydrate when their burst returns.
fn drive(handle: &optwin::EngineHandle, rounds: u64, per_round: u64) {
    for round in 0..rounds {
        let mut records = Vec::new();
        for stream in 0..24u64 {
            if (round + stream) % 5 < 2 {
                continue; // this stream idles this round
            }
            let base = round * per_round;
            for i in 0..per_round {
                let seq = base + i;
                records.push((stream, element(stream, seq, rounds * per_round / 2)));
            }
        }
        handle.submit(&records).expect("engine running");
        handle.flush().expect("flush");
        handle.flush().expect("flush");
    }
}

#[test]
fn hibernating_fleet_is_bit_exact_with_never_sleeping_fleet() {
    // cold_after_flushes(1): one recordless barrier puts a stream to sleep,
    // so every stream hibernates and rehydrates several times across the
    // bursty schedule.
    let (hibernating, hib_sink) = build_fleet(Some(HibernationPolicy::cold_after_flushes(1)));
    let (reference, ref_sink) = build_fleet(None);

    drive(&hibernating, 10, 120);
    drive(&reference, 10, 120);

    // The run must actually have exercised the tier.
    let stats = hibernating.stats().expect("stats");
    assert!(
        stats.rehydrations() > 0,
        "bursty schedule never rehydrated anything"
    );
    assert!(stats.hibernated_streams() > 0, "no stream is asleep");

    // Identical events, identical per-stream positions.
    assert_eq!(sorted(hib_sink.drain()), sorted(ref_sink.drain()));
    let mut hib_streams = hibernating.stream_snapshots().expect("snapshots");
    let mut ref_streams = reference.stream_snapshots().expect("snapshots");
    hib_streams.sort_unstable_by_key(|s| s.stream);
    ref_streams.sort_unstable_by_key(|s| s.stream);
    for (h, r) in hib_streams.iter().zip(&ref_streams) {
        assert_eq!(
            (h.stream, h.elements, h.drifts),
            (r.stream, r.elements, r.drifts)
        );
    }

    // Identical final state, blob or not: the hibernating engine's snapshot
    // serves sleeping streams from their blobs.
    let hib_snap = hibernating.snapshot().expect("snapshot");
    let ref_snap = reference.snapshot().expect("snapshot");
    assert_eq!(hib_snap.streams.len(), ref_snap.streams.len());
    for (h, r) in hib_snap.streams.iter().zip(&ref_snap.streams) {
        assert_eq!((h.stream, h.seq), (r.stream, r.seq));
        assert!(
            state_text(&h.state) == state_text(&r.state),
            "stream {} ({}): hibernated state diverged from reference",
            h.stream,
            h.detector
        );
    }
    assert!(hib_snap.streams.iter().any(|s| s.hibernated));
    assert!(ref_snap.streams.iter().all(|s| !s.hibernated));

    hibernating.shutdown().expect("shutdown");
    reference.shutdown().expect("shutdown");
}

#[test]
fn hibernation_frees_memory_and_stats_account_for_it() {
    let (handle, _sink) = build_fleet(Some(HibernationPolicy::cold_after_flushes(2)));

    // Warm every stream, then let the whole fleet go cold.
    let mut records = Vec::new();
    for stream in 0..24u64 {
        for i in 0..200u64 {
            records.push((stream, element(stream, i, u64::MAX)));
        }
    }
    handle.submit(&records).expect("submit");
    handle.flush().expect("flush");
    let live = handle.stats().expect("stats");
    assert_eq!(live.hibernated_streams(), 0);
    assert_shard_loads_match_streams(&handle, &live);
    let live_bytes = live.resident_bytes();
    assert!(live_bytes > 0);

    handle.flush().expect("flush");
    handle.flush().expect("flush");
    let cold = handle.stats().expect("stats");
    assert_eq!(
        cold.hibernated_streams(),
        24,
        "whole fleet should be asleep"
    );
    assert!(cold.hibernated_bytes() > 0);
    assert_shard_loads_match_streams(&handle, &cold);
    assert!(
        cold.resident_bytes() < live_bytes / 2,
        "hibernation saved too little: {} -> {}",
        live_bytes,
        cold.resident_bytes()
    );

    // Per-stream introspection carries the flag and the footprint, and the
    // Display rendering surfaces the memory columns.
    for snapshot in handle.stream_snapshots().expect("snapshots") {
        assert!(
            snapshot.hibernated,
            "stream {} still awake",
            snapshot.stream
        );
        assert!(snapshot.mem_bytes > 0);
        assert_eq!(
            snapshot.shard,
            snapshot.stream as usize % handle.num_shards()
        );
    }
    let rendered = cold.to_string();
    assert!(
        rendered.contains("hibernated"),
        "missing memory columns: {rendered}"
    );

    // One record wakes exactly its stream.
    handle.submit(&[(3, 0.5)]).expect("submit");
    handle.flush().expect("flush");
    let woken = handle.stats().expect("stats");
    assert_eq!(woken.rehydrations(), 1);
    assert_eq!(woken.hibernated_streams(), 23);
    let snapshot = handle
        .stream_stats(3)
        .expect("query")
        .expect("stream 3 exists");
    assert!(!snapshot.hibernated);

    handle.shutdown().expect("shutdown");
}

#[test]
fn sleeping_fleet_snapshots_and_restores_without_waking() {
    let rounds = 6;
    let per_round = 100;
    let (original, orig_sink) = build_fleet(Some(HibernationPolicy::cold_after_flushes(1)));
    let (reference, ref_sink) = build_fleet(None);
    drive(&original, rounds, per_round);
    drive(&reference, rounds, per_round);
    let mut first_half = sorted(orig_sink.drain());
    assert_eq!(first_half, sorted(ref_sink.drain()));

    // Put the *entire* fleet to sleep, then snapshot: every entry must be
    // persisted from its blob, marked hibernated.
    original.flush().expect("flush");
    original.flush().expect("flush");
    assert_eq!(original.stats().expect("stats").hibernated_streams(), 24);
    let snapshot = original.snapshot().expect("snapshot");
    assert!(snapshot.streams.iter().all(|s| s.hibernated));
    original.shutdown().expect("shutdown");

    // Round-trip through JSON, restore into a hibernating builder: the
    // fleet comes back *still asleep* — no detector was ever materialized.
    let json = snapshot.to_json();
    let restored_snapshot = optwin::EngineSnapshot::from_json(&json).expect("parse");
    let sink = Arc::new(MemorySink::new());
    let restored = EngineBuilder::new()
        .shards(4)
        .hibernation(HibernationPolicy::cold_after_flushes(1))
        .sink(Arc::clone(&sink) as Arc<dyn EventSink>)
        .restore(restored_snapshot.clone())
        .build()
        .expect("restore");
    assert_eq!(
        restored.stats().expect("stats").hibernated_streams(),
        24,
        "restore materialized detectors it should have kept asleep"
    );

    // A non-hibernating builder restores the same snapshot fully awake.
    let awake_sink = Arc::new(MemorySink::new());
    let awake = EngineBuilder::new()
        .shards(4)
        .sink(Arc::clone(&awake_sink) as Arc<dyn EventSink>)
        .restore(restored_snapshot)
        .build()
        .expect("restore");
    assert_eq!(awake.stats().expect("stats").hibernated_streams(), 0);

    // Both restored engines — and the uninterrupted reference — agree on
    // the second half of the run, bit for bit.
    for round in rounds..rounds * 2 {
        let mut records = Vec::new();
        for stream in 0..24u64 {
            let base = round * per_round;
            for i in 0..per_round {
                let seq = base + i;
                records.push((stream, element(stream, seq, rounds * per_round / 2)));
            }
        }
        restored.submit(&records).expect("submit");
        awake.submit(&records).expect("submit");
        reference.submit(&records).expect("submit");
    }
    restored.shutdown().expect("shutdown");
    awake.shutdown().expect("shutdown");
    reference.shutdown().expect("shutdown");
    let second_half = sorted(ref_sink.drain());
    assert_eq!(sorted(sink.drain()), second_half);
    assert_eq!(sorted(awake_sink.drain()), second_half);
    assert!(
        !second_half.is_empty() || !first_half.is_empty(),
        "workload produced no events at all; the equivalence is vacuous"
    );
    first_half.clear();
}

/// A Page–Hinkley stream fed one NaN (counted, statistics left alone),
/// forced to sleep at every barrier, must keep waking, and end
/// bit-identical to a stream that never sleeps.
#[test]
fn nan_fed_page_hinkley_stream_keeps_waking() {
    let value = |i: u64| {
        if i == 150 {
            f64::NAN
        } else {
            0.1 + 0.05 * jitter(i)
        }
    };
    let run = |policy: Option<HibernationPolicy>| {
        let mut builder = EngineBuilder::new()
            .shards(1)
            .stream_spec(0, "page_hinkley".parse().expect("valid spec"));
        if let Some(policy) = policy {
            builder = builder.hibernation(policy);
        }
        let handle = builder.build().expect("valid engine");
        for round in 0..4u64 {
            let records: Vec<(u64, f64)> = (round * 100..(round + 1) * 100)
                .map(|i| (0, value(i)))
                .collect();
            handle.submit(&records).expect("submit");
            handle
                .flush()
                .expect("a NaN-fed stream must sleep and wake");
        }
        let rehydrations = handle.stats().expect("stats").rehydrations();
        let stream = handle.snapshot().expect("snapshot").streams.remove(0);
        handle.shutdown().expect("shutdown");
        (rehydrations, stream.hibernated, state_text(&stream.state))
    };
    let (rehydrations, hibernated, state) = run(Some(HibernationPolicy::cold_after_flushes(0)));
    assert_eq!(
        (rehydrations, hibernated),
        (3, true),
        "asleep after every barrier"
    );
    assert_eq!(state, run(None).2);
}

/// Prints the per-kind memory audit behind the README's "Memory &
/// hibernation" table: for each of the 8 default specs, one stream is fed
/// 4 096 binary error indicators (the paper's production input — windows
/// of 0/1 bit-pack in the v4 codec), measured live, then hibernated and
/// measured again. Run with:
///
/// ```text
/// cargo test --release --test engine_hibernation memory_audit -- --ignored --nocapture
/// ```
#[test]
#[ignore = "prints the measured bytes/stream table for the README"]
fn memory_audit_table() {
    println!("| detector | live B/stream | hibernated B/stream | ratio |");
    println!("|---|---|---|---|");
    for spec in DetectorSpec::all_defaults() {
        let handle = EngineBuilder::new()
            .shards(1)
            .hibernation(HibernationPolicy::cold_after_flushes(1))
            .stream_spec(0, spec.clone())
            .build()
            .expect("valid engine");
        let records: Vec<(u64, f64)> = (0..4_096u64)
            .map(|i| (0, f64::from(jitter(i) + 0.5 < 0.06)))
            .collect();
        handle.submit(&records).expect("submit");
        handle.flush().expect("flush");
        let live = handle.stats().expect("stats").resident_bytes();
        handle.flush().expect("flush");
        let stats = handle.stats().expect("stats");
        assert_eq!(stats.hibernated_streams(), 1);
        let asleep = stats.resident_bytes();
        println!(
            "| {} | {live} | {asleep} | {:.2}% |",
            spec.detector_name(),
            asleep as f64 / live as f64 * 100.0
        );
        handle.shutdown().expect("shutdown");
    }
}
