//! Escalation-contract suite for the composite detectors: the cascade's
//! cheap-guard → expensive-confirmer protocol must be **deterministic and
//! bit-exact** across every surface that can interrupt it.
//!
//! * **All 64 guard/confirmer pairs** (8 shipped detector kinds each way):
//!   batched ingestion is observationally identical to the element fold,
//!   and a snapshot cut **mid-escalation** — confirmer live, drift not yet
//!   confirmed — restores into a fresh cascade that makes identical
//!   subsequent decisions and reaches a bit-identical final state.
//! * **Engine level**: a fleet of cascades and ensembles survives the full
//!   durability stack mid-escalation — delta checkpoints + WAL tail
//!   (crash-style recovery) and forced hibernation at every flush barrier —
//!   with the recovered fleet's [`DriftEvent`] sequences byte-identical to
//!   an uninterrupted reference run.
//!
//! The golden-fixture half of this contract (a checked-in v4 snapshot with
//! a mid-escalation cascade stream, asserting no wire-format bump) lives in
//! `tests/snapshot_compat.rs` next to the rest of the corpus.

use std::path::Path;
use std::sync::Arc;

use optwin::core::{DriftDetector, DriftStatus};
use optwin::{
    Cascade, CascadeConfig, DetectorSpec, DriftEvent, EngineBuilder, EngineHandle, EventSink,
    HibernationPolicy, MemorySink,
};

/// The 8 shipped detector kinds, each usable as guard or confirmer.
const KINDS: [&str; 8] = [
    "optwin:w_max=600",
    "adwin",
    "ddm",
    "eddm",
    "stepd",
    "ecdd",
    "page_hinkley",
    // α = 0.05, not the usual 1e-4: on Bernoulli indicators the two-sample
    // KS statistic is at most |Δp| = 0.4, below the 1e-4 critical value for
    // these window sizes — KSWIN could never fire on this workload.
    "kswin:window_size=120,stat_size=25,alpha=0.05",
];

const LEN: usize = 3_000;
const DRIFT_AT: usize = 1_500;

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

/// A Bernoulli error-indicator stream (valid input for every detector
/// kind): error rate 0.05, jumping to 0.45 at [`DRIFT_AT`]. `salt` decouples
/// the noise across streams.
fn element(salt: u64, i: usize) -> f64 {
    let p = if i < DRIFT_AT { 0.05 } else { 0.45 };
    f64::from(jitter(salt.wrapping_mul(0x9E3779B1) ^ i as u64) + 0.5 < p)
}

fn cascade_of(guard: &str, confirm: &str) -> Cascade {
    Cascade::new(CascadeConfig {
        guard: Box::new(guard.parse().expect("valid guard spec")),
        confirm: Box::new(confirm.parse().expect("valid confirmer spec")),
        // The ring must span the change point even for the slowest guard:
        // a confirmer warm-started purely on post-drift data sees a
        // stationary stream and (correctly) never confirms.
        replay: 512,
        cooldown: 256,
    })
    .expect("valid cascade config")
}

// ---------------------------------------------------------------------------
// All 64 pairs: batch == element fold
// ---------------------------------------------------------------------------

/// For every guard/confirmer pair, chunked [`DriftDetector::add_batch`]
/// ingestion — including the cascade's dormant fast path — reports exactly
/// the drift/warning indices of the element-by-element fold, and both
/// detectors end in bit-identical serialized state.
#[test]
fn all_64_pairs_batch_ingestion_matches_element_fold() {
    for (g, guard) in KINDS.iter().enumerate() {
        for (c, confirm) in KINDS.iter().enumerate() {
            let salt = (g * 8 + c) as u64;
            let stream: Vec<f64> = (0..LEN).map(|i| element(salt, i)).collect();

            let mut folded = cascade_of(guard, confirm);
            let mut fold_drifts = Vec::new();
            let mut fold_warnings = Vec::new();
            for (i, &value) in stream.iter().enumerate() {
                match folded.add_element(value) {
                    DriftStatus::Drift => fold_drifts.push(i),
                    DriftStatus::Warning => fold_warnings.push(i),
                    DriftStatus::Stable => {}
                }
            }

            for chunk in [7usize, 256, LEN] {
                let mut batched = cascade_of(guard, confirm);
                let mut drifts = Vec::new();
                let mut warnings = Vec::new();
                let mut offset = 0;
                for window in stream.chunks(chunk) {
                    let outcome = batched.add_batch(window);
                    assert_eq!(outcome.len, window.len());
                    drifts.extend(outcome.drift_indices.iter().map(|i| i + offset));
                    warnings.extend(outcome.warning_indices.iter().map(|i| i + offset));
                    offset += window.len();
                }
                assert_eq!(
                    drifts, fold_drifts,
                    "{guard}→{confirm} chunk {chunk}: drift indices"
                );
                assert_eq!(
                    warnings, fold_warnings,
                    "{guard}→{confirm} chunk {chunk}: warning indices"
                );
                assert_eq!(batched.elements_seen(), folded.elements_seen());
                assert_eq!(batched.drifts_detected(), folded.drifts_detected());
                assert_eq!(
                    batched.snapshot_state(),
                    folded.snapshot_state(),
                    "{guard}→{confirm} chunk {chunk}: final state must be bit-identical"
                );
            }
            assert!(
                !fold_drifts.is_empty(),
                "{guard}→{confirm}: the 0.05→0.45 jump must confirm a drift"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// All 64 pairs: a mid-escalation snapshot restores bit-exactly
// ---------------------------------------------------------------------------

/// A cascade whose confirmer reliably goes (and stays) **live**: the
/// 64-element ring is too short for a warm-start to confirm on its own —
/// by the time a slow guard escalates, the ring holds only the post-change
/// plateau, which is stationary.
fn live_cascade_of(guard: &str, confirm: &str) -> Cascade {
    Cascade::new(CascadeConfig {
        guard: Box::new(guard.parse().expect("valid guard spec")),
        confirm: Box::new(confirm.parse().expect("valid confirmer spec")),
        replay: 64,
        cooldown: 256,
    })
    .expect("valid cascade config")
}

/// For every guard/confirmer pair, the stream is cut at the **first
/// element on which the confirmer is live** — the exact middle of an
/// escalation, dormant-confirmer flag down, replay ring warm — and the
/// snapshot restores into a fresh cascade that emits an identical status
/// for every remaining element and lands in bit-identical final state.
#[test]
fn all_64_pairs_snapshot_mid_escalation_restores_bit_exact() {
    for (g, guard) in KINDS.iter().enumerate() {
        for (c, confirm) in KINDS.iter().enumerate() {
            let salt = 64 + (g * 8 + c) as u64;
            let stream: Vec<f64> = (0..LEN).map(|i| element(salt, i)).collect();

            let mut original = live_cascade_of(guard, confirm);
            let mut cut = None;
            for (i, &value) in stream.iter().enumerate() {
                original.add_element(value);
                if original.is_escalated() {
                    cut = Some(i + 1);
                    break;
                }
            }
            // Earlier escalations may have been confirmed instantly during
            // warm-start; what matters here is that *this* cut lands with
            // the confirmer live and the drift still unconfirmed.
            let cut = cut.unwrap_or_else(|| {
                panic!("{guard}→{confirm}: the guard never escalated on the jump")
            });

            let state = original
                .snapshot_state()
                .expect("cascades are snapshot-capable");
            let mut restored = live_cascade_of(guard, confirm);
            restored
                .restore_state(&state)
                .expect("mid-escalation snapshot restores");
            assert!(
                restored.is_escalated(),
                "{guard}→{confirm}: the live confirmer must survive the round-trip"
            );

            let mut replica = live_cascade_of(guard, confirm);
            for &value in &stream[..cut] {
                replica.add_element(value);
            }
            for (i, &value) in stream[cut..].iter().enumerate() {
                assert_eq!(
                    restored.add_element(value),
                    replica.add_element(value),
                    "{guard}→{confirm}: status diverged at element {}",
                    cut + i
                );
            }
            assert_eq!(
                restored.snapshot_state(),
                replica.snapshot_state(),
                "{guard}→{confirm}: final state must be bit-identical"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Engine level: composites survive checkpoints, WAL replay and hibernation
// ---------------------------------------------------------------------------

/// A fleet mixing cascades (representative guard/confirmer pairs) and a
/// voting ensemble — registered purely through spec strings, the canonical
/// path.
fn fleet_specs() -> Vec<(u64, DetectorSpec)> {
    [
        "cascade:guard=ddm,confirm=optwin:w_max=600",
        "cascade:guard=ecdd,confirm=adwin,replay=512,cooldown=64",
        "cascade:guard=page_hinkley,confirm=[kswin:window_size=120,stat_size=25]",
        "cascade:guard=stepd,confirm=eddm,replay=64",
        "ensemble:vote=2,members=[ddm|ecdd|page_hinkley]",
    ]
    .iter()
    .enumerate()
    .map(|(stream, text)| (stream as u64, text.parse().expect("valid composite spec")))
    .collect()
}

fn build_composite_fleet(
    checkpoint: Option<&Path>,
    hibernation: Option<HibernationPolicy>,
) -> (EngineHandle, Arc<MemorySink>) {
    let sink = Arc::new(MemorySink::new());
    let mut builder = EngineBuilder::new()
        .shards(3)
        .sink(Arc::clone(&sink) as Arc<dyn EventSink>);
    if let Some(dir) = checkpoint {
        builder = builder.checkpoint(dir, optwin::CheckpointPolicy::every_flushes(1));
    }
    if let Some(policy) = hibernation {
        builder = builder.hibernation(policy);
    }
    for (stream, spec) in fleet_specs() {
        builder = builder.stream_spec(stream, spec);
    }
    (builder.build().expect("valid engine"), sink)
}

/// Feeds `from..to` to every fleet stream in 250-element chunks with a
/// flush barrier after each — under `every_flushes(1)` that is one delta
/// checkpoint (and, under the forced policy, one hibernation sweep) per
/// chunk, several of them landing mid-escalation.
fn feed_flushing(handle: &EngineHandle, from: usize, to: usize) {
    let streams = fleet_specs().len() as u64;
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
        handle.flush().expect("no ingestion errors");
    }
}

fn canonical(mut events: Vec<DriftEvent>) -> Vec<DriftEvent> {
    events.sort_unstable_by_key(|e| (e.stream, e.seq));
    events
}

/// The uninterrupted reference: every event of the full run.
fn reference_events() -> Vec<DriftEvent> {
    let (handle, sink) = build_composite_fleet(None, None);
    feed_flushing(&handle, 0, LEN);
    let events = canonical(sink.drain());
    handle.shutdown().expect("clean shutdown");
    events
}

/// Crash-style recovery: the composite fleet checkpoints up to 1,750
/// elements (mid-escalation for the drift at 1,500), the 1,750..2,000
/// window reaches only the write-ahead log, and the process stops without
/// a final checkpoint. Recovery replays base → deltas → WAL and the resumed
/// fleet's events are byte-identical to the uninterrupted reference.
#[test]
fn composite_fleet_recovers_from_checkpoint_mid_escalation() {
    const COVERED: usize = 1_750;
    const WAL_TAIL: usize = 2_000;
    let dir = std::env::temp_dir().join(format!("optwin-composite-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let (handle, _sink) = build_composite_fleet(Some(&dir), None);
    feed_flushing(&handle, 0, COVERED);
    let mut tail = Vec::new();
    for stream in 0..fleet_specs().len() as u64 {
        for i in COVERED..WAL_TAIL {
            tail.push((stream, element(stream, i)));
        }
    }
    handle.submit(&tail).expect("engine running");
    let _ = handle.stats().expect("engine running");
    handle.shutdown().expect("clean shutdown");

    let sink = Arc::new(MemorySink::new());
    let recovered = EngineBuilder::new()
        .shards(3)
        .sink(Arc::clone(&sink) as Arc<dyn EventSink>)
        .recover_from_dir(&dir)
        .expect("recoverable directory")
        .build()
        .expect("valid engine");
    feed_flushing(&recovered, WAL_TAIL, LEN);
    let events = canonical(sink.drain());
    recovered.shutdown().expect("clean shutdown");

    let expected: Vec<DriftEvent> = reference_events()
        .into_iter()
        .filter(|e| e.seq as usize >= COVERED)
        .collect();
    assert!(
        !expected.is_empty(),
        "the fleet must confirm drifts after the checkpoint coverage"
    );
    assert_eq!(
        events, expected,
        "composite recovery must resume bit-exactly"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Forced hibernation (`cold_after_flushes(0)`) compresses every composite
/// — replay ring, live confirmer, latched ensemble votes and all — at
/// every flush barrier and rehydrates it on the next record. The fleet's
/// events must stay byte-identical to a never-hibernated run.
#[test]
fn composite_fleet_survives_forced_hibernation() {
    let (handle, sink) =
        build_composite_fleet(None, Some(HibernationPolicy::cold_after_flushes(0)));
    feed_flushing(&handle, 0, LEN);
    let stats = handle.stats().expect("engine running");
    assert!(
        stats.rehydrations() >= fleet_specs().len() as u64,
        "the forced policy must have hibernated and rehydrated the fleet"
    );
    let events = canonical(sink.drain());
    handle.shutdown().expect("clean shutdown");
    assert_eq!(
        events,
        reference_events(),
        "hibernating composites mid-escalation must not change any decision"
    );
}

/// Satellite of the memory audit: the engine's resident-byte accounting
/// must charge a composite its full cost. A dormant confirmer is free, but
/// the replay ring that would warm-start it is not — a cascade with a
/// 65,536-element ring must show up as ≥ 512 KiB in both the per-stream
/// report and the fleet aggregate, guard and outer struct on top.
#[test]
fn engine_memory_audit_counts_composite_replay_ring() {
    const RING: usize = 65_536;
    let spec: DetectorSpec = format!("cascade:guard=ddm,confirm=[optwin:w_max=100],replay={RING}")
        .parse()
        .expect("valid composite spec");
    let sink = Arc::new(MemorySink::new());
    let handle = EngineBuilder::new()
        .shards(1)
        .sink(Arc::clone(&sink) as Arc<dyn EventSink>)
        .stream_spec(7, spec)
        .build()
        .expect("valid engine");

    // Mostly-stable data, enough of it to fill the ring.
    let records: Vec<(u64, f64)> = (0..RING + 4_096)
        .map(|i| (7, element(9_999, i % DRIFT_AT)))
        .collect();
    handle.submit(&records).expect("engine running");
    handle.flush().expect("no ingestion errors");

    let floor = RING * std::mem::size_of::<f64>();
    let stats = handle.stats().expect("engine running");
    assert!(
        stats.resident_bytes() >= floor,
        "fleet audit must include the replay ring: {} < {floor}",
        stats.resident_bytes()
    );
    let snapshot = &handle.stream_snapshots().expect("engine running")[0];
    assert!(
        snapshot.mem_bytes >= floor,
        "per-stream audit must include the replay ring: {} < {floor}",
        snapshot.mem_bytes
    );
    handle.shutdown().expect("clean shutdown");
}
