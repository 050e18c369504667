//! A **million-stream** fleet on one machine via the hibernation tier.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example million_stream_fleet
//! # or scaled down for a quick look:
//! OPTWIN_FLEET_STREAMS=50000 cargo run --release --example million_stream_fleet
//! ```
//!
//! Production fleets are Zipf-shaped: a small hot set of streams produces
//! records constantly while the overwhelming majority sit idle for hours.
//! Held fully live, a million registered streams would need tens of GiB of
//! detector state (OPTWIN alone buffers its whole window); with
//! [`EngineBuilder::hibernation`] the shard workers compress every stream
//! that stays idle across flush barriers down to its compact binary state
//! blob — a few hundred bytes — and rebuild the detector **bit-exactly**
//! the moment its next record arrives. The fleet below:
//!
//! * registers 1 000 000 streams across all eight detector kinds,
//! * feeds them in waves (each wave hibernates behind the next, so peak
//!   resident memory is one wave of live detectors, not the whole fleet),
//! * keeps a 1 024-stream hot set live throughout,
//! * prints the engine's memory accounting ([`EngineStats`] carries
//!   resident/hibernated bytes per shard),
//! * wakes one cold stream with a single record — transparent rehydration,
//! * snapshots the sleeping fleet and restores it **without waking it**:
//!   hibernated streams embed their blob verbatim in the v4 snapshot, and a
//!   hibernating builder re-creates them still asleep,
//! * attaches **continuous durability** (wire v5) to a sub-fleet: delta
//!   checkpoints plus a write-ahead log, then kills the fleet without a
//!   final checkpoint and recovers it from disk — base → overlays → WAL
//!   tail — with every record accounted for.

use std::time::Instant;

use optwin::engine::{EngineBuilder, EngineHandle, EngineSnapshot};
use optwin::{CheckpointPolicy, DetectorSpec, HibernationPolicy};

/// The hot set: streams fed on every wave, hence resident.
const HOT: u64 = 1_024;
/// Streams per hibernation wave — the peak count of live cold detectors.
const WAVE: u64 = 8_192;
/// Records each cold stream sees before falling asleep.
const ELEMENTS_PER_STREAM: usize = 24;

fn n_streams() -> u64 {
    std::env::var("OPTWIN_FLEET_STREAMS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 2 * HOT)
        .unwrap_or(1_000_000)
}

/// All eight shipped kinds, tiled round-robin across the fleet.
fn spec_of(stream: u64) -> DetectorSpec {
    let kinds = DetectorSpec::all_defaults();
    kinds[(stream % kinds.len() as u64) as usize].clone()
}

/// SplitMix64 jitter in [0, 1).
fn unit(i: u64) -> f64 {
    let mut x = i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Binary error indicators — the paper's production input; every kind
/// accepts them.
fn element(stream: u64, i: usize) -> f64 {
    f64::from(unit(stream.wrapping_mul(0x00C0_FFEE) ^ i as u64) < 0.07)
}

/// One wave: a batch of records for the given streams, then two flush
/// barriers — the first resets idleness for the streams that ingested, the
/// second finds them idle and compresses them (`cold_after_flushes = 1`).
fn feed_wave(
    handle: &EngineHandle,
    streams: impl Iterator<Item = u64> + Clone,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut records = Vec::new();
    for i in 0..ELEMENTS_PER_STREAM {
        for stream in streams.clone() {
            records.push((stream, element(stream, i)));
        }
    }
    handle.submit(&records)?;
    handle.flush()?;
    handle.flush()?;
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let streams = n_streams();
    println!(
        "registering {streams} streams across {} detector kinds \
         (hibernation: cold after 1 idle flush)...",
        DetectorSpec::all_defaults().len()
    );

    let started = Instant::now();
    let mut builder = EngineBuilder::new()
        .shards(8)
        .queue_capacity(512 * 1_024)
        .hibernation(HibernationPolicy::cold_after_flushes(1));
    for stream in 0..streams {
        builder = builder.stream_spec(stream, spec_of(stream));
    }
    let handle = builder.build()?;
    println!("registered in {:.2?}", started.elapsed());

    // Feed the fleet in waves: the hot set rides along in every wave and
    // stays warm; each cold wave hibernates while the next one is live, so
    // resident memory never approaches the all-live footprint.
    let feeding = Instant::now();
    let mut wave_start = HOT;
    while wave_start < streams {
        let wave_end = (wave_start + WAVE).min(streams);
        feed_wave(&handle, (0..HOT).chain(wave_start..wave_end))?;
        wave_start = wave_end;
    }
    let stats = handle.stats()?;
    println!(
        "fed {} records in {:.2?}; {} of {} streams hibernated",
        stats.elements,
        feeding.elapsed(),
        stats.hibernated_streams(),
        stats.streams,
    );
    let hibernated_per_stream = stats.hibernated_bytes() / stats.hibernated_streams().max(1);
    println!(
        "memory: {} MiB resident total, {hibernated_per_stream} B per hibernated stream \
         ({} MiB of compressed blobs)\n{stats}",
        stats.resident_bytes() / (1024 * 1024),
        stats.hibernated_bytes() / (1024 * 1024),
    );

    // Transparent rehydration: one record to a cold stream rebuilds its
    // detector from the blob — bit-exact with one that never slept — and
    // the engine counts the wake.
    let cold = streams - 1;
    handle.submit(&[(cold, 1.0)])?;
    handle.flush()?;
    let stats = handle.stats()?;
    println!(
        "woke stream {cold} with one record: {} rehydrations, \
         {} streams hibernated",
        stats.rehydrations(),
        stats.hibernated_streams(),
    );

    // Persistence without waking: the sleeping fleet snapshots its blobs
    // verbatim (still wire v4) and a hibernating builder restores every
    // sleeper still asleep — no detector is materialized until its next
    // record.
    let snapshotting = Instant::now();
    let snapshot = handle.snapshot()?;
    handle.shutdown()?;
    let json = snapshot.to_json();
    println!(
        "snapshotted the sleeping fleet in {:.2?}: wire v{}, {} MiB JSON, \
         {} hibernated entries",
        snapshotting.elapsed(),
        snapshot.version,
        json.len() / (1024 * 1024),
        snapshot.streams.iter().filter(|s| s.hibernated).count(),
    );

    let restoring = Instant::now();
    let restored = EngineBuilder::new()
        .shards(8)
        .hibernation(HibernationPolicy::cold_after_flushes(1))
        .restore(EngineSnapshot::from_json(&json)?)
        .build()?;
    let stats = restored.stats()?;
    println!(
        "restored in {:.2?}: {} streams, {} still asleep, {} MiB resident",
        restoring.elapsed(),
        stats.streams,
        stats.hibernated_streams(),
        stats.resident_bytes() / (1024 * 1024),
    );
    restored.shutdown()?;

    // Continuous durability on a scaled sub-fleet: every flush barrier
    // emits a delta overlay with only the streams that changed, and every
    // ingested batch hits the write-ahead log first. We then "crash" the
    // fleet — stop it without taking a final checkpoint, stranding the last
    // batches in the WAL tail — and recover from the directory alone.
    let durable_streams = 2 * HOT;
    let checkpoint_dir = std::env::temp_dir().join(format!(
        "optwin-million-stream-checkpoint-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&checkpoint_dir);
    println!(
        "\nattaching durability to a {durable_streams}-stream sub-fleet \
         (checkpoints in {})...",
        checkpoint_dir.display()
    );
    let mut builder = EngineBuilder::new()
        .shards(4)
        .checkpoint(&checkpoint_dir, CheckpointPolicy::every_flushes(1));
    for stream in 0..durable_streams {
        builder = builder.stream_spec(stream, spec_of(stream));
    }
    let durable = builder.build()?;
    for _ in 0..4 {
        feed_wave(&durable, 0..durable_streams)?;
    }
    let report = durable.checkpoint()?;
    println!("last checkpoint: {report}");

    // The crash window: records the WAL holds but no checkpoint covers.
    let tail: Vec<(u64, f64)> = (0..durable_streams)
        .map(|stream| (stream, element(stream, usize::MAX / 2)))
        .collect();
    durable.submit(&tail)?;
    let before = durable.stats()?;
    durable.shutdown()?; // no final checkpoint — the tail lives only in the WAL

    let recovering = Instant::now();
    let recovered = EngineBuilder::new()
        .shards(4)
        .recover_from_dir(&checkpoint_dir)?
        .build()?;
    let stats = recovered.stats()?;
    println!(
        "recovered in {:.2?}: {} of {} records survived the crash \
         (base + {} delta overlays + WAL tail)",
        recovering.elapsed(),
        stats.elements,
        before.elements,
        report.generation,
    );
    assert_eq!(stats.elements, before.elements, "no record may be lost");
    recovered.shutdown()?;
    let _ = std::fs::remove_dir_all(&checkpoint_dir);
    Ok(())
}
