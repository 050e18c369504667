//! Fleet memory audit: the hibernation tier at **million-stream** scale.
//!
//! Builds a mostly-cold fleet with a Zipf-style hot set — all 8 detector
//! kinds tiled round-robin, fed in waves so each wave's detectors hibernate
//! (policy `cold_after_flushes = 1`) before the next wave materializes.
//! Peak resident memory therefore stays near `wave_size` live detectors
//! plus the accumulated compressed blobs, which is what makes the
//! million-stream default possible at all: the same fleet held fully live
//! would need ~25 GiB of OPTWIN windows alone.
//!
//! Reported figures:
//!
//! * **Resident bytes per hibernated stream** vs the measured all-live
//!   footprint of an identically-specced reference fleet. The bench
//!   *asserts* the paper-level acceptance bar — hibernated streams must
//!   cost at most **10 %** of their live footprint — so a regression fails
//!   the run, not just a dashboard.
//! * **Rehydration latency**, two ways: per detector kind at the detector
//!   level (`DetectorSpec::build` + `restore_state` from the captured
//!   binary state — the exact work a shard does on wake), and end-to-end
//!   at the engine level (submit one record to a sleeping stream + flush).
//! * **`stats()` latency** on the full fleet, with the fleet's hibernated
//!   blob bytes attached as the throughput figure so
//!   `BENCH_fleet_memory.json` pins the byte count alongside the timings.
//!
//! Scale down via `OPTWIN_FLEET_BENCH_STREAMS` (CI smoke uses 100 000).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use optwin_baselines::DetectorSpec;
use optwin_engine::{EngineBuilder, EngineHandle, HibernationPolicy};

fn env_or(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

fn n_streams() -> u64 {
    env_or("OPTWIN_FLEET_BENCH_STREAMS", 1_000_000) as u64
}

/// Streams per hibernation wave: the peak number of live detectors.
const WAVE: u64 = 8_192;
/// Records each cold stream sees before going to sleep forever.
const ELEMENTS_PER_STREAM: usize = 24;
/// The hot set: streams fed on every wave, hence (mostly) resident.
const HOT: u64 = 1_024;

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

/// Binary error indicator — every shipped kind accepts it, and it is what
/// the paper's detectors monitor in production.
fn element(stream: u64, i: usize) -> f64 {
    f64::from(unit(stream.wrapping_mul(0x00C0_FFEE) ^ i as u64) < 0.07)
}

/// Feeds `streams.clone()` one wave of [`ELEMENTS_PER_STREAM`] records each,
/// then passes two flush barriers so the wave hibernates (first barrier
/// resets idleness, second finds the streams idle and compresses them).
fn feed_wave(handle: &EngineHandle, streams: impl Iterator<Item = u64> + Clone) {
    let mut records = Vec::new();
    for i in 0..ELEMENTS_PER_STREAM {
        for stream in streams.clone() {
            records.push((stream, element(stream, i)));
        }
    }
    handle.submit(&records).expect("engine running");
    handle.flush().expect("no ingestion errors");
    handle.flush().expect("no ingestion errors");
}

/// The mostly-cold fleet: every stream spec-registered up front, fed and
/// hibernated wave by wave, with the hot set re-fed on every wave.
fn build_cold_fleet(streams: u64) -> EngineHandle {
    let mut builder = EngineBuilder::new()
        .shards(8)
        .queue_capacity(512 * 1_024)
        .hibernation(HibernationPolicy::cold_after_flushes(1));
    for stream in 0..streams {
        builder = builder.stream_spec(stream, spec_of(stream));
    }
    let handle = builder.build().expect("valid engine");
    let mut wave_start = HOT;
    while wave_start < streams {
        let wave_end = (wave_start + WAVE).min(streams);
        feed_wave(&handle, (0..HOT).chain(wave_start..wave_end));
        wave_start = wave_end;
    }
    handle
}

/// Mean live bytes per stream of an identically-specced all-live fleet —
/// the baseline the hibernated figure is measured against.
fn live_bytes_per_stream() -> usize {
    let mut builder = EngineBuilder::new().shards(4);
    for stream in 0..HOT {
        builder = builder.stream_spec(stream, spec_of(stream));
    }
    let handle = builder.build().expect("valid engine");
    feed_wave(&handle, 0..HOT);
    let stats = handle.stats().expect("engine running");
    assert_eq!(stats.hibernated_streams(), 0, "no policy, nothing sleeps");
    let per_stream = stats.resident_bytes() / stats.streams;
    handle.shutdown().expect("clean shutdown");
    per_stream
}

fn bench_fleet_memory(c: &mut Criterion) {
    let streams = n_streams();
    let live_per_stream = live_bytes_per_stream();

    let handle = build_cold_fleet(streams);
    let stats = handle.stats().expect("engine running");
    let hibernated = stats.hibernated_streams();
    assert!(
        hibernated as u64 >= streams - 2 * HOT,
        "the fleet must be mostly cold ({hibernated} of {streams} hibernated)"
    );
    let hibernated_per_stream = stats.hibernated_bytes() / hibernated;
    println!(
        "fleet of {streams} streams: {hibernated} hibernated, \
         resident = {} MiB total, live reference = {live_per_stream} B/stream, \
         hibernated = {hibernated_per_stream} B/stream ({:.2}% of live)",
        stats.resident_bytes() / (1024 * 1024),
        hibernated_per_stream as f64 / live_per_stream as f64 * 100.0
    );
    // The acceptance bar: a sleeping stream costs at most 10% of a live one.
    assert!(
        hibernated_per_stream * 10 <= live_per_stream,
        "hibernated streams cost {hibernated_per_stream} B/stream, \
         more than 10% of the {live_per_stream} B/stream live footprint"
    );

    // Detector-level rehydration: exactly the work a shard does on wake —
    // rebuild from spec, restore the captured binary state.
    let mut rehydrate = c.benchmark_group("rehydration_latency");
    for spec in DetectorSpec::all_defaults() {
        let mut detector = spec.build().expect("default specs are valid");
        for i in 0..ELEMENTS_PER_STREAM {
            detector.add_element(element(spec.id().len() as u64, i));
        }
        let blob = detector
            .snapshot_state()
            .expect("all shipped detectors snapshot");
        rehydrate.sample_size(20);
        rehydrate.bench_function(detector.name(), |b| {
            b.iter(|| {
                let mut woken = spec.build().expect("default specs are valid");
                woken.restore_state(&blob).expect("own state restores");
                black_box(woken.elements_seen())
            });
        });
    }
    rehydrate.finish();

    let mut fleet = c.benchmark_group(format!("fleet_memory_{streams}_streams"));
    fleet.sample_size(10);

    // Engine-level wake: one record to a stream that is asleep, through
    // submit + flush (each iteration wakes a fresh cold stream).
    let mut next_cold = HOT;
    fleet.bench_function("wake_one_stream", |b| {
        b.iter(|| {
            let stream = next_cold;
            next_cold += 1;
            assert!(next_cold < streams, "ran out of cold streams to wake");
            handle.submit(&[(stream, 1.0)]).expect("engine running");
            handle.flush().expect("no ingestion errors");
            black_box(stream)
        });
    });

    // Stats on the full fleet; the throughput figure pins the fleet's
    // compressed blob bytes into BENCH_fleet_memory.json.
    fleet.throughput(Throughput::Bytes(stats.hibernated_bytes() as u64));
    fleet.bench_function("stats_query", |b| {
        b.iter(|| {
            let stats = handle.stats().expect("engine running");
            black_box(stats.hibernated_streams())
        });
    });
    fleet.finish();

    handle.shutdown().expect("clean shutdown");
}

criterion_group!(benches, bench_fleet_memory);
criterion_main!(benches);
