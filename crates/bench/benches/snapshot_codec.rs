//! Snapshot codec cost of the v4 compact binary window encoding — the
//! only layout the engine writes — on a 1 000-stream OPTWIN fleet at the
//! paper's `w_max = 25 000`, the configuration the ROADMAP called out as
//! expensive to checkpoint.
//!
//! Two tiers:
//!
//! * **encode** — `EngineHandle::snapshot()` + `to_json()`: the full
//!   serialize path a checkpoint pays.
//! * **decode** — `EngineSnapshot::from_json` + a self-describing
//!   `EngineBuilder::restore(..).build()`: the full restore path a restart
//!   pays (the spawned engine is shut down inside the iteration).
//!
//! The payload size is printed up front: on binary error streams (the
//! paper's input) the windows bit-pack to ~1/8 byte per element.
//!
//! Fleet size and fill level scale down via `OPTWIN_SNAPSHOT_BENCH_STREAMS`
//! / `OPTWIN_SNAPSHOT_BENCH_ELEMENTS` for small hosts.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use optwin_baselines::DetectorSpec;
use optwin_engine::{EngineBuilder, EngineHandle, EngineSnapshot};

fn env_or(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

fn n_streams() -> u64 {
    env_or("OPTWIN_SNAPSHOT_BENCH_STREAMS", 1_000) as u64
}

fn elements_per_stream() -> usize {
    env_or("OPTWIN_SNAPSHOT_BENCH_ELEMENTS", 2_500)
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

/// Builds the fleet and fills every window: `streams` OPTWIN detectors at
/// `w_max = 25_000`, fed `elements` binary error indicators each.
fn filled_fleet(streams: u64, elements: usize) -> EngineHandle {
    let spec: DetectorSpec = "optwin:rho=0.5,w_max=25000".parse().expect("valid spec");
    let handle = (0..streams)
        .fold(EngineBuilder::new(), |builder, stream| {
            builder.stream_spec(stream, spec.clone())
        })
        .shards(4)
        .queue_capacity(256 * 1_024)
        .build()
        .expect("valid engine");
    let mut records = Vec::with_capacity(streams as usize * 500);
    for start in (0..elements).step_by(500) {
        records.clear();
        for stream in 0..streams {
            for i in start..(start + 500).min(elements) {
                let u = unit(stream.wrapping_mul(0x00C0_FFEE) ^ i as u64);
                records.push((stream, f64::from(u < 0.07)));
            }
        }
        handle.submit(&records).expect("engine running");
    }
    handle.flush().expect("no ingestion errors");
    handle
}

fn bench_snapshot_codec(c: &mut Criterion) {
    let streams = n_streams();
    let elements = elements_per_stream();

    let handle = filled_fleet(streams, elements);
    let json = handle.snapshot().expect("snapshot-capable").to_json();
    println!(
        "binary error streams, {streams} streams x {elements} (w_max=25k): {} KiB",
        json.len() / 1024
    );

    let total_elements = streams * elements as u64;
    let mut encode = c.benchmark_group(format!("snapshot_encode_{streams}_streams"));
    encode.throughput(Throughput::Elements(total_elements));
    encode.sample_size(10);
    encode.bench_function("v4_binary", |b| {
        b.iter(|| {
            let json = handle.snapshot().expect("snapshot-capable").to_json();
            black_box(json.len())
        });
    });
    encode.finish();

    let mut decode = c.benchmark_group(format!("snapshot_decode_{streams}_streams"));
    decode.throughput(Throughput::Elements(total_elements));
    // Restoring a 1k-detector fleet rebuilds a thousand w_max = 25k
    // windows per iteration; keep the sample count low so the whole bench
    // stays short.
    decode.sample_size(3);
    decode.bench_function("v4_binary", |b| {
        b.iter(|| {
            let snapshot = EngineSnapshot::from_json(&json).expect("well-formed JSON");
            let restored = EngineBuilder::new()
                .shards(4)
                .restore(snapshot)
                .build()
                .expect("self-describing snapshot");
            let streams = restored.stats().expect("engine running").streams;
            restored.shutdown().expect("clean shutdown");
            black_box(streams)
        });
    });
    decode.finish();
    handle.shutdown().expect("clean shutdown");
}

criterion_group!(benches, bench_snapshot_codec);
criterion_main!(benches);
