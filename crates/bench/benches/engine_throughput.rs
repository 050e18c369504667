//! Ingestion throughput of the four engine API tiers:
//!
//! 1. **scalar** — one `add_element` call per element (the seed's only
//!    interface),
//! 2. **batched** — `add_batch` over the whole stream (amortized cut-table
//!    prefetch, no per-element dispatch),
//! 3. **sharded** — an [`EngineHandle`] ingesting interleaved multi-stream
//!    record batches (batched per stream **and** fanned out across shards),
//!    with `submit` + a `flush` barrier + a [`MemorySink`] drain per batch,
//! 4. **pipelined** — the service API: [`EngineHandle::submit`] enqueues
//!    every batch onto the bounded per-shard queues without waiting, and a
//!    single shutdown barrier drains the engine at the end. The submitting
//!    thread never blocks on detection work, so this tier measures the
//!    steady-state serving shape. Detectors are configured through the
//!    declarative [`DetectorSpec`] path ([`EngineBuilder::default_spec`]),
//!    which is the canonical construction route — so this tier also keeps
//!    the spec layer's overhead (none beyond construction) honest.
//!
//! Elements/second is the headline number; on a multi-core host the sharded
//! and pipelined tiers additionally scale with the shard count.
//!
//! A fifth tier measures the **skewed-load** serving shape: Zipf-distributed
//! traffic over 64 streams (a handful of hot streams carry most of the
//! records — the pattern static `id % shards` placement handles worst),
//! with and without load-aware rebalancing at flush barriers. On a
//! multi-core host the rebalanced variant un-skews the hot shard; results
//! are bit-identical either way (the migration preserves per-stream order).

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use optwin_baselines::DetectorSpec;
use optwin_core::{DetectorExt, DriftDetector, Optwin, OptwinConfig};
use optwin_engine::{EngineBuilder, EngineHandle, EventSink, MemorySink, RebalancePolicy};
use optwin_stream::{DriftKind, DriftSchedule, ErrorStream, ErrorStreamConfig};

const STREAM_LEN: usize = 20_000;
const N_STREAMS: u64 = 32;

fn stationary_stream(len: usize, seed: u64) -> Vec<f64> {
    let schedule = DriftSchedule::stationary(len);
    ErrorStream::new(ErrorStreamConfig::binary(DriftKind::Sudden, schedule), seed).collect_all()
}

fn optwin(w_max: usize) -> Optwin {
    Optwin::with_shared_table(
        OptwinConfig::builder()
            .robustness(0.5)
            .max_window(w_max)
            .build()
            .expect("valid config"),
    )
    .expect("valid config")
}

fn bench_scalar_vs_batched(c: &mut Criterion) {
    let stream = stationary_stream(STREAM_LEN, 99);
    let mut group = c.benchmark_group("optwin_ingest_20k");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.sample_size(10);

    group.bench_function("scalar_add_element", |b| {
        b.iter(|| {
            let mut d = optwin(4_000);
            for &x in &stream {
                black_box(d.add_element(x));
            }
            d.drifts_detected()
        });
    });
    group.bench_function("batched_add_batch", |b| {
        b.iter(|| {
            let mut d = optwin(4_000);
            black_box(d.add_batch(&stream)).drifts()
        });
    });
    group.bench_function("batched_scan", |b| {
        b.iter(|| {
            let mut d = optwin(4_000);
            black_box(d.scan(&stream)).len()
        });
    });
    group.finish();
}

/// The interleaved multi-stream record sequence shared by the sharded and
/// pipelined tiers.
fn interleaved_records() -> Vec<(u64, f64)> {
    let per_stream: Vec<Vec<f64>> = (0..N_STREAMS)
        .map(|s| stationary_stream(STREAM_LEN / 4, 100 + s))
        .collect();
    let mut records: Vec<(u64, f64)> = Vec::new();
    for chunk in 0..(STREAM_LEN / 4) / 500 {
        for (s, values) in per_stream.iter().enumerate() {
            for &v in &values[chunk * 500..(chunk + 1) * 500] {
                records.push((s as u64, v));
            }
        }
    }
    records
}

fn bench_sharded_engine(c: &mut Criterion) {
    let records = interleaved_records();
    let mut group = c.benchmark_group("engine_ingest_32_streams");
    group.throughput(Throughput::Elements(records.len() as u64));
    group.sample_size(10);
    for shards in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let sink = Arc::new(MemorySink::new());
                    let handle = EngineBuilder::new()
                        .shards(shards)
                        .factory(|_| Box::new(optwin(2_000)) as Box<dyn DriftDetector + Send>)
                        .sink(Arc::clone(&sink) as Arc<dyn EventSink>)
                        .build()
                        .expect("valid engine");
                    let mut events = 0usize;
                    for batch in records.chunks(N_STREAMS as usize * 500) {
                        handle.submit(batch).expect("engine running");
                        handle.flush().expect("factory-backed");
                        events += sink.drain().len();
                    }
                    handle.shutdown().expect("clean drain");
                    black_box(events)
                });
            },
        );
    }
    group.finish();
}

fn bench_pipelined_engine(c: &mut Criterion) {
    let records = interleaved_records();
    // The same OPTWIN configuration as the closure tiers, expressed
    // declaratively: every stream auto-registers from this spec on first
    // sight (and the engine's snapshots become self-describing for free).
    let spec: DetectorSpec = "optwin:rho=0.5,w_max=2000"
        .parse()
        .expect("valid spec string");

    let mut group = c.benchmark_group("engine_pipelined_32_streams");
    group.throughput(Throughput::Elements(records.len() as u64));
    group.sample_size(10);
    for shards in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let sink = Arc::new(MemorySink::new());
                    let handle: EngineHandle = EngineBuilder::new()
                        .shards(shards)
                        .queue_capacity(64 * 1_024)
                        .default_spec(spec.clone())
                        .sink(Arc::clone(&sink) as Arc<dyn EventSink>)
                        .build()
                        .expect("valid engine");
                    // Fire-and-forget submission; the only barrier is the
                    // final shutdown drain.
                    for batch in records.chunks(N_STREAMS as usize * 500) {
                        handle.submit(batch).expect("engine running");
                    }
                    handle.shutdown().expect("clean drain");
                    black_box(sink.drain().len())
                });
            },
        );
    }
    group.finish();
}

/// SplitMix64 step, for deterministic Zipf sampling without a rand dep.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `total` records whose stream ids follow a Zipf(`exponent`) law over
/// `n_streams` ranks (stream 0 hottest), values a small stationary noise.
fn zipf_records(n_streams: u64, total: usize, exponent: f64, seed: u64) -> Vec<(u64, f64)> {
    let weights: Vec<f64> = (0..n_streams)
        .map(|rank| 1.0 / ((rank + 1) as f64).powf(exponent))
        .collect();
    let sum: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let cdf: Vec<f64> = weights
        .iter()
        .map(|w| {
            acc += w / sum;
            acc
        })
        .collect();
    let mut state = seed;
    (0..total)
        .map(|_| {
            let u = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            let stream = (cdf.partition_point(|&c| c < u) as u64).min(n_streams - 1);
            let value = 0.05 + 0.02 * ((splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64);
            (stream, value)
        })
        .collect()
}

fn bench_skewed_zipf_engine(c: &mut Criterion) {
    const ZIPF_STREAMS: u64 = 64;
    const ZIPF_RECORDS: usize = 160_000;
    // s = 1.1: the hottest stream alone carries ~20 % of the traffic, the
    // top 8 streams about half — with modulo placement, shard 0 gets the
    // hottest stream *and* its share of the cold tail.
    let records = zipf_records(ZIPF_STREAMS, ZIPF_RECORDS, 1.1, 42);
    let spec: DetectorSpec = "optwin:rho=0.5,w_max=2000".parse().expect("valid spec");

    let mut group = c.benchmark_group("engine_skewed_zipf_64_streams");
    group.throughput(Throughput::Elements(records.len() as u64));
    group.sample_size(10);
    for &(label, rebalance) in &[("static", false), ("rebalanced", true)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &rebalance, {
            let records = &records;
            let spec = &spec;
            move |b, &rebalance| {
                b.iter(|| {
                    let sink = Arc::new(MemorySink::new());
                    let handle: EngineHandle = EngineBuilder::new()
                        .shards(4)
                        .queue_capacity(64 * 1_024)
                        .default_spec(spec.clone())
                        .sink(Arc::clone(&sink) as Arc<dyn EventSink>)
                        .build()
                        .expect("valid engine");
                    for (i, batch) in records.chunks(16_000).enumerate() {
                        handle.submit(batch).expect("engine running");
                        // Rebalance at a flush barrier every few batches,
                        // exactly as a serving deployment would.
                        if rebalance && i % 4 == 3 {
                            handle.flush().expect("no ingestion errors");
                            handle
                                .rebalance(RebalancePolicy::Records)
                                .expect("engine running");
                        }
                    }
                    handle.shutdown().expect("clean drain");
                    black_box(sink.drain().len())
                });
            }
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_scalar_vs_batched,
    bench_sharded_engine,
    bench_pipelined_engine,
    bench_skewed_zipf_engine
);
criterion_main!(benches);
