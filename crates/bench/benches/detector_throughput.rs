//! Per-element detector throughput (the §3.4 runtime claim).
//!
//! The paper reports per-iteration costs of ~1e-5 s for OPTWIN and ~6e-6 s
//! for ADWIN; the absolute numbers depend on the host, but the *shape* —
//! every detector ingests elements in the microsecond range — is what this
//! benchmark verifies. The flat-cost-in-`w_max` half of the claim is
//! measured by the `perfbench` workspace (`detector.solo_ns_per_rec_w25k` /
//! `_w10k`), which times ingest separately from cut-table precompute.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use optwin_baselines::{Adwin, Ddm, Ecdd, Eddm, Kswin, PageHinkley, Stepd};
use optwin_core::{DriftDetector, Optwin, OptwinConfig};
use optwin_stream::{DriftKind, DriftSchedule, ErrorStream, ErrorStreamConfig};

/// A stationary binary error stream (no drift), the worst case for OPTWIN
/// because the window grows to `w_max`.
fn stationary_stream(len: usize) -> Vec<f64> {
    let schedule = DriftSchedule::stationary(len);
    ErrorStream::new(ErrorStreamConfig::binary(DriftKind::Sudden, schedule), 99).collect_all()
}

fn bench_detectors(c: &mut Criterion) {
    let stream = stationary_stream(20_000);
    let mut group = c.benchmark_group("detector_ingest_20k_stationary");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.sample_size(10);

    group.bench_function("OPTWIN rho=0.5 (w_max=4k)", |b| {
        b.iter(|| {
            let mut d = Optwin::new(
                OptwinConfig::builder()
                    .robustness(0.5)
                    .max_window(4_000)
                    .build()
                    .unwrap(),
            )
            .unwrap();
            for &x in &stream {
                black_box(d.add_element(x));
            }
        });
    });
    group.bench_function("ADWIN", |b| {
        b.iter(|| {
            let mut d = Adwin::with_defaults();
            for &x in &stream {
                black_box(d.add_element(x));
            }
        });
    });
    group.bench_function("DDM", |b| {
        b.iter(|| {
            let mut d = Ddm::with_defaults();
            for &x in &stream {
                black_box(d.add_element(x));
            }
        });
    });
    group.bench_function("EDDM", |b| {
        b.iter(|| {
            let mut d = Eddm::with_defaults();
            for &x in &stream {
                black_box(d.add_element(x));
            }
        });
    });
    group.bench_function("STEPD", |b| {
        b.iter(|| {
            let mut d = Stepd::with_defaults();
            for &x in &stream {
                black_box(d.add_element(x));
            }
        });
    });
    group.bench_function("ECDD", |b| {
        b.iter(|| {
            let mut d = Ecdd::with_defaults();
            for &x in &stream {
                black_box(d.add_element(x));
            }
        });
    });
    group.bench_function("PageHinkley", |b| {
        b.iter(|| {
            let mut d = PageHinkley::with_defaults();
            for &x in &stream {
                black_box(d.add_element(x));
            }
        });
    });
    group.bench_function("KSWIN", |b| {
        b.iter(|| {
            let mut d = Kswin::with_defaults();
            for &x in &stream {
                black_box(d.add_element(x));
            }
        });
    });
    group.finish();

    // The batch-first hot paths: `add_batch` over the whole stream. OPTWIN
    // shares a process-wide pre-warmed cut table (the engine's construction
    // route), so this tier isolates the per-batch kernel cost rather than the
    // one-off table build the scalar tier above pays every iteration.
    let mut group = c.benchmark_group("detector_ingest_20k_batched");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.sample_size(10);
    group.bench_function("OPTWIN rho=0.5 (w_max=4k) add_batch", |b| {
        b.iter(|| {
            let mut d = Optwin::with_shared_table(
                OptwinConfig::builder()
                    .robustness(0.5)
                    .max_window(4_000)
                    .build()
                    .unwrap(),
            )
            .unwrap();
            black_box(d.add_batch(&stream)).drifts()
        });
    });
    group.bench_function("KSWIN add_batch", |b| {
        b.iter(|| {
            let mut d = Kswin::with_defaults();
            black_box(d.add_batch(&stream)).drifts()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_detectors);
criterion_main!(benches);
