//! Cost of building OPTWIN's pre-computed cut tables (§3.4: the ν, t_ppf and
//! f_ppf values are computed once per window length, not per element), an
//! ablation over the robustness parameter ρ, the paper fleet's set-up (a
//! fresh registry serving `w_max` 10 000 and 25 000), and an engine's cold
//! start on the paper-default OPTWIN spec.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use optwin_baselines::DetectorSpec;
use optwin_core::{CutTable, CutTableRegistry, OptwinConfig};
use optwin_engine::EngineBuilder;

fn bench_cut_tables(c: &mut Criterion) {
    let mut group = c.benchmark_group("cut_table_precompute");
    group.sample_size(10);
    for (rho, w_max) in [
        (0.5, 1_000usize),
        (0.5, 4_000),
        (0.1, 4_000),
        (1.0, 4_000),
        (0.5, 25_000),
    ] {
        let label = format!("rho={rho}_wmax={w_max}");
        group.bench_with_input(
            BenchmarkId::from_parameter(label),
            &(rho, w_max),
            |b, &(rho, w_max)| {
                let config = OptwinConfig::builder()
                    .robustness(rho)
                    .max_window(w_max)
                    .build()
                    .unwrap();
                b.iter(|| CutTable::new(&config).unwrap().w_max());
            },
        );
    }
    group.finish();

    // The `optwin-paper` fleet's cold start: two paper-default
    // configurations that differ only in w_max, each fetched from a fresh
    // registry (the 25k request grows the 10k table).
    let mut group = c.benchmark_group("cut_table_registry");
    group.sample_size(10);
    let configs: Vec<OptwinConfig> = [10_000, 25_000]
        .into_iter()
        .map(|w_max| OptwinConfig::builder().max_window(w_max).build().unwrap())
        .collect();
    group.bench_function("wmax=10000+25000", |b| {
        b.iter(|| {
            let registry = CutTableRegistry::new();
            for config in &configs {
                registry.get_or_build(config).unwrap();
            }
            registry.len()
        });
    });
    group.finish();

    // Single-entry lookup cost: a bounds-checked index into the complete
    // table (the per-element cost inside the detector).
    let mut group = c.benchmark_group("cut_table_lookup");
    let config = OptwinConfig::builder()
        .robustness(0.5)
        .max_window(4_000)
        .build()
        .unwrap();
    let table = CutTable::new(&config).unwrap();
    group.bench_function("cached_entry", |b| {
        let mut w = 30usize;
        b.iter(|| {
            w = if w >= 4_000 { 30 } else { w + 1 };
            table.entry(w).unwrap()
        });
    });
    group.finish();

    // What a plain engine user waits for in a fresh process: from an empty
    // process-wide registry, build a 2-shard engine with one stream on the
    // paper-default OPTWIN spec (`build` fills its 25k table), feed it
    // 1 000 records, flush and shut down.
    let mut group = c.benchmark_group("cold_start");
    group.sample_size(10);
    let spec: DetectorSpec = "optwin".parse().expect("valid spec");
    let records: Vec<(u64, f64)> = (0..1_000)
        .map(|i| (0, f64::from(u8::from(i % 10 == 0))))
        .collect();
    group.bench_function("engine_optwin_1000_records", |b| {
        b.iter(|| {
            CutTableRegistry::global().clear();
            let engine = EngineBuilder::new()
                .shards(2)
                .stream_spec(0, spec.clone())
                .build()
                .expect("valid engine");
            engine.submit(&records).expect("engine running");
            engine.flush().expect("no ingestion errors");
            engine.shutdown().expect("clean shutdown");
        });
    });
    group.finish();
}

criterion_group!(benches, bench_cut_tables);
criterion_main!(benches);
