//! Throughput of the stream substrate: synthetic generators, the
//! Naive-Bayes prequential loop that feeds the classification experiments,
//! and the driftbench scenario catalogue.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use optwin_learners::{NaiveBayes, OnlineLearner};
use optwin_stream::generators::{
    Agrawal, AgrawalFunction, RandomRbf, RandomRbfConfig, Stagger, StaggerConcept,
};
use optwin_stream::{InstanceStream, ScenarioKind};

const N: usize = 10_000;

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators_10k_instances");
    group.throughput(Throughput::Elements(N as u64));
    group.sample_size(10);

    group.bench_function("STAGGER", |b| {
        b.iter(|| {
            let mut g = Stagger::new(StaggerConcept::SizeSmallAndColorRed, 1);
            for _ in 0..N {
                black_box(g.next_instance());
            }
        });
    });
    group.bench_function("AGRAWAL", |b| {
        b.iter(|| {
            let mut g = Agrawal::new(AgrawalFunction::F7, 1);
            for _ in 0..N {
                black_box(g.next_instance());
            }
        });
    });
    group.bench_function("RandomRBF", |b| {
        b.iter(|| {
            let mut g = RandomRbf::new(RandomRbfConfig::default(), 1);
            for _ in 0..N {
                black_box(g.next_instance());
            }
        });
    });
    group.finish();

    let mut group = c.benchmark_group("naive_bayes_prequential_10k");
    group.throughput(Throughput::Elements(N as u64));
    group.sample_size(10);
    group.bench_function("AGRAWAL+NB", |b| {
        b.iter(|| {
            let mut g = Agrawal::new(AgrawalFunction::F2, 1);
            let mut nb = NaiveBayes::new(&g.schema(), g.n_classes());
            let mut errors = 0u32;
            for _ in 0..N {
                let inst = g.next_instance();
                if nb.predict(&inst) != inst.label {
                    errors += 1;
                }
                nb.learn(&inst);
            }
            black_box(errors)
        });
    });
    group.finish();
}

/// Generation cost of each driftbench scenario: the fixed cost every
/// driftbench cell pays before the engine sees a record.
fn bench_scenarios(c: &mut Criterion) {
    let mut group = c.benchmark_group("driftbench_scenario_generation_20k");
    group.throughput(Throughput::Elements(20_000));
    group.sample_size(10);
    for scenario in ScenarioKind::all() {
        group.bench_function(scenario.id(), |b| {
            b.iter(|| black_box(scenario.generate(20_000, 42)).values.len());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_generators, bench_scenarios);
criterion_main!(benches);
