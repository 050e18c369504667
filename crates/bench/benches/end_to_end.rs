//! End-to-end cost of one Table 1 experiment cell and of the Figure 5
//! neural-network pipeline at reduced scale — the macro-benchmarks behind the
//! paper's run-time discussion.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use optwin_core::{Optwin, OptwinConfig};
use optwin_eval::experiment::{paper_lineup, run_detector_on_sequence, Table1Experiment};
use optwin_eval::nn_pipeline::{run_nn_pipeline, NnPipelineConfig};

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_cell");
    group.sample_size(10);

    // Pre-generate the stream once; each iteration is one job of the
    // Table 1 grid runner (build the detector from its spec, feed the run,
    // score it), which is what varies between detectors.
    let (errors, schedule) = Table1Experiment::SuddenBinary.build_error_sequence(1, 20_000);
    let lineup = paper_lineup(4_000);
    for label in ["OPTWIN rho=0.5", "ADWIN", "DDM"] {
        let (_, spec) = lineup
            .iter()
            .find(|(l, _)| l == label)
            .expect("paper line-up label");
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut detector = spec.build().expect("paper line-up specs are valid");
                black_box(run_detector_on_sequence(
                    detector.as_mut(),
                    &errors,
                    &schedule,
                ))
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("fig5_pipeline_small");
    group.sample_size(10);
    let config = NnPipelineConfig {
        total_batches: 1_500,
        pretrain_batches: 200,
        fine_tune_batches: 60,
        n_classes: 6,
        n_inputs: 32,
        batch_size: 16,
        ..NnPipelineConfig::default()
    };
    group.bench_function("OPTWIN rho=0.5", |b| {
        b.iter(|| {
            let mut detector = Optwin::new(
                OptwinConfig::builder()
                    .robustness(0.5)
                    .max_window(1_000)
                    .build()
                    .unwrap(),
            )
            .unwrap();
            black_box(run_nn_pipeline(&config, &mut detector))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);
