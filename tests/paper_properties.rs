//! Integration tests that check the paper's qualitative claims at a reduced
//! scale (the full-scale numbers are produced by the `optwin-bench`
//! binaries; see EXPERIMENTS.md).

use optwin::eval::experiment::{run_detector_on_sequence, Table1Experiment};
use optwin::eval::nn_pipeline::{run_nn_pipeline, NnPipelineConfig};
use optwin::stats::tests::{wilcoxon_signed_rank, Alternative};
use optwin::{paper_lineup, Adwin, DriftDetector, Optwin, OptwinConfig};

/// Builds the paper line-up detector with the given label, with OPTWIN's
/// window capped at 2 000.
fn lineup_detector(label: &str) -> Box<dyn DriftDetector + Send> {
    let (_, spec) = paper_lineup(2_000)
        .into_iter()
        .find(|(l, _)| l == label)
        .expect("paper line-up label");
    spec.build().expect("valid spec")
}

/// §1 / §4: OPTWIN's false-positive count is (far) lower than ADWIN's, EDDM's
/// and ECDD's on the sudden binary drift configuration.
#[test]
fn optwin_has_fewer_false_positives_than_noisy_baselines() {
    let (errors, schedule) = Table1Experiment::SuddenBinary.build_error_sequence(11, 15_000);

    let fp_of = |label: &str| {
        let mut d = lineup_detector(label);
        run_detector_on_sequence(d.as_mut(), &errors, &schedule)
            .outcome
            .false_positives
    };

    let optwin_fp = fp_of("OPTWIN rho=0.5");
    let ecdd_fp = fp_of("ECDD");
    let eddm_fp = fp_of("EDDM");
    assert!(
        optwin_fp <= ecdd_fp,
        "OPTWIN FP {optwin_fp} vs ECDD FP {ecdd_fp}"
    );
    assert!(
        optwin_fp <= eddm_fp,
        "OPTWIN FP {optwin_fp} vs EDDM FP {eddm_fp}"
    );
    assert!(
        optwin_fp <= 1,
        "OPTWIN should have at most one FP, got {optwin_fp}"
    );
}

/// §3.3: larger ρ shortens the detection delay on sudden drifts (Table 1
/// shows 75 → 28 → 18 elements for ρ = 0.1 / 0.5 / 1.0).
#[test]
fn larger_rho_means_smaller_delay_on_sudden_drift() {
    let (errors, schedule) = Table1Experiment::SuddenBinary.build_error_sequence(5, 15_000);
    let delay_of = |label: &str| {
        let mut d = lineup_detector(label);
        run_detector_on_sequence(d.as_mut(), &errors, &schedule)
            .outcome
            .mean_delay
            .unwrap_or(f64::INFINITY)
    };
    let d_01 = delay_of("OPTWIN rho=0.1");
    let d_10 = delay_of("OPTWIN rho=1.0");
    assert!(
        d_10 <= d_01 + 1e-9,
        "rho=1.0 delay {d_10} should not exceed rho=0.1 delay {d_01}"
    );
}

/// §4.1: across the experiment grid OPTWIN's F1 is at least as good as
/// ADWIN's and STEPD's, and the one-tailed Wilcoxon test goes in OPTWIN's
/// favour (at this reduced scale we only require a small p-value direction,
/// not the full α = 0.05 significance, to keep the test fast and robust).
#[test]
fn f1_comparison_favours_optwin() {
    let experiments = [
        Table1Experiment::SuddenBinary,
        Table1Experiment::GradualBinary,
        Table1Experiment::SuddenNonBinary,
        Table1Experiment::GradualNonBinary,
    ];
    let mut optwin_f1 = Vec::new();
    let mut adwin_f1 = Vec::new();
    let mut stepd_f1 = Vec::new();
    for (i, exp) in experiments.iter().enumerate() {
        let (errors, schedule) = exp.build_error_sequence(100 + i as u64, 12_000);
        let run_f1 = |label: &str| {
            let mut d = lineup_detector(label);
            run_detector_on_sequence(d.as_mut(), &errors, &schedule)
                .outcome
                .f1()
        };
        optwin_f1.push(run_f1("OPTWIN rho=0.5"));
        adwin_f1.push(run_f1("ADWIN"));
        stepd_f1.push(run_f1("STEPD"));
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    assert!(mean(&optwin_f1) >= mean(&adwin_f1) - 1e-9);
    assert!(mean(&optwin_f1) >= mean(&stepd_f1) - 1e-9);

    // The signed-rank statistic should lean in OPTWIN's favour vs STEPD
    // (STEPD's F1 collapses on the non-binary experiments, as in the paper).
    if optwin_f1 != stepd_f1 {
        let w = wilcoxon_signed_rank(&optwin_f1, &stepd_f1, Alternative::Greater).unwrap();
        assert!(w.p_value <= 0.5, "p = {}", w.p_value);
    }
}

/// Figure 5: on the NN-loss pipeline OPTWIN triggers no more fine-tuning
/// batches than ADWIN (fewer false positives ⇒ less retraining), while still
/// detecting the label swaps.
#[test]
fn nn_pipeline_optwin_retrains_no_more_than_adwin() {
    let config = NnPipelineConfig {
        total_batches: 2_500,
        pretrain_batches: 300,
        fine_tune_batches: 80,
        n_classes: 6,
        n_inputs: 32,
        batch_size: 16,
        seed: 5,
        ..NnPipelineConfig::default()
    };
    let mut optwin = Optwin::new(
        OptwinConfig::builder()
            .robustness(0.5)
            .max_window(1_000)
            .build()
            .unwrap(),
    )
    .unwrap();
    let optwin_run = run_nn_pipeline(&config, &mut optwin);

    let mut adwin = Adwin::with_defaults();
    let adwin_run = run_nn_pipeline(&config, &mut adwin);

    assert!(
        optwin_run.outcome.true_positives >= 3,
        "{:?}",
        optwin_run.outcome
    );
    // At this reduced scale a single extra/missing detection swings the
    // fine-tuning count by one whole phase, so compare up to one phase; the
    // paper-scale comparison (where OPTWIN's advantage is ~2.6×) is produced
    // by the `fig5_nn` binary.
    assert!(
        optwin_run.fine_tune_iterations
            <= adwin_run.fine_tune_iterations + config.fine_tune_batches,
        "OPTWIN fine-tuned {} batches, ADWIN {}",
        optwin_run.fine_tune_iterations,
        adwin_run.fine_tune_iterations
    );
    assert_eq!(optwin.name(), "OPTWIN");
}
