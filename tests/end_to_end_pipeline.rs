//! Cross-crate integration tests: stream → learner → detector → metrics.

use optwin::eval::classification::{run_classification_cell, ClassificationExperiment};
use optwin::eval::experiment::{run_detector_on_sequence, Table1Experiment};
use optwin::eval::metrics::score_detections;
use optwin::learners::AdaptiveLearner;
use optwin::stream::drift::MultiConceptStream;
use optwin::stream::generators::{Agrawal, AgrawalFunction};
use optwin::{paper_lineup, DriftSchedule, InstanceStream, NaiveBayes, Optwin, OptwinConfig};

/// The headline qualitative claim of the paper on a miniature scale: OPTWIN
/// reaches a higher F1 than ADWIN on the sudden binary drift experiment
/// because it produces (almost) no false positives.
#[test]
fn optwin_beats_adwin_on_sudden_binary_f1() {
    let lineup = paper_lineup(2_000);
    let spec_of = |label: &str| &lineup.iter().find(|(l, _)| l == label).unwrap().1;
    let experiment = Table1Experiment::SuddenBinary;

    let mut optwin_f1 = Vec::new();
    let mut adwin_f1 = Vec::new();
    for seed in 0..3u64 {
        let (errors, schedule) = experiment.build_error_sequence(seed, 10_000);
        let mut optwin = spec_of("OPTWIN rho=0.5").build().unwrap();
        let mut adwin = spec_of("ADWIN").build().unwrap();
        optwin_f1.push(
            run_detector_on_sequence(optwin.as_mut(), &errors, &schedule)
                .outcome
                .f1(),
        );
        adwin_f1.push(
            run_detector_on_sequence(adwin.as_mut(), &errors, &schedule)
                .outcome
                .f1(),
        );
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    assert!(
        mean(&optwin_f1) >= mean(&adwin_f1) - 1e-9,
        "OPTWIN {:?} vs ADWIN {:?}",
        optwin_f1,
        adwin_f1
    );
    assert!(mean(&optwin_f1) > 0.7, "OPTWIN F1 too low: {optwin_f1:?}");
}

/// Prequential Naive Bayes + OPTWIN adaptation on AGRAWAL recovers accuracy
/// after each function switch.
#[test]
fn agrawal_classification_pipeline_with_adaptation() {
    let schedule = DriftSchedule::every(5_000, 15_000, 1);
    let concepts: Vec<Box<dyn InstanceStream + Send>> = vec![
        Box::new(Agrawal::new(AgrawalFunction::F1, 1)),
        Box::new(Agrawal::new(AgrawalFunction::F4, 2)),
        Box::new(Agrawal::new(AgrawalFunction::F7, 3)),
    ];
    let mut stream = MultiConceptStream::new(concepts, schedule.clone(), 7);

    let detector = Optwin::new(
        OptwinConfig::builder()
            .robustness(0.5)
            .max_window(2_000)
            .build()
            .unwrap(),
    )
    .unwrap();
    let learner = NaiveBayes::new(&stream.schema(), stream.n_classes());
    let mut adaptive = AdaptiveLearner::new(learner, detector);
    let report = adaptive.run(&mut stream, 15_000);

    assert!(report.accuracy > 0.6, "accuracy = {}", report.accuracy);
    // Score the detections against the ground truth: at least one of the two
    // drifts must be caught, with zero or very few false positives.
    let outcome = score_detections(&schedule, &report.detections);
    assert!(
        outcome.true_positives >= 1,
        "detections: {:?}",
        report.detections
    );
    assert!(
        outcome.false_positives <= 2,
        "detections: {:?}",
        report.detections
    );
}

/// The Table 2 cell runner produces consistent accuracy numbers for the same
/// seed and improves on the no-detector baseline for a drifting stream.
#[test]
fn classification_cell_reproducibility_and_improvement() {
    let optwin = &paper_lineup(1_000)[6];
    assert_eq!(optwin.0, "OPTWIN rho=0.5");
    let a = run_classification_cell(
        ClassificationExperiment::SuddenStagger,
        Some(optwin),
        Some(10_000),
        9,
    );
    let b = run_classification_cell(
        ClassificationExperiment::SuddenStagger,
        Some(optwin),
        Some(10_000),
        9,
    );
    assert_eq!(a.accuracy, b.accuracy, "same seed must reproduce exactly");
    assert_eq!(a.detections, b.detections);

    let baseline = run_classification_cell(
        ClassificationExperiment::SuddenStagger,
        None,
        Some(10_000),
        9,
    );
    assert!(
        a.accuracy > baseline.accuracy,
        "{} vs {}",
        a.accuracy,
        baseline.accuracy
    );
}

/// Detectors are usable through the trait object a spec builds and never
/// report drifts on an all-zero (perfect learner) error stream.
#[test]
fn perfect_learner_never_triggers_any_detector() {
    for (_, spec) in paper_lineup(500) {
        let mut detector = spec.build().unwrap();
        for _ in 0..5_000 {
            let status = detector.add_element(0.0);
            assert_ne!(
                status,
                optwin::DriftStatus::Drift,
                "{} fired on a perfect error stream",
                detector.name()
            );
        }
    }
}
