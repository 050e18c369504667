//! Detector shoot-out: every detector in the paper's line-up on the same
//! drifting error stream.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example detector_shootout
//! ```
//!
//! Generates one "sudden binary drift" stream (one drift, halfway through),
//! runs all eight detectors of the paper's Table 1 line-up over it, and
//! prints a compact comparison — a miniature, single-run version of the
//! `table1` binary.

use optwin::eval::experiment::{run_detector_on_sequence, Table1Experiment};
use optwin::paper_lineup;

fn main() {
    let experiment = Table1Experiment::SuddenBinary;
    let (errors, schedule) = experiment.build_error_sequence(2_024, 25_000);
    println!(
        "{} — {} elements, true drifts at {:?}",
        experiment.label(),
        errors.len(),
        schedule.positions()
    );
    println!();
    println!(
        "{:<18} {:>4} {:>4} {:>4} {:>8} {:>8} {:>8} {:>12}",
        "Detector", "TP", "FP", "FN", "P", "R", "F1", "mean delay"
    );

    for (label, spec) in paper_lineup(5_000) {
        let mut detector = spec.build().expect("paper line-up specs are valid");
        let run = run_detector_on_sequence(detector.as_mut(), &errors, &schedule);
        let delay = run
            .outcome
            .mean_delay
            .map_or_else(|| "-".to_string(), |d| format!("{d:.1}"));
        println!(
            "{:<18} {:>4} {:>4} {:>4} {:>7.0}% {:>7.0}% {:>7.0}% {:>12}",
            label,
            run.outcome.true_positives,
            run.outcome.false_positives,
            run.outcome.false_negatives,
            run.outcome.precision() * 100.0,
            run.outcome.recall() * 100.0,
            run.outcome.f1() * 100.0,
            delay,
        );
    }
}
