//! Reproduces the statistical-significance claim of §4.1: OPTWIN's F1 scores
//! are compared against ADWIN's and STEPD's (the two baselines that, like
//! OPTWIN, accept real-valued input) across the Table 1 experiments with a
//! one-tailed Wilcoxon signed-rank test at α = 0.05.
//!
//! ```text
//! cargo run --release -p optwin-bench --bin significance
//! cargo run --release -p optwin-bench --bin significance -- --full
//! ```

use optwin_bench::{Args, RunScale};
use optwin_eval::experiment::{paper_lineup, run_table1, Table1Experiment};
use optwin_stats::tests::{wilcoxon_signed_rank, Alternative};

fn main() {
    let args = Args::from_env(&[RunScale::FLAGS]);
    let scale = RunScale::from_args(&args);
    println!(
        "Wilcoxon signed-rank comparison of per-experiment F1 scores \
         ({} repetitions per experiment, seed {})",
        scale.repetitions, scale.seed
    );
    println!();

    let lineup = paper_lineup(scale.optwin_w_max);
    // Collect per-experiment F1 per detector.
    let mut f1_per_detector: std::collections::HashMap<String, Vec<f64>> =
        std::collections::HashMap::new();
    for experiment in Table1Experiment::all() {
        let rows = run_table1(
            experiment,
            &lineup,
            scale.repetitions,
            scale.stream_len,
            scale.seed,
            scale.shards,
        );
        for row in rows {
            f1_per_detector
                .entry(row.detector.clone())
                .or_default()
                .push(row.metrics.f1);
        }
        println!("finished {}", experiment.label());
    }
    println!();

    // OPTWIN's line-up rows against the two real-valued baselines' rows.
    let labels_of = |ids: &[&str]| -> Vec<&str> {
        lineup
            .iter()
            .filter(|(_, spec)| ids.contains(&spec.id()))
            .map(|(label, _)| label.as_str())
            .collect()
    };
    let optwin_labels = labels_of(&["optwin"]);
    let baseline_labels = labels_of(&["adwin", "stepd"]);

    println!(
        "{:<18} {:<10} {:>10} {:>12} {:>14}",
        "OPTWIN config", "baseline", "n pairs", "p-value", "significant?"
    );
    for optwin in &optwin_labels {
        let optwin_f1 = &f1_per_detector[*optwin];
        for baseline in &baseline_labels {
            let baseline_f1 = &f1_per_detector[*baseline];
            // The baselines only run on the experiments they support; pair up
            // the first `min(len)` experiments (ADWIN/STEPD run on all seven,
            // so in practice the lengths match).
            let n = optwin_f1.len().min(baseline_f1.len());
            match wilcoxon_signed_rank(&optwin_f1[..n], &baseline_f1[..n], Alternative::Greater) {
                Ok(result) => {
                    println!(
                        "{:<18} {:<10} {:>10} {:>12.4} {:>14}",
                        optwin,
                        baseline,
                        result.n_used,
                        result.p_value,
                        if result.p_value < 0.05 { "yes" } else { "no" }
                    );
                }
                Err(e) => println!("{optwin:<18} {baseline:<10} comparison failed: {e}"),
            }
        }
    }
}
