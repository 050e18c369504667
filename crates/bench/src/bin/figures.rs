//! Reproduces the data behind **Figures 2, 3 and 4** of the OPTWIN paper
//! (per-detector detections, false positives and delays on a single
//! representative run), and the ν(|W|) optimal-cut curves discussed in §3.3.
//!
//! ```text
//! cargo run --release -p optwin-bench --bin figures -- --figure 2   # sudden binary drift
//! cargo run --release -p optwin-bench --bin figures -- --figure 3   # gradual binary drift
//! cargo run --release -p optwin-bench --bin figures -- --figure 4   # AGRAWAL sudden drift
//! cargo run --release -p optwin-bench --bin figures -- --figure nu  # optimal-cut curves
//! ```

use optwin_bench::{Args, RunScale};
use optwin_core::{CutTable, OptwinConfig};
use optwin_eval::experiment::{paper_lineup, run_detector_on_sequence, Table1Experiment};

fn run_figure(experiment: Table1Experiment, scale: &optwin_bench::RunScale) {
    let stream_len = scale
        .stream_len
        .unwrap_or_else(|| experiment.default_stream_len());
    let (errors, schedule) = experiment.build_error_sequence(scale.seed, stream_len);
    println!(
        "{} — single run, {} elements, true drifts at {:?}",
        experiment.label(),
        stream_len,
        schedule.positions()
    );
    println!(
        "{:<18} {:>4} {:>4} {:>4} {:>10}   detections",
        "Detector", "TP", "FP", "FN", "mean delay"
    );
    for (label, spec) in paper_lineup(scale.optwin_w_max) {
        if spec.binary_only() && !experiment.binary_signal() {
            continue;
        }
        let mut detector = spec.build().expect("paper line-up specs are valid");
        let run = run_detector_on_sequence(detector.as_mut(), &errors, &schedule);
        let delay = run
            .outcome
            .mean_delay
            .map_or_else(|| "-".to_string(), |d| format!("{d:.1}"));
        let shown: Vec<usize> = run.detections.iter().copied().take(12).collect();
        let ellipsis = if run.detections.len() > 12 {
            ", …"
        } else {
            ""
        };
        println!(
            "{:<18} {:>4} {:>4} {:>4} {:>10}   {:?}{}",
            label,
            run.outcome.true_positives,
            run.outcome.false_positives,
            run.outcome.false_negatives,
            delay,
            shown,
            ellipsis
        );
    }
    println!();
}

fn run_nu_curves(scale: &optwin_bench::RunScale) {
    println!("Optimal-cut curves: |W_new| = |W| - split as a function of |W| (δ = 0.99)");
    println!(
        "{:>8} {:>14} {:>14} {:>14}",
        "|W|", "rho=0.1", "rho=0.5", "rho=1.0"
    );
    let w_max = scale.optwin_w_max;
    let tables: Vec<(f64, CutTable)> = [0.1, 0.5, 1.0]
        .into_iter()
        .map(|rho| {
            let config = OptwinConfig::builder()
                .robustness(rho)
                .max_window(w_max)
                .build()
                .expect("valid config");
            (rho, CutTable::new(&config).expect("valid config"))
        })
        .collect();
    let mut w = 30usize;
    while w <= w_max {
        let cells: Vec<String> = tables
            .iter()
            .map(|(_, table)| match table.entry(w) {
                Ok(e) if e.exact => format!("{}", w - e.split),
                Ok(_) => format!("{} (ν=0.5)", w - w / 2),
                Err(_) => "-".to_string(),
            })
            .collect();
        println!(
            "{:>8} {:>14} {:>14} {:>14}",
            w, cells[0], cells[1], cells[2]
        );
        w = (w as f64 * 1.6).ceil() as usize;
    }
    println!();
}

fn main() {
    // One seeded run per figure: every run-scale flag but `--repetitions`.
    let args = Args::from_env(&[&["full", "stream-len", "optwin-w-max", "seed"], &["figure"]]);
    let scale = RunScale::from_args(&args);
    match args.get("figure") {
        Some("2") => run_figure(Table1Experiment::SuddenBinary, &scale),
        Some("3") => run_figure(Table1Experiment::GradualBinary, &scale),
        Some("4") => run_figure(Table1Experiment::Agrawal, &scale),
        Some("nu") => run_nu_curves(&scale),
        Some(other) => {
            eprintln!("unknown figure `{other}`; expected 2, 3, 4 or nu");
            std::process::exit(2);
        }
        None => {
            run_figure(Table1Experiment::SuddenBinary, &scale);
            run_figure(Table1Experiment::GradualBinary, &scale);
            run_figure(Table1Experiment::Agrawal, &scale);
            run_nu_curves(&scale);
        }
    }
}
