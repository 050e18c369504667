//! Reproduces **Table 2** of the OPTWIN paper: prequential Naive-Bayes
//! accuracy per drift detector on the synthetic datasets (sudden and gradual
//! drifts) and the real-world stand-in streams.
//!
//! ```text
//! cargo run --release -p optwin-bench --bin table2                 # quick run
//! cargo run --release -p optwin-bench --bin table2 -- --full       # paper scale
//! cargo run --release -p optwin-bench --bin table2 -- --realworld  # only the real-world columns
//! ```
//!
//! A `--json` file that cannot be written exits with status 1.

use optwin_bench::{Args, RunScale};
use optwin_eval::classification::{run_classification_column, ClassificationExperiment};
use optwin_eval::paper_lineup;
use optwin_eval::report::{render_table2, to_json};

fn main() {
    // One seeded stream per column: every run-scale flag but `--repetitions`.
    let args = Args::from_env(&[
        &["full", "stream-len", "optwin-w-max", "seed"],
        &["realworld", "synthetic", "json"],
    ]);
    let scale = RunScale::from_args(&args);
    // Read before the run, so a `--json` missing its path fails at once.
    let json_path = args.get("json");

    let experiments: Vec<ClassificationExperiment> = if args.has_flag("realworld") {
        vec![
            ClassificationExperiment::Electricity,
            ClassificationExperiment::Covertype,
        ]
    } else if args.has_flag("synthetic") {
        ClassificationExperiment::all()
            .into_iter()
            .filter(ClassificationExperiment::has_known_drifts)
            .collect()
    } else {
        ClassificationExperiment::all().to_vec()
    };

    println!(
        "Table 2 reproduction — seed {}, OPTWIN w_max {}, stream length {}",
        scale.seed,
        scale.optwin_w_max,
        scale
            .stream_len
            .map_or_else(|| "paper default".to_string(), |l| l.to_string()),
    );
    println!();

    let lineup = paper_lineup(scale.optwin_w_max);
    let mut all_rows = Vec::new();
    for experiment in experiments {
        let rows = run_classification_column(experiment, &lineup, scale.stream_len, scale.seed);
        println!("{}", render_table2(&rows));
        all_rows.extend(rows);
    }

    if let Some(path) = json_path {
        let written = to_json(&all_rows)
            .map_err(|e| format!("failed to serialise results: {e}"))
            .and_then(|json| {
                std::fs::write(path, json).map_err(|e| format!("failed to write {path}: {e}"))
            });
        if let Err(e) = written {
            eprintln!("{e}");
            std::process::exit(1);
        }
        println!("wrote JSON results to {path}");
    }
}
