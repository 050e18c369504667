//! The `driftbench` detection-quality benchmark: every detector spec kind
//! plus representative cascade/ensemble composites, across the full
//! adversarial scenario catalogue (abrupt, gradual, recurring concepts, slow
//! ramps, seasonal oscillation, variance-only drift, heavy-tailed noise),
//! each seeded run fed straight to a detector of its own.
//!
//! ```text
//! cargo run --release -p optwin-bench --bin driftbench                  # quick grid
//! cargo run --release -p optwin-bench --bin driftbench -- --full        # larger grid
//! cargo run --release -p optwin-bench --bin driftbench -- --scenario seasonal
//! cargo run --release -p optwin-bench --bin driftbench -- --detector optwin
//! cargo run --release -p optwin-bench --bin driftbench -- --detector adwin:delta=0.01
//! cargo run --release -p optwin-bench --bin driftbench -- --json results/driftbench.json
//! ```
//!
//! `--scenario <id>` restricts the grid to one scenario
//! (`abrupt|gradual|recurring|ramp|seasonal|variance|heavy-tail`);
//! `--detector <label-or-spec>` restricts it to one line-up entry by label,
//! or to an arbitrary [`DetectorSpec`] string. The JSON written by `--json`
//! is the same [`DriftbenchReport`](optwin_eval::DriftbenchReport) shape the
//! golden quality suite (`tests/driftbench_quality.rs`) pins down.

use optwin_baselines::DetectorSpec;
use optwin_bench::Args;
use optwin_eval::driftbench::{run_driftbench, DriftbenchConfig};
use optwin_eval::DriftbenchCell;
use optwin_stream::ScenarioKind;

fn render_cells(title: &str, cells: &[&DriftbenchCell]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{title}\n{:<20} {:>5} {:>5} {:>5} {:>9} {:>9} {:>7} {:>7} {:>7}\n",
        "detector", "TP", "FP", "FN", "FP/10k", "delay", "prec", "recall", "F1"
    ));
    for cell in cells {
        let m = &cell.metrics;
        out.push_str(&format!(
            "{:<20} {:>5} {:>5} {:>5} {:>9.2} {:>9} {:>7.3} {:>7.3} {:>7.3}\n",
            cell.detector,
            m.true_positives,
            m.false_positives,
            m.false_negatives,
            cell.fp_per_10k,
            m.mean_delay
                .map_or_else(|| "-".to_string(), |d| format!("{d:.1}")),
            m.precision,
            m.recall,
            m.f1,
        ));
    }
    out
}

fn main() {
    let args = Args::from_env(&[&[
        "full",
        "seeds",
        "stream-len",
        "optwin-w-max",
        "seed",
        "scenario",
        "detector",
        "json",
    ]]);
    let full = args.has_flag("full");
    // Read before the run, so a `--json` missing its path fails at once.
    let json_path = args.get("json");

    let seeds = args.get_parsed("seeds", if full { 10 } else { 5 });
    let stream_len = args.get_parsed("stream-len", if full { 50_000 } else { 20_000 });
    let optwin_w_max = args.get_parsed("optwin-w-max", if full { 5_000 } else { 2_000 });

    let mut config = DriftbenchConfig::full(seeds, stream_len, optwin_w_max);
    config.base_seed = args.get_parsed("seed", config.base_seed);

    if let Some(name) = args.get("scenario") {
        if name != "all" {
            let scenario: ScenarioKind = name.parse().unwrap_or_else(|e| {
                eprintln!("unknown --scenario `{name}`: {e}");
                std::process::exit(2);
            });
            config.scenarios = vec![scenario];
        }
    }
    if let Some(wanted) = args.get("detector") {
        let by_label: Vec<(String, DetectorSpec)> = config
            .detectors
            .iter()
            .filter(|(label, _)| label == wanted)
            .cloned()
            .collect();
        config.detectors = if by_label.is_empty() {
            // Not a line-up label: accept any raw spec string.
            let spec: DetectorSpec = wanted.parse().unwrap_or_else(|e| {
                eprintln!("invalid --detector `{wanted}`: {e}");
                eprintln!("{}", DetectorSpec::grammar_help());
                std::process::exit(2);
            });
            vec![(spec.id().to_string(), spec)]
        } else {
            by_label
        };
    }

    println!(
        "driftbench — {} scenario(s) × {} detector(s) × {} seed(s), stream length {}, \
         base seed {}",
        config.scenarios.len(),
        config.detectors.len(),
        config.seeds,
        config.stream_len,
        config.base_seed,
    );
    println!();

    let report = run_driftbench(&config);

    for scenario in &config.scenarios {
        let rows: Vec<&DriftbenchCell> = report
            .cells
            .iter()
            .filter(|c| c.scenario == scenario.id())
            .collect();
        if rows.is_empty() {
            continue;
        }
        let n_drifts = scenario.n_drifts(config.stream_len);
        println!(
            "{}",
            render_cells(
                &format!(
                    "── {} ({}, {} true drift(s) per stream) ──",
                    scenario.label(),
                    scenario.id(),
                    n_drifts
                ),
                &rows,
            )
        );
    }
    let rollup: Vec<&DriftbenchCell> = report.by_detector.iter().collect();
    println!(
        "{}",
        render_cells("── all scenarios (per-detector roll-up) ──", &rollup)
    );

    if let Some(path) = json_path {
        match serde_json::to_string_pretty(&report) {
            Ok(json) => {
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("failed to write {path}: {e}");
                    std::process::exit(1);
                }
                println!("wrote JSON report to {path}");
            }
            Err(e) => {
                eprintln!("failed to serialise report: {e}");
                std::process::exit(1);
            }
        }
    }
}
