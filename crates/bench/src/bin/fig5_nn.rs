//! Reproduces **Figure 5** of the OPTWIN paper: drift detection over the loss
//! of a neural network with label-swap drifts, comparing OPTWIN and ADWIN on
//! detection quality, triggered fine-tuning iterations and total pipeline
//! wall-clock time (the paper reports OPTWIN making the pipeline ~21 %
//! faster thanks to its lower false-positive rate).
//!
//! ```text
//! cargo run --release -p optwin-bench --bin fig5_nn
//! cargo run --release -p optwin-bench --bin fig5_nn -- --full   # longer stream
//! ```

use optwin_baselines::Adwin;
use optwin_bench::Args;
use optwin_core::{DriftDetector, Optwin, OptwinConfig};
use optwin_eval::nn_pipeline::{run_nn_pipeline, NnPipelineConfig, NnPipelineOutcome};
use optwin_eval::report::to_json;

fn print_outcome(label: &str, o: &NnPipelineOutcome) {
    println!("{label}");
    println!("  drifts detected     : {}", o.detections.len());
    println!(
        "  TP / FP / FN        : {} / {} / {}",
        o.outcome.true_positives, o.outcome.false_positives, o.outcome.false_negatives
    );
    println!(
        "  mean delay          : {}",
        o.outcome
            .mean_delay
            .map_or_else(|| "-".to_string(), |d| format!("{d:.1} batches"))
    );
    println!("  fine-tune batches   : {}", o.fine_tune_iterations);
    println!("  pipeline wall time  : {:.2} s", o.wall_seconds);
    println!(
        "  detector time/batch : {:.2} µs",
        o.seconds_per_detection_call * 1e6
    );
    println!("  final batch loss    : {:.3}", o.final_loss);
    println!();
}

fn main() {
    let args = Args::from_env(&[&[
        "full",
        "batches",
        "fine-tune",
        "seed",
        "optwin-w-max",
        "json",
    ]]);
    let full = args.has_flag("full");
    // Read before the run, so a `--json` missing its path fails at once.
    let json_path = args.get("json");
    let config = NnPipelineConfig {
        total_batches: args.get_parsed("batches", if full { 60_000 } else { 8_000 }),
        fine_tune_batches: args.get_parsed("fine-tune", if full { 1_800 } else { 250 }),
        pretrain_batches: if full { 4_000 } else { 1_000 },
        seed: args.get_parsed("seed", 17),
        ..NnPipelineConfig::default()
    };
    let w_max = args.get_parsed("optwin-w-max", if full { 25_000usize } else { 4_000 });
    println!(
        "Figure 5 reproduction — {} batches of {} instances, {} label-swap drifts, seed {}",
        config.total_batches, config.batch_size, config.n_drifts, config.seed
    );
    println!();

    let mut outcomes = Vec::new();

    for rho in [0.1, 0.5] {
        let mut optwin = Optwin::new(
            OptwinConfig::builder()
                .robustness(rho)
                .max_window(w_max)
                .build()
                .expect("valid config"),
        )
        .expect("valid config");
        let outcome = run_nn_pipeline(&config, &mut optwin);
        print_outcome(&format!("OPTWIN (rho = {rho})"), &outcome);
        outcomes.push((format!("OPTWIN rho={rho}"), outcome));
    }

    let mut adwin = Adwin::with_defaults();
    let adwin_outcome = run_nn_pipeline(&config, &mut adwin);
    print_outcome(adwin.name(), &adwin_outcome);
    outcomes.push(("ADWIN".to_string(), adwin_outcome.clone()));

    // Pipeline-speed comparison (the paper's 21 % claim).
    if let Some((_, optwin_outcome)) = outcomes.first() {
        let speedup = (adwin_outcome.wall_seconds - optwin_outcome.wall_seconds)
            / adwin_outcome.wall_seconds
            * 100.0;
        println!(
            "OPTWIN (rho = 0.1) pipeline is {speedup:.1}% {} than the ADWIN pipeline \
             ({} vs {} fine-tuning batches)",
            if speedup >= 0.0 { "faster" } else { "slower" },
            optwin_outcome.fine_tune_iterations,
            adwin_outcome.fine_tune_iterations
        );
    }

    if let Some(path) = json_path {
        let written = to_json(&outcomes)
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
