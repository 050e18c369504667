//! Reproduces **Table 1** of the OPTWIN paper: drift-identification
//! statistics (delay, FP, precision, recall, F1) for every detector over the
//! seven synthetic experiment configurations.
//!
//! The grid runs on the service-style engine: every `detector × repetition`
//! run is one engine stream, fed in order through `EngineHandle::submit`
//! onto the shard workers, and the detections are read back from a
//! `MemorySink` after one final flush (`optwin_eval::run_table1`).
//!
//! ```text
//! cargo run --release -p optwin-bench --bin table1                 # quick run
//! cargo run --release -p optwin-bench --bin table1 -- --full       # paper scale (30 reps, 100k streams)
//! cargo run --release -p optwin-bench --bin table1 -- --experiment sudden-binary
//! cargo run --release -p optwin-bench --bin table1 -- --detector adwin:delta=0.01
//! cargo run --release -p optwin-bench --bin table1 -- --fleet configs/fleet_example.json
//! cargo run --release -p optwin-bench --bin table1 -- --json results/table1.json
//! ```
//!
//! `--detector <spec>` replaces the paper line-up with a single detector
//! described by a [`DetectorSpec`] string (`<id>` or
//! `<id>:<key>=<value>,...`); `--fleet <file>` replaces it with a whole
//! configured fleet (a JSON map of `stream id → spec string`), one row per
//! fleet entry. A spec the grammar rejects, in either, exits with status 2.
//! Binary-only detectors are skipped on the non-binary experiments, as in
//! the paper. A `--json` file that cannot be written exits with status 1.

use optwin_baselines::DetectorSpec;
use optwin_bench::{Args, RunScale};
use optwin_engine::FleetConfig;
use optwin_eval::experiment::{paper_lineup, run_table1, Table1Experiment};
use optwin_eval::report::{render_table1, to_json};

fn experiment_by_name(name: &str) -> Option<Table1Experiment> {
    match name {
        "gradual-binary" => Some(Table1Experiment::GradualBinary),
        "gradual-nonbinary" => Some(Table1Experiment::GradualNonBinary),
        "sudden-binary" => Some(Table1Experiment::SuddenBinary),
        "sudden-nonbinary" => Some(Table1Experiment::SuddenNonBinary),
        "stagger" => Some(Table1Experiment::Stagger),
        "random-rbf" => Some(Table1Experiment::RandomRbf),
        "agrawal" => Some(Table1Experiment::Agrawal),
        _ => None,
    }
}

fn main() {
    let args = Args::from_env(&[
        RunScale::FLAGS,
        &["detector", "fleet", "experiment", "json"],
    ]);
    let scale = RunScale::from_args(&args);
    // Read before the run, so a `--json` missing its path fails at once.
    let json_path = args.get("json");

    let detector: Option<DetectorSpec> = args.get("detector").map(|text| {
        text.parse().unwrap_or_else(|e| {
            eprintln!("invalid --detector `{text}`: {e}");
            eprintln!("{}", DetectorSpec::grammar_help());
            std::process::exit(2);
        })
    });

    let fleet: Option<FleetConfig> = args.get("fleet").map(|path| {
        FleetConfig::from_path(path).unwrap_or_else(|e| {
            eprintln!("cannot load --fleet `{path}`: {e}");
            eprintln!("{}", DetectorSpec::grammar_help());
            std::process::exit(2);
        })
    });
    if detector.is_some() && fleet.is_some() {
        eprintln!("--detector and --fleet are mutually exclusive");
        std::process::exit(2);
    }

    let experiments: Vec<Table1Experiment> = match args.get("experiment") {
        Some("all") | None => Table1Experiment::all().to_vec(),
        Some(name) => match experiment_by_name(name) {
            Some(e) => vec![e],
            None => {
                eprintln!(
                    "unknown experiment `{name}`; expected one of: gradual-binary, \
                     gradual-nonbinary, sudden-binary, sudden-nonbinary, stagger, \
                     random-rbf, agrawal, all"
                );
                std::process::exit(2);
            }
        },
    };

    println!(
        "Table 1 reproduction — {} repetition(s) per experiment, seed {}, \
         OPTWIN w_max {}, stream length {}, pipelined engine shards {}",
        scale.repetitions,
        scale.seed,
        scale.optwin_w_max,
        scale
            .stream_len
            .map_or_else(|| "paper default".to_string(), |l| l.to_string()),
        scale
            .shards
            .map_or_else(|| "auto".to_string(), |s| s.to_string()),
    );
    println!();

    // The `(label, spec)` rows to run, and why an experiment can end up
    // with none of them (binary-only detectors skip non-binary data).
    let (detectors, skip_reason) = match (&detector, &fleet) {
        (Some(spec), _) => {
            println!("detector override: {spec}");
            println!();
            (
                vec![(spec.to_string(), spec.clone())],
                format!("`{}` only accepts binary error indicators", spec.id()),
            )
        }
        (None, Some(fleet)) => {
            println!("fleet override: {} configured streams", fleet.streams.len());
            println!();
            let entries = fleet
                .streams
                .iter()
                .map(|(stream, spec)| (format!("#{stream} {}", spec.id()), spec.clone()))
                .collect();
            (entries, "every fleet entry is binary-only".to_string())
        }
        (None, None) => (
            paper_lineup(scale.optwin_w_max),
            "every detector is binary-only".to_string(),
        ),
    };

    let mut all_rows = Vec::new();
    for experiment in experiments {
        let rows = run_table1(
            experiment,
            &detectors,
            scale.repetitions,
            scale.stream_len,
            scale.seed,
            scale.shards,
        );
        if rows.is_empty() {
            println!("skipping {} — {skip_reason}\n", experiment.label());
            continue;
        }
        println!("{}", render_table1(&rows));
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
