//! Layered end-to-end benchmark of the OPTWIN drift engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <optwin-paper|fleet-zipf|fleet-durable> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process generates the workload's records from the seed, computes the
//! reference drift events on one thread, then runs closed-loop passes (one
//! producer thread, two shards) over the whole corpus through the engine's
//! public API until `--seconds` have passed, with cold set-ups and snapshot
//! restores timed between passes. Every pass's events are checked against
//! the reference. The last line of standard output is one JSON object:
//! `correct`, `attempted` (public calls plus expected events), `failed`
//! (failed calls plus missing or extra events) and the metrics — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A traced run also repeats passes traced and at one shard,
//! and writes its spans to `perfbench/out/trace-<workload>.jsonl`. A
//! readable summary goes to standard error.
//!
//! End-to-end metrics:
//! * `setup_s` — empty cut-table registry to `build()` returning, every
//!   OPTWIN table precomputed; median of the run's cold set-ups.
//! * `ingest_rec_per_s` — records over the time from each pass's first
//!   `submit` to its last `flush` returning, summed over passes.
//! * `alert_lag_p50_ms`, `alert_lag_p99_ms` — start of the `submit` that
//!   carried an event's record to the event reaching the sink.
//! * `recover_s` — `fleet-durable`: registry cleared, `recover_from_dir` →
//!   `build` → first `flush` after the engine went down without a final
//!   checkpoint; elsewhere: snapshot parse → `restore` + `build` → first
//!   `flush`.
//! * `state_bytes_per_stream` — `EngineStats::resident_bytes()` over
//!   streams after the last flush.
//!
//! The self-tests run with `cargo test --release --manifest-path
//! perfbench/Cargo.toml`.

mod bench;
mod corpus;
mod oracle;
mod trace;

#[cfg(test)]
mod tests;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use optwin_core::CutTableRegistry;

use bench::{Bench, BenchResult, PassResult, SetupSample};
use corpus::{Corpus, Workload, PAPER_STREAM_LEN};
use oracle::SoloCost;
use trace::{median, p99_or_max, quantile};

/// Shares of a run's time spent on cold set-ups and on snapshot restores
/// (non-durable workloads), which are taken between passes.
const SETUP_SHARE: f64 = 0.25;
const RESTORE_SHARE: f64 = 0.1;
/// Restores between two passes repeat until this much time has passed.
const RESTORE_SLOT: Duration = Duration::from_millis(50);
/// At least this many cold set-ups per run.
const MIN_REPS: usize = 3;
/// Untraced runs make at least this many passes, traced runs this many
/// rounds of (untraced 2-shard, traced 2-shard, untraced 1-shard) passes.
const MIN_PASSES: usize = 3;
const MIN_ROUNDS: usize = 2;
const SHARDS: usize = 2;
/// Lag percentiles are taken over windows of at least this many events, so
/// that ten lie beyond a window's 99th percentile.
const LAG_WINDOW: usize = 1_000;

const USAGE: &str = "usage: perfbench --workload <optwin-paper|fleet-zipf|fleet-durable> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10),
            trace: trace.unwrap_or(false),
        })
    }
}

/// A named metric with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let work_dir = out_dir.join(format!("work-{}", std::process::id()));
    let outcome = run(&args, &out_dir, work_dir.clone());
    // The work directory only ever holds this run's checkpoint directories.
    let _ = std::fs::remove_dir_all(&work_dir);
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, out_dir: &std::path::Path, work_dir: PathBuf) -> BenchResult<String> {
    std::fs::create_dir_all(&work_dir)?;
    let generated = Instant::now();
    let corpus = Corpus::generate(args.workload, args.seed);
    eprintln!(
        "perfbench: {} seed {}: {} streams, {} records in {} submits (generated in {:.2}s)",
        args.workload.name(),
        args.seed,
        corpus.specs.len(),
        corpus.records(),
        corpus.submits.len(),
        generated.elapsed().as_secs_f64()
    );
    let mut bench = Bench::new(args.workload, corpus, work_dir);

    let mut setups = vec![bench.cold_setup(args.trace)?];
    // Tables are warm from the set-up, so the oracle's solo timings are
    // warm-table per-element costs.
    bench.compute_reference()?;
    // The fleets run no OPTWIN; a traced run still checks §3.4 on one
    // stream of each `w_max`.
    let solo = if args.trace && bench.reference.w25k.records == 0 {
        solo_probe(args.seed)?
    } else {
        (bench.reference.w25k, bench.reference.w10k)
    };

    let kinds: &[(usize, bool)] = if args.trace {
        &[(SHARDS, false), (SHARDS, true), (1, false)]
    } else {
        &[(SHARDS, false)]
    };
    // A first pass warms the machine up; its events are checked, its timings
    // dropped. Non-durable runs restart from a snapshot of its engine.
    let (warm_up, handle) = bench.pass(SHARDS, false)?;
    let mut snapshot = None;
    if !args.workload.durable() {
        snapshot = Some(bench.capture(&handle, warm_up.pass, false)?);
    }
    bench.close(handle, warm_up.pass, false)?;

    let budget = Duration::from_secs(args.seconds);
    let min_rounds = if args.trace { MIN_ROUNDS } else { MIN_PASSES };
    let started = Instant::now();
    let (mut setting_up, mut restoring) = (Duration::ZERO, Duration::ZERO);
    let mut passes: Vec<PassResult> = Vec::new();
    let mut restores = Vec::new();
    let mut round = 0;
    while round < min_rounds || setups.len() < MIN_REPS || started.elapsed() < budget {
        round += 1;
        for &(shards, traced) in kinds {
            let (result, handle) = bench.pass(shards, traced)?;
            // Traced passes time the snapshot capture itself.
            if !args.workload.durable() && traced {
                snapshot = Some(bench.capture(&handle, result.pass, traced)?);
            }
            bench.close(handle, result.pass, traced)?;
            eprintln!(
                "  pass {:>3}: {} shard(s){} {:>12.0} rec/s, {} events, {} mismatched",
                result.pass,
                result.shards,
                if traced { ", traced," } else { "," },
                result.rate(),
                result.events,
                result.mismatched
            );
            passes.push(result);
        }
        // Set-up and restore samples are taken between passes, spread over
        // the whole run: a shared machine's speed drifts over seconds, and
        // samples bunched at one end of a run would see one moment of it.
        let elapsed = started.elapsed().as_secs_f64();
        if let Some(json) = &snapshot {
            if restoring.as_secs_f64() < RESTORE_SHARE * elapsed {
                let slot = Instant::now();
                loop {
                    restores.push(bench.restore(json, args.trace)?);
                    if slot.elapsed() >= RESTORE_SLOT {
                        break;
                    }
                }
                restoring += slot.elapsed();
            }
        }
        if setups.len() < MIN_REPS || setting_up.as_secs_f64() < SETUP_SHARE * elapsed {
            let slot = Instant::now();
            setups.push(bench.cold_setup(args.trace)?);
            setting_up += slot.elapsed();
        }
    }

    let metrics = if args.trace {
        let path = out_dir.join(format!("trace-{}.jsonl", args.workload.name()));
        bench.ledger.tracer.write(&path)?;
        layer_metrics(&bench, &setups, &passes, solo)
    } else {
        end_to_end_metrics(&bench, &setups, &passes, &restores)
    };

    let attempted = bench.ledger.calls + bench.expected_events;
    let failed = bench.ledger.failed_calls + bench.mismatched;
    eprintln!(
        "perfbench: {} passes, {} public calls, {} reference events, {} mismatched, fail_ratio {}",
        passes.len(),
        bench.ledger.calls,
        bench.expected_events,
        bench.mismatched,
        failed as f64 / attempted.max(1) as f64
    );
    for m in &metrics {
        eprintln!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    Ok(result_line(failed == 0, attempted, failed, &metrics))
}

/// §3.4 probe for workloads without OPTWIN streams: one paper-default and
/// one `w_max = 10 000` stream of the `optwin-paper` generator, solo, on
/// warm tables.
fn solo_probe(seed: u64) -> BenchResult<(SoloCost, SoloCost)> {
    let corpus = Corpus::optwin_paper(seed, 2, PAPER_STREAM_LEN);
    for config in corpus.optwin_configs().values() {
        CutTableRegistry::global()
            .get_or_build(config)?
            .precompute_all()?;
    }
    let reference = oracle::reference(&corpus)?;
    Ok((reference.w25k, reference.w10k))
}

fn end_to_end_metrics(
    bench: &Bench,
    setups: &[SetupSample],
    passes: &[PassResult],
    restores: &[f64],
) -> Vec<Metric> {
    let recover_s = if bench.workload.durable() {
        median(
            &passes
                .iter()
                .filter_map(|p| p.recovery.map(|r| r.total_s))
                .collect::<Vec<_>>(),
        )
    } else {
        median(restores)
    };
    vec![
        metric("setup_s", median(&of(setups, |s| s.setup_s)), "s"),
        metric("ingest_rec_per_s", rate(passes.iter()), "rec/s"),
        metric("alert_lag_p50_ms", windowed_lag(passes, 0.5), "ms"),
        metric("alert_lag_p99_ms", windowed_lag(passes, 0.99), "ms"),
        metric("recover_s", recover_s, "s"),
        metric(
            "state_bytes_per_stream",
            median(&of(passes, |p| p.resident_bytes_per_stream)),
            "B",
        ),
    ]
}

fn layer_metrics(
    bench: &Bench,
    setups: &[SetupSample],
    passes: &[PassResult],
    solo: (SoloCost, SoloCost),
) -> Vec<Metric> {
    let traced: Vec<&PassResult> = passes.iter().filter(|p| p.traced).collect();
    let untraced = |shards: usize| rate(passes.iter().filter(|p| !p.traced && p.shards == shards));
    let per_pass = |f: &dyn Fn(&PassResult) -> f64| -> f64 {
        median(&traced.iter().map(|p| f(p)).collect::<Vec<_>>())
    };
    let tracer = &bench.ledger.tracer;
    let is_traced = |pass: u32| traced.iter().any(|p| p.pass == pass);
    // Per traced pass: (span count, summed seconds, summed values) of `name`.
    let span_sums = |name: &'static str, p: &PassResult| -> (f64, f64, f64) {
        tracer
            .spans(name, |pass| pass == p.pass)
            .fold((0.0, 0.0, 0.0), |(n, s, v), span| {
                (n + 1.0, s + span.seconds(), v + span.value as f64)
            })
    };
    let durations = |name: &'static str| -> Vec<f64> {
        tracer.spans(name, is_traced).map(|s| s.seconds()).collect()
    };
    let all_durations = |name: &'static str| -> Vec<f64> {
        tracer.spans(name, |_| true).map(|s| s.seconds()).collect()
    };
    let submit = durations("handle.submit");
    let flush = durations("handle.flush");
    let checkpoint_name = if bench.workload.durable() {
        "checkpoint.checkpoint"
    } else {
        "checkpoint.snapshot"
    };
    let checkpoints = durations(checkpoint_name);
    let rate2 = untraced(SHARDS);
    let engine_s = |p: &PassResult| p.detector_engine_s;
    let wall_cores = |p: &PassResult| p.shards as f64 * p.wall_s;
    let last_setup = setups.last().copied();

    vec![
        metric("cut.precompute_s", median(&of(setups, |s| s.cut_s)), "s"),
        metric(
            "cut.tables",
            last_setup.map_or(0, |s| s.tables) as f64,
            "count",
        ),
        metric(
            "cut.entries",
            last_setup.map_or(0, |s| s.entries) as f64,
            "count",
        ),
        metric("detector.engine_s", per_pass(&engine_s), "s"),
        metric("detector.solo_s", bench.reference.solo_s, "s"),
        metric(
            "detector.solo_ns_per_rec_w25k",
            solo.0.ns_per_record(),
            "ns",
        ),
        metric(
            "detector.solo_ns_per_rec_w10k",
            solo.1.ns_per_record(),
            "ns",
        ),
        metric(
            "detector.share",
            per_pass(&|p| engine_s(p) / wall_cores(p)),
            "ratio",
        ),
        metric(
            "handle.submit_s",
            per_pass(&|p| span_sums("handle.submit", p).1),
            "s",
        ),
        metric("handle.submit_p50_us", quantile(&submit, 0.5) * 1e6, "us"),
        metric("handle.submit_p99_us", p99_or_max(&submit) * 1e6, "us"),
        metric(
            "handle.submit_calls",
            per_pass(&|p| span_sums("handle.submit", p).0),
            "count",
        ),
        metric(
            "handle.flush_s",
            per_pass(&|p| span_sums("handle.flush", p).1),
            "s",
        ),
        metric("handle.flush_p50_ms", quantile(&flush, 0.5) * 1e3, "ms"),
        metric("handle.flush_p99_ms", p99_or_max(&flush) * 1e3, "ms"),
        metric(
            "handle.producer_share",
            per_pass(&|p| span_sums("handle.submit", p).1 / p.wall_s),
            "ratio",
        ),
        metric("handle.shard_scaling", rate2 / untraced(1), "ratio"),
        metric(
            "engine.overhead_ns_per_rec",
            per_pass(&|p| (wall_cores(p) - engine_s(p)) * 1e9 / p.records as f64),
            "ns",
        ),
        metric("shard.imbalance", per_pass(&|p| p.imbalance), "ratio"),
        metric("shard.batch_ewma_ms", per_pass(&|p| p.batch_ewma_ms), "ms"),
        metric(
            "checkpoint.calls",
            per_pass(&|p| span_sums(checkpoint_name, p).0),
            "count",
        ),
        metric("checkpoint.p50_ms", quantile(&checkpoints, 0.5) * 1e3, "ms"),
        metric("checkpoint.p99_ms", p99_or_max(&checkpoints) * 1e3, "ms"),
        metric(
            "checkpoint.bytes",
            per_pass(&|p| span_sums(checkpoint_name, p).2),
            "B",
        ),
        metric(
            "checkpoint.full",
            per_pass(&|p| {
                if bench.workload.durable() {
                    p.checkpoints_full as f64
                } else {
                    span_sums(checkpoint_name, p).0
                }
            }),
            "count",
        ),
        metric(
            "hibernate.streams",
            per_pass(&|p| p.hibernated_streams as f64),
            "count",
        ),
        metric(
            "hibernate.rehydrations",
            per_pass(&|p| p.rehydrations as f64),
            "count",
        ),
        metric(
            "hibernate.bytes",
            per_pass(&|p| p.hibernated_bytes as f64),
            "B",
        ),
        metric(
            "recover.wal_bytes",
            per_pass(&|p| p.recovery.map_or(0.0, |r| r.wal_bytes as f64)),
            "B",
        ),
        metric(
            "recover.load_s",
            median(&all_durations("recover.load")),
            "s",
        ),
        metric(
            "recover.build_s",
            median(&all_durations("recover.build")),
            "s",
        ),
        metric(
            "recover.first_flush_s",
            median(&all_durations("recover.first_flush")),
            "s",
        ),
        metric("sink.events", per_pass(&|p| p.events as f64), "count"),
        metric("sink.mismatched", bench.mismatched as f64, "count"),
        metric(
            "trace.overhead_frac",
            1.0 - rate(traced.iter().copied()) / rate2,
            "ratio",
        ),
    ]
}

/// The `q`-quantile of alert lag, taken per window of consecutive passes
/// holding at least `LAG_WINDOW` events and reported as the median over
/// windows: a few slow seconds of the machine then move one window's figure,
/// not the whole run's tail.
fn windowed_lag(passes: &[PassResult], q: f64) -> f64 {
    let mut per_window = Vec::new();
    let mut window: Vec<f64> = Vec::new();
    for pass in passes {
        window.extend(&pass.lags_ms);
        if window.len() >= LAG_WINDOW {
            per_window.push(quantile(&window, q));
            window.clear();
        }
    }
    if per_window.is_empty() {
        per_window.push(quantile(&window, q));
    }
    median(&per_window)
}

/// Records over ingest time, summed over `passes`: every pass weighs by
/// its duration, so a run's figure does not jump between the modes of a
/// noisy machine the way a median of per-pass rates can.
fn rate<'a>(passes: impl Iterator<Item = &'a PassResult>) -> f64 {
    let (records, seconds) =
        passes.fold((0.0, 0.0), |(r, s), p| (r + p.records as f64, s + p.wall_s));
    records / seconds
}

fn of<T>(items: &[T], f: impl Fn(&T) -> f64) -> Vec<f64> {
    items.iter().map(f).collect()
}

/// The final JSON line. Non-finite values (possible only if a pass measured
/// nothing) are written as 0 so the line always parses.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        write!(
            line,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    line.push_str("}}");
    line
}
