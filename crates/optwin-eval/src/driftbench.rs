//! The `driftbench` grid runner: detection quality as a regression test.
//!
//! Table 1 scores detectors on the paper's own abrupt/gradual error streams.
//! This module widens the evaluation to the full
//! [`ScenarioKind`] catalogue — including the
//! adversarial workloads where the *correct* behaviour is to stay silent
//! (seasonal oscillation, heavy-tailed noise) — and runs every scenario ×
//! detector × seed cell as one stream of the sharded engine, submitted
//! through [`EngineHandle::submit`](optwin_engine::EngineHandle::submit) like
//! any production record.
//!
//! The output is a [`DriftbenchReport`]: one [`DriftbenchCell`] per
//! applicable (scenario, detector) pair carrying micro-averaged
//! [`AggregateMetrics`] over the seeds plus a normalised false-positive rate
//! (`fp_per_10k`), and a per-detector roll-up across all scenarios. The
//! report serialises to JSON; `tests/driftbench_quality.rs` pins a
//! scaled-down grid against a checked-in golden file with tolerance bands,
//! and the `driftbench` binary in `crates/bench` emits the full grid.
//!
//! Binary-only detectors (DDM / EDDM / ECDD — see
//! [`DetectorSpec::binary_only`]) are skipped on the real-valued scenarios
//! (`variance`, `heavy-tail`), mirroring how Table 1 restricts them to the
//! binary error streams. Table 1 ([`run_table1`](crate::run_table1)) runs
//! through the same engine → submit → flush → score loop.

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use optwin_baselines::DetectorSpec;
use optwin_engine::{default_shards, EngineBuilder, EventSink, MemorySink};
use optwin_stream::{DriftSchedule, GeneratedScenario, ScenarioKind};

use crate::metrics::{score_detections, AggregateMetrics, DetectionOutcome};

/// Elements staged per engine queue slot before backpressure kicks in.
const GRID_QUEUE_CAPACITY: usize = 256 * 1_024;

/// Records per `submit` call: a run's values go to the engine in chunks of
/// this size.
const GRID_CHUNK: usize = 4_096;

/// Configuration of one driftbench run: which scenarios, which detectors,
/// how many seeded repetitions of which length, and on how many shards.
#[derive(Debug, Clone)]
pub struct DriftbenchConfig {
    /// Scenarios to run (usually [`ScenarioKind::all`]).
    pub scenarios: Vec<ScenarioKind>,
    /// `(label, spec)` detector line-up (usually [`default_lineup`]).
    pub detectors: Vec<(String, DetectorSpec)>,
    /// Number of seeded repetitions per cell.
    pub seeds: usize,
    /// Elements per generated stream.
    pub stream_len: usize,
    /// Base RNG seed; repetition `r` uses `base_seed + r`.
    pub base_seed: u64,
    /// Engine shard count (`None` → one per CPU core, clamped to the stream
    /// count).
    pub shards: Option<usize>,
}

impl DriftbenchConfig {
    /// The full grid: every scenario, the [`default_lineup`], and the given
    /// repetition count / stream length.
    #[must_use]
    pub fn full(seeds: usize, stream_len: usize, optwin_w_max: usize) -> Self {
        Self {
            scenarios: ScenarioKind::all().to_vec(),
            detectors: default_lineup(optwin_w_max),
            seeds,
            stream_len,
            base_seed: 1_000,
            shards: None,
        }
    }
}

/// The canonical driftbench detector line-up: every one of the 8
/// [`DetectorSpec`] kinds at its reference parameters (OPTWIN's window cap
/// is the one free knob, because it must scale with the stream length) plus
/// two representative composites — a cheap-first cascade and a 2-of-3
/// ensemble.
///
/// # Panics
///
/// Never — the spec strings are fixed and valid by construction.
#[must_use]
pub fn default_lineup(optwin_w_max: usize) -> Vec<(String, DetectorSpec)> {
    let optwin = format!("optwin:rho=0.5,w_max={optwin_w_max}");
    let specs = [
        ("optwin", optwin.clone()),
        ("adwin", "adwin".to_string()),
        ("ddm", "ddm".to_string()),
        ("eddm", "eddm".to_string()),
        ("stepd", "stepd".to_string()),
        ("ecdd", "ecdd".to_string()),
        ("page_hinkley", "page_hinkley".to_string()),
        ("kswin", "kswin".to_string()),
        (
            "cascade_ph_optwin",
            format!("cascade:guard=page_hinkley,confirm=[{optwin}]"),
        ),
        (
            "ensemble_2of3",
            "ensemble:vote=2,members=[ddm|ecdd|page_hinkley]".to_string(),
        ),
    ];
    specs
        .into_iter()
        .map(|(label, spec)| {
            (
                label.to_string(),
                spec.parse::<DetectorSpec>()
                    .expect("line-up spec strings are valid"),
            )
        })
        .collect()
}

/// One (scenario, detector) cell of the grid, micro-averaged over the seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftbenchCell {
    /// Scenario id (`"abrupt"`, `"seasonal"`, … — or `"all"` in the
    /// per-detector roll-up).
    pub scenario: String,
    /// Detector label from the line-up.
    pub detector: String,
    /// The spec string the detector was built from.
    pub spec: String,
    /// Micro-averaged detection metrics over the seeds.
    pub metrics: AggregateMetrics,
    /// False positives per 10 000 stream elements — the scale-free FP rate
    /// (comparable across stream lengths and seed counts).
    pub fp_per_10k: f64,
}

/// The full grid result, JSON-serialisable for the golden quality suite and
/// the `driftbench` binary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftbenchReport {
    /// Elements per generated stream.
    pub stream_len: usize,
    /// Seeded repetitions per cell.
    pub seeds: usize,
    /// One cell per applicable (scenario, detector) pair, scenario-major in
    /// line-up order.
    pub cells: Vec<DriftbenchCell>,
    /// Per-detector roll-up across every scenario it ran on
    /// (`scenario == "all"`).
    pub by_detector: Vec<DriftbenchCell>,
}

impl DriftbenchReport {
    /// Looks up the cell for a `(scenario id, detector label)` pair.
    #[must_use]
    pub fn cell(&self, scenario: &str, detector: &str) -> Option<&DriftbenchCell> {
        self.cells
            .iter()
            .find(|c| c.scenario == scenario && c.detector == detector)
    }
}

/// Runs the scenario × detector × seed grid through the sharded engine.
///
/// Every applicable cell becomes `seeds` engine streams (detectors skip
/// scenarios they cannot read — see [`DetectorSpec::binary_only`]); all
/// streams are pre-registered declaratively, fed one after another, flushed
/// once, and scored with [`score_detections`] against each scenario's
/// ground-truth schedule. A detection depends only on its own stream's
/// values in order, so the scores are those of a detector fed each run
/// directly. The whole pipeline is seeded, so repeated calls with the same
/// config return bit-identical reports.
///
/// # Panics
///
/// Panics if the config is degenerate (no scenarios, no detectors, zero
/// seeds or an empty stream) or if a spec fails to build — both are
/// programming errors in the caller's line-up, not data-dependent failures.
#[must_use]
pub fn run_driftbench(config: &DriftbenchConfig) -> DriftbenchReport {
    assert!(!config.scenarios.is_empty(), "no scenarios configured");
    assert!(!config.detectors.is_empty(), "no detectors configured");
    assert!(config.seeds > 0, "need at least one seed");
    assert!(config.stream_len > 0, "need a non-empty stream");

    // Applicable (scenario index, detector index) cells, scenario-major.
    let cells: Vec<(usize, usize)> = config
        .scenarios
        .iter()
        .enumerate()
        .flat_map(|(s, scenario)| {
            config
                .detectors
                .iter()
                .enumerate()
                .filter(move |(_, (_, spec))| scenario.binary_signal() || !spec.binary_only())
                .map(move |(d, _)| (s, d))
        })
        .collect();

    // Generate every scenario × seed sequence once; all detectors on a cell
    // see exactly the same data (as in MOA).
    let data: Vec<Vec<GeneratedScenario>> = config
        .scenarios
        .iter()
        .map(|scenario| {
            (0..config.seeds)
                .map(|r| scenario.generate(config.stream_len, config.base_seed + r as u64))
                .collect()
        })
        .collect();
    let runs: Vec<Vec<Run<'_>>> = data
        .iter()
        .map(|seeds| seeds.iter().map(|g| (&g.values[..], &g.schedule)).collect())
        .collect();

    let grid: Vec<(&DetectorSpec, &[Run<'_>])> = cells
        .iter()
        .map(|&(s, d)| (&config.detectors[d].1, &runs[s][..]))
        .collect();
    let scores = run_grid(&grid, config.shards);

    // Aggregate every cell over its seeds, and accumulate the per-detector
    // roll-up alongside.
    let mut per_detector: Vec<Vec<DetectionOutcome>> = vec![Vec::new(); config.detectors.len()];
    let out_cells: Vec<DriftbenchCell> = cells
        .iter()
        .zip(scores)
        .map(|(&(s, d), score)| {
            let metrics = AggregateMetrics::from_outcomes(&score.outcomes);
            per_detector[d].extend(score.outcomes);
            DriftbenchCell {
                scenario: config.scenarios[s].id().to_string(),
                detector: config.detectors[d].0.clone(),
                spec: config.detectors[d].1.to_string(),
                fp_per_10k: fp_per_10k(metrics.false_positives, config.seeds * config.stream_len),
                metrics,
            }
        })
        .collect();

    let by_detector = config
        .detectors
        .iter()
        .enumerate()
        .filter(|(d, _)| !per_detector[*d].is_empty())
        .map(|(d, (label, spec))| {
            let metrics = AggregateMetrics::from_outcomes(&per_detector[d]);
            DriftbenchCell {
                scenario: "all".to_string(),
                detector: label.clone(),
                spec: spec.to_string(),
                fp_per_10k: fp_per_10k(
                    metrics.false_positives,
                    per_detector[d].len() * config.stream_len,
                ),
                metrics,
            }
        })
        .collect();

    DriftbenchReport {
        stream_len: config.stream_len,
        seeds: config.seeds,
        cells: out_cells,
        by_detector,
    }
}

/// One seeded run of a grid cell: the values fed to the detector and their
/// ground-truth drift schedule.
pub(crate) type Run<'a> = (&'a [f64], &'a DriftSchedule);

/// A scored grid cell.
pub(crate) struct CellScore {
    /// One scored outcome per run, in run order.
    pub(crate) outcomes: Vec<DetectionOutcome>,
    /// Seconds spent inside the cell's detectors, summed over its runs.
    pub(crate) detector_seconds: f64,
}

/// The engine → submit → flush → score loop behind both grid runners
/// ([`run_driftbench`] and [`run_table1`](crate::run_table1)).
///
/// Every `(spec, runs)` cell becomes one engine stream per run, numbered in
/// cell-major order so consecutive ids spread round-robin over the shard
/// workers. All streams are registered up front; each run's values are then
/// submitted in order, run after run, in chunks of `GRID_CHUNK` records,
/// while the shard queues keep every worker busy. One flush drains the
/// queues, and each run's detections are scored against its schedule.
/// `shards` is clamped to the stream count (`None` = one shard per CPU
/// core).
pub(crate) fn run_grid(
    cells: &[(&DetectorSpec, &[Run<'_>])],
    shards: Option<usize>,
) -> Vec<CellScore> {
    let n_streams: usize = cells.iter().map(|(_, runs)| runs.len()).sum();
    let shards = shards
        .unwrap_or_else(default_shards)
        .clamp(1, n_streams.max(1));

    let sink = Arc::new(MemorySink::new());
    let mut builder = EngineBuilder::new()
        .shards(shards)
        .queue_capacity(GRID_QUEUE_CAPACITY)
        .sink(Arc::clone(&sink) as Arc<dyn EventSink>);
    let mut sources: Vec<&[f64]> = Vec::with_capacity(n_streams);
    for &(spec, runs) in cells {
        for &(values, _) in runs {
            builder = builder.stream_spec(sources.len() as u64, spec.clone());
            sources.push(values);
        }
    }
    let handle = builder
        .build()
        .expect("specs are valid and stream ids unique by construction");

    // `submit` returns once the records are queued, so one flush barrier
    // drains everything before the sink is read back.
    let mut records: Vec<(u64, f64)> = Vec::with_capacity(GRID_CHUNK);
    for (id, values) in (0u64..).zip(&sources) {
        for chunk in values.chunks(GRID_CHUNK) {
            records.clear();
            records.extend(chunk.iter().map(|&v| (id, v)));
            handle.submit(&records).expect("engine running");
        }
    }
    handle.flush().expect("all streams registered");

    // The sink preserves per-stream emission order (increasing seq), so
    // grouping by stream yields sorted detection lists.
    let mut detections: HashMap<u64, Vec<usize>> = HashMap::new();
    for event in sink.drain() {
        detections
            .entry(event.stream)
            .or_default()
            .push(event.seq as usize);
    }
    let seconds: HashMap<u64, f64> = handle
        .stream_snapshots()
        .expect("engine running")
        .into_iter()
        .map(|s| (s.stream, s.detector_seconds))
        .collect();
    handle.shutdown().expect("clean shutdown");

    let mut id = 0u64;
    cells
        .iter()
        .map(|&(_, runs)| {
            let mut detector_seconds = 0.0;
            let outcomes = runs
                .iter()
                .map(|&(_, schedule)| {
                    let run = detections.remove(&id).unwrap_or_default();
                    detector_seconds += seconds.get(&id).copied().unwrap_or(0.0);
                    id += 1;
                    score_detections(schedule, &run)
                })
                .collect();
            CellScore {
                outcomes,
                detector_seconds,
            }
        })
        .collect()
}

fn fp_per_10k(false_positives: usize, elements: usize) -> f64 {
    false_positives as f64 * 10_000.0 / elements.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::run_detector_on_sequence;

    fn small_config() -> DriftbenchConfig {
        DriftbenchConfig {
            scenarios: vec![ScenarioKind::AbruptMeanShift, ScenarioKind::VarianceOnly],
            detectors: default_lineup(500)
                .into_iter()
                .filter(|(label, _)| matches!(label.as_str(), "optwin" | "ddm" | "page_hinkley"))
                .collect(),
            seeds: 2,
            stream_len: 3_000,
            base_seed: 7,
            shards: Some(2),
        }
    }

    #[test]
    fn grid_covers_applicable_cells_only() {
        let report = run_driftbench(&small_config());
        // abrupt (binary) takes all 3 detectors; variance (real-valued)
        // drops the binary-only DDM.
        assert_eq!(report.cells.len(), 5);
        assert!(report.cell("abrupt", "ddm").is_some());
        assert!(report.cell("variance", "ddm").is_none());
        assert!(report.cell("variance", "optwin").is_some());
        for cell in &report.cells {
            assert_eq!(cell.metrics.runs, 2, "{cell:?}");
        }
        // The roll-up has one row per detector that ran anywhere.
        assert_eq!(report.by_detector.len(), 3);
    }

    #[test]
    fn scoring_invariants_hold_per_cell() {
        let config = small_config();
        let report = run_driftbench(&config);
        for cell in &report.cells {
            let scenario: ScenarioKind = cell.scenario.parse().expect("known id");
            let n_drifts = scenario.n_drifts(config.stream_len);
            assert_eq!(
                cell.metrics.true_positives + cell.metrics.false_negatives,
                n_drifts * config.seeds,
                "TP+FN must partition the true drifts in {cell:?}"
            );
        }
    }

    #[test]
    fn grid_scores_equal_a_direct_detector_feed() {
        let config = small_config();
        let report = run_driftbench(&config);
        for cell in &report.cells {
            let scenario: ScenarioKind = cell.scenario.parse().expect("known id");
            let (_, spec) = config
                .detectors
                .iter()
                .find(|(label, _)| *label == cell.detector)
                .expect("line-up label");
            let outcomes: Vec<DetectionOutcome> = (0..config.seeds)
                .map(|r| {
                    let run = scenario.generate(config.stream_len, config.base_seed + r as u64);
                    let mut detector = spec.build().expect("valid spec");
                    run_detector_on_sequence(detector.as_mut(), &run.values, &run.schedule).outcome
                })
                .collect();
            assert_eq!(
                cell.metrics,
                AggregateMetrics::from_outcomes(&outcomes),
                "{}/{}",
                cell.scenario,
                cell.detector
            );
        }
    }

    #[test]
    fn report_is_deterministic() {
        let config = small_config();
        let a = run_driftbench(&config);
        let b = run_driftbench(&config);
        assert_eq!(a, b);
    }

    #[test]
    fn report_roundtrips_through_json() {
        let report = run_driftbench(&small_config());
        let json = serde_json::to_string_pretty(&report).expect("serializable");
        let back: DriftbenchReport = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(report, back);
    }

    #[test]
    fn default_lineup_covers_every_kind_and_two_composites() {
        let lineup = default_lineup(1_000);
        assert_eq!(lineup.len(), 10);
        let ids: Vec<&str> = lineup.iter().map(|(_, s)| s.id()).collect();
        for kind in optwin_baselines::DETECTOR_IDS {
            assert!(ids.contains(&kind), "missing {kind}");
        }
        assert!(ids.contains(&"cascade"));
        assert!(ids.contains(&"ensemble"));
    }
}
