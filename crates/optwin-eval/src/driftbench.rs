//! The `driftbench` grid runner: detection quality as a regression test.
//!
//! Table 1 scores detectors on the paper's own abrupt/gradual error streams.
//! This module widens the evaluation to the full
//! [`ScenarioKind`] catalogue — including the
//! adversarial workloads where the *correct* behaviour is to stay silent
//! (seasonal oscillation, heavy-tailed noise) — and runs every scenario ×
//! detector × seed cell through the sharded engine via the Zipf-skewed
//! [`optwin_engine::replay()`] driver, so the benchmark exercises the exact
//! production ingestion path rather than a bespoke loop.
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
//! binary error streams.

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use optwin_baselines::DetectorSpec;
use optwin_engine::{default_shards, replay, EngineBuilder, EventSink, MemorySink, ReplayConfig};
use optwin_stream::{GeneratedScenario, ScenarioKind};

use crate::metrics::{score_detections, AggregateMetrics, DetectionOutcome};

/// Elements staged per engine queue slot before backpressure kicks in.
const DRIFTBENCH_QUEUE_CAPACITY: usize = 256 * 1_024;

/// Configuration of one driftbench run: which scenarios, which detectors,
/// how many seeded repetitions, and how the replay traffic is shaped.
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
    /// Zipf exponent of the replay traffic mix (see
    /// [`ReplayConfig::zipf_exponent`]).
    pub zipf_exponent: f64,
    /// Records per replay burst.
    pub burst: usize,
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
            zipf_exponent: 1.1,
            burst: 256,
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
    /// Zipf exponent of the replay traffic.
    pub zipf_exponent: f64,
    /// Total records the replay driver pushed through the engine.
    pub replay_records: u64,
    /// Total bursts the replay driver submitted.
    pub replay_bursts: u64,
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
/// streams are pre-registered declaratively, fed concurrently by the
/// Zipf-skewed [`replay()`] driver, flushed once, and scored with
/// [`score_detections`] against each scenario's ground-truth schedule. The
/// whole pipeline is seeded, so repeated calls with the same config return
/// bit-identical reports.
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

    // One engine stream per (cell, seed); consecutive ids spread round-robin
    // over the shard workers.
    let n_streams = cells.len() * config.seeds;
    let shards = config
        .shards
        .unwrap_or_else(default_shards)
        .clamp(1, n_streams);
    let stream_id = |cell: usize, seed: usize| (cell * config.seeds + seed) as u64;

    let sink = Arc::new(MemorySink::new());
    let mut builder = EngineBuilder::new()
        .shards(shards)
        .queue_capacity(DRIFTBENCH_QUEUE_CAPACITY)
        .sink(Arc::clone(&sink) as Arc<dyn EventSink>);
    for (cell, &(_, d)) in cells.iter().enumerate() {
        for seed in 0..config.seeds {
            builder = builder.stream_spec(stream_id(cell, seed), config.detectors[d].1.clone());
        }
    }
    let handle = builder
        .build()
        .expect("specs are valid and stream ids unique by construction");

    // Replay the whole fleet as Zipf-skewed production traffic; `replay`
    // leaves records in flight, so one flush barrier drains everything
    // before the sink is read back.
    let data_ref = &data;
    let sources: Vec<(u64, &[f64])> = cells
        .iter()
        .enumerate()
        .flat_map(|(cell, &(s, _))| {
            (0..config.seeds)
                .map(move |seed| (stream_id(cell, seed), &data_ref[s][seed].values[..]))
        })
        .collect();
    let replay_config = ReplayConfig {
        zipf_exponent: config.zipf_exponent,
        burst: config.burst,
        seed: config.base_seed,
    };
    let report = replay(&handle, &sources, &replay_config).expect("engine running");
    handle.flush().expect("all streams registered");

    let mut detections: HashMap<u64, Vec<usize>> = HashMap::new();
    for event in sink.drain() {
        detections
            .entry(event.stream)
            .or_default()
            .push(event.seq as usize);
    }
    handle.shutdown().expect("clean shutdown");

    // Score every cell over its seeds, and accumulate the per-detector
    // roll-up alongside.
    let mut per_detector: Vec<Vec<DetectionOutcome>> = vec![Vec::new(); config.detectors.len()];
    let out_cells: Vec<DriftbenchCell> = cells
        .iter()
        .enumerate()
        .map(|(cell, &(s, d))| {
            let outcomes: Vec<DetectionOutcome> = (0..config.seeds)
                .map(|seed| {
                    let run = detections
                        .remove(&stream_id(cell, seed))
                        .unwrap_or_default();
                    score_detections(&data[s][seed].schedule, &run)
                })
                .collect();
            per_detector[d].extend(outcomes.iter().cloned());
            let metrics = AggregateMetrics::from_outcomes(&outcomes);
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
        zipf_exponent: config.zipf_exponent,
        replay_records: report.records,
        replay_bursts: report.bursts,
        cells: out_cells,
        by_detector,
    }
}

fn fp_per_10k(false_positives: usize, elements: usize) -> f64 {
    false_positives as f64 * 10_000.0 / elements.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

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
            zipf_exponent: 1.1,
            burst: 128,
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
