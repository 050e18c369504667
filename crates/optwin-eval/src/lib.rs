//! # optwin-eval — evaluation harness
//!
//! Everything needed to regenerate the paper's evaluation section:
//!
//! * [`metrics`] — scoring of drift detections against a ground-truth
//!   schedule (TP / FP / FN, precision, recall, F1, detection delay), with
//!   micro-averaged aggregation over repeated runs exactly as in Table 1.
//! * [`experiment`] — the paper's detector line-up as `(label, spec)` data
//!   ([`paper_lineup`]: the five baselines plus OPTWIN at three ρ), the seven
//!   Table 1 experiment configurations (binary / non-binary error streams
//!   with sudden / gradual drifts, and the STAGGER / RandomRBF / AGRAWAL
//!   classification streams) and [`run_table1`], which scores a line-up on
//!   one of them.
//! * [`classification`] — the Table 2 experiments: prequential Naive-Bayes
//!   accuracy under each detector on synthetic and real-world-like streams.
//! * [`nn_pipeline`] — the Figure 5 experiment: drift detection over the loss
//!   of a neural network with label-swap drifts and fine-tuning cost
//!   accounting.
//! * [`report`] — plain-text table rendering and JSON-serialisable result
//!   records used by the benchmark binaries.
//! * [`driftbench`] — the adversarial scenario grid: every detector spec
//!   kind plus composite cascades/ensembles across the full
//!   [`optwin_stream::ScenarioKind`] catalogue, each seeded run fed straight
//!   to its own detector and scored into a JSON-serialisable quality report.
//!   Its grid runner (one detector per run, the runs spread over the
//!   available cores) also runs Table 1.
//!
//! ```
//! use optwin_eval::metrics::score_detections;
//! use optwin_stream::DriftSchedule;
//!
//! let schedule = DriftSchedule::new(vec![1_000, 2_000], 1, 3_000);
//! let outcome = score_detections(&schedule, &[1_050, 1_500, 2_040]);
//! assert_eq!(outcome.true_positives, 2);
//! assert_eq!(outcome.false_positives, 1);
//! assert_eq!(outcome.false_negatives, 0);
//! assert!((outcome.mean_delay.unwrap() - 45.0).abs() < 1e-9);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod classification;
pub mod driftbench;
pub mod experiment;
pub mod metrics;
pub mod nn_pipeline;
pub mod report;

pub use classification::{ClassificationExperiment, ClassificationOutcome};
pub use driftbench::{
    default_lineup, run_driftbench, DriftbenchCell, DriftbenchConfig, DriftbenchReport,
};
pub use experiment::{paper_lineup, run_table1, DetectionRun, Table1Aggregate, Table1Experiment};
pub use metrics::{score_detections, AggregateMetrics, DetectionOutcome};
pub use nn_pipeline::{NnPipelineConfig, NnPipelineOutcome};
