//! The Table 1 experiment configurations and runner.
//!
//! Table 1 of the paper evaluates every detector on seven synthetic
//! configurations, each repeated 30 times with different seeds:
//!
//! 1. gradual binary drift (Bernoulli error stream),
//! 2. gradual non-binary drift (real-valued error stream),
//! 3. sudden binary drift,
//! 4. sudden non-binary drift,
//! 5. sudden STAGGER (Naive Bayes errors),
//! 6. sudden RandomRBF (Naive Bayes errors),
//! 7. sudden AGRAWAL (Naive Bayes errors),
//!
//! reporting the average detection delay, FP count, micro-averaged precision,
//! recall and F1 per detector.

use serde::{Deserialize, Serialize};

use optwin_baselines::DetectorSpec;
use optwin_core::{DriftDetector, OptwinConfig};
use optwin_learners::{NaiveBayes, OnlineLearner};
use optwin_stream::drift::MultiConceptStream;
use optwin_stream::generators::{
    Agrawal, AgrawalFunction, RandomRbf, RandomRbfConfig, Stagger, StaggerConcept,
};
use optwin_stream::{DriftKind, DriftSchedule, ErrorStream, ErrorStreamConfig, InstanceStream};

use crate::driftbench::{run_grid, Run};
use crate::metrics::{score_detections, AggregateMetrics, DetectionOutcome};

/// The detector line-up of the paper's Tables 1 and 2 as `(label, spec)`
/// pairs: the five baselines at their reference defaults, then OPTWIN at
/// ρ ∈ {0.1, 0.5, 1.0}. `optwin_w_max` caps OPTWIN's window (the paper uses
/// 25 000; tests use smaller values to keep the cut tables cheap).
#[must_use]
pub fn paper_lineup(optwin_w_max: usize) -> Vec<(String, DetectorSpec)> {
    let baselines = ["ADWIN", "DDM", "EDDM", "STEPD", "ECDD"].map(|label| {
        let spec = DetectorSpec::default_for(label).expect("baseline ids are valid");
        (label.to_string(), spec)
    });
    let optwin = [0.1, 0.5, 1.0].map(|rho| {
        let config = OptwinConfig {
            rho,
            w_max: optwin_w_max,
            ..OptwinConfig::default()
        };
        (
            format!("OPTWIN rho={rho:.1}"),
            DetectorSpec::Optwin { config },
        )
    });
    baselines.into_iter().chain(optwin).collect()
}

/// One of the paper's Table 1 experiment configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Table1Experiment {
    /// Bernoulli error stream with gradual drifts.
    GradualBinary,
    /// Real-valued error stream with gradual drifts.
    GradualNonBinary,
    /// Bernoulli error stream with sudden drifts.
    SuddenBinary,
    /// Real-valued error stream with sudden drifts.
    SuddenNonBinary,
    /// STAGGER stream classified by Naive Bayes, sudden concept changes.
    Stagger,
    /// RandomRBF stream classified by Naive Bayes, sudden concept changes.
    RandomRbf,
    /// AGRAWAL stream classified by Naive Bayes, sudden concept changes.
    Agrawal,
}

impl Table1Experiment {
    /// All seven experiments in the order of Table 1.
    #[must_use]
    pub fn all() -> [Table1Experiment; 7] {
        [
            Table1Experiment::GradualBinary,
            Table1Experiment::GradualNonBinary,
            Table1Experiment::SuddenBinary,
            Table1Experiment::SuddenNonBinary,
            Table1Experiment::Stagger,
            Table1Experiment::RandomRbf,
            Table1Experiment::Agrawal,
        ]
    }

    /// The label used in the paper's table.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Table1Experiment::GradualBinary => "gradual binary drift",
            Table1Experiment::GradualNonBinary => "gradual non-binary drift",
            Table1Experiment::SuddenBinary => "sudden binary drift",
            Table1Experiment::SuddenNonBinary => "sudden non-binary drift",
            Table1Experiment::Stagger => "sudden STAGGER",
            Table1Experiment::RandomRbf => "sudden RANDOM RBF",
            Table1Experiment::Agrawal => "sudden AGRAWAL",
        }
    }

    /// Whether the experiment produces binary error indicators (DDM, EDDM and
    /// ECDD can only run on those; the paper omits them from the non-binary
    /// rows).
    #[must_use]
    pub fn binary_signal(&self) -> bool {
        !matches!(
            self,
            Table1Experiment::GradualNonBinary | Table1Experiment::SuddenNonBinary
        )
    }

    /// Stream length used by the experiment. The error-stream experiments use
    /// shorter streams than the 100 000-instance classification streams, as
    /// in the paper's MOA "Concept Drift interface" runs.
    #[must_use]
    pub fn default_stream_len(&self) -> usize {
        match self {
            Table1Experiment::GradualBinary
            | Table1Experiment::GradualNonBinary
            | Table1Experiment::SuddenBinary
            | Table1Experiment::SuddenNonBinary => 20_000,
            _ => 100_000,
        }
    }

    /// Default number of drifts injected.
    ///
    /// The error-stream experiments inject a **single** upward drift per run
    /// (error rate 5 % → 25 %, or loss mean 0.2 → 0.5). This matches the
    /// paper's reported 100 % recall for the one-directional detectors (DDM,
    /// ECDD, and OPTWIN in its degradation-only configuration), which could
    /// not all detect a drift that lowers the error rate. The classification
    /// experiments keep the paper's "drift every 20 000 instances" layout
    /// (four drifts per 100 000-instance stream): there every concept switch
    /// degrades the stale classifier, so all drifts are upward in the error
    /// signal.
    #[must_use]
    pub fn default_n_drifts(&self) -> usize {
        match self {
            Table1Experiment::GradualBinary
            | Table1Experiment::GradualNonBinary
            | Table1Experiment::SuddenBinary
            | Table1Experiment::SuddenNonBinary => 1,
            _ => 4,
        }
    }

    /// Builds the error sequence (one value per stream element, as seen by a
    /// drift detector) plus its ground-truth schedule for the given seed and
    /// stream length.
    #[must_use]
    pub fn build_error_sequence(&self, seed: u64, stream_len: usize) -> (Vec<f64>, DriftSchedule) {
        let interval = stream_len / (self.default_n_drifts() + 1);
        match self {
            Table1Experiment::GradualBinary => {
                let schedule = DriftSchedule::every(interval, stream_len, 1_000.min(interval / 2));
                let stream = ErrorStream::new(
                    ErrorStreamConfig::binary(DriftKind::Gradual, schedule.clone()),
                    seed,
                );
                (stream.collect_all(), schedule)
            }
            Table1Experiment::GradualNonBinary => {
                let schedule = DriftSchedule::every(interval, stream_len, 1_000.min(interval / 2));
                let stream = ErrorStream::new(
                    ErrorStreamConfig::real_valued(DriftKind::Gradual, schedule.clone()),
                    seed,
                );
                (stream.collect_all(), schedule)
            }
            Table1Experiment::SuddenBinary => {
                let schedule = DriftSchedule::every(interval, stream_len, 1);
                let stream = ErrorStream::new(
                    ErrorStreamConfig::binary(DriftKind::Sudden, schedule.clone()),
                    seed,
                );
                (stream.collect_all(), schedule)
            }
            Table1Experiment::SuddenNonBinary => {
                let schedule = DriftSchedule::every(interval, stream_len, 1);
                let stream = ErrorStream::new(
                    ErrorStreamConfig::real_valued(DriftKind::Sudden, schedule.clone()),
                    seed,
                );
                (stream.collect_all(), schedule)
            }
            Table1Experiment::Stagger | Table1Experiment::RandomRbf | Table1Experiment::Agrawal => {
                let schedule = DriftSchedule::every(interval, stream_len, 1);
                let mut stream = self.build_classification_stream(seed, &schedule);
                let mut learner = NaiveBayes::new(&stream.schema(), stream.n_classes());
                let mut errors = Vec::with_capacity(stream_len);
                for _ in 0..stream_len {
                    let inst = stream.next_instance();
                    let error = if learner.predict(&inst) == inst.label {
                        0.0
                    } else {
                        1.0
                    };
                    errors.push(error);
                    learner.learn(&inst);
                }
                (errors, schedule)
            }
        }
    }

    /// Builds the classification stream behind the STAGGER / RandomRBF /
    /// AGRAWAL experiments.
    ///
    /// # Panics
    ///
    /// Panics if called for one of the error-stream experiments.
    #[must_use]
    pub fn build_classification_stream(
        &self,
        seed: u64,
        schedule: &DriftSchedule,
    ) -> MultiConceptStream {
        let n_segments = schedule.n_drifts() + 1;
        let concepts: Vec<Box<dyn InstanceStream + Send>> = match self {
            Table1Experiment::Stagger => (0..n_segments)
                .map(|k| {
                    Box::new(Stagger::new(StaggerConcept::cycle(k), seed + k as u64))
                        as Box<dyn InstanceStream + Send>
                })
                .collect(),
            Table1Experiment::RandomRbf => (0..n_segments)
                .map(|k| {
                    let config = RandomRbfConfig {
                        model_seed: seed.wrapping_mul(31).wrapping_add(k as u64),
                        ..RandomRbfConfig::default()
                    };
                    Box::new(RandomRbf::new(config, seed + k as u64))
                        as Box<dyn InstanceStream + Send>
                })
                .collect(),
            Table1Experiment::Agrawal => (0..n_segments)
                .map(|k| {
                    Box::new(Agrawal::new(AgrawalFunction::cycle(k), seed + k as u64))
                        as Box<dyn InstanceStream + Send>
                })
                .collect(),
            _ => panic!("{self:?} is not a classification experiment"),
        };
        MultiConceptStream::new(concepts, schedule.clone(), seed + 1_000)
    }
}

/// The result of running one detector over one generated stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectionRun {
    /// Indices at which the detector flagged drifts.
    pub detections: Vec<usize>,
    /// Scoring of those detections against the ground truth.
    pub outcome: DetectionOutcome,
    /// Wall-clock seconds spent inside the detector (`add_batch` only).
    pub detector_seconds: f64,
}

/// Runs a detector over a pre-generated error sequence (through its batch
/// path) and scores it.
#[must_use]
pub fn run_detector_on_sequence(
    detector: &mut (impl DriftDetector + ?Sized),
    errors: &[f64],
    schedule: &DriftSchedule,
) -> DetectionRun {
    let start = std::time::Instant::now();
    let detections = detector.add_batch(errors).drift_indices;
    let detector_seconds = start.elapsed().as_secs_f64();
    let outcome = score_detections(schedule, &detections);
    DetectionRun {
        detections,
        outcome,
        detector_seconds,
    }
}

/// Aggregated Table 1 row for one (experiment, detector) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Aggregate {
    /// Experiment the row belongs to.
    pub experiment: Table1Experiment,
    /// Detector label (as printed in the table).
    pub detector: String,
    /// Micro-averaged metrics over the repetitions.
    pub metrics: AggregateMetrics,
    /// Mean wall-clock seconds per run spent inside the detector.
    pub mean_detector_seconds: f64,
}

/// Runs one Table 1 experiment for a `(label, spec)` detector line-up
/// (usually [`paper_lineup`]) and aggregates one row per detector.
///
/// Repetition `r` uses seed `base_seed + r`, and every detector sees the
/// same sequences (as in MOA). Binary-only detectors
/// ([`DetectorSpec::binary_only`]) are skipped on the non-binary
/// experiments, as in the paper. `stream_len` overrides the experiment's
/// default length (`None` = paper scale); `shards` picks the engine shard
/// count (`None` = one per CPU core).
///
/// Each (detector, repetition) run is one engine stream, submitted in order
/// and scored after one flush — the loop
/// [`run_driftbench`](crate::run_driftbench) uses. Results are identical
/// for every shard count.
///
/// # Panics
///
/// Panics if `repetitions` is zero, if a spec fails validation, or if the
/// engine shuts down mid-run (a detector panicked on a worker thread).
#[must_use]
pub fn run_table1(
    experiment: Table1Experiment,
    detectors: &[(String, DetectorSpec)],
    repetitions: usize,
    stream_len: Option<usize>,
    base_seed: u64,
    shards: Option<usize>,
) -> Vec<Table1Aggregate> {
    assert!(repetitions > 0, "need at least one repetition");
    let stream_len = stream_len.unwrap_or_else(|| experiment.default_stream_len());
    let sequences: Vec<(Vec<f64>, DriftSchedule)> = (0..repetitions)
        .map(|r| experiment.build_error_sequence(base_seed + r as u64, stream_len))
        .collect();
    let runs: Vec<Run<'_>> = sequences
        .iter()
        .map(|(values, schedule)| (&values[..], schedule))
        .collect();

    let applicable: Vec<&(String, DetectorSpec)> = detectors
        .iter()
        .filter(|(_, spec)| experiment.binary_signal() || !spec.binary_only())
        .collect();
    let cells: Vec<(&DetectorSpec, &[Run<'_>])> = applicable
        .iter()
        .map(|(_, spec)| (spec, &runs[..]))
        .collect();
    let scores = run_grid(&cells, shards);

    applicable
        .into_iter()
        .zip(scores)
        .map(|((label, _), score)| Table1Aggregate {
            experiment,
            detector: label.clone(),
            metrics: AggregateMetrics::from_outcomes(&score.outcomes),
            mean_detector_seconds: score.detector_seconds / repetitions as f64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_metadata() {
        assert_eq!(Table1Experiment::all().len(), 7);
        assert!(Table1Experiment::SuddenBinary.binary_signal());
        assert!(!Table1Experiment::SuddenNonBinary.binary_signal());
        assert_eq!(Table1Experiment::Stagger.label(), "sudden STAGGER");
        assert_eq!(Table1Experiment::Agrawal.default_stream_len(), 100_000);
    }

    #[test]
    fn paper_lineup_keeps_the_paper_labels_and_specs() {
        let lineup = paper_lineup(777);
        let labels: Vec<&str> = lineup.iter().map(|(label, _)| label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "ADWIN",
                "DDM",
                "EDDM",
                "STEPD",
                "ECDD",
                "OPTWIN rho=0.1",
                "OPTWIN rho=0.5",
                "OPTWIN rho=1.0"
            ]
        );
        let binary_only: Vec<bool> = lineup.iter().map(|(_, s)| s.binary_only()).collect();
        assert_eq!(
            binary_only,
            [false, true, true, false, true, false, false, false]
        );
        for (label, spec) in &lineup {
            spec.validate().expect("valid spec");
            // The spec string round-trips, so rows are reproducible from
            // their printed spec alone.
            let parsed: DetectorSpec = spec.to_string().parse().unwrap();
            assert_eq!(&parsed, spec, "{label}");
        }
        let DetectorSpec::Optwin { config } = &lineup[6].1 else {
            panic!("wrong variant")
        };
        assert_eq!((config.rho, config.w_max), (0.5, 777));
    }

    #[test]
    fn error_sequences_have_expected_shape() {
        for exp in [
            Table1Experiment::SuddenBinary,
            Table1Experiment::GradualBinary,
        ] {
            let (errors, schedule) = exp.build_error_sequence(1, 5_000);
            assert_eq!(errors.len(), 5_000);
            assert_eq!(schedule.n_drifts(), 1);
            assert!(errors.iter().all(|&e| e == 0.0 || e == 1.0));
            // The single drift is an error-rate increase.
            let drift = schedule.positions()[0];
            let before: f64 = errors[..drift].iter().sum::<f64>() / drift as f64;
            let after: f64 = errors[drift..].iter().sum::<f64>() / (errors.len() - drift) as f64;
            assert!(after > before);
        }
        let (errors, _) = Table1Experiment::SuddenNonBinary.build_error_sequence(1, 3_000);
        assert!(errors.iter().any(|&e| e != 0.0 && e != 1.0));
        // The classification experiments keep four drifts.
        let (_, schedule) = Table1Experiment::Stagger.build_error_sequence(1, 10_000);
        assert_eq!(schedule.n_drifts(), 4);
    }

    #[test]
    fn classification_error_sequence_reflects_drifts() {
        // The Naive Bayes error rate must jump right after each concept
        // change — that is what the detectors key on.
        let (errors, schedule) = Table1Experiment::Stagger.build_error_sequence(3, 10_000);
        assert_eq!(errors.len(), 10_000);
        let drift = schedule.positions()[0];
        let before: f64 = errors[drift - 500..drift].iter().sum::<f64>() / 500.0;
        let after: f64 = errors[drift..drift + 500].iter().sum::<f64>() / 500.0;
        assert!(
            after > before + 0.1,
            "error rate should jump at the drift: {before} -> {after}"
        );
    }

    #[test]
    fn run_detector_on_sequence_scores_consistently() {
        let (errors, schedule) = Table1Experiment::SuddenBinary.build_error_sequence(5, 5_000);
        let mut detector = paper_lineup(1_000)[6].1.build().unwrap();
        let run = run_detector_on_sequence(detector.as_mut(), &errors, &schedule);
        assert_eq!(
            run.outcome.true_positives + run.outcome.false_negatives,
            schedule.n_drifts()
        );
        assert!(run.detector_seconds >= 0.0);
    }

    #[test]
    fn grid_is_deterministic_across_shard_counts() {
        let run = |shards: Option<usize>| {
            run_table1(
                Table1Experiment::SuddenBinary,
                &paper_lineup(800),
                2,
                Some(4_000),
                7,
                shards,
            )
        };
        let sequential = run(Some(1));
        for other in [run(Some(4)), run(None)] {
            assert_eq!(other.len(), sequential.len());
            for (a, b) in sequential.iter().zip(&other) {
                assert_eq!(a.detector, b.detector);
                assert_eq!(a.metrics, b.metrics, "{}", a.detector);
            }
        }
    }

    #[test]
    fn grid_scores_equal_a_direct_detector_feed() {
        let experiment = Table1Experiment::GradualBinary;
        let lineup = paper_lineup(800);
        let rows = run_table1(experiment, &lineup, 2, Some(4_000), 7, Some(2));
        assert_eq!(rows.len(), lineup.len());
        for ((label, spec), row) in lineup.iter().zip(&rows) {
            assert_eq!(&row.detector, label);
            let outcomes: Vec<DetectionOutcome> = (0..2)
                .map(|r| {
                    let (errors, schedule) = experiment.build_error_sequence(7 + r, 4_000);
                    let mut detector = spec.build().expect("valid spec");
                    run_detector_on_sequence(detector.as_mut(), &errors, &schedule).outcome
                })
                .collect();
            assert_eq!(
                row.metrics,
                AggregateMetrics::from_outcomes(&outcomes),
                "{label}"
            );
        }
    }

    #[test]
    fn binary_only_detectors_are_skipped_on_non_binary_experiments() {
        let detectors: Vec<(String, DetectorSpec)> = ["ddm", "adwin"]
            .map(|id| (id.to_string(), id.parse().unwrap()))
            .to_vec();
        let rows = run_table1(
            Table1Experiment::SuddenNonBinary,
            &detectors,
            1,
            Some(2_000),
            5,
            Some(2),
        );
        assert_eq!(rows.len(), 1, "binary-only DDM skipped");
        assert_eq!(rows[0].detector, "adwin");
    }

    #[test]
    fn small_scale_table1_grid_runs() {
        let lineup = paper_lineup(1_000);
        let rows = run_table1(
            Table1Experiment::SuddenBinary,
            &lineup,
            2,
            Some(5_000),
            42,
            None,
        );
        // All eight detectors apply to the binary experiment.
        assert_eq!(rows.len(), 8);
        for row in &rows {
            assert_eq!(row.metrics.runs, 2);
            assert!(row.metrics.precision >= 0.0 && row.metrics.precision <= 1.0);
            assert!(row.metrics.recall >= 0.0 && row.metrics.recall <= 1.0);
        }
        // OPTWIN rho=0.5 should detect at least half of the drifts on this
        // easy stream.
        let optwin = rows
            .iter()
            .find(|r| r.detector == "OPTWIN rho=0.5")
            .unwrap();
        assert!(
            optwin.metrics.recall >= 0.5,
            "recall = {}",
            optwin.metrics.recall
        );
        // A one-entry line-up reproduces its row of the full line-up: every
        // run is an isolated engine stream.
        let alone = run_table1(
            Table1Experiment::SuddenBinary,
            &lineup[6..7],
            2,
            Some(5_000),
            42,
            Some(2),
        );
        assert_eq!(alone.len(), 1);
        assert_eq!(alone[0].metrics, optwin.metrics);
    }
}
