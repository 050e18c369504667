//! The Table 2 experiments: Naive-Bayes accuracy under each drift detector.
//!
//! The paper trains MOA's Naive Bayes classifier prequentially on synthetic
//! streams (STAGGER, RandomRBF, AGRAWAL — with sudden and gradual drifts) and
//! on two real-world datasets (Electricity, Covertype — replaced here by the
//! synthetic stand-ins of [`optwin_stream::realworld`]). The classifier is
//! reset whenever its drift detector fires; the reported number is the final
//! prequential accuracy. A "No drift detector" row serves as the baseline.

use serde::{Deserialize, Serialize};

use optwin_baselines::DetectorSpec;
use optwin_core::DriftStatus;
use optwin_learners::{NaiveBayes, OnlineLearner};
use optwin_stream::realworld::{CovertypeLike, ElectricityLike};
use optwin_stream::{DriftSchedule, InstanceStream};

use crate::experiment::Table1Experiment;

/// One column group of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ClassificationExperiment {
    /// STAGGER with sudden concept changes.
    SuddenStagger,
    /// RandomRBF with sudden concept changes.
    SuddenRandomRbf,
    /// AGRAWAL with sudden concept changes.
    SuddenAgrawal,
    /// STAGGER with gradual concept changes.
    GradualStagger,
    /// RandomRBF with gradual concept changes.
    GradualRandomRbf,
    /// AGRAWAL with gradual concept changes.
    GradualAgrawal,
    /// Electricity-like real-world substitute stream.
    Electricity,
    /// Covertype-like real-world substitute stream.
    Covertype,
}

impl ClassificationExperiment {
    /// All eight column groups in the order of Table 2.
    #[must_use]
    pub fn all() -> [ClassificationExperiment; 8] {
        [
            ClassificationExperiment::SuddenStagger,
            ClassificationExperiment::SuddenRandomRbf,
            ClassificationExperiment::SuddenAgrawal,
            ClassificationExperiment::GradualStagger,
            ClassificationExperiment::GradualRandomRbf,
            ClassificationExperiment::GradualAgrawal,
            ClassificationExperiment::Electricity,
            ClassificationExperiment::Covertype,
        ]
    }

    /// The column label used in Table 2.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ClassificationExperiment::SuddenStagger => "STAGGER (sudden)",
            ClassificationExperiment::SuddenRandomRbf => "Random RBF (sudden)",
            ClassificationExperiment::SuddenAgrawal => "AGRAWAL (sudden)",
            ClassificationExperiment::GradualStagger => "STAGGER (gradual)",
            ClassificationExperiment::GradualRandomRbf => "Random RBF (gradual)",
            ClassificationExperiment::GradualAgrawal => "AGRAWAL (gradual)",
            ClassificationExperiment::Electricity => "Electricity (synthetic stand-in)",
            ClassificationExperiment::Covertype => "Covertype (synthetic stand-in)",
        }
    }

    /// Default stream length (the paper uses 100 000 for synthetic streams,
    /// ~45 000 for Electricity and ~580 000 for Covertype; the stand-ins use
    /// comparable but capped lengths so the harness stays fast).
    #[must_use]
    pub fn default_stream_len(&self) -> usize {
        match self {
            ClassificationExperiment::Electricity => 45_000,
            ClassificationExperiment::Covertype => 100_000,
            _ => 100_000,
        }
    }

    /// Whether the experiment has a known drift schedule (the real-world
    /// streams do not — that is exactly why Table 1 excludes them).
    #[must_use]
    pub fn has_known_drifts(&self) -> bool {
        !matches!(
            self,
            ClassificationExperiment::Electricity | ClassificationExperiment::Covertype
        )
    }

    /// Builds the instance stream for this experiment.
    #[must_use]
    pub fn build_stream(&self, seed: u64, stream_len: usize) -> Box<dyn InstanceStream + Send> {
        let interval = stream_len / 5;
        match self {
            ClassificationExperiment::SuddenStagger => {
                let schedule = DriftSchedule::every(interval, stream_len, 1);
                Box::new(Table1Experiment::Stagger.build_classification_stream(seed, &schedule))
            }
            ClassificationExperiment::SuddenRandomRbf => {
                let schedule = DriftSchedule::every(interval, stream_len, 1);
                Box::new(Table1Experiment::RandomRbf.build_classification_stream(seed, &schedule))
            }
            ClassificationExperiment::SuddenAgrawal => {
                let schedule = DriftSchedule::every(interval, stream_len, 1);
                Box::new(Table1Experiment::Agrawal.build_classification_stream(seed, &schedule))
            }
            ClassificationExperiment::GradualStagger => {
                let schedule = DriftSchedule::every(interval, stream_len, interval / 10);
                Box::new(Table1Experiment::Stagger.build_classification_stream(seed, &schedule))
            }
            ClassificationExperiment::GradualRandomRbf => {
                let schedule = DriftSchedule::every(interval, stream_len, interval / 10);
                Box::new(Table1Experiment::RandomRbf.build_classification_stream(seed, &schedule))
            }
            ClassificationExperiment::GradualAgrawal => {
                let schedule = DriftSchedule::every(interval, stream_len, interval / 10);
                Box::new(Table1Experiment::Agrawal.build_classification_stream(seed, &schedule))
            }
            ClassificationExperiment::Electricity => Box::new(ElectricityLike::new(seed)),
            ClassificationExperiment::Covertype => Box::new(CovertypeLike::new(seed)),
        }
    }
}

/// The accuracy outcome of one (experiment, detector) cell of Table 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassificationOutcome {
    /// Experiment (column) this outcome belongs to.
    pub experiment: ClassificationExperiment,
    /// Detector label, or `"No drift detector"` for the baseline row.
    pub detector: String,
    /// Final prequential accuracy (×100 gives the percentage of the paper).
    pub accuracy: f64,
    /// Number of drifts the detector flagged over the run.
    pub detections: usize,
    /// Stream length processed.
    pub instances: usize,
}

/// Runs one Table 2 cell: Naive Bayes + the given `(label, spec)` detector
/// (or none).
///
/// # Panics
///
/// Panics if the detector spec fails validation.
#[must_use]
pub fn run_classification_cell(
    experiment: ClassificationExperiment,
    detector: Option<&(String, DetectorSpec)>,
    stream_len: Option<usize>,
    seed: u64,
) -> ClassificationOutcome {
    let stream_len = stream_len.unwrap_or_else(|| experiment.default_stream_len());
    let mut stream = experiment.build_stream(seed, stream_len);
    let mut learner = NaiveBayes::new(&stream.schema(), stream.n_classes());
    let label = detector.map_or("No drift detector", |(label, _)| label.as_str());
    let mut detector = detector.map(|(_, spec)| spec.build().expect("valid detector spec"));

    let mut correct = 0usize;
    let mut detections = 0usize;
    for _ in 0..stream_len {
        let inst = stream.next_instance();
        let predicted = learner.predict(&inst);
        let error = if predicted == inst.label {
            correct += 1;
            0.0
        } else {
            1.0
        };
        if let Some(d) = detector.as_mut() {
            if d.add_element(error) == DriftStatus::Drift {
                detections += 1;
                learner.reset();
            }
        }
        learner.learn(&inst);
    }

    ClassificationOutcome {
        experiment,
        detector: label.to_string(),
        accuracy: correct as f64 / stream_len as f64,
        detections,
        instances: stream_len,
    }
}

/// Runs a full Table 2 column: the no-detector baseline plus one row per
/// `(label, spec)` detector (usually [`crate::paper_lineup`]).
///
/// # Panics
///
/// Panics if a detector spec fails validation.
#[must_use]
pub fn run_classification_column(
    experiment: ClassificationExperiment,
    detectors: &[(String, DetectorSpec)],
    stream_len: Option<usize>,
    seed: u64,
) -> Vec<ClassificationOutcome> {
    std::iter::once(None)
        .chain(detectors.iter().map(Some))
        .map(|detector| run_classification_cell(experiment, detector, stream_len, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_metadata() {
        assert_eq!(ClassificationExperiment::all().len(), 8);
        assert!(ClassificationExperiment::SuddenStagger.has_known_drifts());
        assert!(!ClassificationExperiment::Electricity.has_known_drifts());
        assert_eq!(
            ClassificationExperiment::Covertype.default_stream_len(),
            100_000
        );
        assert!(ClassificationExperiment::GradualAgrawal
            .label()
            .contains("AGRAWAL"));
    }

    #[test]
    fn streams_build_for_every_experiment() {
        for exp in ClassificationExperiment::all() {
            let mut stream = exp.build_stream(7, 2_000);
            let inst = stream.next_instance();
            assert!(!inst.features.is_empty());
            assert!(stream.n_classes() >= 2);
        }
    }

    #[test]
    fn adaptation_improves_accuracy_on_drifting_stagger() {
        let baseline = run_classification_cell(
            ClassificationExperiment::SuddenStagger,
            None,
            Some(15_000),
            3,
        );
        let with_optwin = run_classification_cell(
            ClassificationExperiment::SuddenStagger,
            Some(&crate::paper_lineup(1_000)[6]),
            Some(15_000),
            3,
        );
        assert!(
            with_optwin.accuracy > baseline.accuracy + 0.02,
            "OPTWIN-adapted {} vs baseline {}",
            with_optwin.accuracy,
            baseline.accuracy
        );
        assert!(with_optwin.detections >= 1);
        assert_eq!(baseline.detector, "No drift detector");
        assert_eq!(with_optwin.detector, "OPTWIN rho=0.5");
    }

    #[test]
    fn full_column_has_all_rows() {
        let rows = run_classification_column(
            ClassificationExperiment::SuddenStagger,
            &crate::paper_lineup(500),
            Some(4_000),
            1,
        );
        // Baseline + 8 detectors.
        assert_eq!(rows.len(), 9);
        assert!(rows.iter().all(|r| (0.0..=1.0).contains(&r.accuracy)));
    }
}
