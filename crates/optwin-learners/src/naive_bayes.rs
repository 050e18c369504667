//! Mixed categorical/Gaussian Naive Bayes (the MOA classifier used in the
//! paper's Table 2 experiments).
//!
//! Categorical attributes use Laplace-smoothed frequency counts; numeric
//! attributes use per-class Gaussian likelihoods whose mean and variance are
//! maintained incrementally (Welford). All computations are done in log
//! space to avoid underflow.

use optwin_stats::incremental::RunningMoments;
use optwin_stream::{Feature, FeatureKind, Instance};

use crate::learner::OnlineLearner;

/// Per-class sufficient statistics for one attribute.
#[derive(Debug, Clone)]
enum AttributeStats {
    /// Laplace-smoothed value counts per class: `counts[class][value]`.
    Categorical { counts: Vec<Vec<f64>> },
    /// Gaussian moments per class.
    Numeric { moments: Vec<RunningMoments> },
}

/// Incremental Naive Bayes classifier.
#[derive(Debug, Clone)]
pub struct NaiveBayes {
    schema: Vec<FeatureKind>,
    n_classes: usize,
    class_counts: Vec<f64>,
    attributes: Vec<AttributeStats>,
    total: f64,
}

impl NaiveBayes {
    /// Variance floor used for the Gaussian likelihoods (prevents degenerate
    /// spikes when a class has seen a constant attribute value).
    const MIN_VARIANCE: f64 = 1e-6;

    /// Creates a classifier for the given attribute schema and class count.
    ///
    /// # Panics
    ///
    /// Panics if `n_classes` is zero.
    #[must_use]
    pub fn new(schema: &[FeatureKind], n_classes: usize) -> Self {
        assert!(n_classes > 0, "NaiveBayes needs at least one class");
        let attributes = schema
            .iter()
            .map(|kind| match kind {
                FeatureKind::Categorical { arity } => AttributeStats::Categorical {
                    counts: vec![vec![0.0; *arity as usize]; n_classes],
                },
                FeatureKind::Numeric => AttributeStats::Numeric {
                    moments: vec![RunningMoments::new(); n_classes],
                },
            })
            .collect();
        Self {
            schema: schema.to_vec(),
            n_classes,
            class_counts: vec![0.0; n_classes],
            attributes,
            total: 0.0,
        }
    }

    /// Total number of training instances absorbed since the last reset.
    #[must_use]
    pub fn instances_seen(&self) -> f64 {
        self.total
    }

    fn log_likelihood(&self, class: usize, feature_idx: usize, feature: &Feature) -> f64 {
        match (&self.attributes[feature_idx], feature) {
            (AttributeStats::Categorical { counts }, Feature::Categorical(v)) => {
                let class_counts = &counts[class];
                let arity = class_counts.len() as f64;
                let v_idx = (*v as usize).min(class_counts.len().saturating_sub(1));
                let count = class_counts.get(v_idx).copied().unwrap_or(0.0);
                // Laplace smoothing.
                ((count + 1.0) / (self.class_counts[class] + arity)).ln()
            }
            (AttributeStats::Numeric { moments }, Feature::Numeric(x)) => {
                let m = &moments[class];
                if m.count() < 2 {
                    // Not enough data for a variance estimate: uninformative.
                    return 0.0;
                }
                let mean = m.mean();
                let var = m.sample_variance().max(Self::MIN_VARIANCE);
                let d = x - mean;
                -0.5 * ((2.0 * std::f64::consts::PI * var).ln() + d * d / var)
            }
            // Schema mismatch (e.g. numeric value arriving for a categorical
            // slot): treat as uninformative rather than panicking.
            _ => 0.0,
        }
    }

    fn log_posteriors(&self, instance: &Instance) -> Vec<f64> {
        (0..self.n_classes)
            .map(|class| {
                // Laplace-smoothed class prior.
                let prior = (self.class_counts[class] + 1.0) / (self.total + self.n_classes as f64);
                let mut score = prior.ln();
                for (idx, feature) in instance.features.iter().enumerate() {
                    if idx >= self.attributes.len() {
                        break;
                    }
                    score += self.log_likelihood(class, idx, feature);
                }
                score
            })
            .collect()
    }
}

impl OnlineLearner for NaiveBayes {
    fn predict(&self, instance: &Instance) -> u32 {
        let scores = self.log_posteriors(instance);
        scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map_or(0, |(i, _)| i as u32)
    }

    fn learn(&mut self, instance: &Instance) {
        let class = (instance.label as usize).min(self.n_classes - 1);
        self.class_counts[class] += 1.0;
        self.total += 1.0;
        for (idx, feature) in instance.features.iter().enumerate() {
            if idx >= self.attributes.len() {
                break;
            }
            match (&mut self.attributes[idx], feature) {
                (AttributeStats::Categorical { counts }, Feature::Categorical(v)) => {
                    let class_counts = &mut counts[class];
                    let v_idx = (*v as usize).min(class_counts.len().saturating_sub(1));
                    if let Some(c) = class_counts.get_mut(v_idx) {
                        *c += 1.0;
                    }
                }
                (AttributeStats::Numeric { moments }, Feature::Numeric(x)) => {
                    moments[class].push(*x);
                }
                _ => {}
            }
        }
    }

    fn reset(&mut self) {
        *self = NaiveBayes::new(&self.schema, self.n_classes);
    }

    fn name(&self) -> &'static str {
        "NaiveBayes"
    }

    fn predict_scores(&self, instance: &Instance) -> Vec<f64> {
        self.log_posteriors(instance)
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optwin_stream::generators::{
        Agrawal, AgrawalFunction, RandomRbf, RandomRbfConfig, Stagger, StaggerConcept,
    };
    use optwin_stream::InstanceStream;

    fn prequential_accuracy<S: InstanceStream, L: OnlineLearner>(
        stream: &mut S,
        learner: &mut L,
        n: usize,
    ) -> f64 {
        let mut correct = 0;
        for _ in 0..n {
            let inst = stream.next_instance();
            if learner.predict(&inst) == inst.label {
                correct += 1;
            }
            learner.learn(&inst);
        }
        correct as f64 / n as f64
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn rejects_zero_classes() {
        let _ = NaiveBayes::new(&[FeatureKind::Numeric], 0);
    }

    #[test]
    fn learns_stagger_nearly_perfectly() {
        let mut stream = Stagger::new(StaggerConcept::ColorGreenOrShapeCircular, 3);
        let mut nb = NaiveBayes::new(&stream.schema(), stream.n_classes());
        let acc = prequential_accuracy(&mut stream, &mut nb, 3_000);
        assert!(acc > 0.9, "accuracy = {acc}");
        assert!(nb.instances_seen() >= 2_999.0);
    }

    #[test]
    fn learns_random_rbf_reasonably() {
        // Gaussian class models only approximate RandomRBF's multi-centroid
        // classes: NB scores about 0.70 here, against 0.5 for chance.
        let mut stream = RandomRbf::new(RandomRbfConfig::default(), 3);
        let mut nb = NaiveBayes::new(&stream.schema(), stream.n_classes());
        let acc = prequential_accuracy(&mut stream, &mut nb, 5_000);
        assert!(acc > 0.6, "accuracy = {acc}");
    }

    #[test]
    fn beats_chance_on_agrawal() {
        let mut stream = Agrawal::new(AgrawalFunction::F2, 3);
        let mut nb = NaiveBayes::new(&stream.schema(), stream.n_classes());
        let acc = prequential_accuracy(&mut stream, &mut nb, 5_000);
        assert!(acc > 0.6, "accuracy = {acc}");
    }

    #[test]
    fn concept_switch_drops_accuracy_until_reset() {
        // Train on one STAGGER concept, then switch: accuracy collapses; a
        // reset restores learnability.
        let mut stream_a = Stagger::new(StaggerConcept::SizeSmallAndColorRed, 5);
        let mut nb = NaiveBayes::new(&stream_a.schema(), 2);
        let _ = prequential_accuracy(&mut stream_a, &mut nb, 3_000);

        let mut stream_b = Stagger::new(StaggerConcept::SizeMediumOrLarge, 6);
        // Measure accuracy on the new concept WITHOUT training (frozen model).
        let mut frozen_correct = 0;
        let test: Vec<_> = (0..1_000).map(|_| stream_b.next_instance()).collect();
        for inst in &test {
            if nb.predict(inst) == inst.label {
                frozen_correct += 1;
            }
        }
        let frozen_acc = frozen_correct as f64 / 1_000.0;
        assert!(frozen_acc < 0.75, "old model should struggle: {frozen_acc}");

        nb.reset();
        assert_eq!(nb.instances_seen(), 0.0);
        let acc_after_reset = prequential_accuracy(&mut stream_b, &mut nb, 3_000);
        assert!(acc_after_reset > 0.9, "accuracy = {acc_after_reset}");
    }

    #[test]
    fn scores_are_finite_and_ordered() {
        let mut stream = RandomRbf::new(RandomRbfConfig::default(), 9);
        let mut nb = NaiveBayes::new(&stream.schema(), 2);
        for _ in 0..200 {
            let inst = stream.next_instance();
            nb.learn(&inst);
        }
        let inst = stream.next_instance();
        let scores = nb.predict_scores(&inst);
        assert_eq!(scores.len(), 2);
        assert!(scores.iter().all(|s| s.is_finite()));
        let predicted = nb.predict(&inst) as usize;
        let best = if scores[0] >= scores[1] { 0 } else { 1 };
        assert_eq!(predicted, best);
        assert_eq!(nb.name(), "NaiveBayes");
        assert_eq!(nb.n_classes(), 2);
    }

    #[test]
    fn handles_unseen_categorical_values_gracefully() {
        use optwin_stream::Feature;
        let schema = [FeatureKind::Categorical { arity: 3 }];
        let mut nb = NaiveBayes::new(&schema, 2);
        nb.learn(&Instance::new(vec![Feature::Categorical(0)], 0));
        nb.learn(&Instance::new(vec![Feature::Categorical(1)], 1));
        // A category index beyond the declared arity is clamped, not a panic.
        let pred = nb.predict(&Instance::new(vec![Feature::Categorical(9)], 0));
        assert!(pred < 2);
    }
}
