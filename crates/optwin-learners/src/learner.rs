//! The online-learner interface.

use optwin_stream::Instance;

/// An incrementally trainable classifier operating on
/// [`optwin_stream::Instance`]s.
///
/// The evaluation harness always uses learners prequentially: each instance
/// is first used for testing ([`OnlineLearner::predict`]) and then for
/// training ([`OnlineLearner::learn`]).
pub trait OnlineLearner {
    /// Predicts the class label of an instance (without learning from it).
    fn predict(&self, instance: &Instance) -> u32;

    /// Updates the model with a labelled instance.
    fn learn(&mut self, instance: &Instance);

    /// Forgets everything learned so far (the active drift-adaptation
    /// strategy of the paper: retrain from scratch after a drift).
    fn reset(&mut self);

    /// A short human-readable name.
    fn name(&self) -> &'static str;

    /// Per-class posterior scores (unnormalised is fine); the default
    /// implementation one-hot encodes the prediction. Learners that can do
    /// better (Naive Bayes, MLP) override this.
    fn predict_scores(&self, instance: &Instance) -> Vec<f64> {
        let mut scores = vec![0.0; self.n_classes()];
        let label = self.predict(instance) as usize;
        if label < scores.len() {
            scores[label] = 1.0;
        }
        scores
    }

    /// Number of classes this learner was configured for.
    fn n_classes(&self) -> usize;
}

/// Prequential 0/1 error of a single prediction (1.0 when wrong).
#[must_use]
pub fn zero_one_error(predicted: u32, actual: u32) -> f64 {
    if predicted == actual {
        0.0
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optwin_stream::Feature;

    struct AlwaysZero;
    impl OnlineLearner for AlwaysZero {
        fn predict(&self, _instance: &Instance) -> u32 {
            0
        }
        fn learn(&mut self, _instance: &Instance) {}
        fn reset(&mut self) {}
        fn name(&self) -> &'static str {
            "zero"
        }
        fn n_classes(&self) -> usize {
            3
        }
    }

    #[test]
    fn zero_one_error_values() {
        assert_eq!(zero_one_error(1, 1), 0.0);
        assert_eq!(zero_one_error(1, 2), 1.0);
    }

    #[test]
    fn default_scores_one_hot() {
        let learner = AlwaysZero;
        let inst = Instance::new(vec![Feature::Numeric(0.0)], 2);
        assert_eq!(learner.predict_scores(&inst), vec![1.0, 0.0, 0.0]);
    }
}
