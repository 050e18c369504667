//! Concept-drift composition of instance streams.
//!
//! [`MultiConceptStream`] chains an arbitrary number of concepts along a
//! [`DriftSchedule`] ("drift every 20 000 instances"), which is the layout
//! used by the paper's Table 1/2 classification experiments. As in MOA,
//! instances inside a transition zone are drawn from the new concept with a
//! sigmoidally rising probability whose *width* is the schedule's: a width
//! of 1 produces a sudden drift, and the paper's gradual experiments use
//! widths in the hundreds to thousands of instances.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::instance::{FeatureKind, Instance, InstanceStream};
use crate::schedule::DriftSchedule;

/// A stream that cycles through a sequence of concepts according to a
/// [`DriftSchedule`], drawing each instance from the concept active at the
/// current index (with a sigmoidal mixture inside gradual transition zones).
pub struct MultiConceptStream {
    concepts: Vec<Box<dyn InstanceStream + Send>>,
    schedule: DriftSchedule,
    index: usize,
    rng: StdRng,
}

impl std::fmt::Debug for MultiConceptStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiConceptStream")
            .field("n_concepts", &self.concepts.len())
            .field("schedule", &self.schedule)
            .field("index", &self.index)
            .finish()
    }
}

impl MultiConceptStream {
    /// Creates a stream from a list of concept streams and a drift schedule.
    /// Concept `k` is active in segment `k` (the schedule's positions mark
    /// the segment boundaries); if there are more segments than concepts the
    /// concepts are reused cyclically.
    ///
    /// # Panics
    ///
    /// Panics if no concepts are supplied or the concepts disagree on schema
    /// size or class count.
    #[must_use]
    pub fn new(
        concepts: Vec<Box<dyn InstanceStream + Send>>,
        schedule: DriftSchedule,
        seed: u64,
    ) -> Self {
        assert!(!concepts.is_empty(), "at least one concept is required");
        let classes = concepts[0].n_classes();
        let features = concepts[0].schema().len();
        for c in &concepts {
            assert_eq!(c.n_classes(), classes, "concepts must agree on class count");
            assert_eq!(
                c.schema().len(),
                features,
                "concepts must agree on attribute count"
            );
        }
        Self {
            concepts,
            schedule,
            index: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The ground-truth drift schedule of this stream.
    #[must_use]
    pub fn schedule(&self) -> &DriftSchedule {
        &self.schedule
    }

    /// Number of instances drawn so far.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Which concept index is (predominantly) active at stream index `i`.
    fn concept_index_at(&mut self, i: usize) -> usize {
        let segment = self.schedule.concept_at(i);
        let width = self.schedule.width();
        if width <= 1 || segment > self.schedule.n_drifts() {
            return segment % self.concepts.len();
        }
        // Inside a gradual transition zone the previous concept may still be
        // sampled with sigmoidally decreasing probability.
        if segment > 0 {
            let drift_pos = self.schedule.positions()[segment - 1];
            let x = -4.0 * (i as f64 - drift_pos as f64 - width as f64 / 2.0) / width as f64;
            let p_new = 1.0 / (1.0 + x.exp());
            if self.rng.gen::<f64>() >= p_new {
                return (segment - 1) % self.concepts.len();
            }
        }
        segment % self.concepts.len()
    }
}

impl InstanceStream for MultiConceptStream {
    fn next_instance(&mut self) -> Instance {
        let idx = self.concept_index_at(self.index);
        self.index += 1;
        self.concepts[idx].next_instance()
    }

    fn n_classes(&self) -> usize {
        self.concepts[0].n_classes()
    }

    fn schema(&self) -> Vec<FeatureKind> {
        self.concepts[0].schema()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{Stagger, StaggerConcept};

    #[test]
    #[should_panic(expected = "concepts must agree on class count")]
    fn rejects_mismatched_concepts() {
        struct ManyClasses;
        impl InstanceStream for ManyClasses {
            fn next_instance(&mut self) -> Instance {
                Instance::new(vec![], 0)
            }
            fn n_classes(&self) -> usize {
                7
            }
            fn schema(&self) -> Vec<FeatureKind> {
                vec![]
            }
        }
        let concepts: Vec<Box<dyn InstanceStream + Send>> = vec![
            Box::new(Stagger::new(StaggerConcept::SizeSmallAndColorRed, 1)),
            Box::new(ManyClasses),
        ];
        let _ = MultiConceptStream::new(concepts, DriftSchedule::stationary(10), 0);
    }

    #[test]
    fn multi_concept_stream_follows_schedule() {
        let schedule = DriftSchedule::every(1_000, 3_000, 1);
        let concepts: Vec<Box<dyn InstanceStream + Send>> = vec![
            Box::new(Stagger::new(StaggerConcept::SizeSmallAndColorRed, 1)),
            Box::new(Stagger::new(StaggerConcept::ColorGreenOrShapeCircular, 2)),
            Box::new(Stagger::new(StaggerConcept::SizeMediumOrLarge, 3)),
        ];
        let mut s = MultiConceptStream::new(concepts, schedule, 9);
        let labels: Vec<u32> = (0..3_000).map(|_| s.next_instance().label).collect();
        let rate = |range: std::ops::Range<usize>| {
            let slice = &labels[range];
            f64::from(slice.iter().sum::<u32>()) / slice.len() as f64
        };
        // Expected positive rates: 1/9, 5/9, 2/3 per segment.
        assert!((rate(0..1_000) - 1.0 / 9.0).abs() < 0.05);
        assert!((rate(1_000..2_000) - 5.0 / 9.0).abs() < 0.05);
        assert!((rate(2_000..3_000) - 2.0 / 3.0).abs() < 0.05);
        assert_eq!(s.schedule().n_drifts(), 2);
        assert_eq!(s.index(), 3_000);
    }

    #[test]
    fn multi_concept_stream_cycles_when_fewer_concepts_than_segments() {
        let schedule = DriftSchedule::every(500, 2_000, 1);
        let concepts: Vec<Box<dyn InstanceStream + Send>> = vec![
            Box::new(Stagger::new(StaggerConcept::SizeSmallAndColorRed, 1)),
            Box::new(Stagger::new(StaggerConcept::SizeMediumOrLarge, 2)),
        ];
        let mut s = MultiConceptStream::new(concepts, schedule, 9);
        let labels: Vec<u32> = (0..2_000).map(|_| s.next_instance().label).collect();
        let rate0 = f64::from(labels[..500].iter().sum::<u32>()) / 500.0;
        let rate2 = f64::from(labels[1_000..1_500].iter().sum::<u32>()) / 500.0;
        // Segments 0 and 2 use the same concept.
        assert!((rate0 - rate2).abs() < 0.08);
    }

    #[test]
    fn gradual_transition_mixes_concepts() {
        let schedule = DriftSchedule::new(vec![1_000], 600, 3_000);
        let concepts: Vec<Box<dyn InstanceStream + Send>> = vec![
            // Positive rates 1/9 and 2/3.
            Box::new(Stagger::new(StaggerConcept::SizeSmallAndColorRed, 1)),
            Box::new(Stagger::new(StaggerConcept::SizeMediumOrLarge, 2)),
        ];
        let mut s = MultiConceptStream::new(concepts, schedule, 4);
        let labels: Vec<u32> = (0..3_000).map(|_| s.next_instance().label).collect();
        let rate = |range: std::ops::Range<usize>| {
            let slice = &labels[range];
            f64::from(slice.iter().sum::<u32>()) / slice.len() as f64
        };
        let before = rate(0..900);
        let middle = rate(1_050..1_350);
        let after = rate(2_000..3_000);
        assert!(before < after);
        // The transition zone sits strictly between the two pure rates.
        assert!(middle > before - 0.02);
        assert!(middle < after + 0.02);
    }

    #[test]
    #[should_panic(expected = "at least one concept")]
    fn rejects_empty_concept_list() {
        let _ = MultiConceptStream::new(vec![], DriftSchedule::stationary(10), 0);
    }
}
