//! Synthetic concept generators (MOA re-implementations).
//!
//! The paper's "Classification" experiments use three MOA generators —
//! STAGGER, AGRAWAL and RandomRBF — with a sudden or gradual concept change
//! every 20 000 instances. Each generator here exposes a *concept* parameter;
//! switching the concept (via [`crate::drift::MultiConceptStream`]) is what
//! produces the drift.

mod agrawal;
mod random_rbf;
mod stagger;

pub use agrawal::{Agrawal, AgrawalFunction};
pub use random_rbf::{RandomRbf, RandomRbfConfig};
pub use stagger::{Stagger, StaggerConcept};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InstanceStream;

    /// All generators must be deterministic given the seed.
    #[test]
    fn generators_are_deterministic() {
        fn collect_labels<S: InstanceStream>(mut s: S, n: usize) -> Vec<u32> {
            (0..n).map(|_| s.next_instance().label).collect()
        }

        let a1 = collect_labels(Stagger::new(StaggerConcept::SizeSmallAndColorRed, 7), 200);
        let a2 = collect_labels(Stagger::new(StaggerConcept::SizeSmallAndColorRed, 7), 200);
        assert_eq!(a1, a2);

        let b1 = collect_labels(Agrawal::new(AgrawalFunction::F1, 7), 200);
        let b2 = collect_labels(Agrawal::new(AgrawalFunction::F1, 7), 200);
        assert_eq!(b1, b2);

        let c1 = collect_labels(RandomRbf::new(RandomRbfConfig::default(), 7), 200);
        let c2 = collect_labels(RandomRbf::new(RandomRbfConfig::default(), 7), 200);
        assert_eq!(c1, c2);
    }

    /// Different seeds should produce different instance sequences.
    #[test]
    fn different_seeds_differ() {
        let mut s1 = Agrawal::new(AgrawalFunction::F2, 1);
        let mut s2 = Agrawal::new(AgrawalFunction::F2, 2);
        let differs = (0..100).any(|_| s1.next_instance() != s2.next_instance());
        assert!(differs);
    }

    /// Switching the concept must actually change the labelling function:
    /// a noticeable fraction of identical feature vectors get a different
    /// label under the new concept.
    #[test]
    fn concept_switch_changes_labelling() {
        // STAGGER: compare labels of the same instances under two concepts.
        let mut gen = Stagger::new(StaggerConcept::SizeSmallAndColorRed, 11);
        let mut disagreements = 0;
        for _ in 0..1_000 {
            let inst = gen.next_instance();
            let relabeled = StaggerConcept::ColorGreenOrShapeCircular.label(&inst.features);
            if relabeled != inst.label {
                disagreements += 1;
            }
        }
        assert!(
            disagreements > 200,
            "concepts are too similar: {disagreements} / 1000 disagreements"
        );
    }
}
