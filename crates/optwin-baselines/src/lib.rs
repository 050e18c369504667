//! # optwin-baselines — baseline concept-drift detectors
//!
//! Re-implementations of the drift detectors the OPTWIN paper compares
//! against (all of them originally available in the MOA framework), plus a
//! few extensions used for ablation studies:
//!
//! | Detector | Module | Input | Paper reference |
//! |----------|--------|-------|-----------------|
//! | ADWIN    | [`adwin`] | real-valued in `[0, 1]` | Bifet & Gavaldà, 2007 |
//! | DDM      | [`ddm`]   | binary | Gama et al., 2004 |
//! | EDDM     | [`eddm`]  | binary | Baena-García et al., 2006 |
//! | STEPD    | [`stepd`] | binary (accuracy) | Nishida & Yamauchi, 2007 |
//! | ECDD     | [`ecdd`]  | binary | Ross et al., 2012 |
//! | Page–Hinkley | [`page_hinkley`] | real-valued | extension |
//! | KSWIN    | [`kswin`] | real-valued | extension |
//!
//! Every detector implements [`optwin_core::DriftDetector`], so they are
//! interchangeable with OPTWIN throughout the evaluation harness.
//!
//! ```
//! use optwin_core::{DriftDetector, DriftStatus};
//! use optwin_baselines::{Adwin, Ddm};
//!
//! let mut adwin = Adwin::with_defaults();
//! let mut ddm = Ddm::with_defaults();
//! for i in 0..2_000u32 {
//!     let error = if i < 1_000 { 0.0 } else { f64::from(i % 2) };
//!     adwin.add_element(error);
//!     ddm.add_element(error);
//! }
//! assert!(adwin.drifts_detected() + ddm.drifts_detected() > 0);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod adwin;
pub mod composite;
pub mod ddm;
pub mod ecdd;
pub mod eddm;
pub mod kswin;
pub mod page_hinkley;
pub mod spec;
pub mod stepd;

pub use adwin::{Adwin, AdwinConfig};
pub use composite::{Cascade, CascadeConfig, Ensemble, EnsembleConfig};
pub use ddm::{Ddm, DdmConfig};
pub use ecdd::{Ecdd, EcddConfig};
pub use eddm::{Eddm, EddmConfig};
pub use kswin::{Kswin, KswinConfig};
pub use page_hinkley::{PageHinkley, PageHinkleyConfig};
pub use spec::{DetectorSpec, DETECTOR_IDS};
pub use stepd::{Stepd, StepdConfig};

#[cfg(test)]
pub(crate) mod test_util {
    //! Deterministic pseudo-random streams and contract helpers shared by
    //! the detector tests.

    use optwin_core::{DriftDetector, DriftStatus};

    /// Asserts the batch/scalar contract for a detector: `add_batch` over
    /// `stream` (in several chunk sizes) reports exactly the drift and
    /// warning indices of an `add_element` fold, with identical counters.
    pub(crate) fn assert_batch_equivalence<D: DriftDetector>(
        build: impl Fn() -> D,
        stream: &[f64],
    ) {
        let mut scalar = build();
        let mut drifts = Vec::new();
        let mut warnings = Vec::new();
        for (i, &x) in stream.iter().enumerate() {
            match scalar.add_element(x) {
                DriftStatus::Drift => drifts.push(i),
                DriftStatus::Warning => warnings.push(i),
                DriftStatus::Stable => {}
            }
        }

        for &chunk in &[1usize, 13, 256, stream.len().max(1)] {
            let mut batched = build();
            let mut batch_drifts = Vec::new();
            let mut batch_warnings = Vec::new();
            for (k, xs) in stream.chunks(chunk).enumerate() {
                let outcome = batched.add_batch(xs);
                batch_drifts.extend(outcome.drift_indices.iter().map(|&i| k * chunk + i));
                batch_warnings.extend(outcome.warning_indices.iter().map(|&i| k * chunk + i));
            }
            assert_eq!(batch_drifts, drifts, "{}: chunk {chunk}", scalar.name());
            assert_eq!(batch_warnings, warnings, "{}: chunk {chunk}", scalar.name());
            assert_eq!(batched.elements_seen(), scalar.elements_seen());
            assert_eq!(batched.drifts_detected(), scalar.drifts_detected());
        }
    }

    /// Asserts the snapshot contract for a detector: snapshotting at each of
    /// `cuts` and restoring into a freshly built instance yields
    /// *identical* decisions and counters for the remaining stream
    /// (mirroring the OPTWIN equivalence test in `optwin-core`).
    pub(crate) fn assert_snapshot_equivalence<D: DriftDetector>(
        build: impl Fn() -> D,
        stream: &[f64],
        cuts: &[usize],
    ) {
        for &cut in cuts {
            assert!(cut <= stream.len(), "cut {cut} beyond stream");
            let mut continued = build();
            continued.add_batch(&stream[..cut]);
            let state = continued.snapshot_state();
            let mut restored = build();
            restored
                .restore_state(&state)
                .unwrap_or_else(|e| panic!("restore at {cut} failed: {e}"));
            assert_eq!(restored.elements_seen(), continued.elements_seen());
            assert_eq!(restored.drifts_detected(), continued.drifts_detected());

            let rest = &stream[cut..];
            let a = continued.add_batch(rest);
            let b = restored.add_batch(rest);
            assert_eq!(
                a,
                b,
                "{}: divergence after restore at {cut}",
                continued.name()
            );
            assert_eq!(continued.elements_seen(), restored.elements_seen());
            assert_eq!(continued.drifts_detected(), restored.drifts_detected());
        }
    }

    /// SplitMix64 jitter in [-0.5, 0.5).
    pub(crate) fn jitter(i: u64) -> f64 {
        let mut x = i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        ((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    }

    /// Deterministic Bernoulli error stream with a given error probability.
    pub(crate) fn bernoulli(i: u64, p: f64) -> f64 {
        if jitter(i) + 0.5 < p {
            1.0
        } else {
            0.0
        }
    }
}
