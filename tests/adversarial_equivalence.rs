//! Adversarial batch == scalar equivalence property.
//!
//! The workspace's core contract is that every detector's native `add_batch`
//! is observationally identical to an `add_element` fold. The deterministic
//! contract tests exercise that on well-behaved streams; this property pushes
//! the same contract through adversarial float values — signed zeros,
//! subnormals, huge magnitudes that overflow squared sums to infinity, NaN
//! and ±inf, and long constant runs that drive every variance to exactly
//! zero — for all eight `DetectorSpec` kinds. Every call must also return:
//! a detector that loops on one of these values hangs the suite.
//!
//! Equivalence is checked bit-exactly: beyond the drift/warning indices and
//! lifetime counters, the full state snapshots of the batched and the scalar
//! detector must serialize to identical JSON text (so even a `-0.0` vs `0.0`
//! divergence in the window fails the property).

use optwin::{DetectorSpec, DriftDetector, DriftStatus};
use proptest::prelude::*;

/// Chunkings the batched detector replays the stream under.
const CHUNK_SIZES: [usize; 4] = [1, 13, 256, usize::MAX];

/// Chunkings for the forced-hibernation property (each chunk boundary costs
/// a full compress → rebuild → restore cycle, so the per-element chunking is
/// replaced with a small-but-not-trivial one).
const CYCLE_CHUNK_SIZES: [usize; 3] = [7, 256, usize::MAX];

/// Deterministic pseudo-random jitter in [-0.5, 0.5) (SplitMix64).
fn jitter(i: u64) -> f64 {
    let mut x = i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    ((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5
}

/// Expands one segment seed into a run of adversarial values.
fn segment_values(seed: u64, out: &mut Vec<f64>) {
    let class = seed % 14;
    let len = 1 + ((seed / 14) % 120) as usize;
    for j in 0..len as u64 {
        let v = match class {
            0 => 0.0,
            1 => -0.0,
            2 => 1.0,
            3 => 5e-324, // smallest positive subnormal
            4 => -5e-324,
            5 => f64::MIN_POSITIVE, // smallest positive normal
            6 => 1e300,             // squares to +inf in sum-of-squares
            7 => -1e300,
            8 => 0.25, // long constant run, zero variance
            9 => 0.2 + 0.1 * jitter(seed.wrapping_add(j)),
            10 => f64::NAN,
            11 => f64::INFINITY,
            12 => f64::NEG_INFINITY,
            _ => (seed.wrapping_add(j).wrapping_mul(37) % 11) as f64 / 10.0,
        };
        out.push(v);
    }
}

fn arb_stream() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0u64..u64::MAX, 4..16).prop_map(|seeds| {
        let mut out = Vec::new();
        for seed in seeds {
            segment_values(seed, &mut out);
        }
        out
    })
}

/// A state tree as JSON text. Every float a shipped detector writes is a
/// finite number, whose shortest form is unique to its bits (`-0.0`
/// included), or a blob of raw bits, so equal text means bit-equal state.
fn state_text(state: &serde::Value) -> String {
    serde_json::to_string(state).expect("value trees serialize")
}

/// Folds the stream element-wise, returning the drift/warning indices.
fn scalar_fold(detector: &mut dyn DriftDetector, stream: &[f64]) -> (Vec<usize>, Vec<usize>) {
    let mut drifts = Vec::new();
    let mut warnings = Vec::new();
    for (i, &x) in stream.iter().enumerate() {
        match detector.add_element(x) {
            DriftStatus::Drift => drifts.push(i),
            DriftStatus::Warning => warnings.push(i),
            DriftStatus::Stable => {}
        }
    }
    (drifts, warnings)
}

proptest! {
    /// For every detector kind and every chunking, the batched run makes the
    /// exact decisions of the scalar fold and lands in the bit-identical
    /// state, no matter how hostile the input values are.
    #[test]
    fn batch_equals_scalar_on_adversarial_streams(stream in arb_stream()) {
        for spec in DetectorSpec::all_defaults() {
            let mut scalar = spec.build().expect("default specs are valid");
            let (expected_drifts, expected_warnings) = scalar_fold(scalar.as_mut(), &stream);

            for &chunk in &CHUNK_SIZES {
                let chunk = chunk.min(stream.len());
                let mut batched = spec.build().expect("default specs are valid");
                let mut drifts = Vec::new();
                let mut warnings = Vec::new();
                for (k, xs) in stream.chunks(chunk).enumerate() {
                    let outcome = batched.add_batch(xs);
                    drifts.extend(outcome.drift_indices.iter().map(|&i| k * chunk + i));
                    warnings.extend(outcome.warning_indices.iter().map(|&i| k * chunk + i));
                }

                prop_assert!(
                    drifts == expected_drifts,
                    "{} chunk {chunk}: drifts {drifts:?} != {expected_drifts:?}",
                    spec.id()
                );
                prop_assert!(
                    warnings == expected_warnings,
                    "{} chunk {chunk}: warnings {warnings:?} != {expected_warnings:?}",
                    spec.id()
                );
                prop_assert!(
                    batched.elements_seen() == scalar.elements_seen(),
                    "{} chunk {chunk}: elements_seen diverges",
                    spec.id()
                );
                prop_assert!(
                    batched.drifts_detected() == scalar.drifts_detected(),
                    "{} chunk {chunk}: drifts_detected diverges",
                    spec.id()
                );

                let scalar_state = scalar.snapshot_state();
                let batched_state = batched.snapshot_state();
                prop_assert!(
                    scalar_state.is_some() == batched_state.is_some(),
                    "{} chunk {chunk}: snapshot support diverges",
                    spec.id()
                );
                if let (Some(a), Some(b)) = (scalar_state, batched_state) {
                    prop_assert!(
                        state_text(&a) == state_text(&b),
                        "{} chunk {}: batched state diverges bit-wise from scalar state",
                        spec.id(),
                        chunk
                    );
                }
            }
        }
    }
}

proptest! {
    /// The engine's hibernation tier in miniature, without the engine: after
    /// every chunk the detector is compressed exactly as a shard worker
    /// would (its wire-v4 state tree), dropped, and a fresh instance is
    /// rebuilt from the spec and restored from the blob.
    /// For every detector kind and chunking, the cycled detector must make
    /// the exact decisions of a never-hibernated scalar fold and finish in
    /// the bit-identical state — even under adversarial values (signed
    /// zeros, subnormals, ±1e300, NaN, ±inf, constant runs).
    #[test]
    fn forced_hibernation_cycles_preserve_bit_exactness(stream in arb_stream()) {
        for spec in DetectorSpec::all_defaults() {
            let mut reference = spec.build().expect("default specs are valid");
            let (expected_drifts, expected_warnings) = scalar_fold(reference.as_mut(), &stream);

            for &chunk in &CYCLE_CHUNK_SIZES {
                let chunk = chunk.min(stream.len());
                let mut cycled = spec.build().expect("default specs are valid");
                let mut drifts = Vec::new();
                let mut warnings = Vec::new();
                for (k, xs) in stream.chunks(chunk).enumerate() {
                    let outcome = cycled.add_batch(xs);
                    drifts.extend(outcome.drift_indices.iter().map(|&i| k * chunk + i));
                    warnings.extend(outcome.warning_indices.iter().map(|&i| k * chunk + i));

                    // The hibernation cycle: compress to the wire-v4 state
                    // tree a shard worker would hold, free the detector,
                    // wake a fresh one.
                    let blob = cycled
                        .snapshot_state()
                        .expect("all shipped detectors support state snapshots");
                    drop(cycled);
                    cycled = spec.build().expect("default specs are valid");
                    cycled
                        .restore_state(&blob)
                        .expect("own blob restores cleanly");
                }

                prop_assert!(
                    drifts == expected_drifts,
                    "{} cycle chunk {chunk}: drifts {drifts:?} != {expected_drifts:?}",
                    spec.id()
                );
                prop_assert!(
                    warnings == expected_warnings,
                    "{} cycle chunk {chunk}: warnings {warnings:?} != {expected_warnings:?}",
                    spec.id()
                );
                prop_assert!(
                    cycled.elements_seen() == reference.elements_seen(),
                    "{} cycle chunk {chunk}: elements_seen diverges",
                    spec.id()
                );
                prop_assert!(
                    cycled.drifts_detected() == reference.drifts_detected(),
                    "{} cycle chunk {chunk}: drifts_detected diverges",
                    spec.id()
                );

                // Fresh snapshots from both sides (neither has been through
                // JSON), compared bit-wise.
                if let (Some(a), Some(b)) = (reference.snapshot_state(), cycled.snapshot_state()) {
                    prop_assert!(
                        state_text(&a) == state_text(&b),
                        "{} cycle chunk {}: post-hibernation state diverges bit-wise",
                        spec.id(),
                        chunk
                    );
                }
            }
        }
    }
}
