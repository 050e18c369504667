//! Contract tests every detector in the workspace must satisfy, run through
//! the public facade (`optwin` crate) exactly as a downstream user would.

use optwin::{paper_lineup, DriftStatus};

/// Chunk sizes the batch-equivalence checks slice the stream into: prime,
/// power of two, and "everything at once".
const CHUNK_SIZES: [usize; 4] = [1, 61, 1_024, usize::MAX];

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

fn bernoulli(i: u64, p: f64) -> f64 {
    if jitter(i) + 0.5 < p {
        1.0
    } else {
        0.0
    }
}

/// Every detector must eventually detect a massive error-rate increase.
#[test]
fn all_detectors_catch_a_massive_shift() {
    for (label, spec) in paper_lineup(2_000) {
        let mut detector = spec.build().unwrap();
        let mut detected = false;
        for i in 0..30_000u64 {
            let p = if i < 15_000 { 0.05 } else { 0.70 };
            if detector.add_element(bernoulli(i, p)) == DriftStatus::Drift && i >= 15_000 {
                detected = true;
                break;
            }
        }
        assert!(detected, "{label} missed a 5% -> 70% error-rate jump");
    }
}

/// Counters must be monotone and reset() must not clear the lifetime
/// counters (they describe the detector's history, not its window).
#[test]
fn counters_and_reset_contract() {
    for (_, spec) in paper_lineup(500) {
        let mut detector = spec.build().unwrap();
        for i in 0..1_000u64 {
            detector.add_element(bernoulli(i, 0.2));
        }
        assert_eq!(detector.elements_seen(), 1_000, "{}", detector.name());
        let drifts_before = detector.drifts_detected();
        detector.reset();
        assert_eq!(detector.elements_seen(), 1_000, "{}", detector.name());
        assert_eq!(
            detector.drifts_detected(),
            drifts_before,
            "{}",
            detector.name()
        );
        // Still usable after reset.
        for i in 0..100u64 {
            detector.add_element(bernoulli(i, 0.2));
        }
        assert_eq!(detector.elements_seen(), 1_100, "{}", detector.name());
    }
}

/// Binary-only detectors must say so; real-valued detectors must accept
/// fractional losses without panicking.
#[test]
fn input_domain_metadata_is_consistent() {
    for (label, spec) in paper_lineup(500) {
        let mut detector = spec.build().unwrap();
        assert_eq!(
            detector.supports_real_valued_input(),
            !spec.binary_only(),
            "{label}"
        );
        // Feeding fractional values must never panic, even for binary-only
        // detectors (they threshold internally).
        for i in 0..200u64 {
            detector.add_element(0.3 + 0.2 * jitter(i));
        }
    }
}

/// The batch-first contract: for every detector kind, `add_batch` reports
/// exactly the drift indices and counters of an `add_element` fold over the
/// same input, for every way of chunking the stream.
fn assert_batch_equivalence_on(stream: &[f64], optwin_window: usize) {
    for (label, spec) in paper_lineup(optwin_window) {
        let mut scalar = spec.build().unwrap();
        let mut expected_drifts = Vec::new();
        let mut expected_warnings = Vec::new();
        for (i, &x) in stream.iter().enumerate() {
            match scalar.add_element(x) {
                DriftStatus::Drift => expected_drifts.push(i),
                DriftStatus::Warning => expected_warnings.push(i),
                DriftStatus::Stable => {}
            }
        }

        for &chunk in &CHUNK_SIZES {
            let chunk = chunk.min(stream.len());
            let mut batched = spec.build().unwrap();
            let mut drifts = Vec::new();
            let mut warnings = Vec::new();
            for (k, xs) in stream.chunks(chunk).enumerate() {
                let outcome = batched.add_batch(xs);
                drifts.extend(outcome.drift_indices.iter().map(|&i| k * chunk + i));
                warnings.extend(outcome.warning_indices.iter().map(|&i| k * chunk + i));
            }
            assert_eq!(drifts, expected_drifts, "{label} chunk {chunk}");
            assert_eq!(warnings, expected_warnings, "{label} chunk {chunk}");
            assert_eq!(
                batched.elements_seen(),
                scalar.elements_seen(),
                "{label} chunk {chunk}"
            );
            assert_eq!(
                batched.drifts_detected(),
                scalar.drifts_detected(),
                "{label} chunk {chunk}"
            );
        }
    }
}

/// Batch/scalar equivalence on a binary (Bernoulli) error stream with two
/// upward shifts.
#[test]
fn batch_equals_scalar_on_binary_streams() {
    let stream: Vec<f64> = (0..12_000u64)
        .map(|i| {
            let p = match i {
                0..=4_999 => 0.05,
                5_000..=8_999 => 0.35,
                _ => 0.70,
            };
            bernoulli(i, p)
        })
        .collect();
    assert_batch_equivalence_on(&stream, 1_500);
}

/// Batch/scalar equivalence on a real-valued loss stream (mean and variance
/// both shift), exercising the non-binary code paths (OPTWIN's f-test,
/// KSWIN's KS test).
#[test]
fn batch_equals_scalar_on_real_valued_streams() {
    let stream: Vec<f64> = (0..12_000u64)
        .map(|i| {
            let (base, spread) = match i {
                0..=4_999 => (0.15, 0.05),
                5_000..=8_999 => (0.45, 0.05),
                _ => (0.45, 0.35),
            };
            (base + spread * jitter(i)).clamp(0.0, 1.0)
        })
        .collect();
    assert_batch_equivalence_on(&stream, 1_500);
}

/// Identical detector configuration + identical input = identical output
/// (full determinism, a prerequisite for reproducible experiments).
#[test]
fn determinism_across_identical_runs() {
    for (label, spec) in paper_lineup(800) {
        let mut a = spec.build().unwrap();
        let mut b = spec.build().unwrap();
        for i in 0..5_000u64 {
            let p = if i < 2_500 { 0.1 } else { 0.4 };
            let x = bernoulli(i, p);
            assert_eq!(a.add_element(x), b.add_element(x), "{label}");
        }
        assert_eq!(a.drifts_detected(), b.drifts_detected(), "{label}");
    }
}
