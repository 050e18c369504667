//! Detection-quality golden suite: the scaled-down driftbench grid pinned
//! against `tests/fixtures/driftbench/golden.json`.
//!
//! The grid (every detector-spec kind plus a cascade and an ensemble, across
//! all seven scenarios × 2 seeds) is fully deterministic, so a fresh run
//! reproduces the checked-in fixture bit-for-bit today. The comparison is
//! nevertheless done through **tolerance bands** — a recall/F1 floor, an
//! FP-rate ceiling and a delay ceiling per cell — so that a future
//! *deliberate* algorithm change can shift the numbers inside the bands
//! without churn, while a real quality regression (missed drifts, FP storms,
//! delay blow-ups) fails loudly. `bands_flag_a_regressed_cell` proves the
//! bands actually bite by checking a synthetically regressed report against
//! the same golden.
//!
//! Regenerate the fixture (only after a deliberate, reviewed quality
//! change) with:
//!
//! ```text
//! cargo test --test driftbench_quality regenerate_driftbench_golden -- --ignored
//! ```
//!
//! The bottom half of the file is the scorer property suite: random
//! schedules × random (unsorted, out-of-range-happy) detection sets must
//! always satisfy `TP + FN == n_drifts`, `TP + FP == detections.len()`,
//! non-negative finite delays, and permutation invariance.

use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;

use optwin::eval::score_detections;
use optwin::{run_driftbench, DriftSchedule, DriftbenchConfig, DriftbenchReport, ScenarioKind};

// ---------------------------------------------------------------------------
// The golden grid
// ---------------------------------------------------------------------------

/// The scaled-down grid the fixture pins: full line-up, full scenario
/// catalogue, 2 seeds × 8 000 elements (the full-scale numbers live in the
/// `driftbench` binary, not in CI).
fn golden_config() -> DriftbenchConfig {
    DriftbenchConfig::full(2, 8_000, 1_000)
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("driftbench")
        .join("golden.json")
}

fn load_golden() -> DriftbenchReport {
    let text = std::fs::read_to_string(fixture_path()).expect(
        "tests/fixtures/driftbench/golden.json missing — regenerate with \
         `cargo test --test driftbench_quality regenerate_driftbench_golden -- --ignored`",
    );
    serde_json::from_str(&text).expect("golden fixture parses as a DriftbenchReport")
}

/// The grid is expensive in debug builds; run it once and share it across
/// every test in this file.
fn fresh_report() -> &'static DriftbenchReport {
    static REPORT: OnceLock<DriftbenchReport> = OnceLock::new();
    REPORT.get_or_init(|| run_driftbench(&golden_config()))
}

// Tolerance bands. The grid is deterministic, so today fresh == golden
// exactly; the slack below is headroom for deliberate future changes, sized
// well under the gap a real regression opens (a missed drift at 2 seeds
// moves recall by >= 0.1 on most scenarios; an FP storm moves fp_per_10k by
// whole points).

/// Recall may drop at most this far below the golden cell.
const RECALL_SLACK: f64 = 0.15;
/// F1 may drop at most this far below the golden cell.
const F1_SLACK: f64 = 0.15;
/// `fp_per_10k` may exceed the golden cell by `max(FP_SLACK_ABS, 50%)`.
const FP_SLACK_ABS: f64 = 2.5;
/// Mean delay may exceed the golden cell by `max(DELAY_SLACK_ABS, 25%)`.
const DELAY_SLACK_ABS: f64 = 250.0;

/// Compares a report against the golden fixture cell by cell, returning
/// every band violation (empty = within tolerance).
fn band_violations(golden: &DriftbenchReport, fresh: &DriftbenchReport) -> Vec<String> {
    let mut violations = Vec::new();
    for g in &golden.cells {
        let Some(f) = fresh.cell(&g.scenario, &g.detector) else {
            violations.push(format!("{}/{}: cell disappeared", g.scenario, g.detector));
            continue;
        };
        if f.metrics.recall < g.metrics.recall - RECALL_SLACK {
            violations.push(format!(
                "{}/{}: recall {:.3} fell below golden {:.3} - {RECALL_SLACK}",
                g.scenario, g.detector, f.metrics.recall, g.metrics.recall
            ));
        }
        if f.metrics.f1 < g.metrics.f1 - F1_SLACK {
            violations.push(format!(
                "{}/{}: F1 {:.3} fell below golden {:.3} - {F1_SLACK}",
                g.scenario, g.detector, f.metrics.f1, g.metrics.f1
            ));
        }
        let fp_ceiling = g.fp_per_10k + FP_SLACK_ABS.max(0.5 * g.fp_per_10k);
        if f.fp_per_10k > fp_ceiling {
            violations.push(format!(
                "{}/{}: fp_per_10k {:.2} blew past ceiling {fp_ceiling:.2} (golden {:.2})",
                g.scenario, g.detector, f.fp_per_10k, g.fp_per_10k
            ));
        }
        if let (Some(gd), Some(fd)) = (g.metrics.mean_delay, f.metrics.mean_delay) {
            let delay_ceiling = gd + DELAY_SLACK_ABS.max(0.25 * gd);
            if fd > delay_ceiling {
                violations.push(format!(
                    "{}/{}: mean delay {fd:.1} blew past ceiling {delay_ceiling:.1} (golden {gd:.1})",
                    g.scenario, g.detector
                ));
            }
        }
        // A golden cell with a delay whose fresh run detects nothing at all
        // is caught by the recall floor, not silently excused here.
    }
    violations
}

#[test]
fn golden_grid_structure_matches() {
    let golden = load_golden();
    let fresh = fresh_report();
    assert_eq!(golden.stream_len, fresh.stream_len, "fixture scale drifted");
    assert_eq!(golden.seeds, fresh.seeds, "fixture scale drifted");

    // Full coverage: 7 scenarios × 10 line-up entries, minus the
    // binary-only detectors (DDM, EDDM, ECDD and the ensemble built from
    // them) on the two real-valued scenarios.
    assert_eq!(fresh.cells.len(), 7 * 10 - 2 * 4);
    for scenario in ScenarioKind::all() {
        let per_scenario = fresh
            .cells
            .iter()
            .filter(|c| c.scenario == scenario.id())
            .count();
        let expected = if scenario.binary_signal() { 10 } else { 6 };
        assert_eq!(per_scenario, expected, "coverage hole in {}", scenario.id());
    }

    let key = |r: &DriftbenchReport| {
        let mut cells: Vec<(String, String)> = r
            .cells
            .iter()
            .map(|c| (c.scenario.clone(), c.detector.clone()))
            .collect();
        cells.sort();
        cells
    };
    assert_eq!(key(&golden), key(fresh), "cell set diverged from golden");
}

#[test]
fn detection_quality_stays_within_golden_bands() {
    let golden = load_golden();
    let violations = band_violations(&golden, fresh_report());
    assert!(
        violations.is_empty(),
        "detection quality regressed vs tests/fixtures/driftbench/golden.json:\n  {}",
        violations.join("\n  ")
    );
}

/// The bands must actually bite: a synthetically regressed copy of the
/// golden report — recall halved on one cell, an FP storm on another, a
/// delay blow-up on a third — has to be flagged on every count.
#[test]
fn bands_flag_a_regressed_cell() {
    let golden = load_golden();
    let mut regressed = golden.clone();

    let miss = regressed
        .cells
        .iter_mut()
        .find(|c| c.metrics.recall > 0.5)
        .expect("some golden cell detects most of its drifts");
    let missed_cell = (miss.scenario.clone(), miss.detector.clone());
    miss.metrics.recall = 0.0;
    miss.metrics.f1 = 0.0;

    let storm = regressed
        .cells
        .iter_mut()
        .find(|c| (c.scenario.clone(), c.detector.clone()) != missed_cell)
        .expect("grid has more than one cell");
    let storm_cell = (storm.scenario.clone(), storm.detector.clone());
    storm.fp_per_10k += 100.0;

    let slow = regressed
        .cells
        .iter_mut()
        .find(|c| {
            c.metrics.mean_delay.is_some()
                && (c.scenario.clone(), c.detector.clone()) != missed_cell
        })
        .expect("some golden cell has a mean delay");
    let slow_cell = (slow.scenario.clone(), slow.detector.clone());
    slow.metrics.mean_delay = slow.metrics.mean_delay.map(|d| 4.0 * d + 10_000.0);

    let violations = band_violations(&golden, &regressed);
    let hit = |cell: &(String, String)| {
        violations
            .iter()
            .any(|v| v.starts_with(&format!("{}/{}", cell.0, cell.1)))
    };
    assert!(
        hit(&missed_cell),
        "recall collapse not flagged: {violations:?}"
    );
    assert!(hit(&storm_cell), "FP storm not flagged: {violations:?}");
    assert!(hit(&slow_cell), "delay blow-up not flagged: {violations:?}");
}

#[test]
#[ignore = "regenerates tests/fixtures/driftbench/golden.json; run only after a deliberate quality change"]
fn regenerate_driftbench_golden() {
    let report = run_driftbench(&golden_config());
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::create_dir_all(fixture_path().parent().unwrap()).expect("fixture dir");
    std::fs::write(fixture_path(), json + "\n").expect("fixture written");
    println!("regenerated {}", fixture_path().display());
}

// ---------------------------------------------------------------------------
// Scorer properties: random schedules × random detection sets
// ---------------------------------------------------------------------------

/// Random valid schedule: strictly increasing positions starting at >= 1,
/// any width (sudden through very gradual), stream long enough to hold the
/// last drift.
fn arb_schedule() -> impl Strategy<Value = DriftSchedule> {
    // The vendored proptest shim has no tuple strategies, so width, tail
    // and the position gaps all come out of one raw vector: the first two
    // draws parameterise the shape, the rest become strictly positive gaps.
    proptest::collection::vec(1usize..2_000, 3..10).prop_map(|raw| {
        let width = 1 + raw[0] % 1_500;
        let tail = raw[1];
        let mut positions = Vec::with_capacity(raw.len() - 2);
        let mut at = 0usize;
        for gap in &raw[2..] {
            at += gap;
            positions.push(at);
        }
        DriftSchedule::new(positions, width, at + tail)
    })
}

/// Deterministic Fisher–Yates driven by SplitMix64, so permutation
/// invariance is exercised beyond "sorted vs reversed".
fn shuffled(detections: &[usize], seed: u64) -> Vec<usize> {
    let mut out = detections.to_vec();
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..out.len()).rev() {
        out.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    out
}

proptest! {
    /// Every detection lands in exactly one bucket and every drift is
    /// either hit or missed: `TP + FN == n_drifts`,
    /// `TP + FP == detections.len()`, and each TP contributes one
    /// non-negative finite delay.
    #[test]
    fn scorer_partitions_drifts_and_detections(
        schedule in arb_schedule(),
        detections in proptest::collection::vec(0usize..20_000, 0..40),
    ) {
        let outcome = score_detections(&schedule, &detections);
        prop_assert_eq!(
            outcome.true_positives + outcome.false_negatives,
            schedule.n_drifts()
        );
        prop_assert_eq!(
            outcome.true_positives + outcome.false_positives,
            detections.len()
        );
        prop_assert_eq!(outcome.delays.len(), outcome.true_positives);
        for &delay in &outcome.delays {
            prop_assert!(delay.is_finite() && delay >= 0.0, "bad delay {delay}");
        }
    }

    /// The outcome is invariant under any permutation of the detection
    /// list: sorted, reversed and Fisher–Yates-shuffled inputs all score
    /// identically.
    #[test]
    fn scorer_is_permutation_invariant(
        schedule in arb_schedule(),
        detections in proptest::collection::vec(0usize..20_000, 0..40),
        seed in 0u64..u64::MAX,
    ) {
        let reference = score_detections(&schedule, &detections);

        let mut sorted = detections.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&score_detections(&schedule, &sorted), &reference);

        let mut reversed = sorted;
        reversed.reverse();
        prop_assert_eq!(&score_detections(&schedule, &reversed), &reference);

        let shuffled = shuffled(&detections, seed);
        prop_assert_eq!(&score_detections(&schedule, &shuffled), &reference);
    }
}
