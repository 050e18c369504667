//! Drift-detection metrics.
//!
//! The paper scores detectors by their true-positive, false-positive and
//! false-negative counts (and the precision / recall / F1 derived from them)
//! plus the detection delay. The matching rule implemented here follows the
//! common MOA evaluation convention the paper relies on:
//!
//! * the stream is divided into segments by the true drift positions — a
//!   drift's segment opens at [`DriftSchedule::transition_start`], i.e. the
//!   drift position itself for sudden drifts (`width <= 1`) and `width / 2`
//!   elements **before** the recorded start for gradual drifts, because the
//!   generators already sample the new concept inside the leading half of
//!   the sigmoid transition;
//! * the **earliest** detection (by stream index — the input order of
//!   `detections` is irrelevant, the scorer sorts internally) inside a
//!   drift's segment is that drift's true positive, and its distance from
//!   the drift *start position* is the detection delay — clamped at 0 for
//!   detections fired inside the transition window but before the recorded
//!   start;
//! * every additional detection in the same segment — and any detection
//!   before the first drift's transition window — is a false positive;
//! * a true drift whose segment contains no detection is a false negative.
//!
//! Every detection is attributed to exactly one drift segment (or to the
//! pre-drift prefix), so `TP + FN == n_drifts` and
//! `TP + FP == detections.len()` hold unconditionally — the invariants the
//! `driftbench_quality` proptest pins down.

use serde::{Deserialize, Serialize};

use optwin_stream::DriftSchedule;

/// Outcome of scoring one detector run against a ground-truth schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectionOutcome {
    /// Number of true drifts that were detected.
    pub true_positives: usize,
    /// Number of spurious detections.
    pub false_positives: usize,
    /// Number of missed drifts.
    pub false_negatives: usize,
    /// Detection delay (in elements) of every true positive.
    pub delays: Vec<f64>,
    /// Mean detection delay, if any drift was detected.
    pub mean_delay: Option<f64>,
}

impl DetectionOutcome {
    /// Precision `TP / (TP + FP)`; 1.0 when there are no detections at all
    /// (the conventional value when the denominator is zero).
    #[must_use]
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Recall `TP / (TP + FN)`; 1.0 when there were no true drifts.
    #[must_use]
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// F1 score (harmonic mean of precision and recall).
    #[must_use]
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Scores a list of detection indices against the ground-truth schedule.
///
/// `detections` may arrive in any order (e.g. merged from several sinks or
/// detectors): the scorer sorts a copy internally, so the outcome is
/// invariant under permutation of the input. For gradual schedules a
/// detection inside the transition window — from
/// [`DriftSchedule::transition_start`] up to the next drift's transition
/// start — is credited to that drift, with the delay measured from the
/// recorded drift start and clamped at 0.
#[must_use]
pub fn score_detections(schedule: &DriftSchedule, detections: &[usize]) -> DetectionOutcome {
    let positions = schedule.positions();
    let mut sorted: Vec<usize> = detections.to_vec();
    sorted.sort_unstable();

    let mut true_positives = 0usize;
    let mut false_positives = 0usize;
    let mut false_negatives = 0usize;
    let mut delays = Vec::new();

    // Detections before the first drift's transition window are false
    // positives.
    let first_window = if positions.is_empty() {
        usize::MAX
    } else {
        schedule.transition_start(0)
    };
    false_positives += sorted.iter().filter(|&&d| d < first_window).count();

    for (k, &drift_pos) in positions.iter().enumerate() {
        let window_start = schedule.transition_start(k);
        // A drift's candidate window closes where the next drift's opens;
        // the last segment runs to the end (stray indices past the stream
        // length still score as FPs there rather than vanishing, keeping
        // TP + FP == detections.len()).
        let segment_end = if k + 1 < positions.len() {
            schedule.transition_start(k + 1)
        } else {
            usize::MAX
        };
        let mut in_segment = sorted
            .iter()
            .filter(|&&d| d >= window_start && d < segment_end);
        match in_segment.next() {
            Some(&first) => {
                true_positives += 1;
                delays.push(first.saturating_sub(drift_pos) as f64);
                false_positives += in_segment.count();
            }
            None => {
                false_negatives += 1;
            }
        }
    }

    let mean_delay = if delays.is_empty() {
        None
    } else {
        Some(delays.iter().sum::<f64>() / delays.len() as f64)
    };
    DetectionOutcome {
        true_positives,
        false_positives,
        false_negatives,
        delays,
        mean_delay,
    }
}

/// Micro-averaged metrics over repeated runs (the paper repeats every
/// experiment 30 times and reports micro-averaged precision / recall / F1,
/// the average FP count per run and the average delay).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregateMetrics {
    /// Number of runs aggregated.
    pub runs: usize,
    /// Total true positives across runs.
    pub true_positives: usize,
    /// Total false positives across runs.
    pub false_positives: usize,
    /// Total false negatives across runs.
    pub false_negatives: usize,
    /// Average number of false positives per run (the paper's "FP" column).
    pub mean_false_positives_per_run: f64,
    /// Mean detection delay over all true positives of all runs.
    pub mean_delay: Option<f64>,
    /// Micro-averaged precision.
    pub precision: f64,
    /// Micro-averaged recall.
    pub recall: f64,
    /// Micro-averaged F1 score.
    pub f1: f64,
}

impl AggregateMetrics {
    /// Aggregates the outcomes of repeated runs.
    #[must_use]
    pub fn from_outcomes(outcomes: &[DetectionOutcome]) -> Self {
        let runs = outcomes.len();
        let tp: usize = outcomes.iter().map(|o| o.true_positives).sum();
        let fp: usize = outcomes.iter().map(|o| o.false_positives).sum();
        let fn_: usize = outcomes.iter().map(|o| o.false_negatives).sum();
        let all_delays: Vec<f64> = outcomes.iter().flat_map(|o| o.delays.clone()).collect();
        let mean_delay = if all_delays.is_empty() {
            None
        } else {
            Some(all_delays.iter().sum::<f64>() / all_delays.len() as f64)
        };
        let precision = if tp + fp == 0 {
            1.0
        } else {
            tp as f64 / (tp + fp) as f64
        };
        let recall = if tp + fn_ == 0 {
            1.0
        } else {
            tp as f64 / (tp + fn_) as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        Self {
            runs,
            true_positives: tp,
            false_positives: fp,
            false_negatives: fn_,
            mean_false_positives_per_run: if runs == 0 {
                0.0
            } else {
                fp as f64 / runs as f64
            },
            mean_delay,
            precision,
            recall,
            f1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule() -> DriftSchedule {
        DriftSchedule::new(vec![1_000, 2_000, 3_000], 1, 4_000)
    }

    #[test]
    fn perfect_detection() {
        let o = score_detections(&schedule(), &[1_010, 2_005, 3_100]);
        assert_eq!(o.true_positives, 3);
        assert_eq!(o.false_positives, 0);
        assert_eq!(o.false_negatives, 0);
        assert_eq!(o.precision(), 1.0);
        assert_eq!(o.recall(), 1.0);
        assert_eq!(o.f1(), 1.0);
        assert!((o.mean_delay.unwrap() - (10.0 + 5.0 + 100.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn missed_drifts_are_false_negatives() {
        let o = score_detections(&schedule(), &[1_010]);
        assert_eq!(o.true_positives, 1);
        assert_eq!(o.false_negatives, 2);
        assert_eq!(o.false_positives, 0);
        assert!((o.recall() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(o.precision(), 1.0);
    }

    #[test]
    fn extra_detections_are_false_positives() {
        let o = score_detections(&schedule(), &[500, 1_010, 1_500, 1_700, 2_005, 3_001]);
        assert_eq!(o.true_positives, 3);
        // 500 (before any drift), 1500 and 1700 (after the TP of segment 1).
        assert_eq!(o.false_positives, 3);
        assert_eq!(o.false_negatives, 0);
        assert!((o.precision() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn no_detections_at_all() {
        let o = score_detections(&schedule(), &[]);
        assert_eq!(o.true_positives, 0);
        assert_eq!(o.false_negatives, 3);
        assert_eq!(o.precision(), 1.0);
        assert_eq!(o.recall(), 0.0);
        assert_eq!(o.f1(), 0.0);
        assert_eq!(o.mean_delay, None);
    }

    #[test]
    fn stationary_stream_all_detections_are_fp() {
        let s = DriftSchedule::stationary(5_000);
        let o = score_detections(&s, &[100, 3_000]);
        assert_eq!(o.true_positives, 0);
        assert_eq!(o.false_positives, 2);
        assert_eq!(o.false_negatives, 0);
        assert_eq!(o.recall(), 1.0);
        assert_eq!(o.precision(), 0.0);
    }

    #[test]
    fn aggregation_micro_averages() {
        let a = score_detections(&schedule(), &[1_010, 2_005, 3_100]);
        let b = score_detections(&schedule(), &[500, 1_100]);
        let agg = AggregateMetrics::from_outcomes(&[a, b]);
        assert_eq!(agg.runs, 2);
        assert_eq!(agg.true_positives, 4);
        assert_eq!(agg.false_positives, 1);
        assert_eq!(agg.false_negatives, 2);
        assert!((agg.mean_false_positives_per_run - 0.5).abs() < 1e-12);
        assert!((agg.precision - 4.0 / 5.0).abs() < 1e-12);
        assert!((agg.recall - 4.0 / 6.0).abs() < 1e-12);
        let expected_f1 = 2.0 * (0.8 * (4.0 / 6.0)) / (0.8 + 4.0 / 6.0);
        assert!((agg.f1 - expected_f1).abs() < 1e-12);
        // Mean delay over all TPs: (10 + 5 + 100 + 100) / 4
        assert!((agg.mean_delay.unwrap() - 53.75).abs() < 1e-12);
    }

    #[test]
    fn aggregation_of_empty_list() {
        let agg = AggregateMetrics::from_outcomes(&[]);
        assert_eq!(agg.runs, 0);
        assert_eq!(agg.precision, 1.0);
        assert_eq!(agg.recall, 1.0);
        assert_eq!(agg.mean_delay, None);
    }

    #[test]
    fn serialization_round_trip() {
        let o = score_detections(&schedule(), &[1_010, 2_600]);
        let json = serde_json::to_string(&o).unwrap();
        let back: DetectionOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(o, back);
    }

    #[test]
    fn scoring_is_permutation_invariant() {
        // Detections merged from several sinks or detectors arrive in
        // arbitrary order; the outcome must not depend on list order. The
        // old scorer credited whichever detection appeared first in *list*
        // order as the TP, corrupting the delay and the FP split.
        let dets = [3_100, 1_700, 2_005, 500, 1_010, 1_500];
        let reference = score_detections(&schedule(), &[500, 1_010, 1_500, 1_700, 2_005, 3_100]);
        let shuffled = score_detections(&schedule(), &dets);
        assert_eq!(shuffled, reference);
        assert_eq!(shuffled.true_positives, 3);
        assert_eq!(shuffled.false_positives, 3);
        // The delay of segment 1 must come from its *earliest* detection
        // (1 010), not from 1 700 which precedes it in list order.
        assert!((shuffled.delays[0] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn unsorted_reversed_input_matches_sorted() {
        let mut dets = vec![1_010, 1_500, 2_005, 3_100];
        let sorted = score_detections(&schedule(), &dets);
        dets.reverse();
        assert_eq!(score_detections(&schedule(), &dets), sorted);
    }

    #[test]
    fn sudden_width_one_has_no_transition_window() {
        // Boundary test at width 1: one element before the drift is still a
        // false positive, the drift position itself is a zero-delay TP.
        let s = DriftSchedule::new(vec![1_000], 1, 2_000);
        let o = score_detections(&s, &[999]);
        assert_eq!(
            (o.true_positives, o.false_positives, o.false_negatives),
            (0, 1, 1)
        );
        let o = score_detections(&s, &[1_000]);
        assert_eq!(
            (o.true_positives, o.false_positives, o.false_negatives),
            (1, 0, 0)
        );
        assert_eq!(o.delays, vec![0.0]);
    }

    #[test]
    fn gradual_transition_window_credits_early_detections() {
        // Boundary test at width 1000: the transition window opens 500
        // elements before the recorded drift start (the generators already
        // sample the new concept there), so a detection at 1 500 is a TP
        // with delay clamped to 0 — the old scorer counted it as an FP and
        // the drift as an FN.
        let s = DriftSchedule::new(vec![2_000], 1_000, 4_000);
        let o = score_detections(&s, &[1_500]);
        assert_eq!(
            (o.true_positives, o.false_positives, o.false_negatives),
            (1, 0, 0)
        );
        assert_eq!(o.delays, vec![0.0]);
        // One element before the window opens: still a false positive.
        let o = score_detections(&s, &[1_499]);
        assert_eq!(
            (o.true_positives, o.false_positives, o.false_negatives),
            (0, 1, 1)
        );
        // Past the drift start the delay is measured from the start.
        let o = score_detections(&s, &[2_300]);
        assert_eq!(o.delays, vec![300.0]);
        // Earliest in-window detection wins; later ones are FPs even when
        // they sit closer to the recorded start.
        let o = score_detections(&s, &[2_300, 1_600]);
        assert_eq!((o.true_positives, o.false_positives), (1, 1));
        assert_eq!(o.delays, vec![0.0]);
    }

    #[test]
    fn gradual_windows_partition_multi_drift_schedules() {
        // With two gradual drifts the first segment closes where the second
        // drift's transition window opens: a detection at 2 600 belongs to
        // drift 1 (delay clamped to 0), not to drift 0's segment.
        let s = DriftSchedule::new(vec![1_000, 3_000], 800, 5_000);
        let o = score_detections(&s, &[1_050, 2_600]);
        assert_eq!(
            (o.true_positives, o.false_positives, o.false_negatives),
            (2, 0, 0)
        );
        assert_eq!(o.delays, vec![50.0, 0.0]);
    }
}
