//! Ground-truth drift schedules.
//!
//! A [`DriftSchedule`] records where the concept drifts of a synthetic stream
//! actually are, so that the evaluation harness can score detections (true
//! positives, false positives, false negatives, delay) against the ground
//! truth — exactly what the paper's Table 1 reports.

/// Ground truth about the drifts injected into a stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriftSchedule {
    /// Positions (0-based element index) at which each drift *starts*.
    positions: Vec<usize>,
    /// Transition width in elements (1 for sudden drifts; the sigmoid width
    /// for gradual drifts).
    width: usize,
    /// Total stream length the schedule describes.
    stream_len: usize,
}

impl DriftSchedule {
    /// Creates a schedule from explicit drift start positions.
    ///
    /// # Panics
    ///
    /// Panics if positions are not strictly increasing or exceed
    /// `stream_len`, if the first position is 0 (a drift at element 0 leaves
    /// no pre-drift segment, so every detection would become a true-positive
    /// candidate for it — reject it rather than score it arbitrarily), or if
    /// `width` is zero.
    #[must_use]
    pub fn new(positions: Vec<usize>, width: usize, stream_len: usize) -> Self {
        assert!(width >= 1, "drift width must be at least 1");
        assert!(
            positions.first() != Some(&0),
            "first drift position must be positive: a drift at element 0 has no pre-drift segment"
        );
        let mut prev = 0usize;
        for (i, &p) in positions.iter().enumerate() {
            assert!(
                i == 0 || p > prev,
                "drift positions must be strictly increasing"
            );
            assert!(
                p < stream_len,
                "drift position {p} beyond stream length {stream_len}"
            );
            prev = p;
        }
        Self {
            positions,
            width,
            stream_len,
        }
    }

    /// A schedule with drifts every `interval` elements (the paper uses
    /// 100 000-element streams with drifts every 20 000 instances).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero or `width` is zero.
    #[must_use]
    pub fn every(interval: usize, stream_len: usize, width: usize) -> Self {
        assert!(interval > 0, "drift interval must be positive");
        let positions: Vec<usize> = (1..)
            .map(|k| k * interval)
            .take_while(|&p| p < stream_len)
            .collect();
        Self::new(positions, width, stream_len)
    }

    /// A schedule with no drifts at all.
    #[must_use]
    pub fn stationary(stream_len: usize) -> Self {
        Self::new(Vec::new(), 1, stream_len)
    }

    /// The drift start positions.
    #[must_use]
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// The transition width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total stream length covered by this schedule.
    #[must_use]
    pub fn stream_len(&self) -> usize {
        self.stream_len
    }

    /// Number of drifts.
    #[must_use]
    pub fn n_drifts(&self) -> usize {
        self.positions.len()
    }

    /// Index of the concept active at element `i` (0 before the first drift).
    ///
    /// For gradual drifts the concept is considered switched at the drift
    /// *start* position (the centre of the sigmoid is `position + width/2`).
    #[must_use]
    pub fn concept_at(&self, i: usize) -> usize {
        self.positions.iter().take_while(|&&p| p <= i).count()
    }

    /// End of the segment that starts at drift `k` (i.e. the next drift
    /// position, or the stream length for the last segment).
    #[must_use]
    pub fn segment_end(&self, k: usize) -> usize {
        self.positions
            .get(k + 1)
            .copied()
            .unwrap_or(self.stream_len)
    }

    /// First element index at which drift `k`'s transition is already
    /// observable.
    ///
    /// For sudden drifts (`width <= 1`) this is the drift position itself.
    /// For gradual drifts the generators begin sampling the new concept
    /// *before* the recorded start position (the sigmoid of
    /// [`crate::drift::MultiConceptStream`] is centred at
    /// `position + width/2`, so its leading tail reaches back to roughly
    /// `position - width/2`), hence the transition window opens `width / 2`
    /// elements early — clamped so it never reaches at or before the
    /// previous drift's start position, and never before element 0.
    ///
    /// # Panics
    ///
    /// Panics if `k >= n_drifts()`.
    #[must_use]
    pub fn transition_start(&self, k: usize) -> usize {
        let pre = if self.width <= 1 { 0 } else { self.width / 2 };
        let start = self.positions[k].saturating_sub(pre);
        if k == 0 {
            start
        } else {
            start.max(self.positions[k - 1] + 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_generates_expected_positions() {
        let s = DriftSchedule::every(20_000, 100_000, 1);
        assert_eq!(s.positions(), &[20_000, 40_000, 60_000, 80_000]);
        assert_eq!(s.n_drifts(), 4);
        assert_eq!(s.width(), 1);
        assert_eq!(s.stream_len(), 100_000);
    }

    #[test]
    fn concept_at_boundaries() {
        let s = DriftSchedule::every(10, 40, 1);
        assert_eq!(s.concept_at(0), 0);
        assert_eq!(s.concept_at(9), 0);
        assert_eq!(s.concept_at(10), 1);
        assert_eq!(s.concept_at(19), 1);
        assert_eq!(s.concept_at(20), 2);
        assert_eq!(s.concept_at(39), 3);
    }

    #[test]
    fn segment_end() {
        let s = DriftSchedule::new(vec![100, 300], 1, 500);
        // Segment 0 starts at drift 0 (position 100) and ends at 300;
        // segment 1 ends at the stream end.
        assert_eq!(s.segment_end(0), 300);
        assert_eq!(s.segment_end(1), 500);
    }

    #[test]
    fn stationary_schedule() {
        let s = DriftSchedule::stationary(1_000);
        assert_eq!(s.n_drifts(), 0);
        assert_eq!(s.concept_at(999), 0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unordered_positions() {
        let _ = DriftSchedule::new(vec![50, 50], 1, 100);
    }

    #[test]
    #[should_panic(expected = "beyond stream length")]
    fn rejects_positions_beyond_length() {
        let _ = DriftSchedule::new(vec![200], 1, 100);
    }

    #[test]
    #[should_panic(expected = "width must be at least 1")]
    fn rejects_zero_width() {
        let _ = DriftSchedule::new(vec![10], 0, 100);
    }

    #[test]
    #[should_panic(expected = "first drift position must be positive")]
    fn rejects_drift_at_position_zero() {
        let _ = DriftSchedule::new(vec![0, 50], 1, 100);
    }

    #[test]
    fn transition_start_is_width_aware() {
        // Sudden drifts: the transition starts exactly at the position.
        let sudden = DriftSchedule::new(vec![100, 300], 1, 500);
        assert_eq!(sudden.transition_start(0), 100);
        assert_eq!(sudden.transition_start(1), 300);
        // Gradual drifts: the window opens width/2 early.
        let gradual = DriftSchedule::new(vec![2_000], 1_000, 4_000);
        assert_eq!(gradual.transition_start(0), 1_500);
        // Clamped at 0 when the pre-window would underflow the stream start.
        let early = DriftSchedule::new(vec![100], 1_000, 4_000);
        assert_eq!(early.transition_start(0), 0);
        // Clamped past the previous drift position when widths overlap.
        let dense = DriftSchedule::new(vec![1_000, 1_200], 1_000, 4_000);
        assert_eq!(dense.transition_start(0), 500);
        assert_eq!(dense.transition_start(1), 1_001);
        // transition_start is strictly increasing even under clamping.
        assert!(dense.transition_start(0) < dense.transition_start(1));
    }
}
