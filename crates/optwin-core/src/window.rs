//! The sliding window with an incrementally maintained split.
//!
//! OPTWIN stores the last `w_max` error observations in a ring buffer and, at
//! every step, needs the mean and standard deviation of the *historical*
//! prefix `W_hist = W[0 .. split)` and of the *new* suffix
//! `W_new = W[split ..)`. Recomputing those from scratch would make each step
//! O(|W|); instead [`SplitWindow`] keeps two add/remove accumulators and only
//! moves the elements that cross the boundary when the split point changes,
//! which is amortized O(1) because the optimal split moves by a bounded
//! amount per ingested element.

use optwin_stats::incremental::WindowMoments;

/// Ring-buffered sliding window with two incrementally maintained
/// sub-window accumulators.
#[derive(Debug, Clone)]
pub struct SplitWindow {
    /// Ring storage with fixed capacity.
    buf: Vec<f64>,
    /// Index of the oldest element inside `buf`.
    head: usize,
    /// Number of stored elements.
    len: usize,
    /// Number of elements (counted from the oldest) that belong to `W_hist`.
    split: usize,
    /// Moments of `W_hist`.
    hist: WindowMoments,
    /// Moments of `W_new`.
    new: WindowMoments,
}

impl SplitWindow {
    /// Creates an empty window with the given fixed capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        Self {
            buf: vec![0.0; capacity],
            head: 0,
            len: 0,
            split: 0,
            hist: WindowMoments::new(),
            new: WindowMoments::new(),
        }
    }

    /// Maximum number of elements the window can hold.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Bytes of heap storage owned by the ring buffer. The buffer is
    /// allocated eagerly at full capacity, so this is
    /// `capacity * size_of::<f64>()` regardless of how many elements are
    /// currently stored — exactly what a memory audit should count.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.buf.capacity() * std::mem::size_of::<f64>()
    }

    /// Reduces a ring index in `[0, 2·capacity)` into `[0, capacity)`.
    ///
    /// `head` stays below the capacity and offsets never exceed it, so a
    /// single conditional subtract replaces the `%` the hot paths would
    /// otherwise pay — an integer division per push/pop/probe.
    #[inline]
    fn wrap(&self, i: usize) -> usize {
        debug_assert!(i < 2 * self.buf.len());
        if i >= self.buf.len() {
            i - self.buf.len()
        } else {
            i
        }
    }

    /// Number of elements currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the window holds no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current split point: the number of elements in `W_hist`.
    #[must_use]
    pub fn split(&self) -> usize {
        self.split
    }

    /// Number of elements in `W_new`.
    #[must_use]
    pub fn new_len(&self) -> usize {
        self.len - self.split
    }

    /// Returns the `i`-th oldest element (0 = oldest).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn get(&self, i: usize) -> f64 {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        self.buf[self.wrap(self.head + i)]
    }

    /// Appends a new (most recent) element to `W_new`.
    ///
    /// # Panics
    ///
    /// Panics if the window is full; callers must [`Self::pop_front`] first.
    pub fn push(&mut self, x: f64) {
        assert!(self.len < self.buf.len(), "window is full");
        let idx = self.wrap(self.head + self.len);
        self.buf[idx] = x;
        self.len += 1;
        self.new.add(x);
    }

    /// Removes and returns the oldest element.
    ///
    /// Returns `None` if the window is empty. The element is removed from
    /// whichever sub-window currently contains it.
    pub fn pop_front(&mut self) -> Option<f64> {
        if self.len == 0 {
            return None;
        }
        let x = self.buf[self.head];
        self.head = self.wrap(self.head + 1);
        self.len -= 1;
        if self.split > 0 {
            self.split -= 1;
            self.hist.remove(x);
        } else {
            self.new.remove(x);
        }
        Some(x)
    }

    /// Moves the split boundary so that `W_hist` contains exactly
    /// `new_split` elements.
    ///
    /// # Panics
    ///
    /// Panics if `new_split > len()`.
    pub fn set_split(&mut self, new_split: usize) {
        assert!(
            new_split <= self.len,
            "split {new_split} exceeds window length {}",
            self.len
        );
        while self.split < new_split {
            // Oldest element of W_new migrates to W_hist.
            let x = self.get(self.split);
            self.new.remove(x);
            self.hist.add(x);
            self.split += 1;
        }
        while self.split > new_split {
            // Newest element of W_hist migrates back to W_new.
            let x = self.get(self.split - 1);
            self.hist.remove(x);
            self.new.add(x);
            self.split -= 1;
        }
    }

    /// Mean of `W_hist` (0.0 when empty).
    #[must_use]
    pub fn hist_mean(&self) -> f64 {
        self.hist.mean()
    }

    /// Unbiased sample standard deviation of `W_hist`.
    #[must_use]
    pub fn hist_std(&self) -> f64 {
        self.hist.sample_std()
    }

    /// Unbiased sample variance of `W_hist`.
    #[must_use]
    pub fn hist_variance(&self) -> f64 {
        self.hist.sample_variance()
    }

    /// Mean of `W_new` (0.0 when empty).
    #[must_use]
    pub fn new_mean(&self) -> f64 {
        self.new.mean()
    }

    /// Unbiased sample standard deviation of `W_new`.
    #[must_use]
    pub fn new_std(&self) -> f64 {
        self.new.sample_std()
    }

    /// Unbiased sample variance of `W_new`.
    #[must_use]
    pub fn new_variance(&self) -> f64 {
        self.new.sample_variance()
    }

    /// Mean of the whole window.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        (self.hist.sum() + self.new.sum()) / self.len as f64
    }

    /// Copies the window contents (oldest first) into a vector. Intended for
    /// tests and diagnostics, not for the hot path.
    #[must_use]
    pub fn to_vec(&self) -> Vec<f64> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// Removes all elements and resets the split to zero.
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
        self.split = 0;
        self.hist.reset();
        self.new.reset();
    }

    /// Raw accumulator state of the `W_hist` moments (see
    /// [`WindowMoments::to_raw`]), for exact persistence.
    #[must_use]
    pub fn hist_moments_raw(&self) -> (u64, f64, f64, f64) {
        self.hist.to_raw()
    }

    /// Raw accumulator state of the `W_new` moments (see
    /// [`WindowMoments::to_raw`]), for exact persistence.
    #[must_use]
    pub fn new_moments_raw(&self) -> (u64, f64, f64, f64) {
        self.new.to_raw()
    }

    /// Rebuilds a window from persisted state: the stored values (oldest
    /// first), the split point, and the two raw moment accumulators captured
    /// by [`SplitWindow::hist_moments_raw`] / [`SplitWindow::new_moments_raw`].
    ///
    /// Restoring the accumulators verbatim (instead of re-adding the values)
    /// makes the round trip bit-exact: an accumulator that has lived through
    /// add/remove cycles carries rounding residue a rebuild would lose, and
    /// OPTWIN's subsequent drift decisions must not depend on whether the
    /// process was restarted.
    ///
    /// Returns `None` when the pieces are inconsistent (`values` longer than
    /// `capacity`, `split` beyond the length, or accumulator counts that do
    /// not match the two sub-window sizes).
    #[must_use]
    pub fn from_state(
        capacity: usize,
        values: &[f64],
        split: usize,
        hist_raw: (u64, f64, f64, f64),
        new_raw: (u64, f64, f64, f64),
    ) -> Option<Self> {
        if capacity == 0 || values.len() > capacity || split > values.len() {
            return None;
        }
        if hist_raw.0 != split as u64 || new_raw.0 != (values.len() - split) as u64 {
            return None;
        }
        let mut buf = vec![0.0; capacity];
        buf[..values.len()].copy_from_slice(values);
        Some(Self {
            buf,
            head: 0,
            len: values.len(),
            split,
            hist: WindowMoments::from_raw(hist_raw.0, hist_raw.1, hist_raw.2, hist_raw.3),
            new: WindowMoments::from_raw(new_raw.0, new_raw.1, new_raw.2, new_raw.3),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optwin_stats::descriptive;

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = SplitWindow::with_capacity(0);
    }

    #[test]
    fn push_pop_fifo_order() {
        let mut w = SplitWindow::with_capacity(3);
        w.push(1.0);
        w.push(2.0);
        w.push(3.0);
        assert_eq!(w.len(), 3);
        assert_eq!(w.pop_front(), Some(1.0));
        w.push(4.0);
        assert_eq!(w.to_vec(), vec![2.0, 3.0, 4.0]);
        assert_eq!(w.pop_front(), Some(2.0));
        assert_eq!(w.pop_front(), Some(3.0));
        assert_eq!(w.pop_front(), Some(4.0));
        assert_eq!(w.pop_front(), None);
        assert!(w.is_empty());
    }

    #[test]
    #[should_panic(expected = "window is full")]
    fn push_past_capacity_panics() {
        let mut w = SplitWindow::with_capacity(2);
        w.push(1.0);
        w.push(2.0);
        w.push(3.0);
    }

    #[test]
    fn split_moments_match_batch() {
        let xs = [0.1, 0.9, 0.4, 0.6, 0.2, 0.8, 0.35, 0.65];
        let mut w = SplitWindow::with_capacity(16);
        for &x in &xs {
            w.push(x);
        }
        for split in 0..=xs.len() {
            w.set_split(split);
            let (hist, new) = xs.split_at(split);
            if split > 0 {
                assert!((w.hist_mean() - descriptive::mean(hist).unwrap()).abs() < 1e-12);
            }
            if split >= 2 {
                assert!(
                    (w.hist_variance() - descriptive::sample_variance(hist).unwrap()).abs() < 1e-10
                );
            }
            if new.len() >= 2 {
                assert!(
                    (w.new_variance() - descriptive::sample_variance(new).unwrap()).abs() < 1e-10
                );
            }
            if !new.is_empty() {
                assert!((w.new_mean() - descriptive::mean(new).unwrap()).abs() < 1e-12);
            }
            assert_eq!(w.split(), split);
            assert_eq!(w.new_len(), xs.len() - split);
        }
        // Move the split back and forth; accumulators stay consistent.
        w.set_split(3);
        w.set_split(7);
        w.set_split(1);
        let (hist, _) = xs.split_at(1);
        assert!((w.hist_mean() - hist[0]).abs() < 1e-12);
    }

    #[test]
    fn pop_front_consumes_hist_then_new() {
        let mut w = SplitWindow::with_capacity(8);
        for &x in &[1.0, 2.0, 3.0, 4.0] {
            w.push(x);
        }
        w.set_split(2);
        assert_eq!(w.pop_front(), Some(1.0));
        assert_eq!(w.split(), 1);
        assert_eq!(w.pop_front(), Some(2.0));
        assert_eq!(w.split(), 0);
        // Now popping comes out of W_new.
        assert_eq!(w.pop_front(), Some(3.0));
        assert!((w.new_mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn whole_window_mean() {
        let mut w = SplitWindow::with_capacity(4);
        w.push(0.25);
        w.push(0.75);
        w.set_split(1);
        assert!((w.mean() - 0.5).abs() < 1e-12);
        assert_eq!(SplitWindow::with_capacity(4).mean(), 0.0);
    }

    #[test]
    fn clear_resets_everything() {
        let mut w = SplitWindow::with_capacity(4);
        w.push(1.0);
        w.push(2.0);
        w.set_split(1);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.split(), 0);
        assert_eq!(w.hist_mean(), 0.0);
        assert_eq!(w.new_mean(), 0.0);
        // Usable after clear.
        w.push(5.0);
        assert_eq!(w.to_vec(), vec![5.0]);
    }

    #[test]
    fn state_round_trip_is_bit_exact() {
        let mut w = SplitWindow::with_capacity(8);
        // Exercise eviction and split movement so the accumulators carry
        // add/remove rounding history.
        for i in 0..20u32 {
            if w.len() == w.capacity() {
                w.pop_front();
            }
            w.push(0.05 + 0.031 * f64::from(i));
            w.set_split(w.len() / 2);
        }
        let restored = SplitWindow::from_state(
            w.capacity(),
            &w.to_vec(),
            w.split(),
            w.hist_moments_raw(),
            w.new_moments_raw(),
        )
        .expect("consistent state");
        assert_eq!(restored.to_vec(), w.to_vec());
        assert_eq!(restored.split(), w.split());
        assert_eq!(restored.hist_mean().to_bits(), w.hist_mean().to_bits());
        assert_eq!(restored.new_std().to_bits(), w.new_std().to_bits());
        assert_eq!(restored.hist_moments_raw(), w.hist_moments_raw());
        assert_eq!(restored.new_moments_raw(), w.new_moments_raw());
    }

    #[test]
    fn from_state_rejects_inconsistent_pieces() {
        let good = ([0.1, 0.2, 0.3], 1usize);
        let hist = {
            let mut m = optwin_stats::incremental::WindowMoments::new();
            m.add(good.0[0]);
            m.to_raw()
        };
        let new = {
            let mut m = optwin_stats::incremental::WindowMoments::new();
            m.add(good.0[1]);
            m.add(good.0[2]);
            m.to_raw()
        };
        assert!(SplitWindow::from_state(4, &good.0, good.1, hist, new).is_some());
        // Too small a capacity, split out of range, mismatched counts.
        assert!(SplitWindow::from_state(2, &good.0, good.1, hist, new).is_none());
        assert!(SplitWindow::from_state(4, &good.0, 4, hist, new).is_none());
        assert!(SplitWindow::from_state(4, &good.0, 2, hist, new).is_none());
        assert!(
            SplitWindow::from_state(0, &[], 0, (0, 0.0, 0.0, 0.0), (0, 0.0, 0.0, 0.0)).is_none()
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let w = SplitWindow::with_capacity(2);
        let _ = w.get(0);
    }

    #[test]
    #[should_panic(expected = "exceeds window length")]
    fn split_beyond_len_panics() {
        let mut w = SplitWindow::with_capacity(4);
        w.push(1.0);
        w.set_split(2);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use optwin_stats::descriptive;
    use proptest::prelude::*;

    /// Operations for the stateful property test.
    #[derive(Debug, Clone)]
    enum Op {
        Push(f64),
        Pop,
        SetSplitFraction(f64),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0.0f64..1.0).prop_map(Op::Push),
            Just(Op::Pop),
            (0.0f64..=1.0).prop_map(Op::SetSplitFraction),
        ]
    }

    proptest! {
        /// The incremental sub-window moments always agree with a batch
        /// recomputation over the window contents, regardless of the order of
        /// pushes, pops and split moves.
        #[test]
        fn incremental_matches_exact(ops in proptest::collection::vec(op_strategy(), 1..200)) {
            let capacity = 32;
            let mut w = SplitWindow::with_capacity(capacity);
            let mut model: Vec<f64> = Vec::new();
            let mut split = 0usize;

            for op in ops {
                match op {
                    Op::Push(x) => {
                        if model.len() == capacity {
                            // Mirror the detector's behaviour: drop the oldest.
                            w.pop_front();
                            model.remove(0);
                            split = split.saturating_sub(1);
                        }
                        w.push(x);
                        model.push(x);
                    }
                    Op::Pop => {
                        let popped = w.pop_front();
                        if model.is_empty() {
                            prop_assert_eq!(popped, None);
                        } else {
                            prop_assert_eq!(popped, Some(model.remove(0)));
                            split = split.saturating_sub(1);
                        }
                    }
                    Op::SetSplitFraction(f) => {
                        split = ((model.len() as f64) * f).floor() as usize;
                        split = split.min(model.len());
                        w.set_split(split);
                    }
                }
                prop_assert_eq!(w.len(), model.len());
                let (hist, new) = model.split_at(split.min(model.len()));
                if hist.len() >= 2 {
                    let exact = descriptive::sample_variance(hist).unwrap();
                    prop_assert!((w.hist_variance() - exact).abs() < 1e-8);
                }
                if new.len() >= 2 {
                    let exact = descriptive::sample_variance(new).unwrap();
                    prop_assert!((w.new_variance() - exact).abs() < 1e-8);
                }
                if !hist.is_empty() {
                    prop_assert!((w.hist_mean() - descriptive::mean(hist).unwrap()).abs() < 1e-9);
                }
                if !new.is_empty() {
                    prop_assert!((w.new_mean() - descriptive::mean(new).unwrap()).abs() < 1e-9);
                }
            }
        }
    }
}
