//! Incremental (streaming) statistics.
//!
//! OPTWIN and several baseline detectors need the mean and variance of a
//! sliding window (or of two adjacent sub-windows) updated in O(1) per
//! element. This module provides:
//!
//! * [`RunningMoments`] — Welford's online algorithm for count/mean/variance
//!   (the Naive Bayes learner's per-class Gaussian attributes).
//! * [`WindowMoments`] — an add/remove accumulator based on shifted sums of
//!   squares. Removal is exact in infinite precision; shifting by the first
//!   observation keeps the floating-point cancellation negligible for the
//!   bounded error-rate streams the detectors observe.
//! * [`Ewma`] — the exponentially weighted moving average estimator used by
//!   the ECDD baseline.

/// Welford online accumulator for count, mean, and variance.
///
/// Adding elements is numerically stable.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningMoments {
    count: u64,
    mean: f64,
    m2: f64,
}

impl RunningMoments {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns `true` when no observations have been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the observations (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divides by n; 0.0 for fewer than one observation).
    #[must_use]
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.m2 / self.count as f64).max(0.0)
        }
    }

    /// Unbiased sample variance (divides by n − 1; 0.0 for fewer than two).
    #[must_use]
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).max(0.0)
        }
    }

    /// Unbiased sample standard deviation.
    #[must_use]
    pub fn sample_std(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Resets the accumulator to the empty state.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Add/remove accumulator for a bounded sliding window.
///
/// Values are shifted by the first observation seen after a reset so that the
/// sum of squares stays small; this keeps catastrophic cancellation at bay
/// for the `[0, 1]`-bounded error rates (and small real-valued losses) the
/// drift detectors track.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowMoments {
    count: u64,
    shift: f64,
    shift_set: bool,
    sum: f64,
    sum_sq: f64,
}

impl WindowMoments {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observation.
    pub fn add(&mut self, x: f64) {
        if !self.shift_set {
            self.shift = x;
            self.shift_set = true;
        }
        let d = x - self.shift;
        self.count += 1;
        self.sum += d;
        self.sum_sq += d * d;
    }

    /// Removes an observation previously added. The caller is responsible for
    /// only removing values that are actually in the window (the ring buffer
    /// guarantees this in practice).
    pub fn remove(&mut self, x: f64) {
        debug_assert!(self.count > 0, "removing from an empty WindowMoments");
        if self.count == 0 {
            return;
        }
        let d = x - self.shift;
        self.count -= 1;
        self.sum -= d;
        self.sum_sq -= d * d;
        if self.count == 0 {
            // Fully drained: clear residual rounding noise and forget shift.
            *self = Self::default();
        }
    }

    /// Number of observations currently accounted for.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns `true` when the accumulator holds no observations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the current contents (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.shift + self.sum / self.count as f64
        }
    }

    /// Population variance of the current contents.
    #[must_use]
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let n = self.count as f64;
        let mean_d = self.sum / n;
        ((self.sum_sq / n) - mean_d * mean_d).max(0.0)
    }

    /// Unbiased sample variance of the current contents.
    #[must_use]
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let n = self.count as f64;
        (self.population_variance() * n / (n - 1.0)).max(0.0)
    }

    /// Unbiased sample standard deviation of the current contents.
    #[must_use]
    pub fn sample_std(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Sum of the raw (unshifted) observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.shift * self.count as f64 + self.sum
    }

    /// Resets the accumulator to the empty state.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// The raw accumulator state `(count, shift, shifted sum, shifted sum of
    /// squares)`, for exact persistence. Restoring through
    /// [`WindowMoments::from_raw`] reproduces the accumulator bit-for-bit,
    /// which a rebuild-by-re-adding cannot guarantee (an accumulator that has
    /// lived through add/remove cycles carries different rounding than a
    /// freshly filled one).
    #[must_use]
    pub fn to_raw(&self) -> (u64, f64, f64, f64) {
        (self.count, self.shift, self.sum, self.sum_sq)
    }

    /// Rebuilds an accumulator from the state captured by
    /// [`WindowMoments::to_raw`].
    #[must_use]
    pub fn from_raw(count: u64, shift: f64, sum: f64, sum_sq: f64) -> Self {
        Self {
            count,
            shift,
            shift_set: count > 0,
            sum,
            sum_sq,
        }
    }
}

/// Exponentially weighted moving average, as used by the ECDD detector
/// (Ross et al., 2012).
///
/// The estimator tracks a Bernoulli (or bounded real) stream `x_t` and
/// maintains:
///
/// * `p̂_t` — the running (unweighted) mean estimate of the stream,
/// * `z_t = (1 − λ) z_{t−1} + λ x_t` — the EWMA statistic,
/// * `(1 − λ)^{2t}`, the time-dependent factor of `z_t`'s variance under the
///   null hypothesis that the stream mean is constant (persisted with the
///   rest of the state).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    lambda: f64,
    count: u64,
    mean: f64,
    z: f64,
    /// Running value of (1-λ)^(2t), used for the exact σ_{Z_t} formula.
    one_minus_lambda_pow_2t: f64,
}

impl Ewma {
    /// Creates a new EWMA estimator with smoothing factor `lambda` in (0, 1].
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not in `(0, 1]`.
    #[must_use]
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda > 0.0 && lambda <= 1.0,
            "EWMA lambda must be in (0, 1], got {lambda}"
        );
        Self {
            lambda,
            count: 0,
            mean: 0.0,
            z: 0.0,
            one_minus_lambda_pow_2t: 1.0,
        }
    }

    /// Smoothing factor λ.
    #[must_use]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Number of observations seen.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.mean += (x - self.mean) / self.count as f64;
        if self.count == 1 {
            self.z = x;
        } else {
            self.z = (1.0 - self.lambda) * self.z + self.lambda * x;
        }
        let oml = 1.0 - self.lambda;
        self.one_minus_lambda_pow_2t *= oml * oml;
    }

    /// Running mean estimate `p̂_t`.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Current EWMA statistic `z_t`.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.z
    }

    /// Resets the estimator, keeping λ.
    pub fn reset(&mut self) {
        *self = Self::new(self.lambda);
    }

    /// The raw accumulator state `(count, mean, z, (1−λ)^{2t})`, for exact
    /// persistence. Restoring through [`Ewma::from_raw`] reproduces the
    /// estimator bit-for-bit; re-pushing the original observations cannot
    /// guarantee that once the stream is gone.
    #[must_use]
    pub fn to_raw(&self) -> (u64, f64, f64, f64) {
        (self.count, self.mean, self.z, self.one_minus_lambda_pow_2t)
    }

    /// Rebuilds an estimator from the state captured by [`Ewma::to_raw`].
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not in `(0, 1]` (same contract as
    /// [`Ewma::new`]).
    #[must_use]
    pub fn from_raw(lambda: f64, count: u64, mean: f64, z: f64, pow_2t: f64) -> Self {
        let mut e = Self::new(lambda);
        e.count = count;
        e.mean = mean;
        e.z = z;
        e.one_minus_lambda_pow_2t = pow_2t;
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive;

    #[test]
    fn running_moments_matches_batch() {
        let xs = [0.3, 0.7, 0.7, 0.3, 0.3, 0.7, 0.5, 0.5];
        let mut acc = RunningMoments::new();
        for &x in &xs {
            acc.push(x);
        }
        assert_eq!(acc.count(), xs.len() as u64);
        assert!((acc.mean() - descriptive::mean(&xs).unwrap()).abs() < 1e-12);
        assert!((acc.sample_variance() - descriptive::sample_variance(&xs).unwrap()).abs() < 1e-12);
        assert!(
            (acc.population_variance() - descriptive::population_variance(&xs).unwrap()).abs()
                < 1e-12
        );
    }

    #[test]
    fn running_moments_reset() {
        let mut acc = RunningMoments::new();
        acc.push(5.0);
        acc.reset();
        assert!(acc.is_empty());
        assert_eq!(acc.mean(), 0.0);
    }

    #[test]
    fn window_moments_add_remove_matches_batch() {
        let xs = [0.05, 0.1, 0.9, 0.85, 0.2, 0.4];
        let mut acc = WindowMoments::new();
        for &x in &xs {
            acc.add(x);
        }
        // Remove the first two; compare against the remaining slice.
        acc.remove(xs[0]);
        acc.remove(xs[1]);
        let rest = &xs[2..];
        assert_eq!(acc.count(), rest.len() as u64);
        assert!((acc.mean() - descriptive::mean(rest).unwrap()).abs() < 1e-10);
        assert!(
            (acc.sample_variance() - descriptive::sample_variance(rest).unwrap()).abs() < 1e-10
        );
        assert!((acc.sum() - rest.iter().sum::<f64>()).abs() < 1e-10);
    }

    #[test]
    fn window_moments_drain_resets_cleanly() {
        let mut acc = WindowMoments::new();
        acc.add(0.25);
        acc.add(0.75);
        acc.remove(0.25);
        acc.remove(0.75);
        assert!(acc.is_empty());
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.population_variance(), 0.0);
        // Re-use after drain works.
        acc.add(1.0);
        assert_eq!(acc.mean(), 1.0);
    }

    #[test]
    fn window_moments_raw_round_trip_is_bit_exact() {
        let mut acc = WindowMoments::new();
        // A history of add/remove cycles leaves rounding residue in the
        // shifted sums; the raw round trip must preserve it exactly.
        for i in 0..50 {
            acc.add(0.1 + 0.013 * f64::from(i));
        }
        for i in 0..20 {
            acc.remove(0.1 + 0.013 * f64::from(i));
        }
        let (count, shift, sum, sum_sq) = acc.to_raw();
        let restored = WindowMoments::from_raw(count, shift, sum, sum_sq);
        assert_eq!(restored, acc);
        assert_eq!(restored.mean().to_bits(), acc.mean().to_bits());
        assert_eq!(
            restored.sample_variance().to_bits(),
            acc.sample_variance().to_bits()
        );

        // Empty accumulator round-trips to the default state.
        let empty = WindowMoments::new();
        let (c, s, su, sq) = empty.to_raw();
        assert_eq!(WindowMoments::from_raw(c, s, su, sq), empty);
    }

    #[test]
    fn window_moments_variance_never_negative() {
        let mut acc = WindowMoments::new();
        // Pathological: identical values should give exactly zero variance.
        for _ in 0..1000 {
            acc.add(0.123_456_789);
        }
        assert!(acc.population_variance() >= 0.0);
        assert!(acc.population_variance() < 1e-18);
    }

    #[test]
    fn ewma_constant_stream_converges_to_value() {
        let mut e = Ewma::new(0.2);
        for _ in 0..200 {
            e.push(1.0);
        }
        assert!((e.value() - 1.0).abs() < 1e-9);
        assert!((e.mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "EWMA lambda")]
    fn ewma_rejects_bad_lambda() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn ewma_reset_keeps_lambda() {
        let mut e = Ewma::new(0.3);
        e.push(1.0);
        e.reset();
        assert_eq!(e.count(), 0);
        assert_eq!(e.lambda(), 0.3);
    }

    #[test]
    fn ewma_raw_round_trip_is_bit_exact() {
        let mut e = Ewma::new(0.2);
        for i in 0..137 {
            e.push(f64::from(i % 3) / 2.0);
        }
        let (count, mean, z, pow) = e.to_raw();
        let restored = Ewma::from_raw(0.2, count, mean, z, pow);
        assert_eq!(restored, e);
        // Further pushes evolve identically.
        let mut a = e;
        let mut b = restored;
        for i in 0..50 {
            a.push(f64::from(i % 2));
            b.push(f64::from(i % 2));
        }
        assert_eq!(a.value().to_bits(), b.value().to_bits());
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::descriptive;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn welford_matches_batch(xs in proptest::collection::vec(0.0f64..1.0, 1..200)) {
            let mut acc = RunningMoments::new();
            for &x in &xs {
                acc.push(x);
            }
            let batch_mean = descriptive::mean(&xs).unwrap();
            prop_assert!((acc.mean() - batch_mean).abs() < 1e-10);
            if xs.len() >= 2 {
                let batch_var = descriptive::sample_variance(&xs).unwrap();
                prop_assert!((acc.sample_variance() - batch_var).abs() < 1e-10);
            }
        }

        #[test]
        fn window_moments_sliding_matches_batch(
            xs in proptest::collection::vec(0.0f64..1.0, 20..200),
            window in 5usize..15,
        ) {
            let mut acc = WindowMoments::new();
            for (i, &x) in xs.iter().enumerate() {
                acc.add(x);
                if i + 1 > window {
                    acc.remove(xs[i + 1 - window - 1]);
                }
                let start = (i + 1).saturating_sub(window);
                let slice = &xs[start..=i];
                let batch_mean = descriptive::mean(slice).unwrap();
                prop_assert!((acc.mean() - batch_mean).abs() < 1e-8);
                let batch_var = descriptive::population_variance(slice).unwrap();
                prop_assert!((acc.population_variance() - batch_var).abs() < 1e-8);
            }
        }
    }
}
