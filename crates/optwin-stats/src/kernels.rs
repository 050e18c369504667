//! A branch-hoisted slice kernel for the window accumulator.
//!
//! The per-element [`WindowMoments::add`] carries a small amount of per-call
//! control flow: the `shift_set` initialisation branch and the call/return
//! overhead itself. None of it matters for a single element, but OPTWIN's
//! batch path folds whole warm-up runs through the accumulator, and a loop
//! whose body contains data-dependent branches is opaque to the
//! autovectorizer.
//!
//! [`WindowMoments::add_slice`] hoists every branch out of the loop while
//! preserving the **sequential floating-point operation order** of the
//! element-wise fold exactly. That invariant is what makes it safe to use
//! behind the workspace-wide *batch == scalar bit-exact* contract: floating
//! point addition is not associative, so a kernel that reordered the
//! `sum += d` chain (pairwise reduction, SIMD lanes across the dependency)
//! would produce different bits. The kernel never reorders — it only removes
//! per-element control flow, letting the compiler unroll and schedule the
//! independent parts (`d = x - shift`, `d * d`) across iterations.
//!
//! A test proves it bit-exact against the element-wise fold, including over
//! adversarial values (signed zeros, subnormals, huge magnitudes).

use crate::incremental::WindowMoments;

impl WindowMoments {
    /// Adds every element of `xs`, bit-identically to calling
    /// [`WindowMoments::add`] once per element in order.
    ///
    /// The shift initialisation (first value after a reset) is hoisted out of
    /// the loop; the remaining loop body is straight-line arithmetic with a
    /// single loop-carried dependency per accumulator.
    pub fn add_slice(&mut self, xs: &[f64]) {
        let Some((&first, rest)) = xs.split_first() else {
            return;
        };
        if !self.shift_is_set() {
            self.set_shift(first);
        }
        let shift = self.shift_value();
        let (mut sum, mut sum_sq) = self.sums();
        // First element handled with the (possibly just-initialised) shift,
        // then the tail runs branch-free.
        let d = first - shift;
        sum += d;
        sum_sq += d * d;
        for &x in rest {
            let d = x - shift;
            sum += d;
            sum_sq += d * d;
        }
        self.set_bulk(self.count() + xs.len() as u64, sum, sum_sq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Adversarial values: signed zeros, subnormals, huge magnitudes, and a
    /// long constant run — the inputs most likely to expose a reordered
    /// float kernel.
    fn adversarial() -> Vec<f64> {
        let mut xs = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324, // smallest subnormal
            1e300,
            -1e300,
            1.0,
            -1.0,
            0.1,
            1e-17,
        ];
        xs.extend(std::iter::repeat_n(0.25, 40));
        xs.extend((0..40).map(|i| (i as f64).mul_add(1e8, -13.5)));
        xs
    }

    /// Raw accumulator state with floats as bit patterns, so bit-identical
    /// NaNs (e.g. an `inf - inf` drained sum of squares) compare equal and a
    /// `-0.0` vs `0.0` divergence compares unequal.
    fn raw_bits(raw: (u64, f64, f64, f64)) -> (u64, u64, u64, u64) {
        (raw.0, raw.1.to_bits(), raw.2.to_bits(), raw.3.to_bits())
    }

    #[test]
    fn window_add_slice_is_bit_exact() {
        let xs = adversarial();
        for start in [0, 1, 5] {
            let mut scalar = WindowMoments::new();
            let mut chunked = WindowMoments::new();
            for &x in &xs[..start] {
                scalar.add(x);
                chunked.add(x);
            }
            for &x in &xs[start..] {
                scalar.add(x);
            }
            chunked.add_slice(&xs[start..]);
            assert_eq!(
                raw_bits(scalar.to_raw()),
                raw_bits(chunked.to_raw()),
                "start = {start}"
            );
            assert_eq!(scalar.mean().to_bits(), chunked.mean().to_bits());
            assert_eq!(
                scalar.sample_variance().to_bits(),
                chunked.sample_variance().to_bits()
            );
        }
        // Empty slice is a no-op.
        let mut m = WindowMoments::new();
        m.add(1.0);
        let before = m.to_raw();
        m.add_slice(&[]);
        assert_eq!(m.to_raw(), before);
    }
}
