//! Optimal-cut computation (Equation 1 of the paper) and the pre-computed
//! per-window-length lookup table.
//!
//! For a window of length `|W|`, a candidate split ν partitions it into
//! `W_hist` (the first `⌊ν|W|⌋` elements) and `W_new` (the rest). Equation 1
//! expresses, for that split, the smallest mean shift (measured in units of
//! `σ_hist`) that the Welch *t*-test is guaranteed to flag at confidence δ':
//!
//! ```text
//! ρ(ν) = t_ppf(δ', df) · sqrt( 1/(ν|W|) + f_ppf(δ', df_new, df_hist) / ((1−ν)|W|) )
//! ```
//!
//! The function ρ(ν) is U-shaped: it blows up when either sub-window becomes
//! tiny. OPTWIN therefore uses the **highest** ν at which ρ(ν) is still at
//! most the user-chosen robustness ρ — the smallest `W_new` that still
//! guarantees detection — and falls back to ν = 0.5 while the window is too
//! short for any split to satisfy the requirement (`|W| < w_proof`).
//!
//! Because ρ(ν) depends only on `|W|`, δ and ρ (never on the data, and never
//! on `w_max`), the split point and both critical values are pre-computed
//! per window length, exactly as described in §3.4 of the paper. A
//! [`CutTable`] is computed in full when it is built, for every length in
//! `[w_min, w_max]`, and never changes afterwards. Tables are shared across
//! `w_max` through [`crate::CutTableRegistry`]: a request for a longer window
//! swaps in a longer copy, and each detector bounds its lookups by its own
//! `w_max`.
//!
//! ## Cost
//!
//! An entry is not cheap. Each Equation 1 evaluation inverts two quantile
//! functions (the F and the t distribution) by Newton steps, each of which
//! evaluates an incomplete-beta continued fraction. The F inversion starts
//! from the Abramowitz & Stegun 26.5.22 approximation and the t inversion
//! from Hill's (for df ≥ 2.1), so an inversion takes 2.7 evaluations on
//! average over the paper-default table, and at most 9. A length typically
//! costs three Equation 1 evaluations: the split search warm-starts from
//! the previous length's split and checks it and its right neighbour, and
//! the warning confidence needs one more. That is six inversions per length
//! (6.0 on average over the paper-default table). [`CutTable::new`] spreads
//! the lengths over every available core in contiguous chunks, each chunk
//! warm-starting its own searches, and growing a table computes only the
//! lengths it adds. The entries do not depend on the path that computed
//! them.
//!
//! ## A note on the F-test degrees of freedom
//!
//! Algorithm 1 (line 11) writes `f_ppf(δ', ν|W|−1, (1−ν)|W|−1)` while the
//! accompanying text of the proof says the numerator degrees of freedom come
//! from `W_new` and the denominator from `W_hist`. Since the tested statistic
//! is `σ²_new / σ²_hist`, the statistically correct parametrisation is
//! `(|W_new|−1, |W_hist|−1)`, which is what this implementation uses — both
//! for the runtime test and inside Equation 1.

use std::num::NonZeroUsize;

use optwin_stats::dist::{ContinuousDistribution, FisherF, StudentsT};

use crate::{CoreError, OptwinConfig, Result};

/// Pre-computed quantities for one window length `|W|`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CutEntry {
    /// Window length this entry was computed for.
    pub window_len: usize,
    /// Number of elements in `W_hist` (`⌊ν|W|⌋`).
    pub split: usize,
    /// The optimal splitting percentage ν = split / |W|.
    pub nu: f64,
    /// `true` when Equation 1 had a solution for this window length (i.e.
    /// `|W| ≥ w_proof`); `false` when the ν = 0.5 fallback was used.
    pub exact: bool,
    /// Critical value of the Welch t-test at confidence δ'.
    pub t_crit: f64,
    /// Critical value of the f-test at confidence δ'
    /// (degrees of freedom `|W_new|−1`, `|W_hist|−1`).
    pub f_crit: f64,
    /// Welch–Satterthwaite degrees of freedom used for `t_crit`
    /// (Equation 2 of the paper).
    pub df: f64,
    /// Critical value of the t-test at the warning confidence, if enabled.
    pub t_warn: Option<f64>,
    /// Critical value of the f-test at the warning confidence, if enabled.
    pub f_warn: Option<f64>,
}

/// Equation 1 evaluated at one split: the guaranteed-detectable shift ρ,
/// the Welch degrees of freedom, and the t and f critical values.
type Equation1 = (f64, f64, f64, f64);

/// The value of Equation 1's right-hand side for a concrete integer split.
///
/// `w` is the window length and `k` the number of elements in `W_hist`.
/// Returns the guaranteed-detectable shift (in units of `σ_hist`) together
/// with the Welch degrees of freedom and the two critical values, so callers
/// can reuse them without re-evaluating the quantile functions.
fn equation_one(w: usize, k: usize, delta_prime: f64) -> Result<Equation1> {
    debug_assert!(k >= 2 && w - k >= 2, "both sub-windows need >= 2 elements");
    let n_hist = k as f64;
    let n_new = (w - k) as f64;

    // f_factor = f_ppf(δ', |W_new|−1, |W_hist|−1)  (Equation 8).
    let f_dist = FisherF::new(n_new - 1.0, n_hist - 1.0)?;
    let f_factor = f_dist.ppf(delta_prime)?;

    // Welch–Satterthwaite degrees of freedom with σ²_new bounded by
    // f_factor·σ²_hist (Equation 2).
    let a = 1.0 / n_hist;
    let b = f_factor / n_new;
    let df = ((a + b) * (a + b)) / (a * a / (n_hist - 1.0) + b * b / (n_new - 1.0));
    let df = df.max(1.0);

    let t_dist = StudentsT::new(df)?;
    let t_crit = t_dist.ppf(delta_prime)?;

    let rho = t_crit * (a + b).sqrt();
    Ok((rho, df, t_crit, f_factor))
}

/// Smallest admissible `W_hist` size (both tests need at least two elements
/// per sub-window to have defined variances).
const MIN_SUB_WINDOW: usize = 2;

/// Computes the optimal cut for window length `w`: the largest split `k` such
/// that Equation 1's guaranteed-detectable shift is at most `rho`.
///
/// `hint` optionally provides the split found for a nearby window length; the
/// search then only probes a local neighbourhood before falling back to a
/// full scan, which makes sequential table construction cheap.
///
/// Returns the split together with Equation 1 evaluated at it, or `None`
/// when no split satisfies the requirement (the caller then applies the
/// ν = 0.5 fallback).
fn optimal_split(
    w: usize,
    rho: f64,
    delta_prime: f64,
    hint: Option<usize>,
) -> Result<Option<(usize, Equation1)>> {
    let k_min = MIN_SUB_WINDOW;
    let k_max = w - MIN_SUB_WINDOW;
    if k_min > k_max {
        return Ok(None);
    }

    // Equation 1 at split `k`, kept only when `k` is admissible.
    let admissible = |k: usize| -> Result<Option<Equation1>> {
        let eq = equation_one(w, k, delta_prime)?;
        Ok((eq.0 <= rho).then_some(eq))
    };

    // Fast path: walk locally from the hint. The admissible region
    // {k : ρ(k) ≤ rho} is an interval because ρ(k) is U-shaped, so the
    // largest admissible k is characterised by ρ(k) ≤ rho < ρ(k+1).
    if let Some(h) = hint {
        let mut k = h.clamp(k_min, k_max);
        if let Some(mut eq) = admissible(k)? {
            while k < k_max {
                let Some(next) = admissible(k + 1)? else {
                    break;
                };
                k += 1;
                eq = next;
            }
            return Ok(Some((k, eq)));
        }
        // The hint overshoots; walk down a bounded number of steps before
        // giving up and scanning.
        let mut down = k;
        for _ in 0..8 {
            if down == k_min {
                break;
            }
            down -= 1;
            if let Some(eq) = admissible(down)? {
                return Ok(Some((down, eq)));
            }
        }
    }

    // Full search: find the largest admissible k by scanning from the top.
    // ρ(k) is decreasing-then-increasing in k; scanning from k_max downwards
    // and returning the first admissible k therefore yields the maximum.
    // To avoid O(w) quantile evaluations for large windows we first probe a
    // geometric grid to find a coarse bracket, then binary-search inside it.
    let mut probe = k_max;
    let mut last_bad = k_max + 1;
    let mut found = None;
    let mut step = 1usize;
    loop {
        if let Some(eq) = admissible(probe)? {
            found = Some((probe, eq));
            break;
        }
        last_bad = probe;
        if probe <= k_min {
            break;
        }
        probe = probe.saturating_sub(step).max(k_min);
        // Geometric acceleration, capped so that a narrow admissible interval
        // (which occurs just above w_proof) cannot be stepped over.
        step = (step * 2).min(32);
    }

    // No admissible split at all: |W| < w_proof.
    let Some(mut best) = found else {
        return Ok(None);
    };

    // Binary search for the boundary in (best, last_bad).
    let mut hi = last_bad; // exclusive: known to violate (or k_max + 1)
    while best.0 + 1 < hi {
        let mid = best.0 + (hi - best.0) / 2;
        if mid > k_max {
            break;
        }
        match admissible(mid)? {
            Some(eq) => best = (mid, eq),
            None => hi = mid,
        }
    }
    Ok(Some(best))
}

/// An immutable lookup table of [`CutEntry`] values, complete for every
/// window length in `[w_min, w_max]` from construction.
///
/// [`CutTable::new`] computes every entry before it returns, so a lookup is
/// a bounds-checked index that never computes anything. [`crate::Optwin::new`]
/// takes its table from [`crate::CutTableRegistry`], which keeps one table
/// per (δ, warning δ, ρ, `w_min`): every detector with that key shares it,
/// whatever its `w_max`, and entries never depend on how far a table was
/// grown.
#[derive(Debug)]
pub struct CutTable {
    delta_prime: f64,
    warning_delta_prime: Option<f64>,
    rho: f64,
    w_min: usize,
    /// `entries[w - w_min]` is the entry for window length `w`.
    entries: Vec<CutEntry>,
}

impl CutTable {
    /// Builds the complete table for `config`: one entry per window length
    /// in `[w_min, w_max]`, computed in parallel (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the configuration is invalid,
    /// or a wrapped statistics error if a quantile evaluation fails
    /// (practically unreachable for valid configurations).
    pub fn new(config: &OptwinConfig) -> Result<Self> {
        config.validate()?;
        Self::empty(config).grown_to(config.w_max)
    }

    /// A table for `config`'s key that holds no entry yet: the starting
    /// point [`CutTable::grown_to`] fills.
    pub(crate) fn empty(config: &OptwinConfig) -> Self {
        Self {
            delta_prime: config.delta_prime(),
            warning_delta_prime: config.warning_delta_prime(),
            rho: config.rho,
            w_min: config.w_min,
            entries: Vec::new(),
        }
    }

    /// Smallest window length covered by the table.
    #[must_use]
    pub fn w_min(&self) -> usize {
        self.w_min
    }

    /// Largest window length covered by the table.
    #[must_use]
    pub fn w_max(&self) -> usize {
        self.w_min + self.entries.len() - 1
    }

    /// The robustness parameter ρ the table was built for.
    #[must_use]
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// The entries for window lengths `w_min, w_min + 1, …, w_max`.
    #[must_use]
    pub fn entries(&self) -> &[CutEntry] {
        &self.entries
    }

    /// Returns the entry for window length `w`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `w` is outside
    /// `[w_min, w_max]`.
    pub fn entry(&self, w: usize) -> Result<CutEntry> {
        w.checked_sub(self.w_min)
            .and_then(|idx| self.entries.get(idx))
            .copied()
            .ok_or_else(|| CoreError::InvalidConfig {
                field: "window_len",
                message: format!(
                    "window length {w} is outside the table range [{}, {}]",
                    self.w_min,
                    self.w_max()
                ),
            })
    }

    /// Does nothing: a table is complete from construction. Kept only
    /// because the frozen `perfbench/` workspace calls it.
    ///
    /// # Errors
    ///
    /// Never fails.
    pub fn precompute_all(&self) -> Result<()> {
        Ok(())
    }

    /// Number of entries in the table, as `entries().len()`. Kept only
    /// because the frozen `perfbench/` workspace calls it.
    #[must_use]
    pub fn cached_entries(&self) -> usize {
        self.entries.len()
    }

    /// A copy of this table extended to cover `w_max`, which must exceed
    /// the table's own. The entries it holds are copied; only the lengths
    /// above its `w_max` are computed, split into one contiguous chunk per
    /// available core (`std::thread::available_parallelism`), each filled on
    /// its own scoped thread. The entries are the same as a sequential
    /// fill's.
    pub(crate) fn grown_to(&self, w_max: usize) -> Result<Self> {
        let lo = self.w_min + self.entries.len();
        // Admissibility is monotone in |W| (larger windows can only make a
        // ρ-shift easier to certify), so once an entry is exact every longer
        // length is at or above the proof window.
        let w_proof = match self.entries.iter().find(|e| e.exact) {
            Some(first) => Some(first.window_len),
            None => self.proof_window(w_max)?,
        };
        let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let chunk = (w_max + 1 - lo).div_ceil(threads);
        // Only the first chunk can warm-start from an existing entry; the
        // others start with a full split search.
        let first_hint = self.entries.last().map(|e| e.split + 1);
        let chunks = std::thread::scope(|scope| {
            let fills: Vec<_> = (lo..=w_max)
                .step_by(chunk)
                .map(|start| {
                    let end = (start + chunk - 1).min(w_max);
                    let hint = first_hint.filter(|_| start == lo);
                    scope.spawn(move || self.fill(start, end, w_proof, hint))
                })
                .collect();
            fills
                .into_iter()
                .map(|fill| {
                    fill.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect::<Result<Vec<_>>>()
        })?;
        let mut entries = Vec::with_capacity(w_max + 1 - self.w_min);
        entries.extend_from_slice(&self.entries);
        entries.extend(chunks.into_iter().flatten());
        Ok(Self { entries, ..*self })
    }

    /// Computes the entries for lengths `lo..=hi`. Every split search
    /// warm-starts from its predecessor's split; `hint` seeds the first.
    fn fill(
        &self,
        lo: usize,
        hi: usize,
        w_proof: Option<usize>,
        mut hint: Option<usize>,
    ) -> Result<Vec<CutEntry>> {
        (lo..=hi)
            .map(|w| {
                let entry = self.compute_entry(w, w_proof, hint)?;
                hint = Some(entry.split + 1);
                Ok(entry)
            })
            .collect()
    }

    /// Whether Equation 1 has any admissible split for window length `w`
    /// (evaluated at the U-shaped function's minimum via ternary search).
    fn solution_exists(&self, w: usize) -> Result<bool> {
        let k_min = MIN_SUB_WINDOW;
        let k_max = w.saturating_sub(MIN_SUB_WINDOW);
        if k_min >= k_max {
            return Ok(false);
        }
        let mut lo = k_min;
        let mut hi = k_max;
        while hi - lo > 2 {
            let m1 = lo + (hi - lo) / 3;
            let m2 = hi - (hi - lo) / 3;
            let (r1, _, _, _) = equation_one(w, m1, self.delta_prime)?;
            let (r2, _, _, _) = equation_one(w, m2, self.delta_prime)?;
            if r1 <= self.rho || r2 <= self.rho {
                return Ok(true);
            }
            if r1 < r2 {
                hi = m2;
            } else {
                lo = m1;
            }
        }
        for k in lo..=hi {
            let (r, _, _, _) = equation_one(w, k, self.delta_prime)?;
            if r <= self.rho {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// The proof window `w_proof` (smallest length with a solution) among
    /// lengths up to `w_max`, found by bisection over `[w_min, w_max]`;
    /// `None` when even `w_max` has none. Lengths below it take the
    /// ν = 0.5 fallback without running the split search at all.
    fn proof_window(&self, w_max: usize) -> Result<Option<usize>> {
        if !self.solution_exists(w_max)? {
            return Ok(None);
        }
        if self.solution_exists(self.w_min)? {
            return Ok(Some(self.w_min));
        }
        let mut lo = self.w_min; // no solution
        let mut hi = w_max; // solution
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if self.solution_exists(mid)? {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Ok(Some(hi))
    }

    fn compute_entry(
        &self,
        w: usize,
        w_proof: Option<usize>,
        hint: Option<usize>,
    ) -> Result<CutEntry> {
        // Below the proof window Equation 1 has no solution: skip the search.
        let chosen = match w_proof {
            Some(w_proof) if w >= w_proof => optimal_split(w, self.rho, self.delta_prime, hint)?,
            _ => None,
        };
        let (split, exact, (_, df, t_crit, f_crit)) = match chosen {
            Some((split, eq)) => (split, true, eq),
            None => {
                // The ν = 0.5 fallback.
                let split = (w / 2).clamp(
                    MIN_SUB_WINDOW,
                    w.saturating_sub(MIN_SUB_WINDOW).max(MIN_SUB_WINDOW),
                );
                (split, false, equation_one(w, split, self.delta_prime)?)
            }
        };
        let (t_warn, f_warn) = match self.warning_delta_prime {
            Some(dw) => {
                let (_, _, t_w, f_w) = equation_one(w, split, dw)?;
                (Some(t_w), Some(f_w))
            }
            None => (None, None),
        };
        Ok(CutEntry {
            window_len: w,
            split,
            nu: split as f64 / w as f64,
            exact,
            t_crit,
            f_crit,
            df,
            t_warn,
            f_warn,
        })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::OptwinConfig;

    fn config(rho: f64, w_max: usize) -> OptwinConfig {
        OptwinConfig::builder()
            .robustness(rho)
            .max_window(w_max)
            .build()
            .unwrap()
    }

    #[test]
    fn equation_one_is_u_shaped() {
        let w = 400;
        let dp = 0.99_f64.powf(0.25);
        let mut values = Vec::new();
        for k in (2..=w - 2).step_by(7) {
            let (r, _, _, _) = equation_one(w, k, dp).unwrap();
            values.push(r);
        }
        // Endpoints are larger than the interior minimum.
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(values[0] > min);
        assert!(values[values.len() - 1] > min);
        assert!(min > 0.0);
    }

    #[test]
    fn equation_one_uses_welch_satterthwaite_degrees_of_freedom() {
        // Eq. 2: the Welch–Satterthwaite df of two samples whose variances
        // stand in the ratio the f-test tolerates, σ²_new = f·σ²_hist. The
        // scale of σ²_hist cancels, so any value serves.
        let dp = 0.99_f64.powf(0.25);
        let var_hist = 2.5;
        for (w, k) in [(40, 20), (300, 250), (1_000, 900), (5_000, 4_990)] {
            let (rho, df, t_crit, f) = equation_one(w, k, dp).unwrap();
            let (n_hist, n_new) = (k as f64, (w - k) as f64);
            let (a, b) = (var_hist / n_hist, f * var_hist / n_new);
            let welch = (a + b).powi(2) / (a * a / (n_hist - 1.0) + b * b / (n_new - 1.0));
            assert!(
                (df - welch.max(1.0)).abs() <= 1e-9 * welch,
                "w={w} k={k}: {df} vs {welch}"
            );
            // ρ is the critical t times the standard error in σ_hist units.
            let shift = t_crit * ((a + b) / var_hist).sqrt();
            assert!((rho - shift).abs() <= 1e-12 * shift, "w={w} k={k}");
        }
    }

    #[test]
    fn small_windows_fall_back_to_half() {
        // With ρ = 0.1 a window of 200 elements is far below w_proof, so the
        // fallback ν = 0.5 must be used.
        let table = CutTable::new(&config(0.1, 500)).unwrap();
        let entry = table.entry(200).unwrap();
        assert!(!entry.exact);
        assert_eq!(entry.split, 100);
        assert!((entry.nu - 0.5).abs() < 1e-12);
    }

    #[test]
    fn large_windows_get_exact_cut_for_loose_rho() {
        // With ρ = 1.0 a few dozen elements suffice (w_proof ≈ 36).
        let table = CutTable::new(&config(1.0, 400)).unwrap();
        let entry = table.entry(300).unwrap();
        assert!(entry.exact);
        // The optimal cut keeps W_new small: the split lies past the middle.
        assert!(entry.split > 150, "split = {}", entry.split);
        assert!(entry.split <= 298);
        // The guaranteed shift at the returned split must not exceed ρ.
        let dp = 0.99_f64.powf(0.25);
        let (r, _, _, _) = equation_one(300, entry.split, dp).unwrap();
        assert!(r <= 1.0 + 1e-9);
        // And the next split (one further right) must violate it, otherwise
        // the returned split would not be maximal.
        let (r_next, _, _, _) = equation_one(300, entry.split + 1, dp).unwrap();
        assert!(r_next > 1.0);
    }

    #[test]
    fn split_is_maximal_for_various_lengths() {
        let table = CutTable::new(&config(0.5, 1200)).unwrap();
        let dp = 0.99_f64.powf(0.25);
        for &w in &[150, 300, 600, 1200] {
            let entry = table.entry(w).unwrap();
            if entry.exact {
                let (r, _, _, _) = equation_one(w, entry.split, dp).unwrap();
                assert!(r <= 0.5 + 1e-9, "w={w}");
                if entry.split + MIN_SUB_WINDOW < w {
                    let (r_next, _, _, _) = equation_one(w, entry.split + 1, dp).unwrap();
                    assert!(r_next > 0.5, "w={w}: split not maximal");
                }
            }
        }
    }

    #[test]
    fn hint_and_full_scan_agree() {
        let dp = 0.99_f64.powf(0.25);
        // Compute without a hint, then with deliberately wrong hints.
        for &w in &[200usize, 350, 500] {
            let reference = optimal_split(w, 0.5, dp, None).unwrap();
            let (k_ref, eq_ref) = reference.expect("w is above w_proof");
            // The returned tuple is Equation 1 at the returned split.
            assert_eq!(eq_ref, equation_one(w, k_ref, dp).unwrap());
            for hint in [Some(2), Some(w / 2), Some(w - 3), Some(k_ref)] {
                let found = optimal_split(w, 0.5, dp, hint).unwrap();
                assert_eq!(found, reference, "w={w} hint={hint:?}");
            }
        }
        // Below w_proof no split is admissible, with or without a hint.
        assert_eq!(optimal_split(60, 0.1, dp, None).unwrap(), None);
        assert_eq!(optimal_split(60, 0.1, dp, Some(40)).unwrap(), None);
    }

    #[test]
    fn new_window_size_shrinks_relative_to_w_as_w_grows() {
        // §3.3: with larger windows the optimal |W_new| stays roughly stable,
        // so ν grows towards 1.
        let table = CutTable::new(&config(1.0, 2000)).unwrap();
        let e_small = table.entry(200).unwrap();
        let e_large = table.entry(2000).unwrap();
        assert!(e_small.exact && e_large.exact);
        assert!(e_large.nu > e_small.nu);
        let new_small = 200 - e_small.split;
        let new_large = 2000 - e_large.split;
        // |W_new| grows far more slowly than |W| itself.
        assert!(
            new_large < new_small * 4,
            "new_small={new_small} new_large={new_large}"
        );
    }

    #[test]
    fn table_is_complete_and_shared_from_construction() {
        let table = Arc::new(CutTable::new(&config(0.5, 100)).unwrap());
        assert_eq!(table.entries().len(), 100 - 30 + 1);
        assert_eq!(table.cached_entries(), table.entries().len());
        table.precompute_all().unwrap();
        assert_eq!(table.entries().len(), 100 - 30 + 1);

        let clone = Arc::clone(&table);
        let handle = std::thread::spawn(move || clone.entry(80).unwrap());
        let from_thread = handle.join().unwrap();
        assert_eq!(from_thread, table.entry(80).unwrap());
    }

    #[test]
    fn every_entry_is_well_formed() {
        let table = CutTable::new(&config(0.5, 120)).unwrap();
        for (w, e) in (30..=120).zip(table.entries()) {
            assert_eq!(e.window_len, w);
            assert_eq!(*e, table.entry(w).unwrap());
            assert!(e.split >= MIN_SUB_WINDOW);
            assert!(e.split <= w - MIN_SUB_WINDOW);
            assert!(e.t_crit > 0.0);
            assert!(e.f_crit > 1.0);
            assert!(e.df >= 1.0);
            // Warning thresholds are strictly looser than drift thresholds.
            assert!(e.t_warn.unwrap() < e.t_crit);
            assert!(e.f_warn.unwrap() < e.f_crit);
        }
    }

    #[test]
    fn parallel_fill_matches_sequential_fill() {
        let parallel = CutTable::new(&config(0.5, 600)).unwrap();
        let empty = CutTable::empty(&config(0.5, 600));
        let w_proof = empty.proof_window(600).unwrap();
        let sequential = empty.fill(30, 600, w_proof, None).unwrap();
        assert_eq!(parallel.entries(), sequential.as_slice());
    }

    #[test]
    fn grown_table_matches_a_table_built_for_the_larger_w_max() {
        let small = CutTable::new(&config(0.5, 300)).unwrap();
        let grown = small.grown_to(700).unwrap();
        assert_eq!(grown.w_max(), 700);
        assert_eq!(&grown.entries()[..small.entries().len()], small.entries());
        let fresh = CutTable::new(&config(0.5, 700)).unwrap();
        assert_eq!(grown.entries(), fresh.entries());

        // The source table is untouched: a grown copy replaces it.
        assert_eq!(small.w_max(), 300);
        assert!(small.entry(301).is_err());
    }

    #[test]
    fn out_of_range_window_rejected() {
        let table = CutTable::new(&config(0.5, 100)).unwrap();
        assert!(table.entry(29).is_err());
        assert!(table.entry(101).is_err());
        assert!(table.entry(30).is_ok());
        assert!(table.entry(100).is_ok());
    }

    #[test]
    fn accessors() {
        let table = CutTable::new(&config(0.25, 90)).unwrap();
        assert_eq!(table.w_min(), 30);
        assert_eq!(table.w_max(), 90);
        assert!((table.rho() - 0.25).abs() < 1e-15);
    }

    #[test]
    fn smaller_rho_means_larger_proof_window() {
        // The window length at which an exact cut first exists grows as ρ
        // shrinks (Theorem 3.1 / §3.3 discussion).
        let first_exact = |rho: f64| -> usize {
            let table = CutTable::new(&config(rho, 3000)).unwrap();
            table
                .entries()
                .iter()
                .find(|e| e.exact)
                .map_or(usize::MAX, |e| e.window_len)
        };
        let w_proof_rho_1 = first_exact(1.0);
        let w_proof_rho_05 = first_exact(0.5);
        assert!(w_proof_rho_1 < w_proof_rho_05);
        assert!(w_proof_rho_1 <= 100, "w_proof(1.0) = {w_proof_rho_1}");
        assert!(w_proof_rho_05 <= 300, "w_proof(0.5) = {w_proof_rho_05}");
    }
}
