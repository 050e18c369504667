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
//! per window length, exactly as described in §3.4 of the paper. One
//! [`CutTable`] therefore serves every `w_max`: it grows on demand to the
//! largest window cap it is asked to cover, and each detector bounds its
//! lookups by its own `w_max`.
//!
//! ## Cost
//!
//! An entry is not cheap. Each Equation 1 evaluation inverts two quantile
//! functions (the F and the t distribution), and each inversion takes about
//! a dozen Newton steps, each of which evaluates an incomplete-beta
//! continued fraction. A length typically costs three evaluations: the split
//! search warm-starts from the previous length's split and checks it and its
//! right neighbour, and the warning confidence needs one more. That is six
//! inversions per length (6.0 on average over the paper-default table).
//! [`CutTable::precompute_all`] spreads the missing lengths over every
//! available core in contiguous chunks, each chunk warm-starting its own
//! searches; the lazy lookups compute on the calling thread. The entries do
//! not depend on the path that computed them.
//!
//! ## A note on the F-test degrees of freedom
//!
//! Algorithm 1 (line 11) writes `f_ppf(δ', ν|W|−1, (1−ν)|W|−1)` while the
//! accompanying text of the proof says the numerator degrees of freedom come
//! from `W_new` and the denominator from `W_hist`. Since the tested statistic
//! is `σ²_new / σ²_hist`, the statistically correct parametrisation is
//! `(|W_new|−1, |W_hist|−1)`, which is what this implementation uses — both
//! for the runtime test and inside Equation 1.

use std::fmt;
use std::num::NonZeroUsize;

use parking_lot::RwLock;

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

/// Stand-in for a slot whose entry is not computed yet. No real entry has
/// `window_len == 0`: lengths start at `w_min >= 5`.
const MISSING: CutEntry = CutEntry {
    window_len: 0,
    split: 0,
    nu: 0.0,
    exact: false,
    t_crit: f64::INFINITY,
    f_crit: f64::INFINITY,
    df: 1.0,
    t_warn: None,
    f_warn: None,
};

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

/// The configuration fields a cut table's entries depend on, compared
/// bit-exactly so that `f64` parameters hash and compare reliably.
///
/// `w_max` is deliberately absent (Equation 1 never reads it). The registry
/// interns tables by this key, and [`crate::Optwin::with_cut_table`] rejects
/// a table whose key differs from its configuration's, so the two can never
/// disagree about which tables are interchangeable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct TableKey {
    delta_bits: u64,
    warning_delta_bits: Option<u64>,
    rho_bits: u64,
    w_min: usize,
}

impl TableKey {
    pub(crate) fn of(config: &OptwinConfig) -> Self {
        Self {
            delta_bits: config.delta.to_bits(),
            warning_delta_bits: config.warning_delta.map(f64::to_bits),
            rho_bits: config.rho.to_bits(),
            w_min: config.w_min,
        }
    }
}

impl fmt::Display for TableKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(δ = {}, warning δ = ", f64::from_bits(self.delta_bits))?;
        match self.warning_delta_bits {
            Some(bits) => write!(f, "{}", f64::from_bits(bits))?,
            None => f.write_str("off")?,
        }
        write!(
            f,
            ", ρ = {}, w_min = {})",
            f64::from_bits(self.rho_bits),
            self.w_min
        )
    }
}

/// Lazily built, thread-safe lookup table of [`CutEntry`] values for every
/// window length in `[w_min, w_max]`.
///
/// The table is keyed by the configuration fields its entries depend on
/// (δ, warning δ, ρ, `w_min`). [`crate::Optwin::new`] takes it from
/// [`crate::CutTableRegistry`], which interns one table per key, so every
/// detector with that key shares it, whatever its `w_max`: the table grows
/// to the largest `w_max` it serves, and entries never depend on how far it
/// has grown. [`CutTable::new`] builds a table outside the registry, for
/// [`crate::Optwin::with_cut_table`] or to measure a cold build.
#[derive(Debug)]
pub struct CutTable {
    key: TableKey,
    delta_prime: f64,
    warning_delta_prime: Option<f64>,
    rho: f64,
    w_min: usize,
    /// Slot `w - w_min` caches the entry for window length `w`. The vector
    /// only ever grows, so an index valid once stays valid.
    cache: RwLock<Vec<Option<CutEntry>>>,
    /// Lazily computed proof window `w_proof`: the smallest window length at
    /// which Equation 1 has a solution, stored with the length it was
    /// searched up to (`None` when even that length has none).
    /// Admissibility is monotone in `|W|` (larger windows can only make a
    /// ρ-shift easier to certify), so lengths below `w_proof` take the
    /// ν = 0.5 fallback without running the split search at all, and a
    /// found `w_proof` holds however far the table grows.
    proof_window: RwLock<Option<(usize, Option<usize>)>>,
}

impl CutTable {
    /// Creates an empty table for the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the configuration is invalid.
    pub fn new(config: &OptwinConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            key: TableKey::of(config),
            delta_prime: config.delta_prime(),
            warning_delta_prime: config.warning_delta_prime(),
            rho: config.rho,
            w_min: config.w_min,
            cache: RwLock::new(vec![None; config.w_max - config.w_min + 1]),
            proof_window: RwLock::new(None),
        })
    }

    /// Smallest window length covered by the table.
    #[must_use]
    pub fn w_min(&self) -> usize {
        self.w_min
    }

    /// Largest window length the table currently covers: the largest
    /// `w_max` of any configuration it has served so far.
    #[must_use]
    pub fn w_max(&self) -> usize {
        self.w_min + self.cache.read().len() - 1
    }

    /// The robustness parameter ρ the table was built for.
    #[must_use]
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Prepares the table to serve a detector configured with `config`: the
    /// configuration must have the table's (δ, warning δ, ρ, `w_min`), and
    /// the table grows to cover `config.w_max` if it does not yet.
    pub(crate) fn serve(&self, config: &OptwinConfig) -> Result<()> {
        let wanted = TableKey::of(config);
        if self.key != wanted {
            return Err(CoreError::InvalidConfig {
                field: "cut_table",
                message: format!(
                    "table built for {} does not match configuration {wanted}",
                    self.key
                ),
            });
        }
        let len = config.w_max - self.w_min + 1;
        if self.cache.read().len() < len {
            let mut cache = self.cache.write();
            if cache.len() < len {
                cache.resize(len, None);
            }
        }
        Ok(())
    }

    /// Returns the entry for window length `w`, computing and caching it (and
    /// nothing else) on first use.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `w` is outside
    /// `[w_min, w_max]`, or a wrapped statistics error if a quantile
    /// evaluation fails (practically unreachable for valid configurations).
    pub fn entry(&self, w: usize) -> Result<CutEntry> {
        let cached = w
            .checked_sub(self.w_min)
            .and_then(|idx| self.cache.read().get(idx).copied().flatten());
        if let Some(entry) = cached {
            return Ok(entry);
        }
        let mut out = Vec::with_capacity(1);
        self.entries_range_into(w, w, &mut out)?;
        Ok(out[0])
    }

    /// Returns the entries for every window length in `[lo, hi]` (both
    /// inclusive), computing and caching any that are missing.
    ///
    /// This is the batch-ingestion fast path: one read-lock acquisition
    /// covers the whole contiguous range instead of one per element, and
    /// missing entries are computed in one pass with warm-started split
    /// searches before a single write-lock stores them all.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the range is empty or falls
    /// outside `[w_min, w_max]`, or a wrapped statistics error from entry
    /// computation (practically unreachable).
    pub fn entries_range(&self, lo: usize, hi: usize) -> Result<Vec<CutEntry>> {
        let mut out = Vec::new();
        self.entries_range_into(lo, hi, &mut out)?;
        Ok(out)
    }

    /// [`CutTable::entries_range`] writing into a caller-owned buffer, which
    /// is cleared and then filled with the entries for `[lo, hi]`.
    ///
    /// This is the allocation-free variant the detector batch path uses: one
    /// scratch `Vec` per detector absorbs every prefetch chunk instead of a
    /// fresh allocation per chunk.
    ///
    /// # Errors
    ///
    /// Same contract as [`CutTable::entries_range`]; on error the buffer
    /// contents are unspecified (but valid).
    pub fn entries_range_into(&self, lo: usize, hi: usize, out: &mut Vec<CutEntry>) -> Result<()> {
        // One read-lock copies the cached slots into the output buffer,
        // with `MISSING` standing in for the entries still to compute.
        out.clear();
        let (w_max, hint) = {
            let cache = self.cache.read();
            let w_max = self.w_min + cache.len() - 1;
            if lo > hi || lo < self.w_min || hi > w_max {
                return Err(CoreError::InvalidConfig {
                    field: "window_len",
                    message: format!(
                        "range [{lo}, {hi}] invalid for the table range [{}, {w_max}]",
                        self.w_min
                    ),
                });
            }
            let slots = &cache[lo - self.w_min..=hi - self.w_min];
            out.extend(slots.iter().map(|slot| slot.unwrap_or(MISSING)));
            if slots.iter().all(Option::is_some) {
                return Ok(());
            }
            // Warm-start the first search from the nearest cached length
            // below the range, if one is close.
            let hint = cache[..lo - self.w_min]
                .iter()
                .rev()
                .take(16)
                .flatten()
                .map(|e| e.split + (lo - e.window_len))
                .next();
            (w_max, hint)
        };
        // Compute outside any lock, then publish the whole range under one
        // write lock.
        let w_proof = self.proof_window(w_max)?;
        self.fill(lo, w_proof, hint, out)?;
        self.publish(lo, out);
        Ok(())
    }

    /// Eagerly computes every entry in `[w_min, w_max]`.
    ///
    /// The missing lengths are split into one contiguous chunk per available
    /// core (`std::thread::available_parallelism`), each filled on its own
    /// scoped thread, and all of them are published under one write lock.
    /// The entries are the same as a sequential fill's.
    ///
    /// # Errors
    ///
    /// Propagates the first computation error encountered.
    pub fn precompute_all(&self) -> Result<()> {
        let mut slots: Vec<CutEntry> = self
            .cache
            .read()
            .iter()
            .map(|slot| slot.unwrap_or(MISSING))
            .collect();
        let missing: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter(|(_, e)| e.window_len == 0)
            .map(|(idx, _)| idx)
            .collect();
        let Some(&first) = missing.first() else {
            return Ok(());
        };
        let w_proof = self.proof_window(self.w_min + slots.len() - 1)?;

        // Chunk boundaries: each chunk starts at a missing slot and holds an
        // equal share of the missing lengths.
        let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let starts: Vec<usize> = missing
            .iter()
            .step_by(missing.len().div_ceil(threads))
            .copied()
            .collect();
        std::thread::scope(|scope| {
            let mut rest = slots.as_mut_slice();
            let mut chunks = Vec::with_capacity(starts.len());
            for &start in starts.iter().rev() {
                let (head, chunk) = rest.split_at_mut(start);
                // Warm-start from the slot before the chunk only when it is
                // cached; otherwise an earlier chunk is still computing it.
                let hint = head.last().filter(|e| e.window_len != 0);
                let hint = hint.map(|e| e.split + 1);
                rest = head;
                let lo = self.w_min + start;
                chunks.push(scope.spawn(move || self.fill(lo, w_proof, hint, chunk)));
            }
            chunks.into_iter().try_for_each(|chunk| {
                chunk
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
        })?;
        self.publish(self.w_min + first, &slots[first..]);
        Ok(())
    }

    /// Number of entries currently cached (diagnostics).
    #[must_use]
    pub fn cached_entries(&self) -> usize {
        self.cache.read().iter().filter(|e| e.is_some()).count()
    }

    /// Computes the `MISSING` slots of `run`, which holds the entries for
    /// lengths `lo, lo + 1, …`. Every split search warm-starts from its
    /// predecessor's split; `hint` seeds the first.
    fn fill(
        &self,
        lo: usize,
        w_proof: Option<usize>,
        mut hint: Option<usize>,
        run: &mut [CutEntry],
    ) -> Result<()> {
        for (w, slot) in (lo..).zip(run.iter_mut()) {
            if slot.window_len == 0 {
                *slot = self.compute_entry(w, w_proof, hint)?;
            }
            hint = Some(slot.split + 1);
        }
        Ok(())
    }

    /// Caches the computed entries for lengths `lo, lo + 1, …` under one
    /// write lock.
    fn publish(&self, lo: usize, entries: &[CutEntry]) {
        let mut cache = self.cache.write();
        for (slot, entry) in cache[lo - self.w_min..].iter_mut().zip(entries) {
            *slot = Some(*entry);
        }
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

    /// The proof window (smallest `w` with a solution) among lengths up to
    /// `w_max`, found by bisection over `[w_min, w_max]` and cached.
    fn proof_window(&self, w_max: usize) -> Result<Option<usize>> {
        if let Some((searched_to, found)) = *self.proof_window.read() {
            if found.is_some() || searched_to >= w_max {
                return Ok(found);
            }
        }
        let found = if !self.solution_exists(w_max)? {
            None
        } else if self.solution_exists(self.w_min)? {
            Some(self.w_min)
        } else {
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
            Some(hi)
        };
        *self.proof_window.write() = Some((w_max, found));
        Ok(found)
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
    fn entries_are_cached_and_shared() {
        let table = Arc::new(CutTable::new(&config(0.5, 100)).unwrap());
        assert_eq!(table.cached_entries(), 0);
        let a = table.entry(60).unwrap();
        let b = table.entry(60).unwrap();
        assert_eq!(a, b);
        assert_eq!(table.cached_entries(), 1);

        let clone = Arc::clone(&table);
        let handle = std::thread::spawn(move || clone.entry(80).unwrap());
        let from_thread = handle.join().unwrap();
        assert_eq!(from_thread, table.entry(80).unwrap());
    }

    #[test]
    fn precompute_all_fills_every_entry() {
        let table = CutTable::new(&config(0.5, 120)).unwrap();
        table.precompute_all().unwrap();
        assert_eq!(table.cached_entries(), 120 - 30 + 1);
        for w in 30..=120 {
            let e = table.entry(w).unwrap();
            assert_eq!(e.window_len, w);
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
    fn entries_range_matches_single_lookups() {
        let table = CutTable::new(&config(0.5, 200)).unwrap();
        // Prime a few entries so the range mixes cached and missing ones.
        let _ = table.entry(50).unwrap();
        let _ = table.entry(60).unwrap();
        let range = table.entries_range(40, 80).unwrap();
        assert_eq!(range.len(), 41);
        for (offset, entry) in range.iter().enumerate() {
            assert_eq!(*entry, table.entry(40 + offset).unwrap());
        }
        // Everything touched is now cached.
        assert!(table.cached_entries() >= 41);
    }

    #[test]
    fn entries_range_into_reuses_buffer_and_matches() {
        let table = CutTable::new(&config(0.5, 200)).unwrap();
        let _ = table.entry(55).unwrap();
        let mut buf = Vec::new();
        table.entries_range_into(40, 80, &mut buf).unwrap();
        assert_eq!(buf.len(), 41);
        for (offset, entry) in buf.iter().enumerate() {
            assert_eq!(*entry, table.entry(40 + offset).unwrap());
        }
        // Refill with a fully cached range: the buffer is reused, no stale
        // leftovers, same entries as the allocating variant.
        let cap_before = buf.capacity();
        table.entries_range_into(60, 70, &mut buf).unwrap();
        assert_eq!(buf.len(), 11);
        assert_eq!(buf.capacity(), cap_before);
        assert_eq!(buf, table.entries_range(60, 70).unwrap());
        // Errors leave the buffer valid.
        assert!(table.entries_range_into(10, 20, &mut buf).is_err());
    }

    #[test]
    fn parallel_precompute_matches_sequential_lookups() {
        let parallel = CutTable::new(&config(0.5, 600)).unwrap();
        parallel.precompute_all().unwrap();
        let sequential = CutTable::new(&config(0.5, 600)).unwrap();
        for w in 30..=600 {
            assert_eq!(parallel.entry(w).unwrap(), sequential.entry(w).unwrap());
        }
    }

    #[test]
    fn one_table_grows_across_w_max() {
        let small = config(0.5, 300);
        let large = config(0.5, 700);
        let table = CutTable::new(&small).unwrap();
        table.precompute_all().unwrap();
        assert_eq!(table.w_max(), 300);
        assert!(table.entry(301).is_err());

        // Serving a larger w_max grows the table and keeps what is cached;
        // a smaller one never shrinks it.
        table.serve(&large).unwrap();
        assert_eq!(table.w_max(), 700);
        assert_eq!(table.cached_entries(), 300 - 30 + 1);
        table.serve(&small).unwrap();
        assert_eq!(table.w_max(), 700);

        // Growing first and filling later gives the entries a table built
        // for the larger w_max has.
        table.precompute_all().unwrap();
        assert_eq!(table.cached_entries(), 700 - 30 + 1);
        let fresh = CutTable::new(&large).unwrap();
        fresh.precompute_all().unwrap();
        assert_eq!(
            table.entries_range(30, 700).unwrap(),
            fresh.entries_range(30, 700).unwrap()
        );
    }

    #[test]
    fn serve_rejects_other_parameters() {
        let table = CutTable::new(&config(0.5, 300)).unwrap();
        let mut other_rho = config(0.5, 300);
        other_rho.rho = 2.0;
        let mut other_w_min = config(0.5, 300);
        other_w_min.w_min = 31;
        for other in [other_rho, other_w_min] {
            let err = table.serve(&other).unwrap_err();
            assert!(
                matches!(
                    err,
                    CoreError::InvalidConfig {
                        field: "cut_table",
                        ..
                    }
                ),
                "{err}"
            );
        }
        // A rejected configuration does not grow the table.
        let mut bigger = config(0.5, 900);
        bigger.rho = 2.0;
        assert!(table.serve(&bigger).is_err());
        assert_eq!(table.w_max(), 300);
    }

    #[test]
    fn entries_range_rejects_bad_ranges() {
        let table = CutTable::new(&config(0.5, 100)).unwrap();
        assert!(table.entries_range(29, 40).is_err());
        assert!(table.entries_range(40, 101).is_err());
        assert!(table.entries_range(60, 50).is_err());
        assert!(table.entries_range(30, 100).is_ok());
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
            for w in (30..=3000).step_by(10) {
                if table.entry(w).unwrap().exact {
                    return w;
                }
            }
            usize::MAX
        };
        let w_proof_rho_1 = first_exact(1.0);
        let w_proof_rho_05 = first_exact(0.5);
        assert!(w_proof_rho_1 < w_proof_rho_05);
        assert!(w_proof_rho_1 <= 100, "w_proof(1.0) = {w_proof_rho_1}");
        assert!(w_proof_rho_05 <= 300, "w_proof(0.5) = {w_proof_rho_05}");
    }
}
