//! ADWIN — ADaptive WINdowing (Bifet & Gavaldà, 2007).
//!
//! ADWIN maintains a variable-length window `W` of the most recent
//! observations compressed into an *exponential histogram*: a list of bucket
//! rows where row `r` holds buckets that each summarise `2^r` elements (only
//! their count, sum and internal variance are stored, never the raw values).
//! After each insertion the detector scans the possible cut points between
//! buckets, from oldest to newest, and checks whether the two resulting
//! sub-windows have means that differ by more than `ε_cut`. If so, the oldest
//! bucket is dropped (repeatedly) and a drift is reported.
//!
//! This implementation follows the MOA/River version used by the paper:
//! `ε_cut` uses the normal-approximation bound
//!
//! ```text
//! ε_cut = sqrt( (2/m) · σ²_W · ln(2/δ') ) + (2/(3m)) · ln(2/δ'),
//!     m  = 1 / (1/n₀ + 1/n₁),       δ' = δ / ln(n)
//! ```
//!
//! and the window is only inspected every `clock` insertions (default 32),
//! giving O(log |W|) amortized work per element.

use optwin_core::snapshot::{check_version, field, float_field, invalid};
use optwin_core::{CoreError, DriftDetector, DriftStatus};

use crate::DetectorSpec;

/// Maximum number of buckets per row before two are merged into the next row
/// (the `M` parameter of the paper; MOA uses 5).
const MAX_BUCKETS_PER_ROW: usize = 5;

/// Serialization format version of [`Adwin`]'s state snapshot.
const SNAPSHOT_VERSION: u64 = 1;

/// Configuration for [`Adwin`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdwinConfig {
    /// Confidence parameter δ ∈ (0, 1); smaller values make the detector more
    /// conservative. MOA's default is `0.002`.
    pub delta: f64,
    /// Number of insertions between change checks (MOA default 32).
    pub clock: u32,
    /// Minimum window length before any cut is considered.
    pub min_window_len: usize,
    /// Minimum sub-window length on each side of a candidate cut.
    pub min_sub_window_len: usize,
}

impl Default for AdwinConfig {
    fn default() -> Self {
        Self {
            delta: 0.002,
            clock: 32,
            min_window_len: 10,
            min_sub_window_len: 5,
        }
    }
}

/// One bucket of the exponential histogram: `count` elements summarised by
/// their sum and the internal variance contribution.
#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    count: u64,
    sum: f64,
    /// Sum of squared deviations from the bucket mean (i.e. `n · Var`).
    variance: f64,
}

impl Bucket {
    fn single(value: f64) -> Self {
        Self {
            count: 1,
            sum: value,
            variance: 0.0,
        }
    }

    fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Merges two buckets (parallel-variance formula).
    fn merge(a: &Bucket, b: &Bucket) -> Bucket {
        if a.count == 0 {
            return *b;
        }
        if b.count == 0 {
            return *a;
        }
        let n1 = a.count as f64;
        let n2 = b.count as f64;
        let delta = b.mean() - a.mean();
        Bucket {
            count: a.count + b.count,
            sum: a.sum + b.sum,
            variance: a.variance + b.variance + delta * delta * n1 * n2 / (n1 + n2),
        }
    }
}

/// The ADWIN drift detector.
#[derive(Debug, Clone)]
pub struct Adwin {
    config: AdwinConfig,
    /// `rows[r]` holds the buckets of capacity `2^r`, newest first.
    rows: Vec<Vec<Bucket>>,
    /// Total element count in the window.
    total_count: u64,
    /// Total sum over the window.
    total_sum: f64,
    /// Total `n · Var` over the window.
    total_variance: f64,
    elements_since_check: u32,
    elements_seen: u64,
    drifts_detected: u64,
    last_status: DriftStatus,
}

impl Adwin {
    /// Creates a detector with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics with [`DetectorSpec::validate`]'s error if `delta` is not in
    /// `(0, 1)` or `clock` is zero.
    #[must_use]
    pub fn new(config: AdwinConfig) -> Self {
        DetectorSpec::Adwin {
            config: config.clone(),
        }
        .assert_valid();
        Self {
            config,
            rows: vec![Vec::new()],
            total_count: 0,
            total_sum: 0.0,
            total_variance: 0.0,
            elements_since_check: 0,
            elements_seen: 0,
            drifts_detected: 0,
            last_status: DriftStatus::Stable,
        }
    }

    /// Creates a detector with MOA's default parameters (δ = 0.002).
    #[must_use]
    pub fn with_defaults() -> Self {
        Self::new(AdwinConfig::default())
    }

    /// Current window length.
    #[must_use]
    pub fn window_len(&self) -> u64 {
        self.total_count
    }

    /// Mean of the current window.
    #[must_use]
    pub fn window_mean(&self) -> f64 {
        if self.total_count == 0 {
            0.0
        } else {
            self.total_sum / self.total_count as f64
        }
    }

    /// Variance (population) of the current window.
    #[must_use]
    pub fn window_variance(&self) -> f64 {
        if self.total_count == 0 {
            0.0
        } else {
            (self.total_variance / self.total_count as f64).max(0.0)
        }
    }

    /// Inserts a single-element bucket and compresses rows as needed.
    ///
    /// ADWIN's bound assumes bounded input. A value whose square, or whose
    /// update of the window's sum or variance, is not finite would leave
    /// `ε_cut` or a sub-window mean non-finite for good, so no cut would
    /// ever be found again. Such a value is rejected: the window is left
    /// untouched and `false` is returned. The square catches a value that
    /// arrives into an empty window, which updates no variance.
    fn insert(&mut self, value: f64) -> bool {
        let count = self.total_count + 1;
        // Update total variance incrementally (Welford-style on the window
        // aggregate): contribution of the new point relative to the old mean.
        let mut total_variance = self.total_variance;
        if self.total_count > 0 {
            let old_mean = self.total_sum / self.total_count as f64;
            let delta = value - old_mean;
            total_variance += delta * delta * self.total_count as f64 / count as f64;
        }
        let total_sum = self.total_sum + value;
        if !((value * value).is_finite() && total_sum.is_finite() && total_variance.is_finite()) {
            return false;
        }
        // New elements enter at the front of row 0.
        self.rows[0].insert(0, Bucket::single(value));
        self.total_count = count;
        self.total_sum = total_sum;
        self.total_variance = total_variance;

        // Compress: whenever a row exceeds MAX_BUCKETS_PER_ROW buckets, merge
        // its two oldest buckets into one bucket of the next row.
        let mut row = 0;
        loop {
            if self.rows[row].len() <= MAX_BUCKETS_PER_ROW {
                break;
            }
            if row + 1 == self.rows.len() {
                self.rows.push(Vec::new());
            }
            let oldest = self.rows[row].pop().expect("row length checked above");
            let second_oldest = self.rows[row].pop().expect("row length checked above");
            let merged = Bucket::merge(&second_oldest, &oldest);
            self.rows[row + 1].insert(0, merged);
            row += 1;
        }
        true
    }

    /// Removes the oldest bucket from the window.
    fn drop_oldest_bucket(&mut self) {
        // The oldest bucket lives at the back of the highest non-empty row.
        let row = match self.rows.iter().rposition(|r| !r.is_empty()) {
            Some(r) => r,
            None => return,
        };
        let bucket = self.rows[row].pop().expect("row is non-empty");
        let n = bucket.count as f64;
        if bucket.count >= self.total_count {
            self.total_count = 0;
            self.total_sum = 0.0;
            self.total_variance = 0.0;
            return;
        }
        // Remove the bucket's contribution from the window aggregates.
        let remaining = self.total_count - bucket.count;
        let window_mean = self.window_mean();
        let delta = bucket.mean() - window_mean;
        self.total_variance -=
            bucket.variance + delta * delta * n * remaining as f64 / self.total_count as f64;
        self.total_variance = self.total_variance.max(0.0);
        self.total_sum -= bucket.sum;
        self.total_count = remaining;
    }

    /// Scans the cut points and returns `true` if a cut (drift) was found,
    /// shrinking the window accordingly.
    fn detect_and_shrink(&mut self) -> bool {
        if self.total_count < self.config.min_window_len as u64 {
            return false;
        }
        let mut change = false;
        let mut reduced = true;
        // Repeat until no further cut is found (ADWIN may shrink repeatedly).
        while reduced {
            reduced = false;
            let n = self.total_count as f64;
            if n < self.config.min_window_len as f64 {
                break;
            }
            let delta_prime = self.config.delta / n.ln().max(1.0);
            let ln_term = (2.0 / delta_prime).ln();
            let total_var = self.window_variance();

            // Walk buckets from oldest to newest accumulating the "old"
            // sub-window W0; the complement is W1.
            let mut n0 = 0.0f64;
            let mut sum0 = 0.0f64;
            let mut found_cut = false;
            'outer: for row in (0..self.rows.len()).rev() {
                for bucket in self.rows[row].iter().rev() {
                    n0 += bucket.count as f64;
                    sum0 += bucket.sum;
                    let n1 = self.total_count as f64 - n0;
                    if n0 < self.config.min_sub_window_len as f64 {
                        continue;
                    }
                    if n1 < self.config.min_sub_window_len as f64 {
                        break 'outer;
                    }
                    let mean0 = sum0 / n0;
                    let mean1 = (self.total_sum - sum0) / n1;
                    let m = 1.0 / (1.0 / n0 + 1.0 / n1);
                    let eps_cut =
                        (2.0 / m * total_var * ln_term).sqrt() + 2.0 / (3.0 * m) * ln_term;
                    if (mean0 - mean1).abs() > eps_cut {
                        found_cut = true;
                        break 'outer;
                    }
                }
            }
            if found_cut {
                self.drop_oldest_bucket();
                change = true;
                reduced = true;
            }
        }
        change
    }
}

impl DriftDetector for Adwin {
    fn add_element(&mut self, value: f64) -> DriftStatus {
        self.elements_seen += 1;
        if !self.insert(value) {
            self.last_status = DriftStatus::Stable;
            return self.last_status;
        }
        self.elements_since_check += 1;

        let mut status = DriftStatus::Stable;
        if self.elements_since_check >= self.config.clock {
            self.elements_since_check = 0;
            if self.detect_and_shrink() {
                self.drifts_detected += 1;
                status = DriftStatus::Drift;
            }
        }
        self.last_status = status;
        status
    }

    fn reset(&mut self) {
        let config = self.config.clone();
        let elements_seen = self.elements_seen;
        let drifts = self.drifts_detected;
        *self = Self::new(config);
        self.elements_seen = elements_seen;
        self.drifts_detected = drifts;
    }

    fn name(&self) -> &'static str {
        "ADWIN"
    }

    fn elements_seen(&self) -> u64 {
        self.elements_seen
    }

    fn drifts_detected(&self) -> u64 {
        self.drifts_detected
    }

    fn supports_real_valued_input(&self) -> bool {
        true
    }

    /// Struct size plus the exponential histogram's heap: the row spine and
    /// every row's bucket storage, counted at capacity.
    fn mem_footprint(&self) -> usize {
        std::mem::size_of_val(self)
            + self.rows.capacity() * std::mem::size_of::<Vec<Bucket>>()
            + self
                .rows
                .iter()
                .map(|row| row.capacity() * std::mem::size_of::<Bucket>())
                .sum::<usize>()
    }

    /// Serializes the exponential histogram verbatim plus the raw window
    /// aggregates and counters. The buckets are stored **columnar** —
    /// per-row lengths plus one blob each for the flattened counts
    /// (varints), sums and variances — so the integral columns compress far
    /// below a nested JSON layout. The aggregates are *not* recomputed from
    /// the buckets on restore: `total_variance` carries the rounding history
    /// of every incremental update, and bit-exact resumption requires
    /// restoring exactly that value.
    fn snapshot_state(&self) -> Option<serde::Value> {
        use optwin_core::snapshot::{encode_f64_seq, encode_u64_seq, float_value};
        use serde::Serialize as _;
        let lens: Vec<u64> = self.rows.iter().map(|row| row.len() as u64).collect();
        let buckets = self.rows.iter().flatten();
        let counts: Vec<u64> = buckets.clone().map(|b| b.count).collect();
        let sums: Vec<f64> = buckets.clone().map(|b| b.sum).collect();
        let variances: Vec<f64> = buckets.map(|b| b.variance).collect();
        let rows = serde::Value::Object(vec![
            ("row_lens".to_string(), encode_u64_seq(&lens)),
            ("counts".to_string(), encode_u64_seq(&counts)),
            ("sums".to_string(), encode_f64_seq(&sums)),
            ("variances".to_string(), encode_f64_seq(&variances)),
        ]);
        Some(serde::Value::Object(vec![
            ("version".to_string(), serde::Value::UInt(SNAPSHOT_VERSION)),
            ("rows".to_string(), rows),
            (
                "total_count".to_string(),
                serde::Value::UInt(self.total_count),
            ),
            ("total_sum".to_string(), float_value(self.total_sum)),
            (
                "total_variance".to_string(),
                float_value(self.total_variance),
            ),
            (
                "elements_since_check".to_string(),
                serde::Value::UInt(u64::from(self.elements_since_check)),
            ),
            (
                "elements_seen".to_string(),
                serde::Value::UInt(self.elements_seen),
            ),
            (
                "drifts_detected".to_string(),
                serde::Value::UInt(self.drifts_detected),
            ),
            ("last_status".to_string(), self.last_status.to_value()),
        ]))
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), CoreError> {
        check_version(state, SNAPSHOT_VERSION, "ADWIN")?;

        let rows_value = state
            .get("rows")
            .ok_or_else(|| invalid("missing field `rows`"))?;
        let (rows, bucket_total) = match rows_value {
            serde::Value::Array(row_values) => rows_from_nested(row_values)?,
            serde::Value::Object(_) => rows_from_columnar(rows_value)?,
            _ => {
                return Err(invalid(
                    "`rows` must be a nested bucket array or a columnar blob object",
                ))
            }
        };

        let total_count: u64 = field(state, "total_count")?;
        if total_count != bucket_total {
            return Err(invalid(format!(
                "total_count ({total_count}) does not match the buckets ({bucket_total})"
            )));
        }
        let total_sum = float_field(state, "total_sum")?;
        let total_variance = float_field(state, "total_variance")?;
        let since_check: u64 = field(state, "elements_since_check")?;
        if since_check >= u64::from(self.config.clock) {
            return Err(invalid(format!(
                "elements_since_check ({since_check}) must be below the clock ({})",
                self.config.clock
            )));
        }
        let last_status: DriftStatus = field(state, "last_status")?;
        let elements_seen: u64 = field(state, "elements_seen")?;
        let drifts_detected: u64 = field(state, "drifts_detected")?;

        self.rows = rows;
        self.total_count = total_count;
        self.total_sum = total_sum;
        self.total_variance = total_variance;
        self.elements_since_check = since_check as u32;
        self.elements_seen = elements_seen;
        self.drifts_detected = drifts_detected;
        self.last_status = last_status;
        Ok(())
    }
}

/// Shared bucket validation for both snapshot layouts: positive count and
/// an overflow-checked running total. The float moments are accepted
/// verbatim: before values that overflow the window were rejected, a
/// bucket fed `±1e300` saturated its sum or variance to `±inf`/NaN, and
/// snapshots written then must still restore bit-exactly.
fn validated_bucket(
    count: u64,
    sum: f64,
    variance: f64,
    bucket_total: &mut u64,
    at: impl Fn() -> String,
) -> Result<Bucket, CoreError> {
    if count == 0 {
        return Err(invalid(format!("{} has zero count", at())));
    }
    *bucket_total = bucket_total
        .checked_add(count)
        .ok_or_else(|| invalid(format!("bucket counts overflow at {}", at())))?;
    Ok(Bucket {
        count,
        sum,
        variance,
    })
}

/// Parses the JSON layout of `rows` the retired v1–v3 writer produced: an
/// array of rows, each an array of `[count, sum, variance]` triples.
fn rows_from_nested(row_values: &[serde::Value]) -> Result<(Vec<Vec<Bucket>>, u64), CoreError> {
    if row_values.is_empty() {
        return Err(invalid("`rows` must contain at least one row"));
    }
    let mut rows: Vec<Vec<Bucket>> = Vec::with_capacity(row_values.len());
    let mut bucket_total: u64 = 0;
    for (r, row_value) in row_values.iter().enumerate() {
        let serde::Value::Array(bucket_values) = row_value else {
            return Err(invalid(format!("`rows[{r}]` must be an array")));
        };
        if bucket_values.len() > MAX_BUCKETS_PER_ROW + 1 {
            return Err(invalid(format!(
                "`rows[{r}]` has {} buckets (limit {})",
                bucket_values.len(),
                MAX_BUCKETS_PER_ROW + 1
            )));
        }
        let mut row = Vec::with_capacity(bucket_values.len());
        for (k, bucket_value) in bucket_values.iter().enumerate() {
            let serde::Value::Array(parts) = bucket_value else {
                return Err(invalid(format!("`rows[{r}][{k}]` must be an array")));
            };
            if parts.len() != 3 {
                return Err(invalid(format!(
                    "`rows[{r}][{k}]` must have 3 elements, got {}",
                    parts.len()
                )));
            }
            let count = <u64 as serde::Deserialize>::from_value(&parts[0])
                .map_err(|e| invalid(format!("`rows[{r}][{k}]` count: {e}")))?;
            let sum = <f64 as serde::Deserialize>::from_value(&parts[1])
                .map_err(|e| invalid(format!("`rows[{r}][{k}]` sum: {e}")))?;
            let variance = <f64 as serde::Deserialize>::from_value(&parts[2])
                .map_err(|e| invalid(format!("`rows[{r}][{k}]` variance: {e}")))?;
            row.push(validated_bucket(
                count,
                sum,
                variance,
                &mut bucket_total,
                || format!("`rows[{r}][{k}]`"),
            )?);
        }
        rows.push(row);
    }
    Ok((rows, bucket_total))
}

/// Parses the columnar binary layout of `rows` (wire format v4): per-row
/// lengths plus flattened `counts` / `sums` / `variances` blobs, all columns
/// required to agree on the bucket count.
fn rows_from_columnar(value: &serde::Value) -> Result<(Vec<Vec<Bucket>>, u64), CoreError> {
    use optwin_core::snapshot::{f64_seq_field, u64_seq_field};
    let lens = u64_seq_field(value, "row_lens")?;
    let counts = u64_seq_field(value, "counts")?;
    let sums = f64_seq_field(value, "sums")?;
    let variances = f64_seq_field(value, "variances")?;
    if lens.is_empty() {
        return Err(invalid("`rows.row_lens` must contain at least one row"));
    }
    let total: u64 = lens.iter().try_fold(0u64, |acc, &len| {
        acc.checked_add(len)
            .ok_or_else(|| invalid("`rows.row_lens` overflows"))
    })?;
    if total != counts.len() as u64 || counts.len() != sums.len() || counts.len() != variances.len()
    {
        return Err(invalid(format!(
            "`rows` column lengths disagree: row_lens sum to {total}, counts {}, sums {}, \
             variances {}",
            counts.len(),
            sums.len(),
            variances.len()
        )));
    }
    let mut rows: Vec<Vec<Bucket>> = Vec::with_capacity(lens.len());
    let mut bucket_total: u64 = 0;
    let mut offset = 0usize;
    for (r, &len) in lens.iter().enumerate() {
        let len = usize::try_from(len)
            .map_err(|_| invalid(format!("`rows.row_lens[{r}]` out of range")))?;
        if len > MAX_BUCKETS_PER_ROW + 1 {
            return Err(invalid(format!(
                "`rows.row_lens[{r}]` is {len} buckets (limit {})",
                MAX_BUCKETS_PER_ROW + 1
            )));
        }
        let mut row = Vec::with_capacity(len);
        for k in 0..len {
            let i = offset + k;
            row.push(validated_bucket(
                counts[i],
                sums[i],
                variances[i],
                &mut bucket_total,
                || format!("`rows[{r}][{k}]`"),
            )?);
        }
        offset += len;
        rows.push(row);
    }
    Ok((rows, bucket_total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{bernoulli, jitter};

    #[test]
    #[should_panic(expected = "`delta` must lie in (0, 1)")]
    fn rejects_bad_delta() {
        let _ = Adwin::new(AdwinConfig {
            delta: 0.0,
            ..AdwinConfig::default()
        });
    }

    #[test]
    fn window_statistics_track_inputs() {
        let mut a = Adwin::with_defaults();
        for i in 0..1_000u64 {
            a.add_element(0.3 + 0.1 * jitter(i));
        }
        assert_eq!(a.elements_seen(), 1_000);
        assert!((a.window_mean() - 0.3).abs() < 0.02);
        assert!(a.window_variance() < 0.01);
        // The exponential histogram stores far fewer buckets than elements.
        let total_buckets: usize = a.rows.iter().map(Vec::len).sum();
        assert!(total_buckets < 80, "buckets = {total_buckets}");
    }

    #[test]
    fn stationary_stream_rarely_fires() {
        let mut a = Adwin::with_defaults();
        let mut drifts = 0;
        for i in 0..20_000u64 {
            if a.add_element(bernoulli(i, 0.2)) == DriftStatus::Drift {
                drifts += 1;
            }
        }
        // δ = 0.002 gives a very low false-positive rate.
        assert!(drifts <= 2, "too many false positives: {drifts}");
    }

    #[test]
    fn sudden_mean_shift_detected() {
        let mut a = Adwin::with_defaults();
        let mut detected_at = None;
        for i in 0..6_000u64 {
            let p = if i < 3_000 { 0.05 } else { 0.5 };
            if a.add_element(bernoulli(i, p)) == DriftStatus::Drift {
                detected_at = Some(i);
                break;
            }
        }
        let at = detected_at.expect("ADWIN must detect a large mean shift");
        assert!(at >= 3_000, "false positive at {at}");
        assert!(at < 3_500, "delay too large: {}", at - 3_000);
        // The window shrank after the cut.
        assert!(a.window_len() < 3_500);
    }

    #[test]
    fn real_valued_shift_detected() {
        let mut a = Adwin::with_defaults();
        let mut detected = false;
        for i in 0..4_000u64 {
            let base = if i < 2_000 { 0.2 } else { 0.6 };
            let x = (base + 0.1 * jitter(i)).clamp(0.0, 1.0);
            if a.add_element(x) == DriftStatus::Drift {
                detected = true;
                assert!(i >= 2_000, "false positive at {i}");
                break;
            }
        }
        assert!(detected);
    }

    #[test]
    fn mean_preserving_variance_change_not_detected() {
        // The paper's argument for OPTWIN: ADWIN only looks at means, so a
        // pure variance change goes unnoticed.
        let mut a = Adwin::with_defaults();
        let mut drifts = 0;
        for i in 0..8_000u64 {
            let x = if i < 4_000 {
                0.5 + 0.05 * jitter(i)
            } else if i % 2 == 0 {
                0.0
            } else {
                1.0
            };
            if a.add_element(x) == DriftStatus::Drift {
                drifts += 1;
            }
        }
        assert_eq!(
            drifts, 0,
            "ADWIN unexpectedly reacted to a variance-only change"
        );
    }

    #[test]
    fn reset_clears_window_keeps_counters() {
        let mut a = Adwin::with_defaults();
        for i in 0..500u64 {
            a.add_element(bernoulli(i, 0.3));
        }
        let seen = a.elements_seen();
        a.reset();
        assert_eq!(a.window_len(), 0);
        assert_eq!(a.elements_seen(), seen);
        assert_eq!(a.name(), "ADWIN");
    }

    #[test]
    fn add_batch_matches_element_fold() {
        let stream: Vec<f64> = (0..8_000u64)
            .map(|i| {
                let p = match i {
                    0..=2_999 => 0.05,
                    3_000..=5_999 => 0.40,
                    _ => 0.75,
                };
                bernoulli(i, p)
            })
            .collect();
        crate::test_util::assert_batch_equivalence(Adwin::with_defaults, &stream);
        // Also with a clock that never divides the chunk sizes evenly.
        crate::test_util::assert_batch_equivalence(
            || {
                Adwin::new(AdwinConfig {
                    clock: 7,
                    ..AdwinConfig::default()
                })
            },
            &stream[..3_000],
        );
    }

    #[test]
    fn snapshot_restore_resumes_with_identical_decisions() {
        let stream: Vec<f64> = (0..8_000u64)
            .map(|i| {
                let p = match i {
                    0..=2_999 => 0.05,
                    3_000..=5_999 => 0.40,
                    _ => 0.75,
                };
                bernoulli(i, p)
            })
            .collect();
        // Cuts off the clock boundary, right after the first drift region,
        // and at the very start/end.
        crate::test_util::assert_snapshot_equivalence(
            Adwin::with_defaults,
            &stream,
            &[0, 13, 1_000, 3_200, 8_000],
        );
        // Also with a clock that never divides the cuts evenly.
        crate::test_util::assert_snapshot_equivalence(
            || {
                Adwin::new(AdwinConfig {
                    clock: 7,
                    ..AdwinConfig::default()
                })
            },
            &stream[..4_000],
            &[5, 3_001],
        );
    }

    #[test]
    fn restore_rejects_bad_snapshots() {
        let mut d = Adwin::with_defaults();
        assert!(d.restore_state(&serde::Value::Null).is_err());

        let mut donor = Adwin::with_defaults();
        for i in 0..200u64 {
            donor.add_element(bernoulli(i, 0.3));
        }
        let state = donor.snapshot_state().unwrap();

        // Tampered total_count no longer matches the buckets.
        let serde::Value::Object(mut fields) = state.clone() else {
            panic!("snapshot must be an object")
        };
        for (k, v) in &mut fields {
            if k == "total_count" {
                *v = serde::Value::UInt(9_999);
            }
        }
        let err = d.restore_state(&serde::Value::Object(fields)).unwrap_err();
        assert!(err.to_string().contains("total_count"), "{err}");

        // Overflowing bucket counts are rejected instead of wrapping (which
        // could forge a passing total_count check) or panicking in debug.
        let serde::Value::Object(mut fields) = state.clone() else {
            panic!("snapshot must be an object")
        };
        for (k, v) in &mut fields {
            if k == "rows" {
                *v = serde::Value::Array(vec![serde::Value::Array(vec![
                    serde::Value::Array(vec![
                        serde::Value::UInt(u64::MAX),
                        serde::Value::Float(0.0),
                        serde::Value::Float(0.0),
                    ]),
                    serde::Value::Array(vec![
                        serde::Value::UInt(u64::MAX),
                        serde::Value::Float(0.0),
                        serde::Value::Float(0.0),
                    ]),
                ])]);
            }
        }
        let err = d.restore_state(&serde::Value::Object(fields)).unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");

        // A clock mismatch between snapshotter and restorer is rejected when
        // the stored phase is out of range for the restoring configuration.
        let mut fast_clock = Adwin::new(AdwinConfig {
            clock: 2,
            ..AdwinConfig::default()
        });
        let err = fast_clock.restore_state(&state).unwrap_err();
        assert!(err.to_string().contains("clock"), "{err}");

        // A failed restore leaves the detector untouched.
        let before = d.elements_seen();
        let serde::Value::Object(fields) = state else {
            panic!("snapshot must be an object")
        };
        let truncated: Vec<(String, serde::Value)> = fields
            .into_iter()
            .filter(|(k, _)| k != "drifts_detected")
            .collect();
        assert!(d.restore_state(&serde::Value::Object(truncated)).is_err());
        assert_eq!(d.elements_seen(), before);
    }

    #[test]
    fn binary_snapshot_is_columnar_and_validated() {
        let mut donor = Adwin::with_defaults();
        for i in 0..2_000u64 {
            donor.add_element(bernoulli(i, 0.3));
        }
        let state = donor.snapshot_state().unwrap();
        // The bucket rows become a columnar object of blob strings.
        let rows = state.get("rows").expect("rows present");
        assert!(rows.as_object().is_some(), "columnar layout");
        for column in ["row_lens", "counts", "sums", "variances"] {
            assert!(
                matches!(rows.get(column), Some(serde::Value::Str(_))),
                "column `{column}` must be a blob string"
            );
        }

        // Disagreeing column lengths are rejected, naming the columns.
        let serde::Value::Object(mut fields) = state.clone() else {
            panic!("snapshot must be an object")
        };
        for (k, v) in &mut fields {
            if k == "rows" {
                let serde::Value::Object(mut columns) = v.clone() else {
                    panic!("rows must be columnar")
                };
                for (name, column) in &mut columns {
                    if name == "sums" {
                        *column = optwin_core::snapshot::encode_f64_seq(&[1.0]);
                    }
                }
                *v = serde::Value::Object(columns);
            }
        }
        let mut d = Adwin::with_defaults();
        let err = d.restore_state(&serde::Value::Object(fields)).unwrap_err();
        assert!(err.to_string().contains("column lengths disagree"), "{err}");

        // The intact columnar state restores bit-exactly (the shared
        // equivalence helper exercises decisions; spot-check the aggregates).
        let mut restored = Adwin::with_defaults();
        restored.restore_state(&state).unwrap();
        assert_eq!(restored.elements_seen(), donor.elements_seen());
        assert_eq!(
            restored.window_mean().to_bits(),
            donor.window_mean().to_bits()
        );
        assert_eq!(
            restored.window_variance().to_bits(),
            donor.window_variance().to_bits()
        );
    }

    /// One poison value must not silence the detector. The stream has 10%
    /// errors, rising to 50% from element 3,000. Each value arrives at
    /// element 0, into an empty window, or at element 1,500; the poisoned
    /// run must still catch the drift close to where its clean twin does.
    #[test]
    fn poison_value_does_not_silence_the_detector() {
        let clean: Vec<f64> = (0..6_000u64)
            .map(|i| bernoulli(i, if i < 3_000 { 0.1 } else { 0.5 }))
            .collect();
        let first_after_drift = |stream: &[f64]| {
            let drifts = Adwin::with_defaults().add_batch(stream).drift_indices;
            drifts.into_iter().find(|&i| i >= 3_000)
        };
        let clean_at = first_after_drift(&clean).expect("the clean stream's drift is missed");
        for poison in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            1e300,
            -1e300,
            1e200,
        ] {
            for position in [0, 1_500] {
                let mut stream = clean.clone();
                stream[position] = poison;
                let at = first_after_drift(&stream).unwrap_or_else(|| {
                    panic!("ADWIN went silent after {poison} at element {position}")
                });
                assert!(
                    at.abs_diff(clean_at) <= 100,
                    "{poison} at element {position}: drift at {at}, clean twin at {clean_at}"
                );
            }
        }
    }

    /// A snapshot written before overflowing values were rejected can hold
    /// non-finite aggregates and bucket moments. It restores, and
    /// re-snapshotting returns it bit-exactly (non-finite floats are blobs,
    /// so the value trees compare bitwise).
    #[test]
    fn saturated_snapshot_round_trips() {
        use optwin_core::snapshot::{encode_f64_seq, float_value};
        let mut donor = Adwin::with_defaults();
        for i in 0..200u64 {
            donor.add_element(bernoulli(i, 0.3));
        }
        let mut variances: Vec<f64> = donor.rows.iter().flatten().map(|b| b.variance).collect();
        variances[0] = f64::NAN;
        let serde::Value::Object(mut fields) = donor.snapshot_state().unwrap() else {
            panic!("snapshot must be an object")
        };
        for (key, value) in &mut fields {
            match key.as_str() {
                "total_sum" => *value = float_value(f64::INFINITY),
                "total_variance" => *value = float_value(f64::NAN),
                "rows" => {
                    let serde::Value::Object(columns) = value else {
                        panic!("rows must be columnar")
                    };
                    for (name, column) in columns {
                        if name == "variances" {
                            *column = encode_f64_seq(&variances);
                        }
                    }
                }
                _ => {}
            }
        }
        let state = serde::Value::Object(fields);
        let mut restored = Adwin::with_defaults();
        restored.restore_state(&state).unwrap();
        assert!(restored.total_variance.is_nan());
        assert_eq!(restored.total_sum, f64::INFINITY);
        assert_eq!(restored.snapshot_state(), Some(state));
    }

    #[test]
    fn bucket_merge_preserves_moments() {
        let a = Bucket {
            count: 4,
            sum: 2.0,
            variance: 0.25,
        };
        let b = Bucket {
            count: 4,
            sum: 3.0,
            variance: 0.3,
        };
        let m = Bucket::merge(&a, &b);
        assert_eq!(m.count, 8);
        assert!((m.sum - 5.0).abs() < 1e-12);
        // Parallel-variance: v = va + vb + d²·n1·n2/(n1+n2), d = 0.75 − 0.5
        assert!((m.variance - (0.25 + 0.3 + 0.0625 * 2.0)).abs() < 1e-12);
        // Merging with an empty bucket is the identity.
        let empty = Bucket::default();
        let same = Bucket::merge(&a, &empty);
        assert_eq!(same.count, a.count);
    }
}
