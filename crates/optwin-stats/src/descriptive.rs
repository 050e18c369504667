//! Batch descriptive statistics over slices.
//!
//! [`average_ranks`] serves the Wilcoxon signed-rank test; the moments are
//! the ground-truth oracle in the property tests of the incremental
//! accumulators and of OPTWIN's split window.

/// Arithmetic mean of a slice. Returns `None` for an empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

/// Unbiased (n − 1) sample variance. Returns `None` if fewer than two values.
#[must_use]
pub fn sample_variance(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let m = mean(values)?;
    let ss: f64 = values.iter().map(|v| (v - m) * (v - m)).sum();
    Some(ss / (values.len() - 1) as f64)
}

/// Population (n) variance. Returns `None` for an empty slice.
#[must_use]
pub fn population_variance(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let m = mean(values)?;
    let ss: f64 = values.iter().map(|v| (v - m) * (v - m)).sum();
    Some(ss / values.len() as f64)
}

/// Ranks of the values (1-based), with ties receiving the average rank.
///
/// This is the ranking convention needed by the Wilcoxon signed-rank test.
#[must_use]
pub fn average_ranks(values: &[f64]) -> Vec<f64> {
    let n = values.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| {
        values[a]
            .partial_cmp(&values[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && values[idx[j + 1]] == values[idx[i]] {
            j += 1;
        }
        // Average rank for the tie group [i, j].
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            ranks[k] = avg;
        }
        i = j + 1;
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basic() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), Some(5.0));
        assert!((population_variance(&xs).unwrap() - 4.0).abs() < 1e-12);
        assert!((sample_variance(&xs).unwrap() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton_slices() {
        assert_eq!(mean(&[]), None);
        assert_eq!(sample_variance(&[]), None);
        assert_eq!(sample_variance(&[1.0]), None);
        assert_eq!(population_variance(&[3.0]), Some(0.0));
    }

    #[test]
    fn ranks_with_ties() {
        let xs = [1.0, 2.0, 2.0, 3.0];
        assert_eq!(average_ranks(&xs), vec![1.0, 2.5, 2.5, 4.0]);
        let xs = [5.0, 5.0, 5.0];
        assert_eq!(average_ranks(&xs), vec![2.0, 2.0, 2.0]);
        let xs = [3.0, 1.0, 2.0];
        assert_eq!(average_ranks(&xs), vec![3.0, 1.0, 2.0]);
        assert!(average_ranks(&[]).is_empty());
    }

    #[test]
    fn ranks_sum_is_invariant() {
        let xs = [0.3, 0.1, 0.1, 0.7, 0.9, 0.9, 0.9];
        let n = xs.len() as f64;
        let total: f64 = average_ranks(&xs).iter().sum();
        assert!((total - n * (n + 1.0) / 2.0).abs() < 1e-12);
    }
}
