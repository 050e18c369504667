//! Hypothesis tests used by the baseline detectors and the evaluation
//! harness. OPTWIN computes its Welch t and variance-ratio statistics inline
//! (`optwin_core`), so none of them lives here.
//!
//! * [`equal_proportions_test`] — the test of equal proportions used by the
//!   STEPD baseline.
//! * [`wilcoxon_signed_rank`] — the paired, one- or two-tailed Wilcoxon
//!   signed-rank test the paper uses to establish the statistical
//!   significance of OPTWIN's F1 improvements (§4.1).
//! * [`ks_two_sample`] — two-sample Kolmogorov–Smirnov test (KSWIN
//!   extension detector).

mod ks;
mod proportions;
mod wilcoxon;

pub use ks::{ks_two_sample, ks_two_sample_sorted, KsTestResult};
pub use proportions::{equal_proportions_test, ProportionsTestResult};
pub use wilcoxon::{wilcoxon_signed_rank, Alternative, WilcoxonResult};
