//! Statistical substrate for the OPTWIN concept-drift reproduction.
//!
//! OPTWIN's optimal-cut table (Eq. 1–2 of the paper) needs the probability
//! point functions (PPF, i.e. inverse CDF) of the Student's *t*- and Fisher
//! *F*-distributions; `optwin-core` computes the Welch *t* and
//! variance-ratio statistics it tests against them inline. The evaluation
//! section adds the one-tailed Wilcoxon signed-rank test. The MOA baselines
//! additionally need the normal distribution (ADWIN's normal-approximation
//! cut, STEPD's equality-of-proportions test, ECDD's EWMA chart) and the
//! two-sample Kolmogorov–Smirnov test (KSWIN extension).
//!
//! Everything in this crate is implemented from scratch on top of a small set
//! of special functions (log-gamma, error function, regularized incomplete
//! gamma and beta functions) so that the workspace has no dependency on an
//! external statistics library.
//!
//! # Layout
//!
//! * [`special`] — special functions (`ln_gamma`, `erf`, incomplete
//!   gamma/beta, and the incomplete-beta inverse behind the t and F
//!   quantiles).
//! * [`dist`] — probability distributions with `pdf` / `cdf` / `ppf`
//!   (normal, Student's t, Fisher F).
//! * [`tests`] — hypothesis tests (equality of proportions, Wilcoxon
//!   signed-rank, two-sample KS).
//! * [`incremental`] — numerically careful streaming moments (Welford and
//!   add/remove window accumulators) and EWMA estimators.
//! * [`descriptive`] — batch descriptive statistics over slices.
//!
//! # Example
//!
//! ```
//! use optwin_stats::dist::{ContinuousDistribution, StudentsT, FisherF};
//!
//! let t = StudentsT::new(10.0).unwrap();
//! let q = t.ppf(0.975).unwrap();
//! assert!((q - 2.228).abs() < 1e-3);
//!
//! let f = FisherF::new(5.0, 10.0).unwrap();
//! let q = f.ppf(0.95).unwrap();
//! assert!((q - 3.3258).abs() < 1e-3);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]
// `!(x > 0.0)` (rather than `x <= 0.0`) is this crate's deliberate idiom for
// rejecting non-positive *and NaN* parameters in one comparison.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod descriptive;
pub mod dist;
pub mod error;
pub mod incremental;
pub mod special;
pub mod tests;

pub use error::StatsError;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, StatsError>;
