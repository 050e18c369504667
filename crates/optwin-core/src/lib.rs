//! # optwin-core — the OPTWIN concept-drift detector
//!
//! This crate implements the paper's primary contribution: **OPTWIN**
//! ("OPTimal WINdow"), an error-rate–based concept-drift detector that keeps
//! a sliding window `W` of the errors produced by an online learner and, at
//! every step, splits `W` into a *historical* sub-window `W_hist` and a *new*
//! sub-window `W_new` at a provably optimal point ν. A drift is flagged when
//! either
//!
//! * the **means** of the two sub-windows differ according to Welch's
//!   unequal-variance *t*-test, or
//! * the **standard deviations** differ according to the variance-ratio
//!   *f*-test,
//!
//! each at confidence `δ' = δ^(1/4)`.
//!
//! The split point is "optimal" in the sense of Equation 1 of the paper: it
//! is the largest ν for which a mean shift of magnitude `ρ·σ_hist` is
//! guaranteed (with confidence δ) to be detected by the *t*-test, which
//! minimises the detection delay for drifts of at least that magnitude.
//! Because ν and the two critical values depend only on `|W|`, `δ` and `ρ`,
//! they are pre-computed per window length and looked up in O(1) on the hot
//! path, giving O(1) amortized cost per ingested element.
//!
//! # Quick start
//!
//! ```
//! use optwin_core::{DriftDetector, DriftStatus, Optwin, OptwinConfig};
//!
//! let config = OptwinConfig::builder()
//!     .confidence(0.99)
//!     .robustness(0.5)
//!     .max_window(2_000)
//!     .build()
//!     .unwrap();
//! let mut detector = Optwin::new(config).unwrap();
//!
//! // A learner that suddenly starts making many more errors.
//! let mut drift_at = None;
//! for i in 0..1_000u32 {
//!     let error_rate = if i < 500 { 0.05 } else { 0.60 };
//!     // Deterministic "noisy" error signal around the base rate.
//!     let x = error_rate + 0.01 * ((i % 7) as f64 - 3.0) / 3.0;
//!     if detector.add_element(x) == DriftStatus::Drift {
//!         drift_at = Some(i);
//!         break;
//!     }
//! }
//! let at = drift_at.expect("the mean shift must be detected");
//! assert!(at >= 500, "no false positive before the drift");
//! assert!(at < 700, "drift detected with a small delay, got {at}");
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]
// `!(x > 0.0)` (rather than `x <= 0.0`) is the workspace idiom for rejecting
// non-positive *and NaN* parameters in one comparison.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod config;
pub mod cut;
pub mod detector;
pub mod error;
pub mod optwin;
pub mod registry;
pub mod snapshot;
pub mod window;

pub use config::{DriftDirection, OptwinConfig, OptwinConfigBuilder, MAX_WINDOW};
pub use cut::{CutEntry, CutTable};
pub use detector::{BatchOutcome, DriftDetector, DriftStatus};
pub use error::CoreError;
pub use optwin::Optwin;
pub use registry::CutTableRegistry;
pub use window::SplitWindow;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CoreError>;
