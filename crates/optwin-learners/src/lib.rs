//! # optwin-learners — online learners for the OPTWIN evaluation
//!
//! The paper's classification experiments (Table 2) train MOA's Naive Bayes
//! classifier prequentially and reset it whenever a drift detector fires; the
//! neural-network experiment (Figure 5) monitors the loss of a pre-trained
//! network whose labels are swapped to inject drifts. This crate provides the
//! learner substrate for both:
//!
//! * [`NaiveBayes`] — mixed categorical/Gaussian Naive Bayes, resettable, the
//!   work-horse of the Table 2 experiments.
//! * [`Mlp`] — a small one-hidden-layer neural network trained by SGD; the
//!   CNN stand-in used by the Figure 5 reproduction.
//! * [`AdaptiveLearner`] — wraps any learner with any
//!   [`optwin_core::DriftDetector`] and implements the active
//!   drift-adaptation loop (prequential test-then-train, reset on drift).
//!
//! ```
//! use optwin_learners::{NaiveBayes, OnlineLearner};
//! use optwin_stream::generators::{Stagger, StaggerConcept};
//! use optwin_stream::InstanceStream;
//!
//! let mut stream = Stagger::new(StaggerConcept::SizeSmallAndColorRed, 1);
//! let mut nb = NaiveBayes::new(&stream.schema(), stream.n_classes());
//! let mut correct = 0;
//! for _ in 0..2_000 {
//!     let inst = stream.next_instance();
//!     if nb.predict(&inst) == inst.label {
//!         correct += 1;
//!     }
//!     nb.learn(&inst);
//! }
//! assert!(correct > 1_700, "Naive Bayes should master STAGGER quickly");
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod adaptive;
pub mod learner;
pub mod mlp;
pub mod naive_bayes;

pub use adaptive::{AdaptiveLearner, AdaptiveReport};
pub use learner::OnlineLearner;
pub use mlp::{Mlp, MlpConfig, PrototypeTask};
pub use naive_bayes::NaiveBayes;
