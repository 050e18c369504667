//! # optwin-stream — data-stream substrate
//!
//! The OPTWIN paper evaluates drift detectors inside the MOA stream-mining
//! framework. This crate re-implements the parts of MOA the experiments rely
//! on, in pure Rust:
//!
//! * [`instance`] — the instance/feature model shared with the learners.
//! * [`generators`] — synthetic concept generators: STAGGER, AGRAWAL and
//!   RandomRBF (the paper's Table 1/2 datasets).
//! * [`drift`] — [`MultiConceptStream`]: chains concept streams along a
//!   drift schedule, with sudden or sigmoidal (gradual) transitions, to
//!   produce "drift every 20 000 instances" streams.
//! * [`error_stream`] — the "Concept Drift interface" experiments: direct
//!   binary (Bernoulli) and non-binary (Gaussian) error streams with sudden
//!   or gradual drifts, bypassing any learner.
//! * [`realworld`] — synthetic stand-ins for the Electricity and Covertype
//!   datasets (see DESIGN.md §3 for the substitution rationale).
//! * [`scenario`] — the `driftbench` scenario catalogue: the paper's
//!   abrupt/gradual pair plus five adversarial workloads (recurring
//!   concepts, slow ramps, seasonal oscillation, variance-only drift,
//!   heavy-tailed noise), each with ground truth.
//! * [`schedule`] — ground-truth drift schedules shared by generators and
//!   the evaluation harness.
//!
//! All stochastic components are seeded explicitly and therefore fully
//! reproducible.
//!
//! ```
//! use optwin_stream::generators::{Stagger, StaggerConcept};
//! use optwin_stream::InstanceStream;
//!
//! let mut stream = Stagger::new(StaggerConcept::SizeSmallAndColorRed, 42);
//! let instance = stream.next_instance();
//! assert_eq!(instance.features.len(), 3);
//! assert!(instance.label <= 1);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod drift;
pub mod error_stream;
pub mod generators;
pub mod instance;
pub mod realworld;
pub mod scenario;
pub mod schedule;

pub use drift::MultiConceptStream;
pub use error_stream::{DriftKind, ErrorStream, ErrorStreamConfig, SignalKind};
pub use instance::{Feature, FeatureKind, Instance, InstanceStream};
pub use scenario::{GeneratedScenario, ScenarioKind};
pub use schedule::DriftSchedule;
