//! # optwin — OPTWIN concept-drift detection in Rust
//!
//! A full reproduction of *"OPTWIN: Drift identification with optimal
//! sub-windows"* (Tosi & Theobald, ICDE 2024) as a Rust workspace. This
//! facade crate re-exports the public API of every member crate so that
//! downstream users can depend on a single crate:
//!
//! | module | contents |
//! |--------|----------|
//! | [`core`] | the OPTWIN detector, the batch-first [`core::DriftDetector`] trait, optimal-cut tables and their process-wide registry |
//! | [`baselines`] | ADWIN, DDM, EDDM, STEPD, ECDD, Page–Hinkley, KSWIN |
//! | [`engine`] | the service-style multi-stream engine: [`engine::EngineBuilder`] → worker threads + [`engine::EngineHandle`], pluggable [`engine::EventSink`]s, snapshot/restore, per-shard load stats, hibernation and checkpoints |
//! | [`stream`] | STAGGER, AGRAWAL and RandomRBF generators, multi-concept drift composition, error streams |
//! | [`learners`] | Naive Bayes, MLP, adaptive wrappers |
//! | [`eval`] | drift metrics, experiment runners for every table/figure |
//! | [`stats`] | distributions, hypothesis tests, incremental statistics |
//!
//! The most common entry points are additionally re-exported at the crate
//! root.
//!
//! ## Quick start
//!
//! ```
//! use optwin::{DriftDetector, DriftStatus, Optwin, OptwinConfig};
//!
//! let mut detector = Optwin::new(
//!     OptwinConfig::builder()
//!         .confidence(0.99)
//!         .robustness(0.5)
//!         .max_window(2_000)
//!         .build()?,
//! )?;
//!
//! // Feed the per-prediction error of your online learner.
//! for i in 0..1_200u32 {
//!     let error_rate = if i < 800 { 0.05 } else { 0.40 };
//!     let observed = error_rate + 0.01 * f64::from(i % 5);
//!     if detector.add_element(observed) == DriftStatus::Drift {
//!         // Retrain / replace the learner here.
//!         assert!(i >= 800);
//!         break;
//!     }
//! }
//! # Ok::<(), optwin::core::CoreError>(())
//! ```
//!
//! See the `examples/` directory for end-to-end scenarios (spam-filter
//! adaptation, neural-network loss monitoring, detector comparison) and the
//! `optwin-bench` crate for the binaries that regenerate every table and
//! figure of the paper.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub use optwin_baselines as baselines;
pub use optwin_core as core;
pub use optwin_engine as engine;
pub use optwin_eval as eval;
pub use optwin_learners as learners;
pub use optwin_stats as stats;
pub use optwin_stream as stream;

pub use optwin_baselines::{
    Adwin, Cascade, CascadeConfig, Ddm, DetectorSpec, Ecdd, Eddm, Ensemble, EnsembleConfig, Kswin,
    PageHinkley, Stepd,
};
pub use optwin_core::{
    BatchOutcome, CutTable, CutTableRegistry, DriftDetector, DriftStatus, Optwin, OptwinConfig,
};
pub use optwin_engine::{
    load_checkpoint_dir, CallbackSink, CheckpointPolicy, CheckpointReport, DriftEvent,
    EngineBuilder, EngineHandle, EngineSnapshot, EngineStats, EventSink, FleetConfig,
    HibernationPolicy, JsonLinesSink, MemorySink, ShardLoad,
};
pub use optwin_eval::{
    default_lineup, paper_lineup, run_driftbench, run_table1, DriftbenchCell, DriftbenchConfig,
    DriftbenchReport, Table1Experiment,
};
pub use optwin_learners::{AdaptiveLearner, NaiveBayes, OnlineLearner};
pub use optwin_stream::{DriftSchedule, InstanceStream, ScenarioKind};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_reexports_are_usable() {
        let detector = Optwin::with_defaults().unwrap();
        assert_eq!(detector.name(), "OPTWIN");
        let lineup = paper_lineup(1_000);
        assert_eq!(lineup.len(), 8);
        let schedule = DriftSchedule::every(100, 1_000, 1);
        assert_eq!(schedule.n_drifts(), 9);
    }

    #[test]
    fn engine_reexports_are_usable() {
        let sink = std::sync::Arc::new(MemorySink::new());
        let adwin: DetectorSpec = "adwin".parse().unwrap();
        let handle: EngineHandle = EngineBuilder::new()
            .shards(2)
            .stream_spec(1, adwin.clone())
            .stream_spec(2, adwin)
            .sink(sink.clone())
            .build()
            .unwrap();
        handle.submit(&[(1, 0.0), (2, 0.0), (1, 1.0)]).unwrap();
        handle.flush().unwrap();
        let events: Vec<DriftEvent> = sink.drain();
        assert!(events.is_empty());
        let stats: EngineStats = handle.stats().unwrap();
        assert_eq!(stats.streams, 2);
        assert_eq!(stats.elements, 3);

        // The batch contract and the table registry are visible through the
        // facade too.
        let mut d = Optwin::with_defaults().unwrap();
        let outcome: BatchOutcome = d.add_batch(&[0.1, 0.2, 0.3]);
        assert!(!outcome.has_drift());
        // A key of its own: the default key's table was just grown to the
        // default w_max by `with_defaults`.
        let config = OptwinConfig::builder()
            .robustness(0.75)
            .max_window(64)
            .build()
            .unwrap();
        let table: std::sync::Arc<CutTable> =
            CutTableRegistry::global().get_or_build(&config).unwrap();
        assert_eq!(table.w_max(), 64);
    }
}
