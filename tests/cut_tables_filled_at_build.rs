//! `EngineBuilder::build` fills every OPTWIN cut table its specs can reach
//! before the shard workers serve a record, so no worker computes a table
//! entry. The test watches the process-wide `CutTableRegistry` grow across
//! `build()` with nothing submitted to the built engine. It is this file's
//! only test, so the process's registry is its own.

use optwin::{CutTableRegistry, DetectorSpec, EngineBuilder, HibernationPolicy};

fn spec(text: &str) -> DetectorSpec {
    text.parse().expect("valid spec string")
}

#[test]
fn engine_build_fills_every_reachable_cut_table() {
    let registry = CutTableRegistry::global();

    // A pre-registered OPTWIN stream.
    let before = registry.len();
    let engine = EngineBuilder::new()
        .shards(2)
        .stream_spec(3, spec("optwin:rho=0.6,w_max=800"))
        .build()
        .expect("valid engine");
    assert_eq!(registry.len(), before + 1, "pre-registered OPTWIN stream");
    engine.shutdown().expect("clean shutdown");

    // A cascade whose dormant confirmer is OPTWIN: a guard escalation would
    // build the confirmer on a worker.
    let before = registry.len();
    let engine = EngineBuilder::new()
        .shards(2)
        .stream_spec(
            5,
            spec("cascade:guard=page_hinkley,confirm=[optwin:rho=0.7,w_max=800]"),
        )
        .build()
        .expect("valid engine");
    assert_eq!(registry.len(), before + 1, "cascade confirmer");
    engine.shutdown().expect("clean shutdown");

    // An OPTWIN stream restored asleep: it would wake on a worker.
    let hibernating = || {
        EngineBuilder::new()
            .shards(2)
            .hibernation(HibernationPolicy::cold_after_flushes(0))
    };
    let engine = hibernating()
        .stream_spec(7, spec("optwin:rho=0.8,w_max=600"))
        .build()
        .expect("valid engine");
    engine.submit(&[(7, 0.25); 50]).expect("engine running");
    engine.flush().expect("no ingestion errors");
    assert_eq!(engine.stats().expect("stats").hibernated_streams(), 1);
    let snapshot = engine.snapshot().expect("snapshot");
    engine.shutdown().expect("clean shutdown");

    registry.clear();
    let engine = hibernating().restore(snapshot).build().expect("restore");
    assert_eq!(
        engine.stats().expect("stats").hibernated_streams(),
        1,
        "the stream must come back asleep"
    );
    assert_eq!(registry.len(), 1, "OPTWIN stream restored asleep");
    engine.shutdown().expect("clean shutdown");
}
