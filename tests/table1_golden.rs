//! Table 1 golden: the paper line-up over all seven experiments, plus the
//! example fleet (`configs/fleet_example.json`) on sudden-binary, rendered
//! by `render_table1` and pinned byte-for-byte against
//! `tests/fixtures/table1/golden.txt`.
//!
//! The grid is deterministic and identical for every shard count, so the
//! test renders it at 1 and at 2 shards and both must equal the fixture.
//!
//! Regenerate the fixture (only after a deliberate change to detection
//! results) with:
//!
//! ```text
//! cargo test --test table1_golden regenerate_table1_golden -- --ignored
//! ```

use std::path::PathBuf;

use optwin::eval::report::render_table1;
use optwin::{paper_lineup, run_table1, FleetConfig, Table1Experiment};

const REPETITIONS: usize = 2;
const STREAM_LEN: usize = 4_000;
const OPTWIN_W_MAX: usize = 800;
const SEED: u64 = 20_240_614;

fn repo_path(parts: &[&str]) -> PathBuf {
    parts
        .iter()
        .fold(PathBuf::from(env!("CARGO_MANIFEST_DIR")), |p, part| {
            p.join(part)
        })
}

fn fixture_path() -> PathBuf {
    repo_path(&["tests", "fixtures", "table1", "golden.txt"])
}

/// Renders the whole golden grid at the given shard count: one table per
/// experiment for the paper line-up, then the example fleet.
fn render_grid(shards: usize) -> String {
    let run = |experiment, detectors: &[(String, _)]| {
        let rows = run_table1(
            experiment,
            detectors,
            REPETITIONS,
            Some(STREAM_LEN),
            SEED,
            Some(shards),
        );
        render_table1(&rows)
    };
    let lineup = paper_lineup(OPTWIN_W_MAX);
    let mut out = String::new();
    for experiment in Table1Experiment::all() {
        out.push_str(&run(experiment, &lineup));
        out.push('\n');
    }
    // The fleet rows carry the `table1 --fleet` labels.
    let fleet = FleetConfig::from_path(repo_path(&["configs", "fleet_example.json"]))
        .expect("example fleet loads");
    let entries: Vec<_> = fleet
        .streams
        .into_iter()
        .map(|(stream, spec)| (format!("#{stream} {}", spec.id()), spec))
        .collect();
    out.push_str(&run(Table1Experiment::SuddenBinary, &entries));
    out
}

fn load_golden() -> String {
    std::fs::read_to_string(fixture_path()).expect(
        "tests/fixtures/table1/golden.txt missing — regenerate with \
         `cargo test --test table1_golden regenerate_table1_golden -- --ignored`",
    )
}

#[test]
fn table1_matches_golden_at_one_shard() {
    assert_eq!(render_grid(1), load_golden());
}

#[test]
fn table1_matches_golden_at_two_shards() {
    assert_eq!(render_grid(2), load_golden());
}

#[test]
#[ignore = "regenerates tests/fixtures/table1/golden.txt; run only after a deliberate change to detection results"]
fn regenerate_table1_golden() {
    std::fs::create_dir_all(fixture_path().parent().unwrap()).expect("fixture dir");
    std::fs::write(fixture_path(), render_grid(1)).expect("fixture written");
    println!("regenerated {}", fixture_path().display());
}
