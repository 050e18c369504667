//! Self-tests of the benchmark's own machinery, on small corpora.

use crate::bench::Bench;
use crate::corpus::{Corpus, Workload};
use crate::oracle;

fn work_dir(name: &str) -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create test work dir");
    dir
}

#[test]
fn same_seed_gives_identical_records() {
    let a = Corpus::fleet(7, 256, 16);
    let b = Corpus::fleet(7, 256, 16);
    assert_eq!(a.submits, b.submits);
    assert_ne!(a.submits, Corpus::fleet(8, 256, 16).submits);

    let a = Corpus::optwin_paper(7, 4, 3_000);
    let b = Corpus::optwin_paper(7, 4, 3_000);
    assert_eq!(a.submits, b.submits);
    assert_ne!(a.submits, Corpus::optwin_paper(8, 4, 3_000).submits);
}

#[test]
fn lag_mapping_finds_the_submit_of_every_record() {
    for corpus in [Corpus::fleet(3, 256, 24), Corpus::optwin_paper(3, 4, 5_500)] {
        let mut seqs = vec![0u64; corpus.specs.len()];
        for (index, batch) in corpus.submits.iter().enumerate() {
            for &(stream, _) in batch {
                let seq = &mut seqs[stream as usize];
                assert_eq!(
                    corpus.submit_of(stream, *seq),
                    Some(index),
                    "stream {stream} seq {seq}"
                );
                *seq += 1;
            }
        }
        for (stream, &len) in seqs.iter().enumerate() {
            assert_eq!(corpus.submit_of(stream as u64, len), None);
            assert_eq!(corpus.values[stream].len() as u64, len);
        }
    }
}

#[test]
fn oracle_flags_a_dropped_and_an_extra_event() {
    let reference = vec![(1, 10), (1, 40), (3, 7)];
    assert_eq!(oracle::mismatches(&reference, &reference), 0);
    assert_eq!(oracle::mismatches(&reference, &[(1, 10), (3, 7)]), 1);
    assert_eq!(
        oracle::mismatches(&reference, &[(1, 10), (1, 40), (2, 1), (3, 7)]),
        1
    );
    assert_eq!(oracle::mismatches(&reference, &[]), 3);
}

/// A real pass agrees with the reference; dropping one of its events is
/// caught.
#[test]
fn engine_pass_matches_reference_and_a_dropped_event_is_caught() {
    let dir = work_dir("pass");
    let mut bench = Bench::new(Workload::FleetZipf, Corpus::fleet(5, 64, 48), dir.clone());
    bench.compute_reference().expect("reference");
    let events = bench.reference.events.clone();
    assert!(events.len() > 1, "the corpus yields drift events");
    let (result, handle) = bench.pass(2, true).expect("pass");
    bench.close(handle, result.pass, true).expect("close");
    assert_eq!(result.mismatched, 0);
    assert_eq!(result.events, events.len() as u64);
    assert_eq!(result.lags_ms.len(), events.len());
    assert!(result.lags_ms.iter().all(|&lag| lag >= 0.0));

    let dropped: Vec<_> = events.iter().skip(1).copied().collect();
    assert_eq!(oracle::mismatches(&events, &dropped), 1);
    std::fs::remove_dir_all(dir).expect("clean up");
}

/// The durable pass crashes, recovers, replays its log tail and still
/// reproduces the reference exactly once per event.
#[test]
fn durable_pass_recovers_and_deduplicates_replayed_events() {
    let dir = work_dir("durable");
    let mut corpus = Corpus::fleet(11, 64, 48);
    corpus.flush_every = 6;
    let mut bench = Bench::new(Workload::FleetDurable, corpus, dir.clone());
    bench.compute_reference().expect("reference");
    let (result, handle) = bench.pass(2, true).expect("pass");
    bench.close(handle, result.pass, true).expect("close");
    let recovery = result.recovery.expect("the pass recovered");
    assert!(
        recovery.wal_bytes > 0,
        "the crash left a log tail to replay"
    );
    assert_eq!(result.mismatched, 0);
    assert_eq!(result.events, bench.reference.events.len() as u64);
    std::fs::remove_dir_all(dir).expect("clean up");
}
