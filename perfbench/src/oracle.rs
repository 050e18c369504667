//! The correctness oracle: every stream's whole sequence run through a
//! standalone detector on one thread, outside any engine. Its drift events
//! are what each engine pass must reproduce, and its per-call timings are
//! the single-threaded detector baseline.

use std::time::Instant;

use optwin_baselines::DetectorSpec;
use optwin_core::CoreError;

use crate::corpus::Corpus;

/// Per-element solo cost of one OPTWIN `w_max`, for the §3.4 check.
#[derive(Debug, Clone, Copy, Default)]
pub struct SoloCost {
    pub seconds: f64,
    pub records: u64,
}

impl SoloCost {
    pub fn ns_per_record(self) -> f64 {
        self.seconds * 1e9 / self.records.max(1) as f64
    }
}

/// The reference result of one pass over a corpus.
#[derive(Debug, Default)]
pub struct Reference {
    /// Drift events as sorted `(stream, seq)` pairs.
    pub events: Vec<(u64, u64)>,
    /// Seconds spent inside `add_batch`, summed over every call.
    pub solo_s: f64,
    /// Solo cost of the paper-default (`w_max = 25 000`) OPTWIN streams.
    pub w25k: SoloCost,
    /// Solo cost of the `w_max = 10 000` OPTWIN streams.
    pub w10k: SoloCost,
}

/// Runs each stream's sequence through `spec.build()` + `add_batch`, one call
/// per run of records a submit carries (the batches the engine's shard
/// worker forms), timing each call.
pub fn reference(corpus: &Corpus) -> Result<Reference, CoreError> {
    let mut out = Reference::default();
    for (stream, spec) in corpus.specs.iter().enumerate() {
        let stream = stream as u64;
        let values = &corpus.values[stream as usize];
        let mut detector = spec.build()?;
        let mut seconds = 0.0;
        for run in corpus.stream_runs(stream) {
            let first = run.start as u64;
            let started = Instant::now();
            let outcome = detector.add_batch(&values[run]);
            seconds += started.elapsed().as_secs_f64();
            out.events.extend(
                outcome
                    .drift_indices
                    .iter()
                    .map(|&i| (stream, first + i as u64)),
            );
        }
        out.solo_s += seconds;
        let cost = match spec {
            DetectorSpec::Optwin { config } if config.w_max == 25_000 => Some(&mut out.w25k),
            DetectorSpec::Optwin { config } if config.w_max == 10_000 => Some(&mut out.w10k),
            _ => None,
        };
        if let Some(cost) = cost {
            cost.seconds += seconds;
            cost.records += values.len() as u64;
        }
    }
    out.events.sort_unstable();
    Ok(out)
}

/// Events in `expected` but not `observed`, plus events in `observed` but not
/// `expected`; both slices sorted and free of duplicates.
pub fn mismatches(expected: &[(u64, u64)], observed: &[(u64, u64)]) -> u64 {
    let (mut i, mut j, mut diff) = (0, 0, 0);
    while i < expected.len() && j < observed.len() {
        match expected[i].cmp(&observed[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                i += 1;
                diff += 1;
            }
            std::cmp::Ordering::Greater => {
                j += 1;
                diff += 1;
            }
        }
    }
    diff + (expected.len() - i) as u64 + (observed.len() - j) as u64
}
