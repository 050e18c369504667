//! Multi-stream replay driver modelling production traffic.
//!
//! The Table 1 runner feeds every stream the same chunk in lock-step — a
//! benchmark convenience, not what a fleet serving real users sees. In
//! production, traffic across streams is heavily skewed (a few hot streams
//! dominate) and arrives in interleaved bursts per stream, not in global
//! rounds. [`replay`] reproduces that shape on top of the ordinary
//! [`EngineHandle::submit`] ingestion path:
//!
//! * each source stream is assigned a **Zipf weight** by its rank in the
//!   source list (`weight ∝ 1 / rank^s`, rank 1 = hottest — the classic
//!   web-traffic skew);
//! * the driver repeatedly samples a stream from that distribution and
//!   submits its next **burst** of up to [`ReplayConfig::burst`] pending
//!   values as one record batch;
//! * a stream's own values are always submitted in sequence order, so
//!   per-stream detection results are **bit-identical** to a sequential
//!   feed (the engine's per-stream ordering contract) while the global
//!   arrival order interleaves thousands of streams — exactly the traffic
//!   the `driftbench` grid runs its detector fleet under.
//!
//! The driver is deterministic in [`ReplayConfig::seed`], so a replayed
//! grid is exactly reproducible.

use crate::error::EngineError;
use crate::handle::EngineHandle;

/// Configuration of a [`replay`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayConfig {
    /// Zipf exponent `s` of the per-stream traffic weights (`weight ∝
    /// 1 / rank^s`). `0` flattens the distribution to uniform; `1.1` is a
    /// typical web-traffic skew. Must be finite and non-negative.
    pub zipf_exponent: f64,
    /// Maximum number of values drained from the sampled stream per
    /// submission burst. Must be positive.
    pub burst: usize,
    /// Seed of the driver's deterministic sampler.
    pub seed: u64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self {
            zipf_exponent: 1.1,
            burst: 256,
            seed: 0,
        }
    }
}

impl ReplayConfig {
    /// A config with the given seed and the default skew/burst.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }
}

/// Summary of one [`replay`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Number of source streams replayed.
    pub streams: usize,
    /// Total records submitted.
    pub records: u64,
    /// Number of `submit` calls (bursts) issued.
    pub bursts: u64,
    /// Stream ids in the order they were fully drained. Under a skewed
    /// config the hot (low-rank) streams finish early because they are
    /// sampled more often.
    pub completion_order: Vec<u64>,
}

/// SplitMix64 — a tiny deterministic generator, enough for burst sampling
/// (the vendored `rand` shim lives above this crate in the dependency
/// graph, and the driver only needs uniform `f64`s).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Replays `sources` — `(stream id, value sequence)` pairs, hottest first —
/// into the engine through [`EngineHandle::submit`], interleaving
/// Zipf-skewed bursts until every sequence is drained. Does **not** flush;
/// call [`EngineHandle::flush`] afterwards to drain the shard queues.
///
/// Per-stream value order is preserved, so detector decisions per stream
/// are identical to a sequential feed regardless of the interleaving.
///
/// # Errors
///
/// Propagates any [`EngineError`] from `submit` (e.g. a shut-down engine).
///
/// # Panics
///
/// Panics if `config.zipf_exponent` is negative or non-finite, or
/// `config.burst` is zero. Duplicate stream ids in `sources` are allowed
/// (the engine appends to the same stream), but the relative order of the
/// duplicates' values is then sampling-dependent — give each source a
/// unique id for reproducible per-stream sequences.
pub fn replay(
    handle: &EngineHandle,
    sources: &[(u64, &[f64])],
    config: &ReplayConfig,
) -> Result<ReplayReport, EngineError> {
    assert!(
        config.zipf_exponent.is_finite() && config.zipf_exponent >= 0.0,
        "zipf_exponent must be finite and non-negative"
    );
    assert!(config.burst > 0, "burst must be positive");

    // Per-source cursor + cumulative Zipf weights over the still-active
    // sources. The cumulative table is rebuilt whenever a source drains
    // (O(active) each time; with n sources that is O(n^2) total — fine for
    // the "thousands of streams" regime this driver targets).
    let mut active: Vec<usize> = (0..sources.len()).collect();
    let mut offsets: Vec<usize> = vec![0; sources.len()];
    let mut cumulative: Vec<f64> = Vec::with_capacity(sources.len());
    let weight = |source_index: usize| 1.0 / ((source_index + 1) as f64).powf(config.zipf_exponent);
    let rebuild = |active: &[usize], cumulative: &mut Vec<f64>| {
        cumulative.clear();
        let mut total = 0.0;
        for &i in active {
            total += weight(i);
            cumulative.push(total);
        }
    };
    rebuild(&active, &mut cumulative);

    let mut rng = SplitMix64(config.seed ^ 0xD1B5_4A32_D192_ED03);
    let mut records: Vec<(u64, f64)> = Vec::with_capacity(config.burst);
    let mut report = ReplayReport {
        streams: sources.len(),
        records: 0,
        bursts: 0,
        completion_order: Vec::with_capacity(sources.len()),
    };

    while let Some(&total) = cumulative.last() {
        // Sample an active source by its Zipf weight.
        let u = rng.next_f64() * total;
        let slot = cumulative
            .partition_point(|&c| c <= u)
            .min(active.len() - 1);
        let source_index = active[slot];
        let (stream, values) = sources[source_index];

        let offset = offsets[source_index];
        let take = config.burst.min(values.len() - offset);
        records.clear();
        records.extend(values[offset..offset + take].iter().map(|&v| (stream, v)));
        if take > 0 {
            handle.submit(&records)?;
            report.records += take as u64;
            report.bursts += 1;
        }
        offsets[source_index] = offset + take;

        if offsets[source_index] >= values.len() {
            report.completion_order.push(stream);
            active.remove(slot);
            rebuild(&active, &mut cumulative);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::builder::EngineBuilder;
    use crate::sink::{EventSink, MemorySink};

    use optwin_baselines::DetectorSpec;

    /// Deterministic pseudo-random binary error value.
    fn val(i: u64) -> f64 {
        f64::from(SplitMix64(i).next_f64() < 0.2)
    }

    fn build_engine(streams: u64, shards: usize) -> (crate::handle::EngineHandle, Arc<MemorySink>) {
        let sink = Arc::new(MemorySink::new());
        let mut builder = EngineBuilder::new()
            .shards(shards)
            .sink(Arc::clone(&sink) as Arc<dyn EventSink>);
        for id in 0..streams {
            builder = builder.stream_spec(id, "ddm".parse::<DetectorSpec>().unwrap());
        }
        (builder.build().unwrap(), sink)
    }

    #[test]
    fn replay_matches_sequential_feed_bit_exactly() {
        const STREAMS: u64 = 16;
        const LEN: usize = 3_000;
        let sequences: Vec<Vec<f64>> = (0..STREAMS)
            .map(|s| (0..LEN).map(|i| val(s * 1_000_000 + i as u64)).collect())
            .collect();
        let sources: Vec<(u64, &[f64])> = sequences
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u64, v.as_slice()))
            .collect();

        // Reference: plain sequential per-stream submission.
        let (handle, sink) = build_engine(STREAMS, 4);
        for (id, values) in &sources {
            let records: Vec<(u64, f64)> = values.iter().map(|&v| (*id, v)).collect();
            handle.submit(&records).unwrap();
        }
        handle.flush().unwrap();
        let mut reference: Vec<(u64, u64)> =
            sink.drain().iter().map(|e| (e.stream, e.seq)).collect();
        reference.sort_unstable();
        handle.shutdown().unwrap();

        // Zipf-interleaved replay must produce the same events per stream.
        let (handle, sink) = build_engine(STREAMS, 4);
        let report = replay(&handle, &sources, &ReplayConfig::with_seed(42)).unwrap();
        handle.flush().unwrap();
        let mut replayed: Vec<(u64, u64)> =
            sink.drain().iter().map(|e| (e.stream, e.seq)).collect();
        replayed.sort_unstable();
        handle.shutdown().unwrap();

        assert_eq!(replayed, reference);
        assert_eq!(report.records, STREAMS * LEN as u64);
        assert_eq!(report.streams, STREAMS as usize);
        // Interleaving actually happened: far more bursts than streams.
        assert!(report.bursts > STREAMS * 2, "bursts = {}", report.bursts);
        assert_eq!(report.completion_order.len(), STREAMS as usize);
    }

    #[test]
    fn replay_is_deterministic_in_the_seed() {
        let sequences: Vec<Vec<f64>> = (0..8u64)
            .map(|s| (0..500).map(|i| val(s * 7_919 + i)).collect())
            .collect();
        let sources: Vec<(u64, &[f64])> = sequences
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u64, v.as_slice()))
            .collect();
        let run = |seed: u64| {
            let (handle, _sink) = build_engine(8, 2);
            let report = replay(&handle, &sources, &ReplayConfig::with_seed(seed)).unwrap();
            handle.shutdown().unwrap();
            report
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).completion_order, run(8).completion_order);
    }

    #[test]
    fn skewed_replay_drains_hot_streams_first() {
        // Rank-0 gets weight 1, rank-63 gets 1/64^2 = 1/4096 under s = 2:
        // with equal sequence lengths the hot stream must finish in the
        // first few completions and the coldest in the last few.
        let sequences: Vec<Vec<f64>> = (0..64u64)
            .map(|s| (0..400).map(|i| val(s * 104_729 + i)).collect())
            .collect();
        let sources: Vec<(u64, &[f64])> = sequences
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u64, v.as_slice()))
            .collect();
        let (handle, _sink) = build_engine(64, 2);
        let config = ReplayConfig {
            zipf_exponent: 2.0,
            burst: 32,
            seed: 3,
        };
        let report = replay(&handle, &sources, &config).unwrap();
        handle.flush().unwrap();
        handle.shutdown().unwrap();

        let rank_of = |stream: u64| {
            report
                .completion_order
                .iter()
                .position(|&s| s == stream)
                .unwrap()
        };
        assert!(rank_of(0) < 8, "hot stream finished at {}", rank_of(0));
        assert!(rank_of(63) > 32, "cold stream finished at {}", rank_of(63));
    }

    #[test]
    fn uniform_exponent_flattens_the_skew() {
        let sequences: Vec<Vec<f64>> = (0..4u64)
            .map(|s| (0..2_000).map(|i| val(s + i)).collect())
            .collect();
        let sources: Vec<(u64, &[f64])> = sequences
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u64, v.as_slice()))
            .collect();
        let (handle, _sink) = build_engine(4, 1);
        let config = ReplayConfig {
            zipf_exponent: 0.0,
            burst: 100,
            seed: 9,
        };
        let report = replay(&handle, &sources, &config).unwrap();
        handle.shutdown().unwrap();
        // 4 streams x 2000 elements / 100 burst = 80 full bursts.
        assert_eq!(report.records, 8_000);
        assert_eq!(report.bursts, 80);
    }

    #[test]
    #[should_panic(expected = "burst must be positive")]
    fn rejects_zero_burst() {
        let (handle, _sink) = build_engine(1, 1);
        let config = ReplayConfig {
            burst: 0,
            ..ReplayConfig::default()
        };
        let _ = replay(&handle, &[(0, &[0.0])], &config);
    }

    #[test]
    #[should_panic(expected = "zipf_exponent must be finite")]
    fn rejects_negative_exponent() {
        let (handle, _sink) = build_engine(1, 1);
        let config = ReplayConfig {
            zipf_exponent: -1.0,
            ..ReplayConfig::default()
        };
        let _ = replay(&handle, &[(0, &[0.0])], &config);
    }

    #[test]
    fn empty_sources_are_a_no_op() {
        let (handle, _sink) = build_engine(1, 1);
        let report = replay(&handle, &[], &ReplayConfig::default()).unwrap();
        assert_eq!(report.records, 0);
        assert_eq!(report.bursts, 0);
        assert!(report.completion_order.is_empty());
        // An empty sequence completes immediately without a submit.
        let report = replay(&handle, &[(5, &[])], &ReplayConfig::default()).unwrap();
        assert_eq!(report.records, 0);
        assert_eq!(report.bursts, 0);
        assert_eq!(report.completion_order, vec![5]);
        handle.shutdown().unwrap();
    }
}
