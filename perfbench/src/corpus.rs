//! Seeded workload inputs. Every record a run submits is generated here,
//! before any timing starts, from the workload name and the seed alone.

use std::collections::BTreeMap;

use optwin_baselines::DetectorSpec;
use optwin_core::OptwinConfig;
use optwin_stream::{DriftKind, DriftSchedule, ErrorStream, ErrorStreamConfig};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 64 OPTWIN streams at the paper's defaults and at `w_max = 10 000`:
    /// cut-table set-up and detector ingest dominate.
    OptwinPaper,
    /// 16 384 cheap-detector streams under Zipf traffic: the handle and
    /// shard-worker paths dominate.
    FleetZipf,
    /// `FleetZipf` traffic with hibernation, explicit delta checkpoints, a
    /// write-ahead log and a timed recovery near the end.
    FleetDurable,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::OptwinPaper,
        Workload::FleetZipf,
        Workload::FleetDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OptwinPaper => "optwin-paper",
            Workload::FleetZipf => "fleet-zipf",
            Workload::FleetDurable => "fleet-durable",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn durable(self) -> bool {
        self == Workload::FleetDurable
    }
}

/// `optwin-paper`: streams, records per stream, and records of each stream
/// per submit.
const PAPER_STREAMS: usize = 64;
pub const PAPER_STREAM_LEN: usize = 150_000;
const PAPER_RUN: usize = 1_000;

/// The fleet workloads: streams, submits per pass, records per submit and
/// submits per flush barrier.
const FLEET_STREAMS: usize = 16_384;
const FLEET_SUBMITS: usize = 2_048;
const FLEET_SUBMIT_RECORDS: usize = 4_096;
const FLEET_FLUSH_EVERY: usize = 64;
/// Stream popularity is Zipf with this exponent (rank 1 = stream 0).
const FLEET_ZIPF: f64 = 1.1;
/// Bursts carry 1..=this many consecutive records of one stream.
const FLEET_MAX_BURST: u64 = 16;
/// Detector specs of the fleet, rotating by stream id.
const FLEET_SPECS: [&str; 4] = ["ddm", "page_hinkley", "eddm", "adwin"];

/// SplitMix64: a small, fast, seedable generator for the traffic shape.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// A seed for one stream, derived from the run seed.
fn stream_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// One workload's inputs: per-stream detector specs, the submit batches in
/// order, and the map from each record to the submit that carries it.
pub struct Corpus {
    /// The spec of stream `i` is `specs[i]`.
    pub specs: Vec<DetectorSpec>,
    /// The record batches, in submit order.
    pub submits: Vec<Vec<(u64, f64)>>,
    /// A flush barrier follows every this many submits, and the last one.
    pub flush_every: usize,
    /// Per stream, the `(first seq, submit index)` of each run of that
    /// stream's records carried by one submit, in seq order.
    runs: Vec<Vec<(u64, u32)>>,
    /// Records of each stream in one pass.
    lens: Vec<u64>,
    /// Per stream, its whole value sequence (the oracle's input). Emptied
    /// once the reference is computed.
    pub values: Vec<Vec<f64>>,
}

impl Corpus {
    /// The full-size inputs of `workload` for `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Self {
        match workload {
            Workload::OptwinPaper => Self::optwin_paper(seed, PAPER_STREAMS, PAPER_STREAM_LEN),
            Workload::FleetZipf | Workload::FleetDurable => {
                Self::fleet(seed, FLEET_STREAMS, FLEET_SUBMITS)
            }
        }
    }

    /// Binary error streams with abrupt or gradual drifts at seeded
    /// positions; the first half of the streams run the paper-default
    /// OPTWIN, the second half OPTWIN with `w_max = 10 000`. Each submit
    /// carries [`PAPER_RUN`] consecutive records of every stream.
    pub fn optwin_paper(seed: u64, streams: usize, stream_len: usize) -> Self {
        let paper: DetectorSpec = "optwin".parse().expect("valid spec");
        let small: DetectorSpec = "optwin:w_max=10000".parse().expect("valid spec");
        let mut specs = Vec::with_capacity(streams);
        let mut values = Vec::with_capacity(streams);
        for stream in 0..streams as u64 {
            specs.push(if (stream as usize) < streams / 2 {
                paper.clone()
            } else {
                small.clone()
            });
            let mut rng = SplitMix64::new(stream_seed(seed, stream));
            // Concepts last 10k-50k records: long enough for a
            // 25k window to fill between drifts.
            let mut positions = Vec::new();
            let mut at = rng.range(10_000, 50_000) as usize;
            while at < stream_len {
                positions.push(at);
                at += rng.range(10_000, 50_000) as usize;
            }
            let (kind, width) = if rng.next_u64().is_multiple_of(2) {
                (DriftKind::Sudden, 1)
            } else {
                (DriftKind::Gradual, rng.range(500, 3_000) as usize)
            };
            let schedule = DriftSchedule::new(positions, width, stream_len);
            let config = ErrorStreamConfig::binary(kind, schedule);
            values.push(ErrorStream::new(config, rng.next_u64()).collect_all());
        }
        let submits = (0..stream_len.div_ceil(PAPER_RUN))
            .map(|run| {
                let range = run * PAPER_RUN..((run + 1) * PAPER_RUN).min(stream_len);
                values
                    .iter()
                    .enumerate()
                    .flat_map(|(stream, v)| {
                        v[range.clone()].iter().map(move |&x| (stream as u64, x))
                    })
                    .collect()
            })
            .collect();
        Self::assemble(specs, submits, usize::MAX, values)
    }

    /// Zipf-popular streams, each pick emitting a burst of 1-16 Bernoulli
    /// errors whose rate alternates between a seeded low and high level
    /// every seeded number of the stream's records. Records are packed
    /// into [`FLEET_SUBMIT_RECORDS`]-record submits.
    pub fn fleet(seed: u64, streams: usize, submits: usize) -> Self {
        let specs: Vec<DetectorSpec> = (0..streams)
            .map(|stream| {
                FLEET_SPECS[stream % FLEET_SPECS.len()]
                    .parse()
                    .expect("valid spec")
            })
            .collect();
        // (period, low rate, high rate) of each stream's error process.
        let shape: Vec<(u64, f64, f64)> = (0..streams as u64)
            .map(|stream| {
                let mut rng = SplitMix64::new(stream_seed(seed, stream));
                let period = rng.range(2_000, 20_000);
                let low = 0.02 + 0.08 * rng.next_f64();
                let high = 0.25 + 0.20 * rng.next_f64();
                (period, low, high)
            })
            .collect();
        let mut cumulative = Vec::with_capacity(streams);
        let mut total = 0.0;
        for rank in 1..=streams {
            total += 1.0 / (rank as f64).powf(FLEET_ZIPF);
            cumulative.push(total);
        }

        let mut rng = SplitMix64::new(seed ^ 0xD1B5_4A32_D192_ED03);
        let mut seqs = vec![0u64; streams];
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); streams];
        let wanted = submits * FLEET_SUBMIT_RECORDS;
        let mut records = Vec::with_capacity(wanted);
        while records.len() < wanted {
            let u = rng.next_f64() * total;
            let stream = cumulative.partition_point(|&c| c <= u).min(streams - 1);
            let (period, low, high) = shape[stream];
            for _ in 0..rng.range(1, FLEET_MAX_BURST) {
                let seq = seqs[stream];
                let rate = if (seq / period).is_multiple_of(2) {
                    low
                } else {
                    high
                };
                let value = f64::from(u8::from(rng.next_f64() < rate));
                values[stream].push(value);
                records.push((stream as u64, value));
                seqs[stream] += 1;
            }
        }
        // The last burst may overshoot: drop its tail from both views.
        for &(stream, _) in &records[wanted..] {
            values[stream as usize].pop();
        }
        records.truncate(wanted);
        let submits = records
            .chunks(FLEET_SUBMIT_RECORDS)
            .map(<[(u64, f64)]>::to_vec)
            .collect();
        Self::assemble(specs, submits, FLEET_FLUSH_EVERY, values)
    }

    fn assemble(
        specs: Vec<DetectorSpec>,
        submits: Vec<Vec<(u64, f64)>>,
        flush_every: usize,
        values: Vec<Vec<f64>>,
    ) -> Self {
        let mut runs: Vec<Vec<(u64, u32)>> = vec![Vec::new(); specs.len()];
        let mut seqs = vec![0u64; specs.len()];
        for (index, batch) in submits.iter().enumerate() {
            let index = u32::try_from(index).expect("fewer than 2^32 submits");
            for &(stream, _) in batch {
                let stream = stream as usize;
                if runs[stream].last().map(|&(_, i)| i) != Some(index) {
                    runs[stream].push((seqs[stream], index));
                }
                seqs[stream] += 1;
            }
        }
        Self {
            specs,
            submits,
            flush_every,
            runs,
            lens: seqs,
            values,
        }
    }

    /// Records in one pass over the corpus.
    pub fn records(&self) -> u64 {
        self.submits.iter().map(|b| b.len() as u64).sum()
    }

    /// Flush barriers in one pass.
    pub fn flushes(&self) -> usize {
        (0..self.submits.len())
            .filter(|&i| self.flush_after(i))
            .count()
    }

    /// Whether a flush barrier follows submit `index`.
    pub fn flush_after(&self, index: usize) -> bool {
        (index + 1).is_multiple_of(self.flush_every) || index + 1 == self.submits.len()
    }

    /// The index of the submit that carries record `seq` of `stream`.
    pub fn submit_of(&self, stream: u64, seq: u64) -> Option<usize> {
        let runs = self.runs.get(stream as usize)?;
        let at = runs.partition_point(|&(first, _)| first <= seq);
        let (_, index) = *runs.get(at.checked_sub(1)?)?;
        (seq < self.lens[stream as usize]).then_some(index as usize)
    }

    /// The runs of `stream`, as half-open seq ranges in submit order — the
    /// batches the engine's shard worker hands that stream's detector.
    pub fn stream_runs(&self, stream: u64) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        let runs = &self.runs[stream as usize];
        let end = self.lens[stream as usize] as usize;
        runs.iter().enumerate().map(move |(i, &(first, _))| {
            let next = runs.get(i + 1).map_or(end, |&(n, _)| n as usize);
            first as usize..next
        })
    }

    /// The distinct OPTWIN configurations among the specs, keyed by spec text.
    pub fn optwin_configs(&self) -> BTreeMap<String, OptwinConfig> {
        self.specs
            .iter()
            .filter_map(|spec| match spec {
                DetectorSpec::Optwin { config } => Some((spec.to_string(), config.clone())),
                _ => None,
            })
            .collect()
    }
}
