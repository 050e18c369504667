//! Drives the engine through its public API: cold set-up, timed ingest
//! passes, crash recovery and snapshot restore. Every call is counted, and
//! in a traced pass wrapped in a [`Span`](crate::trace::Span).

use std::collections::HashSet;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use optwin_core::CutTableRegistry;
use optwin_engine::{
    load_checkpoint_dir, CallbackSink, CheckpointPolicy, Durability, EngineBuilder, EngineHandle,
    EngineSnapshot, EventSink, HibernationPolicy,
};

use crate::corpus::{Corpus, Workload};
use crate::oracle::{self, Reference};
use crate::trace::Tracer;

/// `fleet-durable` checkpoints after every this many flushes. Its engine
/// goes down, without a final checkpoint, after the last flush but
/// [`CRASH_BEFORE_END`]; the traffic after it goes through the recovered
/// engine.
pub const CHECKPOINT_EVERY: usize = 4;
pub const CRASH_BEFORE_END: usize = 2;

pub type BenchResult<T> = Result<T, Box<dyn Error>>;

/// One drift event as the timing sink saw it.
struct Arrival {
    stream: u64,
    seq: u64,
    at: Instant,
    drift: bool,
    /// Emitted while a recovery replayed the write-ahead log.
    replay: bool,
}

/// The timing sink's store: each event is stamped on arrival.
#[derive(Default)]
struct Arrivals {
    events: Mutex<Vec<Arrival>>,
    replaying: AtomicBool,
}

impl Arrivals {
    fn sink(self: &Arc<Self>) -> Arc<dyn EventSink> {
        let arrivals = Arc::clone(self);
        Arc::new(CallbackSink::new(move |event| {
            let arrival = Arrival {
                stream: event.stream,
                seq: event.seq,
                at: Instant::now(),
                drift: event.is_drift(),
                replay: arrivals.replaying.load(Ordering::SeqCst),
            };
            arrivals
                .events
                .lock()
                .expect("no sink callback panics while holding the lock")
                .push(arrival);
        }))
    }

    fn take(&self) -> Vec<Arrival> {
        std::mem::take(&mut *self.events.lock().expect("no sink callback panicked"))
    }
}

/// Counts public calls and, when a trace context (`Some(pass)`) is given,
/// records a span around each.
pub struct Ledger {
    pub tracer: Tracer,
    pub calls: u64,
    pub failed_calls: u64,
}

impl Ledger {
    /// Counts a call that began at `start` and returned `out`, recording
    /// `value(&result)` on its span.
    fn finish_counted<T, E>(
        &mut self,
        name: &'static str,
        trace: Option<u32>,
        start: Instant,
        out: Result<T, E>,
        value: impl FnOnce(&T) -> u64,
    ) -> Result<T, E> {
        let end = Instant::now();
        self.calls += 1;
        let value = match &out {
            Ok(result) => value(result),
            Err(_) => {
                self.failed_calls += 1;
                0
            }
        };
        if let Some(pass) = trace {
            self.tracer.record(name, pass, start, end, value);
        }
        out
    }

    fn finish<T, E>(
        &mut self,
        name: &'static str,
        trace: Option<u32>,
        start: Instant,
        out: Result<T, E>,
    ) -> Result<T, E> {
        self.finish_counted(name, trace, start, out, |_| 0)
    }

    fn call<T, E>(
        &mut self,
        name: &'static str,
        trace: Option<u32>,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        let start = Instant::now();
        let out = f();
        self.finish(name, trace, start, out)
    }

    /// Like [`Ledger::call`], recording `value(&result)` on the span.
    fn call_counted<T, E>(
        &mut self,
        name: &'static str,
        trace: Option<u32>,
        f: impl FnOnce() -> Result<T, E>,
        value: impl FnOnce(&T) -> u64,
    ) -> Result<T, E> {
        let start = Instant::now();
        let out = f();
        self.finish_counted(name, trace, start, out, value)
    }
}

/// One cold set-up: an empty cut-table registry to `build()` returning.
#[derive(Debug, Clone, Copy)]
pub struct SetupSample {
    pub setup_s: f64,
    /// The part spent in `get_or_build` + `precompute_all`.
    pub cut_s: f64,
    pub tables: usize,
    pub entries: usize,
}

/// A timed recovery of `fleet-durable`.
#[derive(Debug, Clone, Copy)]
pub struct Recovery {
    pub total_s: f64,
    /// Bytes of write-ahead-log segments on disk when recovery started.
    pub wal_bytes: u64,
}

/// What one ingest pass measured.
#[derive(Debug, Clone)]
pub struct PassResult {
    pub pass: u32,
    pub shards: usize,
    pub traced: bool,
    pub records: u64,
    /// First `submit` to the last `flush` returning, excluding recovery.
    pub wall_s: f64,
    /// Per drift event: start of the submit that carried its record to the
    /// event reaching the sink.
    pub lags_ms: Vec<f64>,
    pub events: u64,
    pub mismatched: u64,
    pub resident_bytes_per_stream: f64,
    /// Sum of the streams' `detector_seconds` (traced passes only).
    pub detector_engine_s: f64,
    pub imbalance: f64,
    pub batch_ewma_ms: f64,
    pub checkpoints_full: u64,
    pub hibernated_streams: usize,
    pub hibernated_bytes: usize,
    pub rehydrations: u64,
    pub recovery: Option<Recovery>,
}

impl PassResult {
    pub fn rate(&self) -> f64 {
        self.records as f64 / self.wall_s
    }
}

pub struct Bench {
    pub workload: Workload,
    pub corpus: Corpus,
    pub reference: Reference,
    pub ledger: Ledger,
    /// Drift events the reference expects, summed over settled passes.
    pub expected_events: u64,
    pub mismatched: u64,
    work_dir: PathBuf,
    passes: u32,
}

impl Bench {
    pub fn new(workload: Workload, corpus: Corpus, work_dir: PathBuf) -> Self {
        Self {
            workload,
            corpus,
            reference: Reference::default(),
            ledger: Ledger {
                tracer: Tracer::new(),
                calls: 0,
                failed_calls: 0,
            },
            expected_events: 0,
            mismatched: 0,
            work_dir,
            passes: 0,
        }
    }

    fn next_pass(&mut self) -> u32 {
        self.passes += 1;
        self.passes
    }

    /// A builder for this workload's engine. `register` pre-registers every
    /// stream with its spec (not wanted when restoring or recovering).
    fn builder(
        &self,
        shards: usize,
        arrivals: &Arc<Arrivals>,
        dir: Option<&Path>,
        register: bool,
    ) -> EngineBuilder {
        let mut builder = EngineBuilder::new().shards(shards).sink(arrivals.sink());
        if let Some(dir) = dir {
            builder = builder
                .hibernation(HibernationPolicy::cold_after_flushes(2))
                .checkpoint(
                    dir,
                    CheckpointPolicy::every_flushes(0).durability(Durability::PageCache),
                );
        }
        if register {
            for (stream, spec) in self.corpus.specs.iter().enumerate() {
                builder = builder.stream_spec(stream as u64, spec.clone());
            }
        }
        builder
    }

    fn checkpoint_dir(&self, pass: u32) -> Option<PathBuf> {
        self.workload
            .durable()
            .then(|| self.work_dir.join(format!("pass-{pass}")))
    }

    /// Times one set-up from an empty cut-table registry: every distinct
    /// OPTWIN configuration's table fully precomputed, then the engine
    /// built with every stream registered.
    pub fn cold_setup(&mut self, traced: bool) -> BenchResult<SetupSample> {
        let pass = self.next_pass();
        let trace = traced.then_some(pass);
        let dir = self.checkpoint_dir(pass);
        let configs = self.corpus.optwin_configs();
        let arrivals = Arc::new(Arrivals::default());
        let registry = CutTableRegistry::global();
        registry.clear();

        let started = Instant::now();
        let mut tables = Vec::new();
        for config in configs.values() {
            let table = self
                .ledger
                .call("cut.get_or_build", trace, || registry.get_or_build(config))?;
            self.ledger
                .call("cut.precompute_all", trace, || table.precompute_all())?;
            tables.push(table);
        }
        let cut_s = started.elapsed().as_secs_f64();
        let builder = self.builder(2, &arrivals, dir.as_deref(), true);
        let handle = self
            .ledger
            .call("engine.build", trace, || builder.build())?;
        let setup_s = started.elapsed().as_secs_f64();

        let sample = SetupSample {
            setup_s,
            cut_s,
            tables: registry.len(),
            entries: tables.iter().map(|t| t.cached_entries()).sum(),
        };
        self.ledger
            .call("handle.shutdown", trace, || handle.shutdown())?;
        if let Some(dir) = dir {
            std::fs::remove_dir_all(dir)?;
        }
        Ok(sample)
    }

    /// Computes the reference events (and the solo detector timings), then
    /// drops the per-stream sequences the engine passes do not need.
    pub fn compute_reference(&mut self) -> BenchResult<()> {
        self.reference = oracle::reference(&self.corpus)?;
        self.corpus.values = Vec::new();
        Ok(())
    }

    /// One closed-loop pass over the whole corpus through a fresh engine.
    /// Returns the still-running engine so the caller may snapshot it; the
    /// caller shuts it down with [`Bench::close`].
    pub fn pass(&mut self, shards: usize, traced: bool) -> BenchResult<(PassResult, EngineHandle)> {
        let pass = self.next_pass();
        let trace = traced.then_some(pass);
        let dir = self.checkpoint_dir(pass);
        let arrivals = Arc::new(Arrivals::default());
        let builder = self.builder(shards, &arrivals, dir.as_deref(), true);
        let mut handle = self
            .ledger
            .call("engine.build", trace, || builder.build())?;

        let pass_start = Instant::now();
        let mut starts = Vec::with_capacity(self.corpus.submits.len());
        let mut wall_s = 0.0;
        let mut segment = Instant::now();
        let mut last_flush = segment;
        let mut flushes = 0;
        let mut checkpoints_full = 0;
        let mut rehydrations = 0;
        let mut recovery = None;
        let crash_after = self.corpus.flushes().saturating_sub(CRASH_BEFORE_END);
        for index in 0..self.corpus.submits.len() {
            let start = Instant::now();
            starts.push(start);
            let submitted = handle.submit(&self.corpus.submits[index]);
            self.ledger
                .finish("handle.submit", trace, start, submitted)?;
            if !self.corpus.flush_after(index) {
                continue;
            }
            self.ledger.call("handle.flush", trace, || handle.flush())?;
            last_flush = Instant::now();
            flushes += 1;
            let Some(dir) = dir.as_deref() else {
                continue;
            };
            if flushes % CHECKPOINT_EVERY == 0 {
                let report = self.ledger.call_counted(
                    "checkpoint.checkpoint",
                    trace,
                    || handle.checkpoint(),
                    |report| report.bytes,
                )?;
                checkpoints_full += u64::from(report.full);
            }
            if flushes == crash_after {
                wall_s += (last_flush - segment).as_secs_f64();
                let stats = self.ledger.call("handle.stats", trace, || handle.stats())?;
                rehydrations += stats.rehydrations();
                self.ledger
                    .call("handle.shutdown", trace, || handle.shutdown())?;
                let (recovered, timing) = self.recover(shards, &arrivals, dir, trace)?;
                handle = recovered;
                recovery = Some(timing);
                segment = Instant::now();
            }
        }
        wall_s += (last_flush - segment).as_secs_f64();

        let stats = self.ledger.call("handle.stats", trace, || handle.stats())?;
        let detector_engine_s = if traced {
            let snapshots = self.ledger.call("handle.stream_snapshots", trace, || {
                handle.stream_snapshots()
            })?;
            snapshots.iter().map(|s| s.detector_seconds).sum()
        } else {
            0.0
        };
        let (lags_ms, events, mismatched) = self.settle(&arrivals, &starts);
        if let Some(pass) = trace {
            self.ledger.tracer.record(
                "pass",
                pass,
                pass_start,
                Instant::now(),
                self.corpus.records(),
            );
        }
        let streams = stats.streams.max(1);
        let result = PassResult {
            pass,
            shards,
            traced,
            records: self.corpus.records(),
            wall_s,
            lags_ms,
            events,
            mismatched,
            resident_bytes_per_stream: stats.resident_bytes() as f64 / streams as f64,
            detector_engine_s,
            imbalance: stats.imbalance(),
            batch_ewma_ms: stats
                .shards
                .iter()
                .map(|s| s.batch_ewma_seconds * 1e3)
                .sum::<f64>()
                / stats.shards.len().max(1) as f64,
            checkpoints_full,
            hibernated_streams: stats.hibernated_streams(),
            hibernated_bytes: stats.hibernated_bytes(),
            rehydrations: rehydrations + stats.rehydrations(),
            recovery,
        };
        Ok((result, handle))
    }

    /// Recovers a shut-down `fleet-durable` engine from its checkpoint
    /// directory as a fresh process would: registry cleared, then
    /// `recover_from_dir` → `build` → first `flush`, timed together.
    fn recover(
        &mut self,
        shards: usize,
        arrivals: &Arc<Arrivals>,
        dir: &Path,
        trace: Option<u32>,
    ) -> BenchResult<(EngineHandle, Recovery)> {
        let wal_bytes = wal_bytes(dir)?;
        if trace.is_some() {
            self.ledger
                .call("recover.load", trace, || load_checkpoint_dir(dir))?;
        }
        let builder = self.builder(shards, arrivals, Some(dir), false);
        arrivals.replaying.store(true, Ordering::SeqCst);
        CutTableRegistry::global().clear();
        let started = Instant::now();
        let handle = self.ledger.call("recover.build", trace, || {
            builder.recover_from_dir(dir)?.build()
        })?;
        self.ledger
            .call("recover.first_flush", trace, || handle.flush())?;
        let total_s = started.elapsed().as_secs_f64();
        arrivals.replaying.store(false, Ordering::SeqCst);
        Ok((handle, Recovery { total_s, wal_bytes }))
    }

    /// Checks a pass's events against the reference and computes each
    /// event's lag. Events re-emitted by a recovery's log replay are
    /// deduplicated by `(stream, seq)`; any other duplicate, any warning and
    /// any difference from the reference is a mismatch.
    fn settle(&mut self, arrivals: &Arrivals, starts: &[Instant]) -> (Vec<f64>, u64, u64) {
        let mut seen = HashSet::new();
        let mut lags_ms = Vec::new();
        let mut extra = 0;
        for arrival in arrivals.take() {
            if !arrival.drift {
                extra += 1;
                continue;
            }
            let fresh = seen.insert((arrival.stream, arrival.seq));
            if arrival.replay {
                continue;
            }
            if !fresh {
                extra += 1;
                continue;
            }
            match self.corpus.submit_of(arrival.stream, arrival.seq) {
                Some(index) if index < starts.len() => {
                    lags_ms.push(arrival.at.duration_since(starts[index]).as_secs_f64() * 1e3);
                }
                _ => extra += 1,
            }
        }
        let mut observed: Vec<(u64, u64)> = seen.into_iter().collect();
        observed.sort_unstable();
        let mismatched = extra + oracle::mismatches(&self.reference.events, &observed);
        self.expected_events += self.reference.events.len() as u64;
        self.mismatched += mismatched;
        (lags_ms, observed.len() as u64, mismatched)
    }

    /// Captures a full snapshot of a non-durable engine — the state a
    /// restart would resume from — as JSON text.
    pub fn capture(
        &mut self,
        handle: &EngineHandle,
        pass: u32,
        traced: bool,
    ) -> BenchResult<String> {
        let trace = traced.then_some(pass);
        let json = self.ledger.call_counted(
            "checkpoint.snapshot",
            trace,
            || handle.snapshot_compact().map(|s| s.to_json()),
            |json| json.len() as u64,
        )?;
        Ok(json)
    }

    /// Shuts a pass's engine down and removes its checkpoint directory.
    pub fn close(&mut self, handle: EngineHandle, pass: u32, traced: bool) -> BenchResult<()> {
        self.ledger
            .call("handle.shutdown", traced.then_some(pass), || {
                handle.shutdown()
            })?;
        if let Some(dir) = self.checkpoint_dir(pass) {
            std::fs::remove_dir_all(dir)?;
        }
        Ok(())
    }

    /// Restarts a non-durable engine from a snapshot: parse → `restore` +
    /// `build` → first `flush`, timed together. The cut-table registry
    /// stays warm — a fresh process's table cost is what `setup_s` times —
    /// so restores can run between any two passes.
    pub fn restore(&mut self, json: &str, traced: bool) -> BenchResult<f64> {
        let pass = self.next_pass();
        let trace = traced.then_some(pass);
        let arrivals = Arc::new(Arrivals::default());
        let builder = self.builder(2, &arrivals, None, false);
        let started = Instant::now();
        let snapshot = self
            .ledger
            .call("recover.load", trace, || EngineSnapshot::from_json(json))?;
        let handle = self
            .ledger
            .call("recover.build", trace, || builder.restore(snapshot).build())?;
        self.ledger
            .call("recover.first_flush", trace, || handle.flush())?;
        let total_s = started.elapsed().as_secs_f64();
        self.ledger
            .call("handle.shutdown", trace, || handle.shutdown())?;
        Ok(total_s)
    }
}

/// Bytes of the write-ahead-log segments in a checkpoint directory.
fn wal_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_name().to_string_lossy().starts_with("wal-") {
            bytes += entry.metadata()?.len();
        }
    }
    Ok(bytes)
}
