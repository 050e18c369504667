//! Continuous durability: delta checkpoints plus a write-ahead log — the
//! checkpoint **wire format v5**.
//!
//! Full engine snapshots (wire v1–v4) are O(fleet) per capture: the wrong
//! shape for a long-running service that must bound its data-loss window at
//! million-stream scale, where almost every stream is cold between any two
//! barriers. The checkpoint subsystem makes durability **incremental**:
//!
//! * Shard workers track a *dirty* bit per stream (set by ingestion and
//!   hibernation; cleared at capture). A checkpoint writes a
//!   **delta overlay** holding only the dirty streams' full
//!   `{spec, seq, state, shard, hibernated}` entries — the same
//!   [`StreamStateSnapshot`] the v4 format uses, so a delta of a 1 %-active
//!   fleet costs ~1 % of a base snapshot.
//! * Between checkpoints, every record batch (and every
//!   [`crate::EngineHandle::register_stream_spec`] registration) a worker
//!   dequeues is first appended to a per-shard **write-ahead log** segment
//!   — self-checksummed frames over the [`optwin_core::snapshot`] WAL
//!   framing, so a torn tail from a crash mid-append reads as clean EOF
//!   while real corruption fails loudly.
//! * When the delta chain's cumulative size crosses
//!   [`CheckpointPolicy::compact_ratio`] × the base size, the next
//!   checkpoint **compacts**: it captures every stream into a fresh base
//!   and drops the chain.
//!
//! On disk a checkpoint directory is
//!
//! ```text
//! MANIFEST.json           {"version":5,"generation":G,"shards":N,"base":…,"deltas":[…]}
//! base-<g>.json           full EngineSnapshot (wire v4, binary-encoded states)
//! delta-<g>.json          {"version":5,"generation":g,"streams":[dirty entries]}
//! wal-<g>-<shard>.log     per-shard segments covering activity after checkpoint g-1
//! ```
//!
//! Checkpoint *generations* count captures: checkpoint `G` is a barrier
//! covering everything the workers processed before it, after which each
//! worker logs to segment `wal-<G+1>-<shard>.log`. The manifest names the
//! last completed checkpoint; every file write goes through a temp-file
//! rename and old files are garbage-collected only after the new manifest
//! is durably in place, so a crash at **any** point leaves a recoverable
//! directory.
//!
//! Recovery ([`crate::EngineBuilder::recover_from_dir`]) replays base →
//! deltas → WAL tail: the merged snapshot restores exactly like a v4
//! snapshot (hibernated entries recover **asleep** under a hibernating
//! builder), then the logged record batches are re-submitted in their
//! original per-stream order. Because every detector restore is bit-exact,
//! the recovered fleet emits byte-identical [`crate::DriftEvent`]s and
//! `seq` numbers to an uninterrupted run — the crash-recovery harness in
//! `tests/engine_checkpoint.rs` kills the process mid-ingest and proves it
//! for all 8 detector kinds.

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use optwin_baselines::DetectorSpec;
use optwin_core::snapshot as codec;
use serde::{Deserialize, Serialize};

use crate::error::EngineError;
use crate::persist::{
    snapshot_json, write_streams, EncodedEntries, EngineSnapshot, StreamStateSnapshot,
    ENGINE_SNAPSHOT_VERSION,
};

/// Wire format version of a checkpoint directory (manifest + base + delta
/// overlays + WAL segments). v5 is a *directory* format: its base and the
/// merged view of base + deltas are ordinary wire-v4 [`EngineSnapshot`]s,
/// which is why recovery rides the existing restore path unchanged.
pub const CHECKPOINT_WIRE_VERSION: u64 = 5;

/// Manifest filename inside a checkpoint directory.
pub(crate) const MANIFEST_FILE: &str = "MANIFEST.json";

/// WAL frame kind: a submitted record batch (one shard's partition).
pub(crate) const WAL_KIND_RECORDS: u8 = 0;
/// WAL frame kind: a declarative stream registration.
pub(crate) const WAL_KIND_REGISTER: u8 = 1;

// ---------------------------------------------------------------------------
// Policy and report
// ---------------------------------------------------------------------------

/// How hard checkpoint and WAL writes push data toward stable storage.
///
/// The default, [`Durability::PageCache`], flushes every write to the OS —
/// the logged prefix survives a process abort, the durability model the
/// crash-recovery harness proves. [`Durability::Fsync`] additionally
/// `fsync`s WAL segments at every append barrier and makes base/delta and
/// manifest writes durable (file synced before the rename, directory
/// synced after), extending the guarantee to power loss at a per-batch
/// latency cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Flush to the kernel page cache only (survives process crashes).
    #[default]
    PageCache,
    /// Also fsync files (and the checkpoint directory around manifest
    /// renames) so the data survives power loss.
    Fsync,
}

/// Lifetime count of `fsync`-class calls ([`File::sync_data`] /
/// [`File::sync_all`]) issued by this module. [`Durability::PageCache`]
/// issues none, which is what the crash-harness probe asserts.
static SYNC_CALLS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Process-wide count of fsync-class calls issued by the checkpoint
/// subsystem — a test probe for asserting a [`Durability`] level is
/// honored (power loss itself cannot be simulated in-process).
#[must_use]
pub fn fsync_count() -> u64 {
    SYNC_CALLS.load(std::sync::atomic::Ordering::Relaxed)
}

/// Syncs a file's data (and metadata needed to reach it) to stable
/// storage, counting the call for the [`fsync_count`] probe.
fn sync_file(file: &File, path: &Path) -> Result<(), EngineError> {
    SYNC_CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    file.sync_data().map_err(|e| io_err("syncing", path, &e))
}

/// Syncs a directory so a just-renamed entry inside it is durable.
fn sync_dir(dir: &Path) -> Result<(), EngineError> {
    let handle = File::open(dir).map_err(|e| io_err("opening for sync", dir, &e))?;
    SYNC_CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    handle.sync_all().map_err(|e| io_err("syncing", dir, &e))
}

/// When and how the engine checkpoints, configured via
/// [`crate::EngineBuilder::checkpoint`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointPolicy {
    /// Take a checkpoint every this many [`crate::EngineHandle::flush`]
    /// barriers (`0`: only explicit [`crate::EngineHandle::checkpoint`]
    /// calls checkpoint; the WAL still bounds the loss window either way).
    pub every_flushes: u32,
    /// Compact the delta chain back into a fresh base once the chain's
    /// cumulative bytes exceed this ratio of the base's bytes. `0.0` forces
    /// every checkpoint to be a full base; an infinite ratio never
    /// compacts.
    pub compact_ratio: f64,
    /// How hard WAL appends and checkpoint files push toward stable
    /// storage (default: [`Durability::PageCache`]).
    pub durability: Durability,
}

impl CheckpointPolicy {
    /// A policy checkpointing every `flushes` flush barriers with the
    /// default compaction ratio.
    #[must_use]
    pub fn every_flushes(flushes: u32) -> Self {
        Self {
            every_flushes: flushes,
            ..Self::default()
        }
    }

    /// Returns the policy with the compaction ratio replaced.
    #[must_use]
    pub fn compact_ratio(mut self, ratio: f64) -> Self {
        self.compact_ratio = ratio;
        self
    }

    /// Returns the policy with the durability level replaced.
    #[must_use]
    pub fn durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }
}

impl Default for CheckpointPolicy {
    /// Checkpoint at every flush barrier; compact once the delta chain
    /// outweighs half the base — deltas stay the common case while the
    /// recovery read amplification stays below 1.5 × the fleet size.
    /// Durability targets process crashes (page-cache flushes, no fsync).
    fn default() -> Self {
        Self {
            every_flushes: 1,
            compact_ratio: 0.5,
            durability: Durability::PageCache,
        }
    }
}

/// What one checkpoint did and where its time went, returned by
/// [`crate::EngineHandle::checkpoint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointReport {
    /// The generation this checkpoint completed.
    pub generation: u64,
    /// `true` when a full base was written (first checkpoint, compaction,
    /// or recovery); `false` for a delta overlay.
    pub full: bool,
    /// Stream entries written (the dirty set for a delta; the whole fleet
    /// for a base).
    pub streams: usize,
    /// Bytes of the file this checkpoint wrote.
    pub bytes: u64,
    /// Bytes of the current base snapshot after this checkpoint.
    pub base_bytes: u64,
    /// Cumulative bytes of the delta chain after this checkpoint (0 right
    /// after a compaction).
    pub delta_chain_bytes: u64,
    /// The capture barrier: every shard worker rotating its WAL segment and
    /// encoding its entries, from the first barrier message sent to the
    /// last reply.
    pub capture: Duration,
    /// Merging the shards' entries by stream id and writing the base or
    /// delta file.
    pub write: Duration,
    /// Writing the manifest (the commit point) and collecting garbage.
    pub manifest: Duration,
}

impl std::fmt::Display for CheckpointReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ms = |stage: Duration| stage.as_secs_f64() * 1e3;
        write!(
            f,
            "checkpoint #{} ({}): {} streams, {} bytes (chain {} / base {}) · \
             capture {:.2}ms · write {:.2}ms · manifest {:.2}ms",
            self.generation,
            if self.full { "base" } else { "delta" },
            self.streams,
            self.bytes,
            self.delta_chain_bytes,
            self.base_bytes,
            ms(self.capture),
            ms(self.write),
            ms(self.manifest)
        )
    }
}

// ---------------------------------------------------------------------------
// On-disk records
// ---------------------------------------------------------------------------

/// The checkpoint directory's root record: which base and which overlays —
/// in application order — constitute the current state, and the generation
/// of the last completed checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Manifest {
    /// Always [`CHECKPOINT_WIRE_VERSION`].
    pub(crate) version: u64,
    /// Generation of the last completed checkpoint; WAL segments with a
    /// larger generation hold the uncheckpointed tail.
    pub(crate) generation: u64,
    /// Shard count of the engine that wrote the checkpoint (provenance).
    pub(crate) shards: usize,
    /// Filename of the base snapshot, relative to the directory.
    pub(crate) base: String,
    /// Filenames of the delta overlays, oldest first.
    pub(crate) deltas: Vec<String>,
}

/// One delta overlay: the dirty streams' full snapshot entries, as
/// recovery reads it ([`delta_json`] writes it).
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub(crate) struct DeltaSnapshot {
    /// Always [`CHECKPOINT_WIRE_VERSION`].
    pub(crate) version: u64,
    /// The checkpoint generation that wrote this overlay.
    pub(crate) generation: u64,
    /// Entries of the streams dirty since the previous checkpoint, sorted
    /// by stream id. Each replaces (or introduces) its stream wholesale
    /// when the overlay is applied.
    pub(crate) streams: Vec<StreamStateSnapshot>,
}

/// The JSON text of the delta overlay checkpoint `generation` writes: the
/// entries of `runs`, merged by stream id.
pub(crate) fn delta_json(generation: u64, runs: &[EncodedEntries]) -> Vec<u8> {
    let mut out =
        format!(r#"{{"version":{CHECKPOINT_WIRE_VERSION},"generation":{generation},"#).into_bytes();
    write_streams(&mut out, runs);
    out
}

/// Filename of the base snapshot written by checkpoint `generation`.
pub(crate) fn base_file_name(generation: u64) -> String {
    format!("base-{generation}.json")
}

/// Filename of the delta overlay written by checkpoint `generation`.
pub(crate) fn delta_file_name(generation: u64) -> String {
    format!("delta-{generation}.json")
}

/// Path of the WAL segment holding shard `shard`'s activity after
/// checkpoint `generation - 1`.
pub(crate) fn wal_segment_path(dir: &Path, generation: u64, shard: usize) -> PathBuf {
    dir.join(format!("wal-{generation}-{shard}.log"))
}

/// Parses a WAL segment filename back into `(generation, shard)`.
fn parse_wal_segment_name(name: &str) -> Option<(u64, usize)> {
    let rest = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    let (generation, shard) = rest.split_once('-')?;
    Some((generation.parse().ok()?, shard.parse().ok()?))
}

/// Wraps an I/O failure into [`EngineError::Checkpoint`], naming the path.
fn io_err(action: &str, path: &Path, error: &io::Error) -> EngineError {
    EngineError::Checkpoint(format!("{action} {}: {error}", path.display()))
}

/// Writes `contents` to `path` through a temp-file rename, so a crash
/// mid-write can never leave a half-written file under the final name.
/// Under [`Durability::Fsync`] the temp file is synced before the rename
/// and the parent directory after it, so the file under its final name
/// survives power loss, not just process death.
pub(crate) fn write_atomic_durable(
    path: &Path,
    contents: &[u8],
    durability: Durability,
) -> Result<(), EngineError> {
    let tmp = path.with_extension("tmp");
    match durability {
        Durability::PageCache => {
            fs::write(&tmp, contents).map_err(|e| io_err("writing", &tmp, &e))?;
        }
        Durability::Fsync => {
            let mut file = File::create(&tmp).map_err(|e| io_err("creating", &tmp, &e))?;
            file.write_all(contents)
                .map_err(|e| io_err("writing", &tmp, &e))?;
            sync_file(&file, &tmp)?;
        }
    }
    fs::rename(&tmp, path).map_err(|e| io_err("renaming", &tmp, &e))?;
    if durability == Durability::Fsync {
        if let Some(parent) = path.parent() {
            sync_dir(parent)?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Write-ahead log
// ---------------------------------------------------------------------------

/// Encodes a record batch as a WAL payload: `count u32 LE`, then per record
/// `stream u64 LE · value-bits u64 LE` (bit patterns, so non-finite values
/// survive).
fn encode_records_payload(records: &[(u64, f64)]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(4 + records.len() * 16);
    payload.extend_from_slice(&(records.len() as u32).to_le_bytes());
    for &(stream, value) in records {
        payload.extend_from_slice(&stream.to_le_bytes());
        payload.extend_from_slice(&value.to_bits().to_le_bytes());
    }
    payload
}

/// Decodes a record-batch payload, validating the count against the length.
fn decode_records_payload(payload: &[u8]) -> Result<Vec<(u64, f64)>, EngineError> {
    let bad = |message: String| EngineError::InvalidSnapshot(message);
    if payload.len() < 4 {
        return Err(bad("WAL record frame shorter than its count".to_string()));
    }
    let count = u32::from_le_bytes(payload[..4].try_into().expect("4 bytes")) as usize;
    let body = &payload[4..];
    if body.len() != count * 16 {
        return Err(bad(format!(
            "WAL record frame count mismatch: {count} records but {} payload bytes",
            body.len()
        )));
    }
    Ok(body
        .chunks_exact(16)
        .map(|chunk| {
            let stream = u64::from_le_bytes(chunk[..8].try_into().expect("8 bytes"));
            let bits = u64::from_le_bytes(chunk[8..].try_into().expect("8 bytes"));
            (stream, f64::from_bits(bits))
        })
        .collect())
}

/// Encodes a declarative registration: `stream u64 LE · spec utf-8`.
fn encode_register_payload(stream: u64, spec: &DetectorSpec) -> Vec<u8> {
    let text = spec.to_string();
    let mut payload = Vec::with_capacity(8 + text.len());
    payload.extend_from_slice(&stream.to_le_bytes());
    payload.extend_from_slice(text.as_bytes());
    payload
}

/// Decodes a registration payload back into `(stream, spec)`.
fn decode_register_payload(payload: &[u8]) -> Result<(u64, DetectorSpec), EngineError> {
    let bad = |message: String| EngineError::InvalidSnapshot(message);
    if payload.len() < 8 {
        return Err(bad(
            "WAL register frame shorter than its stream id".to_string()
        ));
    }
    let stream = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
    let text = std::str::from_utf8(&payload[8..])
        .map_err(|e| bad(format!("WAL register frame spec is not UTF-8: {e}")))?;
    let spec = text
        .parse::<DetectorSpec>()
        .map_err(|e| bad(format!("WAL register frame spec `{text}`: {e}")))?;
    Ok((stream, spec))
}

/// A shard worker's append handle to its current WAL segment. Every append
/// is flushed through to the OS before the batch is processed, so the
/// logged prefix survives a process abort (kernel page cache). Under the
/// default [`Durability::PageCache`] no `fsync` is issued per batch — the
/// durability target is process crashes, not power loss;
/// [`Durability::Fsync`] adds a `sync_data` at every append barrier to
/// cover power loss too.
pub(crate) struct WalWriter {
    writer: BufWriter<File>,
    path: PathBuf,
    durability: Durability,
}

impl WalWriter {
    /// Creates (truncating) the segment for `(generation, shard)` and
    /// writes its header.
    pub(crate) fn create(
        dir: &Path,
        generation: u64,
        shard: usize,
        durability: Durability,
    ) -> Result<Self, EngineError> {
        let path = wal_segment_path(dir, generation, shard);
        let file = File::create(&path).map_err(|e| io_err("creating", &path, &e))?;
        let mut writer = BufWriter::new(file);
        writer
            .write_all(&codec::wal_segment_header(shard as u32, generation))
            .and_then(|()| writer.flush())
            .map_err(|e| io_err("writing header of", &path, &e))?;
        let wal = Self {
            writer,
            path,
            durability,
        };
        wal.sync_if_fsync()?;
        Ok(wal)
    }

    /// Issues the append-barrier `fsync` when the policy asks for it.
    fn sync_if_fsync(&self) -> Result<(), EngineError> {
        if self.durability == Durability::Fsync {
            sync_file(self.writer.get_ref(), &self.path)?;
        }
        Ok(())
    }

    /// Appends (and flushes) one record-batch frame.
    pub(crate) fn append_records(&mut self, records: &[(u64, f64)]) -> Result<(), EngineError> {
        self.append(WAL_KIND_RECORDS, &encode_records_payload(records))
    }

    /// Appends (and flushes) one registration frame.
    pub(crate) fn append_register(
        &mut self,
        stream: u64,
        spec: &DetectorSpec,
    ) -> Result<(), EngineError> {
        self.append(WAL_KIND_REGISTER, &encode_register_payload(stream, spec))
    }

    fn append(&mut self, kind: u8, payload: &[u8]) -> Result<(), EngineError> {
        self.writer
            .write_all(&codec::wal_frame(kind, payload))
            .and_then(|()| self.writer.flush())
            .map_err(|e| io_err("appending to", &self.path, &e))?;
        self.sync_if_fsync()
    }

    /// Finalizes the segment (flushes buffered bytes) before rotation.
    pub(crate) fn finish(mut self) -> Result<(), EngineError> {
        self.writer
            .flush()
            .map_err(|e| io_err("finalizing", &self.path, &e))?;
        self.sync_if_fsync()
    }
}

/// One replayable operation recovered from the WAL tail.
pub(crate) enum ReplayOp {
    /// A record batch, in its original submission order.
    Records(Vec<(u64, f64)>),
    /// A [`crate::EngineHandle::register_stream_spec`] registration, the
    /// only way a stream enters a running engine.
    Register(u64, DetectorSpec),
}

/// The uncheckpointed tail recovered from a checkpoint directory: the
/// directory, the logged operations in replay order, and the generation
/// the next checkpoint must use (past every generation present on disk).
pub(crate) struct RecoveredLog {
    pub(crate) dir: PathBuf,
    pub(crate) ops: Vec<ReplayOp>,
    pub(crate) next_generation: u64,
}

/// Parses one WAL segment into replay operations. A torn trailing frame
/// reads as clean EOF; a checksum failure on a complete frame, a header
/// mismatch against the filename, or an unknown frame kind is corruption.
fn read_wal_segment(
    path: &Path,
    generation: u64,
    shard: usize,
    ops: &mut Vec<ReplayOp>,
) -> Result<(), EngineError> {
    let name = path.display();
    let bad = |message: String| EngineError::InvalidSnapshot(message);
    let bytes = fs::read(path).map_err(|e| bad(format!("reading WAL segment {name}: {e}")))?;
    let (header_shard, header_generation) = codec::wal_parse_segment_header(&bytes)
        .map_err(|e| bad(format!("WAL segment {name}: {e}")))?;
    if (header_shard as usize, header_generation) != (shard, generation) {
        return Err(bad(format!(
            "WAL segment {name}: header says generation {header_generation} shard \
             {header_shard}, filename says generation {generation} shard {shard}"
        )));
    }
    let mut at = codec::WAL_HEADER_LEN;
    while let Some((kind, payload, consumed)) =
        codec::wal_next_frame(&bytes[at..]).map_err(|e| bad(format!("WAL segment {name}: {e}")))?
    {
        match kind {
            WAL_KIND_RECORDS => ops.push(ReplayOp::Records(
                decode_records_payload(payload)
                    .map_err(|e| bad(format!("WAL segment {name}: {e}")))?,
            )),
            WAL_KIND_REGISTER => {
                let (stream, spec) = decode_register_payload(payload)
                    .map_err(|e| bad(format!("WAL segment {name}: {e}")))?;
                ops.push(ReplayOp::Register(stream, spec));
            }
            other => {
                return Err(bad(format!(
                    "WAL segment {name}: unknown frame kind {other}"
                )))
            }
        }
        at += consumed;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Loading a checkpoint directory
// ---------------------------------------------------------------------------

/// Reads and validates the manifest of a checkpoint directory.
pub(crate) fn read_manifest(dir: &Path) -> Result<Manifest, EngineError> {
    let path = dir.join(MANIFEST_FILE);
    let bad = |message: String| EngineError::InvalidSnapshot(message);
    let text =
        fs::read_to_string(&path).map_err(|e| bad(format!("reading {}: {e}", path.display())))?;
    let manifest: Manifest =
        serde_json::from_str(&text).map_err(|e| bad(format!("parsing {}: {e}", path.display())))?;
    if manifest.version != CHECKPOINT_WIRE_VERSION {
        return Err(bad(format!(
            "unsupported checkpoint manifest version {} (expected {CHECKPOINT_WIRE_VERSION})",
            manifest.version
        )));
    }
    Ok(manifest)
}

/// Loads the checkpointed state of a directory — base snapshot with every
/// delta overlay applied in order — **without** the WAL tail. This is the
/// introspection entry point (what would a recovery start from?); actual
/// recovery ([`crate::EngineBuilder::recover_from_dir`]) additionally
/// replays the logged record batches.
///
/// # Errors
///
/// Returns [`EngineError::InvalidSnapshot`] when the manifest, the base or
/// any overlay is missing, truncated, corrupt, or of an unsupported
/// version.
pub fn load_checkpoint_dir(dir: impl AsRef<Path>) -> Result<EngineSnapshot, EngineError> {
    let dir = dir.as_ref();
    merge_overlays(dir, &read_manifest(dir)?)
}

/// The base snapshot `manifest` names, with its delta overlays applied in
/// manifest order.
fn merge_overlays(dir: &Path, manifest: &Manifest) -> Result<EngineSnapshot, EngineError> {
    let bad = |message: String| EngineError::InvalidSnapshot(message);

    let base_path = dir.join(&manifest.base);
    let text = fs::read_to_string(&base_path).map_err(|e| {
        bad(format!(
            "missing base snapshot {}: {e}",
            base_path.display()
        ))
    })?;
    let base = EngineSnapshot::from_json(&text)
        .map_err(|e| bad(format!("base snapshot {}: {e}", base_path.display())))?;

    // Apply overlays in manifest order: each entry replaces (or introduces)
    // its stream wholesale. Positions are looked up through a map; the
    // merged stream list stays sorted by id like every snapshot.
    let mut streams = base.streams;
    let mut index: std::collections::HashMap<u64, usize> = streams
        .iter()
        .enumerate()
        .map(|(at, s)| (s.stream, at))
        .collect();
    for name in &manifest.deltas {
        let delta_path = dir.join(name);
        let text = fs::read_to_string(&delta_path).map_err(|e| {
            bad(format!(
                "missing delta overlay {}: {e}",
                delta_path.display()
            ))
        })?;
        let delta: DeltaSnapshot = serde_json::from_str(&text)
            .map_err(|e| bad(format!("delta overlay {}: {e}", delta_path.display())))?;
        if delta.version != CHECKPOINT_WIRE_VERSION {
            return Err(bad(format!(
                "delta overlay {}: unsupported version {} (expected {CHECKPOINT_WIRE_VERSION})",
                delta_path.display(),
                delta.version
            )));
        }
        for entry in delta.streams {
            match index.get(&entry.stream) {
                Some(&at) => streams[at] = entry,
                None => {
                    index.insert(entry.stream, streams.len());
                    streams.push(entry);
                }
            }
        }
    }
    streams.sort_unstable_by_key(|s| s.stream);

    Ok(EngineSnapshot {
        version: base.version,
        shards: manifest.shards,
        emit_warnings: base.emit_warnings,
        streams,
    })
}

/// Loads everything recovery needs: the merged checkpoint state plus the
/// WAL tail (segments past the manifest generation, in generation-then-
/// shard order — per-stream record order is preserved because a stream
/// lives on one shard for the life of its engine).
pub(crate) fn load_recovery(dir: &Path) -> Result<(EngineSnapshot, RecoveredLog), EngineError> {
    let manifest = read_manifest(dir)?;
    let snapshot = merge_overlays(dir, &manifest)?;

    let mut segments: Vec<(u64, usize)> = Vec::new();
    let mut max_generation = manifest.generation;
    let unreadable = |e: std::io::Error| {
        EngineError::InvalidSnapshot(format!("reading checkpoint dir {}: {e}", dir.display()))
    };
    for entry in fs::read_dir(dir).map_err(unreadable)? {
        let name = entry.map_err(unreadable)?.file_name();
        let Some((generation, shard)) = name.to_str().and_then(parse_wal_segment_name) else {
            continue;
        };
        max_generation = max_generation.max(generation);
        if generation > manifest.generation {
            segments.push((generation, shard));
        }
    }
    segments.sort_unstable();

    let mut ops = Vec::new();
    for (generation, shard) in segments {
        read_wal_segment(
            &wal_segment_path(dir, generation, shard),
            generation,
            shard,
            &mut ops,
        )?;
    }
    Ok((
        snapshot,
        RecoveredLog {
            dir: dir.to_path_buf(),
            ops,
            next_generation: max_generation + 1,
        },
    ))
}

// ---------------------------------------------------------------------------
// Handle-side checkpoint state
// ---------------------------------------------------------------------------

/// Checkpoint configuration threaded from the builder into the spawned
/// engine.
pub(crate) struct CheckpointConfig {
    pub(crate) dir: PathBuf,
    pub(crate) policy: CheckpointPolicy,
    /// Generation the first checkpoint taken by this engine will use
    /// (0 for a fresh directory; past every on-disk generation after a
    /// recovery).
    pub(crate) next_generation: u64,
}

/// Mutable checkpoint bookkeeping, held behind a mutex in the handle's
/// shared state. File sizes are tracked here so the compaction decision
/// (delta chain vs. base) costs no filesystem metadata calls on the flush
/// path.
pub(crate) struct CheckpointState {
    pub(crate) dir: PathBuf,
    pub(crate) policy: CheckpointPolicy,
    /// Generation of the next checkpoint to take. A failed checkpoint
    /// advances it too, since its capture already rotated the logs.
    pub(crate) next_generation: u64,
    /// Filename of the current base (`None` until the first checkpoint).
    pub(crate) base_file: Option<String>,
    pub(crate) base_bytes: u64,
    /// Delta overlay filenames since the base, oldest first.
    pub(crate) deltas: Vec<String>,
    pub(crate) delta_bytes: u64,
    /// Flush barriers since the last checkpoint, for
    /// [`CheckpointPolicy::every_flushes`].
    pub(crate) flushes_since: u32,
    /// Set when a checkpoint failed after its capture barrier: some shards
    /// may already have cleared dirty bits for entries that never reached a
    /// manifest, so a later *delta* could silently omit them once garbage
    /// collection drops the WAL segments covering their records. Forces the
    /// next checkpoint to write a full base, restoring the invariant.
    pub(crate) degraded: bool,
}

impl CheckpointState {
    pub(crate) fn new(config: CheckpointConfig) -> Self {
        Self {
            dir: config.dir,
            policy: config.policy,
            next_generation: config.next_generation,
            base_file: None,
            base_bytes: 0,
            deltas: Vec::new(),
            delta_bytes: 0,
            flushes_since: 0,
            degraded: false,
        }
    }

    /// `true` when the next checkpoint must write a full base: there is no
    /// base yet, or the delta chain outgrew
    /// [`CheckpointPolicy::compact_ratio`].
    pub(crate) fn wants_full(&self) -> bool {
        self.base_file.is_none()
            || self.degraded
            || (!self.deltas.is_empty()
                && self.delta_bytes as f64 > self.policy.compact_ratio * self.base_bytes as f64)
    }

    /// The manifest describing the current base + delta chain.
    pub(crate) fn manifest(&self, generation: u64, shards: usize) -> Manifest {
        Manifest {
            version: CHECKPOINT_WIRE_VERSION,
            generation,
            shards,
            base: self.base_file.clone().unwrap_or_default(),
            deltas: self.deltas.clone(),
        }
    }

    /// The handle side of a checkpoint, after the workers encoded their
    /// entries (`runs`, one per shard, in `capture` time): merges them into
    /// the base or delta file and writes it, then the manifest (the commit
    /// point), advances the generation counters, and garbage-collects — in
    /// that order, so a crash between any two steps leaves the previous
    /// manifest authoritative with its WAL segments intact.
    pub(crate) fn commit(
        &mut self,
        generation: u64,
        full: bool,
        runs: &[EncodedEntries],
        shards: usize,
        emit_warnings: bool,
        capture: Duration,
    ) -> Result<CheckpointReport, EngineError> {
        let started = Instant::now();
        let (name, contents) = if full {
            (
                base_file_name(generation),
                snapshot_json(ENGINE_SNAPSHOT_VERSION, shards, emit_warnings, runs),
            )
        } else {
            (delta_file_name(generation), delta_json(generation, runs))
        };
        let bytes = contents.len() as u64;
        // Under `Fsync`, the base/delta file (and its directory entry) is
        // durable *before* the manifest rename publishes it — a manifest
        // must never outlive the files it names.
        write_atomic_durable(&self.dir.join(&name), &contents, self.policy.durability)?;
        let written = Instant::now();
        if full {
            self.base_file = Some(name);
            self.base_bytes = bytes;
            self.deltas.clear();
            self.delta_bytes = 0;
        } else {
            self.deltas.push(name);
            self.delta_bytes += bytes;
        }
        let manifest = self.manifest(generation, shards);
        write_atomic_durable(
            &self.dir.join(MANIFEST_FILE),
            serde_json::to_string(&manifest)
                .expect("value-tree serialization is infallible")
                .as_bytes(),
            self.policy.durability,
        )?;
        self.next_generation = generation + 1;
        self.flushes_since = 0;
        self.degraded = false;
        self.collect_garbage(generation);
        Ok(CheckpointReport {
            generation,
            full,
            streams: runs.iter().map(EncodedEntries::len).sum(),
            bytes,
            base_bytes: self.base_bytes,
            delta_chain_bytes: self.delta_bytes,
            capture,
            write: written - started,
            manifest: written.elapsed(),
        })
    }

    /// Deletes every file the current manifest no longer references: old
    /// bases and overlays, and WAL segments at or below the completed
    /// generation. Failures are ignored — garbage costs disk, not
    /// correctness, and the next checkpoint retries.
    pub(crate) fn collect_garbage(&self, completed_generation: u64) {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        let live: std::collections::HashSet<&str> = self
            .base_file
            .iter()
            .map(String::as_str)
            .chain(self.deltas.iter().map(String::as_str))
            .collect();
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else {
                continue;
            };
            let stale = if let Some((generation, _)) = parse_wal_segment_name(name) {
                generation <= completed_generation
            } else if name.starts_with("base-") || name.starts_with("delta-") {
                !live.contains(name)
            } else {
                false
            };
            if stale {
                let _ = fs::remove_file(entry.path());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_payload_round_trips_with_nonfinite_values() {
        let records = vec![
            (0u64, 0.25f64),
            (u64::MAX, f64::NEG_INFINITY),
            (7, f64::MAX),
            (8, -0.0),
        ];
        let decoded = decode_records_payload(&encode_records_payload(&records)).unwrap();
        assert_eq!(decoded.len(), records.len());
        for ((s0, v0), (s1, v1)) in records.iter().zip(&decoded) {
            assert_eq!(s0, s1);
            assert_eq!(v0.to_bits(), v1.to_bits());
        }
        // NaN survives by bit pattern, which `==` cannot check.
        let nan = vec![(3u64, f64::from_bits(0x7ff8_dead_beef_0001))];
        let back = decode_records_payload(&encode_records_payload(&nan)).unwrap();
        assert_eq!(back[0].1.to_bits(), 0x7ff8_dead_beef_0001);
    }

    #[test]
    fn records_payload_rejects_count_mismatch() {
        let mut payload = encode_records_payload(&[(1, 1.0), (2, 2.0)]);
        payload[0] = 3; // claims 3 records, carries 2
        assert!(matches!(
            decode_records_payload(&payload),
            Err(EngineError::InvalidSnapshot(_))
        ));
        assert!(decode_records_payload(&[1, 0]).is_err());
    }

    #[test]
    fn register_payload_round_trips() {
        let spec: DetectorSpec = "adwin:delta=0.002".parse().unwrap();
        let (stream, back) = decode_register_payload(&encode_register_payload(42, &spec)).unwrap();
        assert_eq!(stream, 42);
        assert_eq!(back, spec);

        assert!(decode_register_payload(&[1, 2, 3]).is_err());
        let mut garbage = encode_register_payload(1, &spec);
        garbage.truncate(9);
        garbage[8] = 0xff; // not UTF-8 start of a spec
        assert!(decode_register_payload(&garbage).is_err());
    }

    #[test]
    fn wal_segment_names_parse_and_reject() {
        assert_eq!(parse_wal_segment_name("wal-12-3.log"), Some((12, 3)));
        assert_eq!(parse_wal_segment_name("wal-0-0.log"), Some((0, 0)));
        assert_eq!(parse_wal_segment_name("base-3.json"), None);
        assert_eq!(parse_wal_segment_name("wal-x-0.log"), None);
        assert_eq!(parse_wal_segment_name("wal-3.log"), None);
    }

    /// Pins the delta writer's bytes: every overlay of the checked-in v5
    /// fixture reprints unchanged, outer layout included.
    #[test]
    fn golden_v5_deltas_reprint_byte_for_byte() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/snapshots/v5");
        let mut names: Vec<String> = fs::read_dir(&dir)
            .expect("v5 fixture present")
            .map(|entry| entry.expect("readable entry").file_name())
            .filter_map(|name| name.into_string().ok())
            .filter(|name| name.starts_with("delta-"))
            .collect();
        names.sort();
        assert_eq!(names.len(), 4, "{names:?}");
        for name in names {
            let text = fs::read_to_string(dir.join(&name)).expect("readable overlay");
            let delta: DeltaSnapshot = serde_json::from_str(&text).expect("overlay parses");
            let mut entries = EncodedEntries::default();
            for stream in &delta.streams {
                entries.push(&stream.entry());
            }
            let reprinted = delta_json(delta.generation, &[entries]);
            assert!(reprinted == text.as_bytes(), "{name} reprints differently");
        }
    }

    #[test]
    fn manifest_round_trips_and_rejects_future_versions() {
        let dir = std::env::temp_dir().join(format!(
            "optwin-ckpt-manifest-{}-{}",
            std::process::id(),
            line!()
        ));
        fs::create_dir_all(&dir).unwrap();
        let manifest = Manifest {
            version: CHECKPOINT_WIRE_VERSION,
            generation: 4,
            shards: 2,
            base: base_file_name(3),
            deltas: vec![delta_file_name(4)],
        };
        write_atomic_durable(
            &dir.join(MANIFEST_FILE),
            serde_json::to_string(&manifest).unwrap().as_bytes(),
            Durability::PageCache,
        )
        .unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), manifest);

        let mut future = manifest;
        future.version = CHECKPOINT_WIRE_VERSION + 1;
        write_atomic_durable(
            &dir.join(MANIFEST_FILE),
            serde_json::to_string(&future).unwrap().as_bytes(),
            Durability::PageCache,
        )
        .unwrap();
        let err = read_manifest(&dir).unwrap_err().to_string();
        assert!(err.contains("version"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
