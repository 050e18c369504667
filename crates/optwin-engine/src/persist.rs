//! Engine-level persistence: snapshot the per-stream detector state of a
//! running engine and restore it in a fresh process.
//!
//! [`crate::EngineHandle::snapshot`] asks every shard worker to serialize
//! its streams (sequence counters plus each detector's
//! [`optwin_core::DriftDetector::snapshot_state`]) into an
//! [`EngineSnapshot`], a plain serializable value that can be written to
//! disk as JSON. [`crate::EngineBuilder::restore`] replays such a snapshot
//! into a new engine so that the rebuilt engine makes **identical subsequent
//! decisions** to the one that was snapshotted — a restarted process resumes
//! mid-stream with no re-warm-up and no double-reported drifts.
//!
//! # Wire format v2: self-describing streams
//!
//! Since format version 2 every stream records the
//! [`optwin_baselines::DetectorSpec`] its detector was built from (the
//! builder's [`crate::EngineBuilder::stream_spec`] or the handle's
//! [`crate::EngineHandle::register_stream_spec`]) in the snapshot as
//! `{spec, state}`. Restoring such a snapshot needs **no caller-side
//! configuration at all**: the builder reconstructs each detector from its
//! embedded spec and restores the serialized state into it.
//!
//! Version-1 snapshots carry no `spec` entries. They keep loading through
//! specs the caller fills into each [`StreamStateSnapshot::spec`] before
//! restoring.
//!
//! # Wire format v3: the shard recorded as provenance
//!
//! Since format version 3 every stream entry additionally records the
//! **shard** it lived on (`{spec, state, shard}`). Like the snapshot's
//! shard count, it is provenance: the restoring builder places every
//! stream on `id % shards`, whatever the entry records, and entries
//! without one (v1/v2 snapshots) load the same way.
//!
//! # Wire format v4: compact binary window payloads
//!
//! Since format version 4 the per-stream detector `state` embeds its
//! sequence-shaped payloads — OPTWIN/KSWIN windows, the STEPD result
//! window, ADWIN's bucket columns, composite replay rings — as compact
//! base64 binary blobs (see [`optwin_core::snapshot`]) instead of JSON
//! number arrays, shrinking large-window fleet snapshots by an order of
//! magnitude while keeping restores **bit-exact** (the blobs carry the same
//! raw accumulators; no recomputation happens on either side). The outer
//! JSON structure is unchanged. v4 is the only layout any writer produces
//! (snapshots, checkpoints, hibernation); every detector still reads the
//! JSON arrays of the retired v1–v3 writer, so older snapshots keep loading.
//!
//! # Hibernated streams (no wire bump)
//!
//! A stream asleep in the hibernation tier (see [`crate::hibernate`])
//! persists without being woken: its entry embeds the hibernation blob's
//! state tree verbatim plus a `hibernated: true` marker. The marker is
//! omitted for awake streams, so all-awake snapshots remain byte-identical
//! to pre-hibernation output, and the embedded state is ordinary wire-v4
//! binary-encoded detector state that **every** restore path already
//! accepts — which is why hibernated entries require **no** wire version
//! bump, and a reader that ignores the marker still restores correctly
//! (awake).
//!
//! The snapshot deliberately excludes detector *configuration* beyond the
//! spec string: restoration re-derives shared resources (e.g. OPTWIN cut
//! tables) from the spec. Shard count and warning policy are
//! recorded as provenance and do not constrain the restoring builder.
//!
//! # Wire format v5: checkpoint directories (built on v4)
//!
//! Whole-fleet snapshots are point-in-time; the [`crate::checkpoint`]
//! subsystem turns them into *continuous* durability without defining a new
//! stream encoding. A checkpoint **directory** (wire v5) holds a full v4
//! [`EngineSnapshot`] as its base, delta overlays listing only the streams
//! each barrier found dirty (same per-stream `{spec, seq, state, shard,
//! hibernated}` entries, written by this module's one entry writer), and
//! per-shard write-ahead-log segments covering the records since the last
//! barrier. Each shard worker encodes its own streams' entries to JSON text
//! inside the checkpoint barrier, straight from the stream (a sleeper's
//! blob is borrowed, not copied), and the handle only merges the shards'
//! runs by stream id into the file, so a checkpoint base is byte for byte
//! what [`EngineSnapshot::to_json`] writes for the same streams. Shard
//! workers track a per-stream **dirty bit** — set on
//! creation, after every ingested batch and on hibernation transitions,
//! cleared only when a checkpoint captures the stream — which is what
//! makes the overlays sparse. Recovery merges base → overlays → WAL tail
//! through the ordinary restore path of this module, so everything above
//! about bit-exactness, self-describing restore, placement and hibernated
//! entries applies to recovered fleets unchanged.

use optwin_baselines::DetectorSpec;
use serde::Deserialize;

use crate::error::EngineError;

/// Serialization format version of every [`EngineSnapshot`] this crate
/// writes; [`crate::EngineBuilder::restore`] reads v1–v4.
///
/// * **v1** — per-stream `{seq, detector, state}`; restore needs
///   caller-filled specs.
/// * **v2** — adds the per-stream `spec`, making snapshots
///   self-describing. v1 snapshots still parse and restore (through
///   caller-filled specs).
/// * **v3** — adds the optional per-stream `shard`, recorded as
///   provenance (restores place every stream on `id % shards`). v1/v2
///   snapshots still parse and restore.
/// * **v4** — detector states embed window/bucket payloads as compact
///   binary blobs instead of JSON number arrays. The only layout written
///   since the v1–v3 JSON-array writer was retired; v1–v3 snapshots still
///   parse and restore unchanged.
///
/// Wire **v5** is a checkpoint *directory* format
/// ([`crate::checkpoint::CHECKPOINT_WIRE_VERSION`]) layered on top of v4
/// snapshots — it does not bump this constant.
pub const ENGINE_SNAPSHOT_VERSION: u64 = 4;

/// The persisted state of one stream: its position, the [`DetectorSpec`]
/// its detector was built from, and its detector's serialized internals.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamStateSnapshot {
    /// The stream id.
    pub stream: u64,
    /// Elements ingested for this stream so far (the next element's sequence
    /// number).
    pub seq: u64,
    /// The detector's stable name, validated against the rebuilt detector on
    /// restore.
    pub detector: String,
    /// Wall-clock seconds spent inside the detector (diagnostics; carried
    /// across restarts so lifetime stats stay meaningful).
    pub detector_seconds: f64,
    /// The spec the stream's detector was built from. Every writer fills
    /// it; it is `None` only in a parsed v1 snapshot, which predates specs.
    /// Fill it before restoring such an entry
    /// ([`crate::EngineBuilder::restore`]).
    pub spec: Option<DetectorSpec>,
    /// The shard the stream lived on when the snapshot was taken (`None`
    /// for v1/v2 snapshots). Provenance only: a restore places the stream
    /// on `id % shards` of the restoring engine.
    pub shard: Option<usize>,
    /// The detector state from
    /// [`optwin_core::DriftDetector::snapshot_state`].
    pub state: serde::Value,
    /// Whether the stream was hibernated when the snapshot was taken. Such
    /// an entry's `state` is the detector's complete wire-v4 binary-encoded
    /// state (embedded from the hibernation blob, never by waking the
    /// detector), so it restores on every path: a restoring builder with
    /// [`crate::EngineBuilder::hibernation`] configured re-creates the
    /// stream still asleep, any other builder materializes the detector as
    /// for an awake entry. The flag is **omitted** on the wire when false —
    /// all-awake snapshots stay byte-identical to what pre-hibernation
    /// writers produced, which is why this needs no wire version bump.
    pub hibernated: bool,
}

impl StreamStateSnapshot {
    /// The entry as the writer reads it.
    pub(crate) fn entry(&self) -> EntryRef<'_> {
        EntryRef {
            stream: self.stream,
            seq: self.seq,
            detector: &self.detector,
            detector_seconds: self.detector_seconds,
            spec: self.spec.as_ref(),
            shard: self.shard,
            state: &self.state,
            hibernated: self.hibernated,
        }
    }
}

/// One stream's persisted fields, borrowed from wherever they live: a
/// [`StreamStateSnapshot`], or a shard worker's stream with its live
/// detector's fresh state tree or its sleeper's blob. Every snapshot
/// document (a snapshot's JSON, a checkpoint base, a delta overlay) writes
/// its entries from these, through [`EncodedEntries::push`].
pub(crate) struct EntryRef<'a> {
    pub(crate) stream: u64,
    pub(crate) seq: u64,
    pub(crate) detector: &'a str,
    pub(crate) detector_seconds: f64,
    pub(crate) spec: Option<&'a DetectorSpec>,
    pub(crate) shard: Option<usize>,
    pub(crate) state: &'a serde::Value,
    pub(crate) hibernated: bool,
}

/// Stream entries encoded as JSON text, each tagged with its stream id:
/// one shard worker's part of a checkpoint, or a whole snapshot's entries.
#[derive(Default)]
pub(crate) struct EncodedEntries {
    text: Vec<u8>,
    /// `(stream, end of its entry in text)`, in the order pushed.
    ends: Vec<(u64, usize)>,
}

impl EncodedEntries {
    /// Appends the entry's JSON object: `stream`, `seq`, `detector`,
    /// `detector_seconds`, `spec`, `shard` and `state`, in that order, each
    /// through `serde_json` (the state tree in place, not copied), then
    /// `"hibernated":true` for a sleeping stream only. The marker is
    /// omitted when false so that an all-awake snapshot stays
    /// byte-identical to the pre-hibernation wire output (the golden
    /// fixtures and the size guard pin this).
    pub(crate) fn push(&mut self, entry: &EntryRef<'_>) {
        let fields: [(&str, &dyn serde::Serialize); 7] = [
            ("stream", &entry.stream),
            ("seq", &entry.seq),
            ("detector", &entry.detector),
            ("detector_seconds", &entry.detector_seconds),
            ("spec", &entry.spec),
            ("shard", &entry.shard),
            ("state", entry.state),
        ];
        let out = &mut self.text;
        for (k, (key, value)) in fields.into_iter().enumerate() {
            out.extend_from_slice(if k == 0 { b"{\"" } else { b",\"" });
            out.extend_from_slice(key.as_bytes());
            out.extend_from_slice(b"\":");
            serde_json::to_writer(&mut *out, value).expect("writing to a Vec cannot fail");
        }
        if entry.hibernated {
            out.extend_from_slice(br#","hibernated":true"#);
        }
        out.push(b'}');
        self.ends.push((entry.stream, out.len()));
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// `(stream, entry text)` in the order pushed.
    fn iter(&self) -> impl Iterator<Item = (u64, &[u8])> {
        let mut start = 0;
        self.ends.iter().map(move |&(stream, end)| {
            let text = &self.text[start..end];
            start = end;
            (stream, text)
        })
    }
}

/// Closes a snapshot document whose header `out` holds: the `streams`
/// array of every run's entries, merged by stream id (each run in id order,
/// as a shard worker encodes it; a single run keeps its own order), then
/// the closing brace.
pub(crate) fn write_streams(out: &mut Vec<u8>, runs: &[EncodedEntries]) {
    out.reserve(
        runs.iter()
            .map(|run| run.text.len() + run.len())
            .sum::<usize>()
            + 16,
    );
    out.extend_from_slice(br#""streams":["#);
    let mut heads: Vec<_> = runs.iter().map(|run| run.iter().peekable()).collect();
    let mut first = true;
    while let Some(head) = heads
        .iter_mut()
        .filter_map(|head| Some((head.peek()?.0, head)))
        .min_by_key(|&(stream, _)| stream)
        .map(|(_, head)| head)
    {
        let (_, text) = head.next().expect("peeked above");
        if !first {
            out.push(b',');
        }
        first = false;
        out.extend_from_slice(text);
    }
    out.extend_from_slice(b"]}");
}

/// The JSON text of a snapshot document (wire v1–v4 layout): what
/// [`EngineSnapshot::to_json`] returns and a checkpoint base holds.
pub(crate) fn snapshot_json(
    version: u64,
    shards: usize,
    emit_warnings: bool,
    runs: &[EncodedEntries],
) -> Vec<u8> {
    let mut out =
        format!(r#"{{"version":{version},"shards":{shards},"emit_warnings":{emit_warnings},"#)
            .into_bytes();
    write_streams(&mut out, runs);
    out
}

// Hand-written (rather than derived) so that the `spec` and `shard` entries
// may be absent on the wire: v1 snapshots predate both and v2 predates
// `shard`, and omitting-vs-null must both read back as `None` (likewise an
// absent `hibernated` reads back as `false`).
impl Deserialize for StreamStateSnapshot {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let missing =
            |name: &str| serde::DeError::new(format!("missing field `{name}` in stream snapshot"));
        let spec = match value.get("spec") {
            None | Some(serde::Value::Null) => None,
            Some(v) => Some(DetectorSpec::from_value(v)?),
        };
        let shard = match value.get("shard") {
            None | Some(serde::Value::Null) => None,
            Some(v) => Some(usize::from_value(v)?),
        };
        let hibernated = match value.get("hibernated") {
            None | Some(serde::Value::Null) => false,
            Some(v) => bool::from_value(v)?,
        };
        Ok(Self {
            stream: u64::from_value(value.get("stream").ok_or_else(|| missing("stream"))?)?,
            seq: u64::from_value(value.get("seq").ok_or_else(|| missing("seq"))?)?,
            detector: String::from_value(
                value.get("detector").ok_or_else(|| missing("detector"))?,
            )?,
            detector_seconds: f64::from_value(
                value
                    .get("detector_seconds")
                    .ok_or_else(|| missing("detector_seconds"))?,
            )?,
            spec,
            shard,
            state: value.get("state").ok_or_else(|| missing("state"))?.clone(),
            hibernated,
        })
    }
}

/// A point-in-time capture of every stream in an engine.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct EngineSnapshot {
    /// Format version (parsed snapshots may be any supported version up to
    /// [`ENGINE_SNAPSHOT_VERSION`]).
    pub version: u64,
    /// Shard count of the engine that produced the snapshot (provenance
    /// only; the restoring builder chooses its own shard count).
    pub shards: usize,
    /// Whether the producing engine emitted warning events (provenance
    /// only).
    pub emit_warnings: bool,
    /// Per-stream states, sorted by stream id.
    pub streams: Vec<StreamStateSnapshot>,
}

impl EngineSnapshot {
    /// Number of streams captured in the snapshot.
    #[must_use]
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// `true` when every stream embeds its [`DetectorSpec`], i.e. the
    /// snapshot restores with no caller-filled specs.
    #[must_use]
    pub fn is_self_describing(&self) -> bool {
        self.streams.iter().all(|s| s.spec.is_some())
    }

    /// Serializes the snapshot to compact JSON, entries in the order of
    /// [`EngineSnapshot::streams`].
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut entries = EncodedEntries::default();
        for stream in &self.streams {
            entries.push(&stream.entry());
        }
        let json = snapshot_json(
            self.version,
            self.shards,
            self.emit_warnings,
            std::slice::from_ref(&entries),
        );
        String::from_utf8(json).expect("JSON text is UTF-8")
    }

    /// Parses a snapshot previously produced by [`EngineSnapshot::to_json`]
    /// — any supported format version (v1 through v4).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidSnapshot`] on malformed JSON, a shape
    /// mismatch, or an unsupported format version.
    pub fn from_json(text: &str) -> Result<Self, EngineError> {
        let snapshot: Self =
            serde_json::from_str(text).map_err(|e| EngineError::InvalidSnapshot(e.to_string()))?;
        snapshot.check_version()?;
        Ok(snapshot)
    }

    /// Validates that this snapshot's format version is supported.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidSnapshot`] for version 0 or versions
    /// newer than [`ENGINE_SNAPSHOT_VERSION`].
    pub(crate) fn check_version(&self) -> Result<(), EngineError> {
        if !(1..=ENGINE_SNAPSHOT_VERSION).contains(&self.version) {
            return Err(EngineError::InvalidSnapshot(format!(
                "unsupported engine snapshot version {} (supported: 1..={ENGINE_SNAPSHOT_VERSION})",
                self.version
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EngineSnapshot {
        EngineSnapshot {
            version: ENGINE_SNAPSHOT_VERSION,
            shards: 4,
            emit_warnings: true,
            streams: vec![
                StreamStateSnapshot {
                    stream: 7,
                    seq: 1_234,
                    detector: "OPTWIN".to_string(),
                    detector_seconds: 0.25,
                    spec: Some("optwin:w_max=500".parse().expect("valid spec")),
                    shard: Some(3),
                    // `Int` (not `UInt`): in-range unsigned values re-parse as
                    // `Int`, and the round-trip assertion compares value trees.
                    state: serde::Value::Object(vec![("split".to_string(), serde::Value::Int(10))]),
                    hibernated: false,
                },
                StreamStateSnapshot {
                    stream: 9,
                    seq: 3,
                    detector: "gate".to_string(),
                    detector_seconds: 0.0,
                    spec: None,
                    shard: None,
                    state: serde::Value::Null,
                    hibernated: false,
                },
            ],
        }
    }

    #[test]
    fn json_round_trip() {
        let snapshot = sample();
        let json = snapshot.to_json();
        let back = EngineSnapshot::from_json(&json).unwrap();
        assert_eq!(back, snapshot);
        assert_eq!(back.stream_count(), 2);
        assert!(!back.is_self_describing());
        assert_eq!(
            back.streams[0].state.get("split"),
            Some(&serde::Value::Int(10))
        );
        assert_eq!(
            back.streams[0].spec.as_ref().map(DetectorSpec::id),
            Some("optwin")
        );
    }

    #[test]
    fn v1_snapshots_without_spec_entries_parse() {
        // A v1 snapshot has no `spec` (nor `shard`) field at all; it must
        // read back as spec-less, placement-less streams.
        let v1 = r#"{"version":1,"shards":2,"emit_warnings":false,"streams":[
            {"stream":3,"seq":10,"detector":"OPTWIN","detector_seconds":0.5,"state":null}
        ]}"#;
        let snapshot = EngineSnapshot::from_json(v1).unwrap();
        assert_eq!(snapshot.version, 1);
        assert_eq!(snapshot.streams[0].spec, None);
        assert_eq!(snapshot.streams[0].shard, None);
        assert!(!snapshot.is_self_describing());
    }

    #[test]
    fn v2_snapshots_without_shard_entries_parse() {
        // A v2 snapshot embeds specs but predates the `shard` entry.
        let v2 = r#"{"version":2,"shards":2,"emit_warnings":false,"streams":[
            {"stream":3,"seq":10,"detector":"ADWIN","detector_seconds":0.5,
             "spec":"adwin:delta=0.002,clock=32,min_window_len=10,min_sub_window_len=5",
             "state":null}
        ]}"#;
        let snapshot = EngineSnapshot::from_json(v2).unwrap();
        assert_eq!(snapshot.version, 2);
        assert!(snapshot.is_self_describing());
        assert_eq!(snapshot.streams[0].shard, None);
    }

    #[test]
    fn hibernated_marker_is_omitted_when_false_and_round_trips_when_true() {
        // Awake entries must serialize byte-identically to pre-hibernation
        // output: no `hibernated` key at all.
        let snapshot = sample();
        assert!(!snapshot.to_json().contains("hibernated"));

        let mut sleeping = sample();
        sleeping.streams[0].hibernated = true;
        let json = sleeping.to_json();
        assert!(json.contains(r#""hibernated":true"#));
        let back = EngineSnapshot::from_json(&json).unwrap();
        assert_eq!(back, sleeping);
        assert!(back.streams[0].hibernated);
        assert!(!back.streams[1].hibernated);
    }

    #[test]
    fn self_describing_detection() {
        let mut snapshot = sample();
        snapshot.streams.truncate(1);
        assert!(snapshot.is_self_describing());
    }

    #[test]
    fn rejects_garbage_and_future_versions() {
        assert!(matches!(
            EngineSnapshot::from_json("not json"),
            Err(EngineError::InvalidSnapshot(_))
        ));
        let mut future = sample();
        future.version = ENGINE_SNAPSHOT_VERSION + 1;
        let err = EngineSnapshot::from_json(&future.to_json()).unwrap_err();
        assert!(err.to_string().contains("version"));
        let mut zero = sample();
        zero.version = 0;
        let err = EngineSnapshot::from_json(&zero.to_json()).unwrap_err();
        assert!(err.to_string().contains("version"));
    }
}
