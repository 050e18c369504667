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
//! Since format version 2 every stream registered through a
//! [`optwin_baselines::DetectorSpec`] (the builder's
//! [`crate::EngineBuilder::default_spec`] / [`crate::EngineBuilder::stream_spec`]
//! or the handle's [`crate::EngineHandle::register_stream_spec`]) records its
//! spec in the snapshot as `{spec, state}`. Restoring such a snapshot needs
//! **no caller-side factory at all**: the builder reconstructs each detector
//! from its embedded spec and restores the serialized state into it.
//!
//! Streams registered with an opaque detector instance (the closure-factory
//! escape hatch or [`crate::EngineHandle::register_stream`]) have no spec to
//! embed — their snapshot entry carries `state` only and restoring them
//! still requires a factory, exactly like the v1 format. Version-1 snapshots
//! (no `spec` entries at all) therefore keep loading behind a factory,
//! unchanged.
//!
//! # Wire format v3: placement-preserving streams
//!
//! Since format version 3 every stream entry additionally records the
//! **shard** it lived on (`{spec, state, shard}`), so a restore reproduces
//! a placement tuned by [`crate::EngineHandle::rebalance`] instead of
//! resetting it to modulo. The restoring builder seeds its routing table
//! with `persisted_shard % shards` per stream — exact when the new engine
//! has at least as many shards as the old one, a deterministic fold
//! otherwise — and streams with no recorded shard (v1/v2 snapshots) fall
//! back to the `id % shards` default, so older snapshots keep loading
//! unchanged.
//!
//! # Wire format v4: compact binary window payloads
//!
//! Since format version 4 the per-stream detector `state` may embed its
//! sequence-shaped payloads — OPTWIN/KSWIN windows, the STEPD result
//! window, ADWIN's bucket columns — as compact base64 binary blobs (see
//! [`optwin_core::snapshot`]) instead of JSON number arrays, shrinking
//! large-window fleet snapshots by an order of magnitude while keeping
//! restores **bit-exact** (the blobs carry the same raw accumulators; no
//! recomputation happens on either side). The outer JSON structure is
//! unchanged, and every detector's `restore_state` accepts both layouts, so
//! a v4 reader loads v1–v3 snapshots unchanged and the layout is chosen
//! purely at write time: [`crate::EngineHandle::snapshot_compact`] (or the
//! [`crate::EngineBuilder::snapshot_encoding`] knob) writes v4,
//! [`crate::EngineHandle::snapshot`] defaults to v3 JSON.
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
//! bump: they ride v3/v4 unchanged, and a reader that ignores the marker
//! still restores correctly (awake).
//!
//! The snapshot deliberately excludes detector *configuration* beyond the
//! spec string: restoration re-derives shared resources (e.g. OPTWIN cut
//! tables) from the spec or factory. Shard count and warning policy are
//! recorded as provenance and do not constrain the restoring builder.
//!
//! # Wire format v5: checkpoint directories (built on v4)
//!
//! Whole-fleet snapshots are point-in-time; the [`crate::checkpoint`]
//! subsystem turns them into *continuous* durability without defining a new
//! stream encoding. A checkpoint **directory** (wire v5) holds a full v4
//! [`EngineSnapshot`] as its base, delta overlays listing only the streams
//! each barrier found dirty (same per-stream `{spec, seq, state, shard,
//! hibernated}` entries, reusing this module's serialization verbatim), and
//! per-shard write-ahead-log segments covering the records since the last
//! barrier. Shard workers track a per-stream **dirty bit** — set on
//! creation, after every ingested batch, on hibernation transitions and on
//! migration, cleared only when a checkpoint captures the stream — which is
//! what makes the overlays sparse. Recovery merges base → overlays → WAL
//! tail through the ordinary restore path of this module, so everything
//! above about bit-exactness, factory-less spec restore, placement and
//! hibernated entries applies to recovered fleets unchanged.

use optwin_baselines::DetectorSpec;
use optwin_core::SnapshotEncoding;
use serde::{Deserialize, Serialize};

use crate::error::EngineError;

/// Current serialization format version of [`EngineSnapshot`].
///
/// * **v1** — per-stream `{seq, detector, state}`; restore requires a
///   factory.
/// * **v2** — adds the optional per-stream `spec`, making restore
///   factory-less for spec-registered streams. v1 snapshots still parse and
///   restore (behind a factory).
/// * **v3** — adds the optional per-stream `shard`, making restore
///   placement-preserving (a rebalanced routing table survives a restart).
///   v1/v2 snapshots still parse and restore, defaulting to `id % shards`.
/// * **v4** — detector states embed window/bucket payloads as compact
///   binary blobs instead of JSON number arrays. v1–v3 snapshots still
///   parse and restore unchanged; v3 remains the default *write* format
///   ([`wire_version`]).
///
/// Wire **v5** is a checkpoint *directory* format
/// ([`crate::checkpoint::CHECKPOINT_WIRE_VERSION`]) layered on top of v4
/// snapshots — it does not bump this constant.
pub const ENGINE_SNAPSHOT_VERSION: u64 = 4;

/// The wire version written for a given sequence layout: v3 for
/// [`SnapshotEncoding::Json`] (the historical number-array layout), v4 for
/// [`SnapshotEncoding::Binary`] (compact blobs).
#[must_use]
pub fn wire_version(encoding: SnapshotEncoding) -> u64 {
    match encoding {
        SnapshotEncoding::Json => 3,
        SnapshotEncoding::Binary => ENGINE_SNAPSHOT_VERSION,
    }
}

/// The persisted state of one stream: its position, optionally the
/// [`DetectorSpec`] it was registered with, and its detector's serialized
/// internals.
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
    /// The spec the stream was registered with, when it was registered
    /// declaratively (`None` for closure-factory and explicit-instance
    /// streams, and for every stream of a v1 snapshot).
    pub spec: Option<DetectorSpec>,
    /// The shard the stream lived on when the snapshot was taken (`None`
    /// for v1/v2 snapshots). Restores re-pin the stream to
    /// `shard % new_shard_count`.
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

// Hand-written (rather than derived) so that the `hibernated` marker is
// omitted when false: an all-awake snapshot must stay byte-identical to the
// pre-hibernation wire output (golden fixtures and the size guard pin this).
impl Serialize for StreamStateSnapshot {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("stream".to_string(), self.stream.to_value()),
            ("seq".to_string(), self.seq.to_value()),
            ("detector".to_string(), self.detector.to_value()),
            (
                "detector_seconds".to_string(),
                self.detector_seconds.to_value(),
            ),
            ("spec".to_string(), self.spec.to_value()),
            ("shard".to_string(), self.shard.to_value()),
            ("state".to_string(), self.state.to_value()),
        ];
        if self.hibernated {
            fields.push(("hibernated".to_string(), serde::Value::Bool(true)));
        }
        serde::Value::Object(fields)
    }
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// snapshot restores with no factory configured.
    #[must_use]
    pub fn is_self_describing(&self) -> bool {
        self.streams.iter().all(|s| s.spec.is_some())
    }

    /// `true` when every stream records its shard placement (wire format
    /// v3), i.e. a restore reproduces the producing engine's routing table
    /// instead of re-pinning by `id % shards`.
    #[must_use]
    pub fn records_placement(&self) -> bool {
        self.streams.iter().all(|s| s.shard.is_some())
    }

    /// Serializes the snapshot to compact JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("value-tree serialization is infallible")
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
        assert!(!snapshot.records_placement());
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
        assert!(!snapshot.records_placement());
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
    fn self_describing_and_placement_detection() {
        let mut snapshot = sample();
        snapshot.streams.truncate(1);
        assert!(snapshot.is_self_describing());
        assert!(snapshot.records_placement());
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
