//! The engine's error type and its per-stream statistics view.

use std::fmt;

/// Engine construction errors and ingestion-time failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A stream id was registered twice.
    DuplicateStream(u64),
    /// A record referenced a stream that is not registered; the record was
    /// dropped.
    UnknownStream(u64),
    /// An engine was configured with zero shards.
    ZeroShards,
    /// An engine was configured with a zero-record queue capacity.
    ZeroQueueCapacity,
    /// The engine has shut down (or a worker died): no further work is
    /// accepted.
    ChannelClosed,
    /// Internal state was poisoned by a panicking thread.
    Poisoned,
    /// A persisted engine snapshot could not be restored.
    InvalidSnapshot(String),
    /// A [`optwin_baselines::DetectorSpec`] failed validation or could not
    /// be built into a detector.
    InvalidSpec(String),
    /// A fleet configuration file (JSON map of stream id → spec string)
    /// could not be read or parsed.
    InvalidFleetConfig(String),
    /// A hibernated stream could not be rehydrated (corrupt or mismatched
    /// state blob). The stream stays asleep; its pending records are
    /// dropped and the error is reported through the usual drain path.
    Hibernation {
        /// The stream that failed to wake.
        stream: u64,
        /// What went wrong.
        message: String,
    },
    /// A checkpoint or write-ahead-log I/O operation failed (disk full,
    /// permissions, a vanished directory). Distinct from
    /// [`EngineError::InvalidSnapshot`], which covers *reading* a damaged
    /// checkpoint directory: this one means the engine could not *write*
    /// durability data, so the loss window is no longer bounded.
    Checkpoint(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::DuplicateStream(id) => {
                write!(f, "stream {id} is already registered")
            }
            EngineError::UnknownStream(id) => {
                write!(f, "stream {id} is not registered; its records were dropped")
            }
            EngineError::ZeroShards => write!(f, "engine needs at least one shard"),
            EngineError::ZeroQueueCapacity => {
                write!(f, "engine queue capacity must be at least one record")
            }
            EngineError::ChannelClosed => {
                write!(f, "the engine has shut down and accepts no further work")
            }
            EngineError::Poisoned => {
                write!(f, "engine state was poisoned by a panicking worker thread")
            }
            EngineError::InvalidSnapshot(message) => {
                write!(f, "invalid engine snapshot: {message}")
            }
            EngineError::InvalidSpec(message) => {
                write!(f, "invalid detector spec: {message}")
            }
            EngineError::InvalidFleetConfig(message) => {
                write!(f, "invalid fleet config: {message}")
            }
            EngineError::Hibernation { stream, message } => {
                write!(f, "stream {stream}: hibernation failure: {message}")
            }
            EngineError::Checkpoint(message) => {
                write!(f, "checkpoint failure: {message}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Read-only view of one stream's lifetime statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSnapshot {
    /// The stream id.
    pub stream: u64,
    /// The shard the stream lives on: `id % shards`.
    pub shard: usize,
    /// Elements ingested so far.
    pub elements: u64,
    /// Drifts the stream's detector has flagged.
    pub drifts: u64,
    /// Wall-clock seconds spent inside the detector.
    pub detector_seconds: f64,
    /// The detector's stable name (e.g. `"OPTWIN"`).
    pub detector: &'static str,
    /// The [`optwin_baselines::DetectorSpec`] the stream's detector was
    /// built from.
    pub spec: optwin_baselines::DetectorSpec,
    /// Whether the stream is currently hibernated: its detector compressed
    /// to a state blob, to be rehydrated transparently on the next record
    /// (see [`crate::HibernationPolicy`]).
    pub hibernated: bool,
    /// Resident bytes this stream currently costs: the live detector's
    /// [`optwin_core::DriftDetector::mem_footprint`], or the hibernated
    /// blob plus its bookkeeping.
    pub mem_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_messages() {
        let cases: Vec<(EngineError, &str)> = vec![
            (EngineError::DuplicateStream(7), "already registered"),
            (EngineError::UnknownStream(9), "not registered"),
            (EngineError::ZeroShards, "at least one shard"),
            (EngineError::ZeroQueueCapacity, "at least one record"),
            (EngineError::ChannelClosed, "shut down"),
            (EngineError::Poisoned, "poisoned"),
            (
                EngineError::InvalidSnapshot("bad version".to_string()),
                "bad version",
            ),
            (
                EngineError::InvalidSpec("`delta` must lie in (0, 1)".to_string()),
                "delta",
            ),
            (
                EngineError::InvalidFleetConfig("expected a JSON object".to_string()),
                "fleet config",
            ),
            (
                EngineError::Hibernation {
                    stream: 11,
                    message: "blob truncated".to_string(),
                },
                "blob truncated",
            ),
            (
                EngineError::Checkpoint("disk full".to_string()),
                "disk full",
            ),
        ];
        for (error, needle) in cases {
            let text = error.to_string();
            assert!(text.contains(needle), "`{text}` missing `{needle}`");
            // std::error::Error is implemented.
            let _: &dyn std::error::Error = &error;
        }
    }
}
