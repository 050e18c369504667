//! Config-file fleet loading: a JSON map of `stream id → spec string`
//! turned into pre-registered, declaratively configured engine streams.
//!
//! The wire shape is deliberately the dumbest thing that round-trips through
//! every config system (one flat JSON object — keys are stream ids, values
//! are [`DetectorSpec`] strings in the canonical grammar):
//!
//! ```json
//! {
//!     "0": "optwin:rho=0.5,w_max=2000",
//!     "1": "adwin:delta=0.002",
//!     "7": "kswin:window_size=300,stat_size=30,alpha=0.0001"
//! }
//! ```
//!
//! [`FleetConfig`] is the parsed form. Each of its entries becomes an
//! engine stream through [`crate::EngineBuilder::stream_spec`], and the
//! `table1 --fleet <file>` CLI runs a whole experiment over one. Spec
//! strings parse strictly: an unknown key is an error, never a warning.

use std::path::Path;

use optwin_baselines::DetectorSpec;

use crate::error::EngineError;

/// A parsed fleet configuration: which detector spec each stream id runs.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// `(stream id, spec)` pairs, sorted by stream id.
    pub streams: Vec<(u64, DetectorSpec)>,
}

impl FleetConfig {
    /// Parses a fleet config from its JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidFleetConfig`] for malformed JSON, a
    /// non-object top level, an unparsable stream id, a non-string or
    /// invalid spec (an unknown key included), or a duplicate stream id.
    pub fn from_json(text: &str) -> Result<Self, EngineError> {
        let bad = |message: String| EngineError::InvalidFleetConfig(message);
        let value: serde::Value =
            serde_json::from_str(text).map_err(|e| bad(format!("malformed JSON: {e}")))?;
        let entries = value.as_object().ok_or_else(|| {
            bad("expected a JSON object mapping stream ids to detector spec strings".to_string())
        })?;

        let mut streams: Vec<(u64, DetectorSpec)> = Vec::with_capacity(entries.len());
        for (key, entry) in entries {
            let stream: u64 = key
                .trim()
                .parse()
                .map_err(|_| bad(format!("stream id `{key}` is not an unsigned integer")))?;
            let serde::Value::Str(spec_text) = entry else {
                return Err(bad(format!(
                    "stream {stream}: expected a detector spec string, found {entry:?}"
                )));
            };
            let spec = spec_text
                .parse()
                .map_err(|e| bad(format!("stream {stream}: {e}")))?;
            streams.push((stream, spec));
        }
        streams.sort_unstable_by_key(|&(stream, _)| stream);
        if let Some(window) = streams.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(bad(format!("duplicate stream id {}", window[0].0)));
        }
        Ok(Self { streams })
    }

    /// Reads and parses a fleet config file.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidFleetConfig`] when the file cannot be
    /// read, plus every error [`FleetConfig::from_json`] reports.
    pub fn from_path(path: impl AsRef<Path>) -> Result<Self, EngineError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| {
            EngineError::InvalidFleetConfig(format!("cannot read {}: {e}", path.display()))
        })?;
        Self::from_json(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_heterogeneous_fleet() {
        let fleet = FleetConfig::from_json(
            r#"{"3": "adwin:delta=0.01", "1": "optwin:w_max=500", "2": "kswin"}"#,
        )
        .unwrap();
        let ids: Vec<u64> = fleet.streams.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![1, 2, 3], "sorted by stream id");
        assert_eq!(fleet.streams[0].1.id(), "optwin");
        assert_eq!(fleet.streams[2].1.id(), "adwin");
    }

    #[test]
    fn rejects_malformed_configs() {
        for (text, needle) in [
            ("not json", "malformed JSON"),
            ("[1, 2]", "JSON object"),
            (r#"{"x": "adwin"}"#, "not an unsigned integer"),
            (r#"{"1": 42}"#, "spec string"),
            (r#"{"1": "frobnicate"}"#, "unknown detector"),
            (r#"{"1": "adwin:delta=2.0"}"#, "delta"),
            (
                r#"{"1": "adwin:delta=0.01,future_knob=7"}"#,
                "unknown key `future_knob`",
            ),
            (r#"{"1": "adwin", "01": "ddm"}"#, "duplicate stream id 1"),
        ] {
            let err = FleetConfig::from_json(text).unwrap_err();
            assert!(
                matches!(err, EngineError::InvalidFleetConfig(_)),
                "{text}: {err}"
            );
            assert!(err.to_string().contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn from_path_reads_files_and_reports_missing_ones() {
        let dir = std::env::temp_dir().join("optwin_fleet_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.json");
        std::fs::write(&path, r#"{"5": "page_hinkley"}"#).unwrap();
        let fleet = FleetConfig::from_path(&path).unwrap();
        assert_eq!(fleet.streams.len(), 1);
        assert_eq!(fleet.streams[0].0, 5);

        let err = FleetConfig::from_path(dir.join("missing.json")).unwrap_err();
        assert!(err.to_string().contains("cannot read"), "{err}");
    }
}
