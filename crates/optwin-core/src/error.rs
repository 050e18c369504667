//! Error types for the OPTWIN core crate.

use std::fmt;

use optwin_stats::StatsError;

/// Errors produced by detector configuration and construction.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A configuration value is outside its valid domain.
    InvalidConfig {
        /// Name of the offending field.
        field: &'static str,
        /// Human-readable description of the constraint that was violated.
        message: String,
    },
    /// An underlying statistical routine failed.
    Stats(StatsError),
    /// A detector was asked for a state snapshot it does not implement.
    SnapshotUnsupported {
        /// The detector's stable name.
        detector: &'static str,
    },
    /// A serialized detector state could not be restored.
    InvalidSnapshot {
        /// Human-readable description of the mismatch.
        message: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidConfig { field, message } => {
                write!(f, "invalid detector configuration: `{field}` {message}")
            }
            CoreError::Stats(e) => write!(f, "statistical routine failed: {e}"),
            CoreError::SnapshotUnsupported { detector } => {
                write!(f, "detector `{detector}` does not support state snapshots")
            }
            CoreError::InvalidSnapshot { message } => {
                write!(f, "invalid detector snapshot: {message}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Stats(e) => Some(e),
            CoreError::InvalidConfig { .. }
            | CoreError::SnapshotUnsupported { .. }
            | CoreError::InvalidSnapshot { .. } => None,
        }
    }
}

impl From<StatsError> for CoreError {
    fn from(e: StatsError) -> Self {
        CoreError::Stats(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CoreError::InvalidConfig {
            field: "delta",
            message: "must lie in (0, 1)".to_string(),
        };
        assert_eq!(
            e.to_string(),
            "invalid detector configuration: `delta` must lie in (0, 1)"
        );
        assert!(std::error::Error::source(&e).is_none());

        let e: CoreError = StatsError::InvalidProbability { value: 2.0 }.into();
        assert!(e.to_string().contains("statistical"));
        assert!(std::error::Error::source(&e).is_some());

        let e = CoreError::SnapshotUnsupported { detector: "ADWIN" };
        assert!(e.to_string().contains("ADWIN"));
        assert!(std::error::Error::source(&e).is_none());
        let e = CoreError::InvalidSnapshot {
            message: "missing field `split`".to_string(),
        };
        assert!(e.to_string().contains("split"));
    }
}
