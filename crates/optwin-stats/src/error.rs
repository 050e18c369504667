//! Error types for the statistical substrate.

use std::fmt;

/// Errors produced by constructors and evaluations in `optwin-stats`.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// A distribution or test parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The offending value.
        value: f64,
        /// Human-readable description of the constraint that was violated.
        constraint: &'static str,
    },
    /// A probability argument was outside `(0, 1)` (or `[0, 1]` where noted).
    InvalidProbability {
        /// The offending value.
        value: f64,
    },
    /// Not enough data points to perform the requested computation.
    InsufficientData {
        /// Number of observations required.
        required: usize,
        /// Number of observations available.
        available: usize,
    },
    /// An iterative numerical routine failed to converge.
    ConvergenceFailure {
        /// Name of the routine that failed.
        routine: &'static str,
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::InvalidParameter {
                name,
                value,
                constraint,
            } => write!(f, "invalid parameter `{name}` = {value}: {constraint}"),
            StatsError::InvalidProbability { value } => {
                write!(f, "invalid probability {value}: must lie in (0, 1)")
            }
            StatsError::InsufficientData {
                required,
                available,
            } => write!(
                f,
                "insufficient data: need at least {required} observations, got {available}"
            ),
            StatsError::ConvergenceFailure {
                routine,
                iterations,
            } => write!(
                f,
                "`{routine}` failed to converge after {iterations} iterations"
            ),
        }
    }
}

impl std::error::Error for StatsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = StatsError::InvalidParameter {
            name: "df",
            value: -1.0,
            constraint: "must be positive",
        };
        assert!(e.to_string().contains("df"));
        assert!(e.to_string().contains("must be positive"));

        let e = StatsError::InvalidProbability { value: 1.5 };
        assert!(e.to_string().contains("1.5"));

        let e = StatsError::InsufficientData {
            required: 30,
            available: 2,
        };
        assert!(e.to_string().contains("30"));
        assert!(e.to_string().contains('2'));

        let e = StatsError::ConvergenceFailure {
            routine: "inv_inc_beta",
            iterations: 100,
        };
        assert!(e.to_string().contains("inv_inc_beta"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: std::error::Error>(_: &E) {}
        assert_error(&StatsError::InvalidProbability { value: 2.0 });
    }
}
