//! Error type for state-space operations.

use std::fmt;

/// Errors raised while exploring or analysing a process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CspError {
    /// State-space exploration exceeded the configured bound.
    StateSpaceExceeded {
        /// The bound that was exceeded.
        limit: usize,
    },
    /// A process referenced a definition that was declared but never defined.
    UndefinedProcess {
        /// Name of the missing definition.
        name: String,
    },
    /// Recursion was not guarded by any event (e.g. `P = P`): firing a
    /// definition unfolds it again before any prefix.
    UnguardedRecursion {
        /// Name of a definition on the cycle.
        name: String,
    },
    /// Firing nested more than `limit` definitions through operators
    /// before an event, none recurring: finite, but past the stack bound.
    UnfoldingTooDeep {
        /// The definition being unfolded at the bound.
        name: String,
        /// The nesting bound.
        limit: usize,
    },
}

impl fmt::Display for CspError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CspError::StateSpaceExceeded { limit } => {
                write!(f, "state space exceeded the limit of {limit} states")
            }
            CspError::UndefinedProcess { name } => {
                write!(f, "process `{name}` was declared but never defined")
            }
            CspError::UnguardedRecursion { name } => {
                write!(
                    f,
                    "unguarded recursion in `{name}`: it unfolds into itself before any event"
                )
            }
            CspError::UnfoldingTooDeep { name, limit } => {
                write!(
                    f,
                    "unfolding `{name}` nests more than {limit} definitions deep before an event"
                )
            }
        }
    }
}

impl std::error::Error for CspError {}
