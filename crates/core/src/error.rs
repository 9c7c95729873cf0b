use std::error::Error;
use std::fmt;

/// Errors produced by the cmmf optimizer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CmmfError {
    /// The design space is too small for the requested initialization.
    SpaceTooSmall {
        /// Configurations required.
        required: usize,
        /// Configurations available.
        available: usize,
    },
    /// Surrogate modelling failed.
    Model(gp::GpError),
    /// Design-space construction failed.
    Space(hls_model::ModelError),
    /// The configuration combines settings that cannot run together (for
    /// example a `batch_size > 1` barrier batch with `async_slots > 0`).
    InvalidConfig {
        /// Which settings conflict.
        reason: String,
    },
    /// An internal invariant was violated (a bug, please report).
    Internal {
        /// Description of the violated invariant.
        reason: String,
    },
    /// A checkpoint could not be written, read, or applied (I/O failure,
    /// malformed JSON, version or configuration mismatch).
    Checkpoint {
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for CmmfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CmmfError::SpaceTooSmall {
                required,
                available,
            } => write!(
                f,
                "design space has {available} configurations, fewer than the {required} required"
            ),
            CmmfError::Model(e) => write!(f, "surrogate model failure: {e}"),
            CmmfError::Space(e) => write!(f, "design space failure: {e}"),
            CmmfError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            CmmfError::Internal { reason } => write!(f, "internal invariant violated: {reason}"),
            CmmfError::Checkpoint { reason } => write!(f, "checkpoint failure: {reason}"),
        }
    }
}

impl Error for CmmfError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CmmfError::Model(e) => Some(e),
            CmmfError::Space(e) => Some(e),
            _ => None,
        }
    }
}

impl From<gp::GpError> for CmmfError {
    fn from(e: gp::GpError) -> Self {
        CmmfError::Model(e)
    }
}

impl From<hls_model::ModelError> for CmmfError {
    fn from(e: hls_model::ModelError) -> Self {
        CmmfError::Space(e)
    }
}
