//! The crate-wide error type.
//!
//! Every fallible core operation — wiring a [`Pipeline`](crate::Pipeline),
//! extracting a mini-batch, touching the storage stack, serializing a
//! checkpoint — converges on [`Error`], so callers match one enum and walk
//! one [`source`](std::error::Error::source) chain instead of juggling the
//! per-layer types ([`BuildError`],
//! [`ExtractError`], [`IoError`], [`OomError`]). The
//! layer types remain public for code that wants the narrow contract.

use crate::checkpoint::CheckpointError;
use crate::extractor::ExtractError;
use crate::pipeline::BuildError;
use gnndrive_storage::{IoError, OomError};
use std::fmt;

/// Any failure the core crate can surface.
#[derive(Debug)]
pub enum Error {
    /// Pipeline construction failed (host or device memory).
    Build(BuildError),
    /// A mini-batch extraction failed past all recovery.
    Extract(ExtractError),
    /// A raw storage operation failed.
    Io(IoError),
    /// A host-memory charge was refused by the governor.
    Oom(OomError),
    /// A checkpoint blob or file was malformed, corrupted, or unreadable.
    Checkpoint(CheckpointError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Build(e) => write!(f, "{e}"),
            Error::Extract(e) => write!(f, "{e}"),
            Error::Io(e) => write!(f, "{e}"),
            Error::Oom(e) => write!(f, "{e}"),
            Error::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Build(e) => Some(e),
            Error::Extract(e) => Some(e),
            Error::Io(e) => Some(e),
            Error::Oom(e) => Some(e),
            Error::Checkpoint(e) => Some(e),
        }
    }
}

impl From<CheckpointError> for Error {
    fn from(e: CheckpointError) -> Self {
        Error::Checkpoint(e)
    }
}

impl From<BuildError> for Error {
    fn from(e: BuildError) -> Self {
        Error::Build(e)
    }
}

impl From<ExtractError> for Error {
    fn from(e: ExtractError) -> Self {
        Error::Extract(e)
    }
}

impl From<IoError> for Error {
    fn from(e: IoError) -> Self {
        Error::Io(e)
    }
}

impl From<OomError> for Error {
    fn from(e: OomError) -> Self {
        Error::Oom(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn source_chains_reach_the_storage_layer() {
        let io = IoError::DeviceFault {
            file: 3,
            offset: 512,
        };
        let err = Error::Extract(ExtractError::Io(io));
        // Error → ExtractError → IoError, two hops down the chain.
        let mid = err.source().expect("extract source");
        let leaf = mid.source().expect("io source");
        assert!(leaf.to_string().contains("device fault"));
        assert!(err.to_string().contains("extraction I/O failed"));
    }

    #[test]
    fn from_impls_wrap_every_layer() {
        let e: Error = IoError::DeviceClosed.into();
        assert!(matches!(e, Error::Io(_)));
        let e: Error = ExtractError::DependencyAborted(7).into();
        assert!(matches!(e, Error::Extract(_)));
        let e: Error = CheckpointError::BadMagic.into();
        assert!(matches!(e, Error::Checkpoint(_)));
        assert!(e.to_string().contains("bad magic"));
    }
}
