//! Workspace error type.

use std::fmt;

/// Errors produced while constructing or operating on EBS domain values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EbsError {
    /// A specification violated its invariants.
    InvalidSpec(String),
    /// A configuration value was out of range or inconsistent.
    InvalidConfig(String),
    /// An id referenced an entity that does not exist in the fleet.
    UnknownEntity(String),
    /// An underlying IO operation failed (message of the `std::io::Error`).
    Io(String),
    /// A stored file ended before a complete header/chunk could be read.
    Truncated(String),
    /// A stored chunk's CRC32 did not match its payload.
    ChecksumMismatch(String),
    /// A stored file declares a format version this build cannot read.
    VersionSkew(String),
    /// A stored file is structurally malformed (bad magic, impossible
    /// lengths, inconsistent cross-references) beyond simple truncation.
    CorruptStore(String),
}

impl EbsError {
    /// Build an [`EbsError::InvalidSpec`].
    pub fn invalid_spec(msg: impl Into<String>) -> Self {
        EbsError::InvalidSpec(msg.into())
    }

    /// Build an [`EbsError::InvalidConfig`].
    pub fn invalid_config(msg: impl Into<String>) -> Self {
        EbsError::InvalidConfig(msg.into())
    }

    /// Build an [`EbsError::UnknownEntity`].
    pub fn unknown_entity(msg: impl Into<String>) -> Self {
        EbsError::UnknownEntity(msg.into())
    }

    /// Build an [`EbsError::Truncated`].
    pub fn truncated(msg: impl Into<String>) -> Self {
        EbsError::Truncated(msg.into())
    }

    /// Build an [`EbsError::ChecksumMismatch`].
    pub fn checksum_mismatch(msg: impl Into<String>) -> Self {
        EbsError::ChecksumMismatch(msg.into())
    }

    /// Build an [`EbsError::VersionSkew`].
    pub fn version_skew(msg: impl Into<String>) -> Self {
        EbsError::VersionSkew(msg.into())
    }

    /// Build an [`EbsError::CorruptStore`].
    pub fn corrupt_store(msg: impl Into<String>) -> Self {
        EbsError::CorruptStore(msg.into())
    }
}

impl From<std::io::Error> for EbsError {
    fn from(e: std::io::Error) -> Self {
        // An unexpected EOF from a `Read` adapter is a truncation in store
        // terms; everything else is an environment failure.
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            EbsError::Truncated(e.to_string())
        } else {
            EbsError::Io(e.to_string())
        }
    }
}

impl fmt::Display for EbsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EbsError::InvalidSpec(m) => write!(f, "invalid specification: {m}"),
            EbsError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            EbsError::UnknownEntity(m) => write!(f, "unknown entity: {m}"),
            EbsError::Io(m) => write!(f, "io error: {m}"),
            EbsError::Truncated(m) => write!(f, "truncated store: {m}"),
            EbsError::ChecksumMismatch(m) => write!(f, "checksum mismatch: {m}"),
            EbsError::VersionSkew(m) => write!(f, "version skew: {m}"),
            EbsError::CorruptStore(m) => write!(f, "corrupt store: {m}"),
        }
    }
}

impl std::error::Error for EbsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_category_and_message() {
        let e = EbsError::invalid_config("tick width");
        assert_eq!(e.to_string(), "invalid configuration: tick width");
    }

    #[test]
    fn store_variants_display_their_category() {
        assert_eq!(
            EbsError::truncated("chunk 3").to_string(),
            "truncated store: chunk 3"
        );
        assert!(EbsError::checksum_mismatch("x")
            .to_string()
            .contains("checksum mismatch"));
        assert!(EbsError::version_skew("v9")
            .to_string()
            .contains("version skew"));
        assert!(EbsError::corrupt_store("magic")
            .to_string()
            .contains("corrupt store"));
    }

    #[test]
    fn io_errors_convert_by_kind() {
        let eof = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        assert!(matches!(EbsError::from(eof), EbsError::Truncated(_)));
        let perm = std::io::Error::new(std::io::ErrorKind::PermissionDenied, "no");
        assert!(matches!(EbsError::from(perm), EbsError::Io(_)));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&EbsError::unknown_entity("vd-9"));
    }
}
