//! Error type of the `.cubec` store layer.

use std::error::Error;
use std::fmt;
use std::path::PathBuf;

use cube_xml::LimitKind;

/// Errors raised while encoding, decoding, or verifying a `.cubec` file.
#[derive(Debug)]
pub enum StoreError {
    /// The bytes are not a well-formed `.cubec` container: bad magic,
    /// unsupported version, inconsistent section table, undersized
    /// section, or an invalid dictionary reference.
    Format {
        /// What is wrong, in terms of the `docs/STORE.md` layout.
        message: String,
    },
    /// A checksum did not match the stored bytes: the file was altered
    /// after it was written.
    Checksum {
        /// CRC-32 recorded in the file.
        expected: u32,
        /// CRC-32 the bytes actually hash to.
        actual: u32,
        /// Which checksummed region failed, e.g. a section name or
        /// `severity chunk 3 (metric 'time', cnode 7)`.
        context: String,
    },
    /// The file exceeds a configured resource limit
    /// ([`ReadLimits`](cube_xml::ReadLimits)). The input-size,
    /// entity-count and depth limits apply to the binary format; the
    /// depth limit bounds the metric and call trees to the depth the
    /// XML reader accepts. The row-length limit has no binary
    /// counterpart.
    Limit {
        /// Which limit was crossed.
        kind: LimitKind,
        /// Human-readable description with the offending and allowed
        /// values.
        message: String,
    },
    /// The decoded experiment violates the CUBE data model.
    Model(cube_model::ModelError),
    /// Underlying I/O failure. `path` is the file involved, when the
    /// operation had one.
    Io {
        /// File the operation was reading or writing.
        path: Option<PathBuf>,
        /// The OS-level failure.
        source: std::io::Error,
    },
}

impl StoreError {
    pub(crate) fn format(message: impl Into<String>) -> Self {
        Self::Format {
            message: message.into(),
        }
    }

    pub(crate) fn io_at(path: impl Into<PathBuf>, source: std::io::Error) -> Self {
        Self::Io {
            path: Some(path.into()),
            source,
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Format { message } => write!(f, "not a valid .cubec file: {message}"),
            Self::Checksum {
                expected,
                actual,
                context,
            } => write!(
                f,
                "checksum mismatch in {context}: recorded crc32 {expected:08x}, bytes hash to {actual:08x}"
            ),
            Self::Limit { message, .. } => write!(f, "resource limit exceeded: {message}"),
            Self::Model(e) => write!(f, "experiment violates the data model: {e}"),
            Self::Io {
                path: Some(p),
                source,
            } => write!(f, "I/O error on {}: {source}", p.display()),
            Self::Io { path: None, source } => write!(f, "I/O error: {source}"),
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Model(e) => Some(e),
            Self::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<cube_model::ModelError> for StoreError {
    fn from(e: cube_model::ModelError) -> Self {
        Self::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = StoreError::format("magic bytes do not match");
        assert!(e.to_string().contains("magic"), "{e}");
        let c = StoreError::Checksum {
            expected: 0xdeadbeef,
            actual: 0x12345678,
            context: "metadata section".into(),
        };
        assert!(c.to_string().contains("deadbeef"), "{c}");
        assert!(c.to_string().contains("metadata section"), "{c}");
        let io = StoreError::io_at(
            "/tmp/x.cubec",
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        assert!(io.to_string().contains("/tmp/x.cubec"), "{io}");
        assert!(Error::source(&io).is_some());
    }
}
