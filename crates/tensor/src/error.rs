use std::fmt;

/// Errors produced by tensor construction and shape-checked operations.
///
/// Operations whose shape requirements are statically evident from the call
/// site (e.g. [`crate::Matrix::matmul`]) panic on mismatch instead — a shape
/// mismatch there is a programming bug, not a recoverable condition. The
/// fallible constructors and parsers return this error type.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TensorError {
    /// The provided buffer length does not match `rows * cols`.
    LengthMismatch {
        /// Expected number of elements (`rows * cols`).
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
    /// A serialized tensor could not be parsed.
    Parse {
        /// Description of what failed to parse.
        detail: String,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::LengthMismatch { expected, actual } => {
                write!(f, "buffer length mismatch: expected {expected} elements, got {actual}")
            }
            TensorError::Parse { detail } => write!(f, "parse error: {detail}"),
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_length_mismatch() {
        let e = TensorError::LengthMismatch { expected: 6, actual: 5 };
        assert_eq!(e.to_string(), "buffer length mismatch: expected 6 elements, got 5");
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<TensorError>();
    }

    #[test]
    fn display_parse() {
        let p = TensorError::Parse { detail: "bad header".into() };
        assert!(p.to_string().contains("bad header"));
    }
}
