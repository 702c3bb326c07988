use std::fmt;

/// Errors produced by the OrcoDCS framework.
#[derive(Debug)]
#[non_exhaustive]
pub enum OrcoError {
    /// A configuration value was invalid.
    Config {
        /// What was wrong.
        detail: String,
    },
    /// The underlying network simulation failed.
    Network(orco_wsn::WsnError),
    /// A tensor operation failed.
    Tensor(orco_tensor::TensorError),
    /// Data with the wrong per-frame width reached a codec boundary —
    /// raised by the batch-level validation of
    /// [`Codec::encode_batch`](crate::Codec::encode_batch) /
    /// [`decode_batch`](crate::Codec::decode_batch), which the per-frame
    /// methods run too.
    Shape {
        /// The codec that rejected the data (its `Codec::name`).
        codec: &'static str,
        /// What was being validated (`"frame"` or `"code"` width).
        what: &'static str,
        /// Expected width in f32 elements.
        expected: usize,
        /// Width actually provided.
        actual: usize,
    },
    /// Training diverged (non-finite loss or parameters).
    Diverged {
        /// The round at which divergence was detected.
        round: usize,
    },
    /// An I/O operation failed — raised by the serving layer
    /// (`orco-serve`) where sockets and codecs share one `?` chain.
    Io(std::io::Error),
    /// Persisted state failed an integrity check — raised by
    /// [`EncoderCheckpoint::load`](crate::EncoderCheckpoint::load) when a
    /// checkpoint's checksum does not match its payload (torn write,
    /// truncation, bit rot). Callers must treat the artifact as garbage,
    /// never as weights.
    Corrupt {
        /// What failed to verify.
        detail: String,
    },
}

impl fmt::Display for OrcoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrcoError::Config { detail } => write!(f, "invalid configuration: {detail}"),
            OrcoError::Network(e) => write!(f, "network error: {e}"),
            OrcoError::Tensor(e) => write!(f, "tensor error: {e}"),
            OrcoError::Shape { codec, what, expected, actual } => write!(
                f,
                "{codec}: {what} width mismatch: expected {expected} f32 elements, got {actual}"
            ),
            OrcoError::Diverged { round } => {
                write!(f, "training diverged at round {round} (non-finite loss)")
            }
            OrcoError::Io(e) => write!(f, "i/o error: {e}"),
            OrcoError::Corrupt { detail } => write!(f, "corrupt artifact: {detail}"),
        }
    }
}

impl std::error::Error for OrcoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OrcoError::Network(e) => Some(e),
            OrcoError::Tensor(e) => Some(e),
            OrcoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<orco_wsn::WsnError> for OrcoError {
    fn from(e: orco_wsn::WsnError) -> Self {
        OrcoError::Network(e)
    }
}

impl From<orco_tensor::TensorError> for OrcoError {
    fn from(e: orco_tensor::TensorError) -> Self {
        OrcoError::Tensor(e)
    }
}

impl From<std::io::Error> for OrcoError {
    fn from(e: std::io::Error) -> Self {
        OrcoError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = OrcoError::Config { detail: "latent_dim is zero".into() };
        assert!(e.to_string().contains("latent_dim"));
        let net = OrcoError::from(orco_wsn::WsnError::UnknownNode { id: orco_wsn::NodeId(1) });
        assert!(std::error::Error::source(&net).is_some());
        assert!(net.to_string().contains("unknown node"));
        let shape = OrcoError::Shape { codec: "OrcoDCS", what: "frame", expected: 784, actual: 3 };
        assert!(shape.to_string().contains("OrcoDCS"));
        assert!(shape.to_string().contains("784"));
        let io = OrcoError::from(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "pipe"));
        assert!(matches!(io, OrcoError::Io(_)));
        assert!(std::error::Error::source(&io).is_some());
        assert!(io.to_string().contains("pipe"));
        let corrupt = OrcoError::Corrupt { detail: "checksum mismatch".into() };
        assert!(corrupt.to_string().contains("checksum mismatch"));
        assert!(std::error::Error::source(&corrupt).is_none());
    }
}
