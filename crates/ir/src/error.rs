use std::error::Error;
use std::fmt;

/// Why [`Dataflow::compile`](crate::Dataflow::compile) rejected a model and
/// duplication strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IrError {
    /// The weight-duplication vector does not match the model's layer count.
    WtDupArity {
        /// Entries provided.
        got: usize,
        /// Weight layers in the model.
        expected: usize,
    },
    /// A duplication factor of zero is meaningless (every layer keeps at
    /// least one weight copy).
    ZeroDuplication {
        /// Offending layer index.
        layer: usize,
    },
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::WtDupArity { got, expected } => {
                write!(
                    f,
                    "weight duplication vector has {got} entries, model has {expected} layers"
                )
            }
            IrError::ZeroDuplication { layer } => {
                write!(f, "layer {layer} has zero weight duplication")
            }
        }
    }
}

impl Error for IrError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IrError>();
    }

    #[test]
    fn messages() {
        assert!(IrError::WtDupArity {
            got: 3,
            expected: 16
        }
        .to_string()
        .contains("16"));
        assert!(IrError::ZeroDuplication { layer: 2 }
            .to_string()
            .contains("layer 2"));
    }
}
