use std::error::Error;
use std::fmt;

/// Errors produced while building, validating, or ingesting a CNN model.
///
/// Every public fallible operation in this crate returns this type, per
/// C-GOOD-ERR: it implements [`std::error::Error`], [`Send`] and [`Sync`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelError {
    /// A layer references another layer that does not exist.
    UnknownLayer {
        /// Name or index of the missing layer, as written by the referrer.
        reference: String,
    },
    /// A layer's input shape is incompatible with its parameters.
    ShapeMismatch {
        /// Layer that failed shape inference.
        layer: String,
        /// Human-readable description of the incompatibility.
        detail: String,
    },
    /// The model has no layers.
    EmptyModel,
    /// An `Add` (residual) layer has operands of differing shapes.
    AddShapeMismatch {
        /// The add layer in question.
        layer: String,
        /// Shape of the first operand, `channels x height x width`.
        lhs: (usize, usize, usize),
        /// Shape of the second operand.
        rhs: (usize, usize, usize),
    },
    /// Failure while parsing a JSON model description.
    Parse {
        /// Byte offset at which parsing failed.
        offset: usize,
        /// Description of what went wrong.
        detail: String,
    },
    /// A JSON document nests arrays and objects deeper than the parser's
    /// bound ([`crate::json::MAX_DEPTH`]).
    NestingTooDeep {
        /// Byte offset of the first array or object past the bound.
        offset: usize,
        /// The deepest nesting accepted.
        limit: usize,
    },
    /// The ONNX-style graph is structurally valid JSON but semantically
    /// malformed (missing field, unsupported op, bad attribute, ...).
    Ingest {
        /// Description of the problem.
        detail: String,
    },
    /// A quantization precision outside the supported 1..=32 bit range.
    InvalidPrecision {
        /// The rejected bit width.
        bits: u32,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::UnknownLayer { reference } => {
                write!(f, "reference to unknown layer `{reference}`")
            }
            ModelError::ShapeMismatch { layer, detail } => {
                write!(f, "shape mismatch at layer `{layer}`: {detail}")
            }
            ModelError::EmptyModel => write!(f, "model contains no layers"),
            ModelError::AddShapeMismatch { layer, lhs, rhs } => write!(
                f,
                "add layer `{layer}` combines mismatched shapes {}x{}x{} and {}x{}x{}",
                lhs.0, lhs.1, lhs.2, rhs.0, rhs.1, rhs.2
            ),
            ModelError::Parse { offset, detail } => {
                write!(f, "JSON parse error at byte {offset}: {detail}")
            }
            ModelError::NestingTooDeep { offset, limit } => write!(
                f,
                "JSON nesting deeper than {limit} levels at byte {offset}"
            ),
            ModelError::Ingest { detail } => write!(f, "model ingestion error: {detail}"),
            ModelError::InvalidPrecision { bits } => {
                write!(
                    f,
                    "invalid quantization precision: {bits} bits (expected 1..=32)"
                )
            }
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_unpunctuated() {
        let e = ModelError::EmptyModel;
        let s = e.to_string();
        assert!(s.starts_with(char::is_lowercase));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModelError>();
    }

    #[test]
    fn add_mismatch_message_contains_shapes() {
        let e = ModelError::AddShapeMismatch {
            layer: "add1".into(),
            lhs: (64, 56, 56),
            rhs: (128, 28, 28),
        };
        let s = e.to_string();
        assert!(s.contains("64x56x56"));
        assert!(s.contains("128x28x28"));
    }
}
