use std::error::Error;
use std::fmt;

/// Errors from performance evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The architecture allocates zero units of a component that the layer's
    /// workload requires, so the pipeline can never drain.
    MissingComponent {
        /// Weight-layer index.
        layer: usize,
        /// Component family name.
        component: &'static str,
    },
    /// Architecture and dataflow disagree on the layer count (they were
    /// built from different models or duplication vectors).
    LayerCountMismatch {
        /// Layers in the architecture.
        arch: usize,
        /// Layers in the dataflow.
        dataflow: usize,
    },
    /// A macro share breaks the pair rule of
    /// [`MacroGroup::check_pairs`](pimsyn_arch::MacroGroup::check_pairs),
    /// which [`Architecture::validate`](pimsyn_arch::Architecture::validate)
    /// enforces too.
    InvalidSharing {
        /// Index of the sharing layer.
        layer: usize,
        /// The layer whose macros it shares.
        target: usize,
        /// Which part of the rule the share breaks.
        reason: &'static str,
    },
    /// The requested number of pipelined images must be at least one.
    ZeroImages,
    /// Simulating this many images would track more pipeline blocks than
    /// [`MAX_SIMULATED_BLOCKS`](crate::MAX_SIMULATED_BLOCKS).
    TooManyBlocks {
        /// The requested image count.
        images: usize,
        /// The block bound it exceeds.
        limit: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MissingComponent { layer, component } => {
                write!(
                    f,
                    "layer {layer} has workload for `{component}` but zero units allocated"
                )
            }
            SimError::LayerCountMismatch { arch, dataflow } => {
                write!(
                    f,
                    "architecture has {arch} layers but dataflow has {dataflow}"
                )
            }
            SimError::InvalidSharing {
                layer,
                target,
                reason,
            } => write!(
                f,
                "layer {layer} cannot share layer {target}'s macros: {reason}"
            ),
            SimError::ZeroImages => write!(f, "at least one image must be simulated"),
            SimError::TooManyBlocks { images, limit } => write!(
                f,
                "simulating {images} images needs more than {limit} pipeline blocks"
            ),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }

    #[test]
    fn display_names_component() {
        let e = SimError::MissingComponent {
            layer: 3,
            component: "adc",
        };
        assert!(e.to_string().contains("adc"));
    }
}
