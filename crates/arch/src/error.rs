use std::error::Error;
use std::fmt;

/// Errors from hardware configuration and architecture assembly.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ArchError {
    /// A design variable took a value outside its legal domain
    /// (Table I of the paper defines the domains).
    InvalidDesignVariable {
        /// Variable name, e.g. `XbSize`.
        variable: &'static str,
        /// Offending value rendered as text.
        value: String,
        /// Legal domain rendered as text.
        expected: &'static str,
    },
    /// The power budget cannot cover even the fixed infrastructure
    /// (scratchpads, NoC routers, DACs) of the requested configuration.
    PowerBudgetExceeded {
        /// Power demanded by fixed components, in watts.
        required: f64,
        /// Power available, in watts.
        available: f64,
    },
    /// A layer was allocated zero crossbars/macros where at least one is
    /// required.
    EmptyAllocation {
        /// Index of the offending layer.
        layer: usize,
        /// What was missing.
        what: &'static str,
    },
    /// A macro share broke the pair rule of
    /// [`MacroGroup::check_pairs`](crate::MacroGroup::check_pairs).
    InvalidSharing {
        /// Index of the sharing layer.
        layer: usize,
        /// The layer whose macros it shares.
        target: usize,
        /// Which part of the rule the share breaks.
        reason: &'static str,
    },
    /// Macro-partitioning violated rule (c) of Sec. IV-C: a macro must hold
    /// at least one whole crossbar of every layer mapped to it.
    TooManyMacros {
        /// Index of the offending layer.
        layer: usize,
        /// Macros requested.
        requested: usize,
        /// Upper bound from the rule.
        max: usize,
    },
}

impl fmt::Display for ArchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchError::InvalidDesignVariable {
                variable,
                value,
                expected,
            } => {
                write!(f, "invalid {variable} = {value}, expected {expected}")
            }
            ArchError::PowerBudgetExceeded {
                required,
                available,
            } => write!(
                f,
                "fixed components need {required:.3} W but only {available:.3} W is available"
            ),
            ArchError::EmptyAllocation { layer, what } => {
                write!(f, "layer {layer} was allocated zero {what}")
            }
            ArchError::InvalidSharing {
                layer,
                target,
                reason,
            } => write!(
                f,
                "layer {layer} cannot share layer {target}'s macros: {reason}"
            ),
            ArchError::TooManyMacros {
                layer,
                requested,
                max,
            } => write!(
                f,
                "layer {layer} partitioned into {requested} macros, rule (c) allows at most {max}"
            ),
        }
    }
}

impl Error for ArchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ArchError>();
    }

    #[test]
    fn messages_mention_payload() {
        let e = ArchError::InvalidDesignVariable {
            variable: "XbSize",
            value: "100".into(),
            expected: "one of 128, 256, 512",
        };
        assert!(e.to_string().contains("XbSize"));
        assert!(e.to_string().contains("100"));
    }
}
