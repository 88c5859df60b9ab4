use std::error::Error;
use std::fmt;

use pimsyn_ir::IrError;
use pimsyn_sim::SimError;

/// Errors from design-space exploration.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DseError {
    /// The crossbar budget (Eq. (3)) cannot hold even one copy of every
    /// layer's weights, so no feasible duplication exists at this design
    /// point.
    BudgetTooSmall {
        /// Crossbars required for one copy of the whole network.
        needed: usize,
        /// Crossbars the power envelope affords.
        available: usize,
    },
    /// The peripheral power budget is exhausted by fixed infrastructure
    /// before any ADC/ALU can be allocated.
    NoPeripheralPower {
        /// Watts left after fixed costs (negative means deficit).
        remaining: f64,
    },
    /// No explored design point produced a working accelerator.
    NoFeasibleSolution,
    /// The caller cancelled the exploration via
    /// [`CancelToken::cancel`](crate::CancelToken::cancel).
    Cancelled,
    /// Underlying IR-compilation error.
    Ir(IrError),
    /// Underlying evaluation error.
    Sim(SimError),
}

impl fmt::Display for DseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DseError::BudgetTooSmall { needed, available } => write!(
                f,
                "crossbar budget too small: one weight copy needs {needed} crossbars, \
                 power affords {available}"
            ),
            DseError::NoPeripheralPower { remaining } => write!(
                f,
                "no peripheral power left after fixed infrastructure ({remaining:.3} W remaining)"
            ),
            DseError::NoFeasibleSolution => write!(f, "no feasible accelerator found"),
            DseError::Cancelled => write!(f, "exploration cancelled"),
            DseError::Ir(e) => write!(f, "ir error: {e}"),
            DseError::Sim(e) => write!(f, "simulation error: {e}"),
        }
    }
}

impl Error for DseError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DseError::Ir(e) => Some(e),
            DseError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IrError> for DseError {
    fn from(e: IrError) -> Self {
        DseError::Ir(e)
    }
}

impl From<SimError> for DseError {
    fn from(e: SimError) -> Self {
        DseError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DseError>();
    }

    #[test]
    fn source_chains() {
        let e = DseError::from(IrError::ZeroDuplication { layer: 1 });
        assert!(e.source().is_some());
        assert!(e.to_string().contains("ir error"));
    }
}
