use std::error::Error;
use std::fmt;

use pimsyn_dse::DseError;
use pimsyn_sim::SimError;

/// Errors from the end-to-end synthesis flow.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SynthesisError {
    /// Exploration failed (most commonly: the power constraint cannot host
    /// one copy of the network's weights at any design point).
    Dse(DseError),
    /// Final cycle-accurate validation failed.
    Sim(SimError),
    /// The job was cancelled through its
    /// [`CancelToken`](crate::CancelToken).
    Cancelled,
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::Dse(e) => write!(f, "design-space exploration failed: {e}"),
            SynthesisError::Sim(e) => write!(f, "cycle-accurate validation failed: {e}"),
            SynthesisError::Cancelled => write!(f, "synthesis cancelled"),
        }
    }
}

impl Error for SynthesisError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SynthesisError::Dse(e) => Some(e),
            SynthesisError::Sim(e) => Some(e),
            SynthesisError::Cancelled => None,
        }
    }
}

impl From<DseError> for SynthesisError {
    fn from(e: DseError) -> Self {
        match e {
            // Cancellation is a caller decision, not an exploration failure.
            DseError::Cancelled => SynthesisError::Cancelled,
            other => SynthesisError::Dse(other),
        }
    }
}

impl From<SimError> for SynthesisError {
    fn from(e: SimError) -> Self {
        SynthesisError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SynthesisError>();
    }

    #[test]
    fn source_is_chained() {
        let e = SynthesisError::from(DseError::NoFeasibleSolution);
        assert!(e.source().is_some());
    }
}
