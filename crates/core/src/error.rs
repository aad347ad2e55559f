//! Error type for the co-design framework.

use std::error::Error;
use std::fmt;

/// Error returned by the co-design pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The problem definition was inconsistent (no applications, mismatched
    /// counts, bad configuration values, …).
    InvalidProblem {
        /// Human-readable description of the defect.
        reason: String,
    },
    /// The cache/WCET substrate failed.
    Cache(cacs_cache::CacheError),
    /// The scheduling substrate failed.
    Sched(cacs_sched::SchedError),
    /// The control substrate failed.
    Control(cacs_control::ControlError),
    /// The search substrate failed.
    Search(cacs_search::SearchError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidProblem { reason } => write!(f, "invalid problem: {reason}"),
            CoreError::Cache(e) => write!(f, "cache analysis: {e}"),
            CoreError::Sched(e) => write!(f, "scheduling: {e}"),
            CoreError::Control(e) => write!(f, "control design: {e}"),
            CoreError::Search(e) => write!(f, "schedule search: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::InvalidProblem { .. } => None,
            CoreError::Cache(e) => Some(e),
            CoreError::Sched(e) => Some(e),
            CoreError::Control(e) => Some(e),
            CoreError::Search(e) => Some(e),
        }
    }
}

impl From<cacs_cache::CacheError> for CoreError {
    fn from(e: cacs_cache::CacheError) -> Self {
        CoreError::Cache(e)
    }
}

impl From<cacs_sched::SchedError> for CoreError {
    fn from(e: cacs_sched::SchedError) -> Self {
        CoreError::Sched(e)
    }
}

impl From<cacs_control::ControlError> for CoreError {
    fn from(e: cacs_control::ControlError) -> Self {
        CoreError::Control(e)
    }
}

impl From<cacs_search::SearchError> for CoreError {
    fn from(e: cacs_search::SearchError) -> Self {
        CoreError::Search(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CoreError::Sched(cacs_sched::SchedError::AppCountMismatch {
            expected: 3,
            actual: 1,
        });
        assert!(e.to_string().contains("scheduling"));
        assert!(e.source().is_some());
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync>() {}
        check::<CoreError>();
    }
}
