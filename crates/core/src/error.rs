//! Error type of the algorithm crate.

use std::error::Error;
use std::fmt;

use kkt_congest::CongestError;

/// Errors raised by the King–Kutten–Thorup algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The underlying simulated network rejected an operation.
    Network(CongestError),
    /// An operation referred to an edge that does not exist (or is dead).
    NoSuchEdge {
        /// One endpoint (dense handle).
        u: usize,
        /// The other endpoint (dense handle).
        v: usize,
    },
    /// A construction algorithm exhausted its phase budget without finishing —
    /// with the paper's parameters this happens with probability at most
    /// `n^{-c}`.
    PhaseBudgetExhausted {
        /// Phases executed.
        phases: u32,
        /// Fragments still not maximal.
        fragments_left: usize,
    },
    /// A w.h.p. search for a cut's replacement edge gave up (probability
    /// `n^{-c}`): the forest no longer spans the cut's component.
    SearchGaveUp {
        /// The node the search ran from (dense handle).
        root: usize,
    },
    /// An internal invariant was violated (indicates a bug, not bad luck).
    Internal(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Network(e) => write!(f, "network error: {e}"),
            CoreError::NoSuchEdge { u, v } => write!(f, "no live edge between {u} and {v}"),
            CoreError::PhaseBudgetExhausted { phases, fragments_left } => write!(
                f,
                "construction did not converge within {phases} phases ({fragments_left} non-maximal fragments left)"
            ),
            CoreError::SearchGaveUp { root } => {
                write!(f, "the replacement search from node {root} gave up")
            }
            CoreError::Internal(msg) => write!(f, "internal invariant violated: {msg}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Network(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CongestError> for CoreError {
    fn from(e: CongestError) -> Self {
        CoreError::Network(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = CoreError::from(CongestError::InvalidNode(3));
        assert!(format!("{e}").contains("network error"));
        assert!(e.source().is_some());
        let e = CoreError::NoSuchEdge { u: 1, v: 2 };
        assert!(format!("{e}").contains("1 and 2"));
        assert!(e.source().is_none());
        let e = CoreError::PhaseBudgetExhausted { phases: 9, fragments_left: 4 };
        assert!(format!("{e}").contains('9'));
        let e = CoreError::SearchGaveUp { root: 5 };
        assert!(format!("{e}").contains("node 5 gave up"));
        let e = CoreError::Internal("oops".into());
        assert!(format!("{e}").contains("oops"));
    }
}
