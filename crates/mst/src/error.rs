//! Error types for tree construction.

use std::error::Error;
use std::fmt;

/// Errors produced while building or orienting spanning trees.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MstError {
    /// The input pointset has fewer than two points, so there is no tree to build.
    TooFewPoints {
        /// Number of points supplied.
        found: usize,
    },
    /// Two input points coincide; the MST and the length diversity are then degenerate.
    DuplicatePoints {
        /// Index of the first copy.
        first: usize,
        /// Index of the second copy.
        second: usize,
    },
    /// An input point has a NaN or infinite coordinate.
    NonFinite {
        /// Index of the lowest such point.
        index: usize,
    },
    /// A node index referenced by an edge or sink is out of range.
    NodeOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of nodes available.
        nodes: usize,
    },
    /// The supplied edge set is not a spanning tree of the pointset
    /// (wrong edge count or disconnected).
    NotASpanningTree {
        /// Human-readable reason.
        reason: &'static str,
    },
}

impl fmt::Display for MstError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MstError::TooFewPoints { found } => {
                write!(f, "need at least 2 points to build a tree, found {found}")
            }
            MstError::DuplicatePoints { first, second } => {
                write!(f, "points {first} and {second} coincide")
            }
            MstError::NonFinite { index } => {
                write!(f, "point {index} has a NaN or infinite coordinate")
            }
            MstError::NodeOutOfRange { index, nodes } => {
                write!(f, "node index {index} out of range for {nodes} nodes")
            }
            MstError::NotASpanningTree { reason } => {
                write!(f, "edge set is not a spanning tree: {reason}")
            }
        }
    }
}

impl Error for MstError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(MstError::TooFewPoints { found: 1 }
            .to_string()
            .contains("at least 2"));
        assert!(MstError::DuplicatePoints {
            first: 0,
            second: 3
        }
        .to_string()
        .contains("coincide"));
        assert!(MstError::NonFinite { index: 2 }
            .to_string()
            .contains("NaN or infinite"));
        assert!(MstError::NodeOutOfRange { index: 9, nodes: 4 }
            .to_string()
            .contains("out of range"));
        assert!(MstError::NotASpanningTree {
            reason: "disconnected"
        }
        .to_string()
        .contains("disconnected"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn Error> = Box::new(MstError::TooFewPoints { found: 0 });
        assert!(e.source().is_none());
    }
}
