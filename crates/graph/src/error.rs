//! Error types for graph construction and IO.

use std::fmt;
use std::io;

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, GraphError>;

/// Errors produced while building, loading or storing graphs.
#[derive(Debug)]
pub enum GraphError {
    /// An edge referenced a vertex id that was never declared.
    UnknownVertex {
        /// The offending vertex id.
        vertex: u32,
        /// Number of declared vertices.
        vertex_count: usize,
    },
    /// A self-loop `e(u, u)` was declared; the paper's graphs are simple.
    SelfLoop {
        /// The vertex with the loop.
        vertex: u32,
    },
    /// The graph exceeds `u32` vertex capacity.
    TooManyVertices(usize),
    /// A dynamic update referenced a vertex that has been removed.
    ///
    /// Tombstoned ids are never reused; re-adding a removed vertex means
    /// `AddVertex`, which yields a fresh id.
    Tombstoned {
        /// The removed vertex id.
        vertex: u32,
    },
    /// A dynamic update tried to remove an edge that does not exist.
    MissingEdge {
        /// One endpoint.
        u: u32,
        /// The other endpoint.
        v: u32,
    },
    /// A label at or above [`Label::LIMIT`](crate::Label::LIMIT).
    LabelOutOfRange {
        /// The offending label value.
        label: u32,
    },
    /// A parse error in the `t/v/e` text format.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of what went wrong.
        message: String,
    },
    /// A malformed binary database (see `crate::binio`).
    Binary {
        /// Byte offset where decoding failed.
        offset: usize,
        /// Description of what went wrong.
        message: String,
    },
    /// Underlying IO failure.
    Io(io::Error),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownVertex { vertex, vertex_count } => write!(
                f,
                "edge references vertex {vertex} but only {vertex_count} vertices are declared"
            ),
            GraphError::SelfLoop { vertex } => {
                write!(f, "self-loop on vertex {vertex}; graphs must be simple")
            }
            GraphError::TooManyVertices(n) => {
                write!(f, "{n} vertices exceed the u32 vertex-id capacity")
            }
            GraphError::Tombstoned { vertex } => {
                write!(f, "vertex {vertex} has been removed; tombstoned ids are never reused")
            }
            GraphError::MissingEdge { u, v } => {
                write!(f, "edge ({u}, {v}) does not exist; removal fails closed")
            }
            GraphError::LabelOutOfRange { label } => {
                write!(f, "label {label} is not below the label limit {}", crate::Label::LIMIT)
            }
            GraphError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            GraphError::Binary { offset, message } => {
                write!(f, "binary database error at byte {offset}: {message}")
            }
            GraphError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for GraphError {
    fn from(e: io::Error) -> Self {
        GraphError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GraphError::UnknownVertex { vertex: 7, vertex_count: 3 };
        assert!(e.to_string().contains("vertex 7"));
        let e = GraphError::SelfLoop { vertex: 1 };
        assert!(e.to_string().contains("self-loop"));
        let e = GraphError::Parse { line: 4, message: "bad token".into() };
        assert!(e.to_string().contains("line 4"));
        let e = GraphError::Binary { offset: 12, message: "checksum mismatch".into() };
        assert!(e.to_string().contains("byte 12"));
        assert!(e.to_string().contains("checksum"));
        let e = GraphError::Tombstoned { vertex: 9 };
        assert!(e.to_string().contains("vertex 9"));
        let e = GraphError::MissingEdge { u: 1, v: 2 };
        assert!(e.to_string().contains("(1, 2)"));
        let e = GraphError::LabelOutOfRange { label: 70_000 };
        assert!(e.to_string().contains("label 70000"));
    }

    #[test]
    fn io_error_converts() {
        let e: GraphError = io::Error::new(io::ErrorKind::NotFound, "nope").into();
        assert!(matches!(e, GraphError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
