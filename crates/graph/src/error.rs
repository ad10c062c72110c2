//! Error types for graph construction and parsing.

use crate::{Graph, LinkId, NodeId};

/// Errors arising from graph construction or queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A node id referenced a node that does not exist.
    NodeOutOfRange {
        /// The offending id.
        node: NodeId,
        /// Number of nodes in the graph.
        node_count: usize,
    },
    /// A link id referenced a link that does not exist.
    LinkOutOfRange {
        /// The offending id.
        link: LinkId,
        /// Number of links in the graph.
        link_count: usize,
    },
    /// Self-loops are not allowed: a link must join two distinct routers.
    SelfLoop {
        /// The node at both ends of the rejected link.
        node: NodeId,
    },
    /// Link weights must be strictly positive (shortest-path costs are
    /// sums of weights and the distance discriminator must strictly
    /// decrease along shortest paths).
    ZeroWeight,
    /// A node name was used twice.
    DuplicateNodeName {
        /// The duplicated name.
        name: String,
    },
    /// A node past [`Graph::MAX_NODES`].
    TooManyNodes,
    /// A link that would take the total link weight to `u32::MAX`.
    TooHeavy {
        /// The total link weight with the refused link.
        total: u64,
    },
    /// A link whose darts would outgrow `u32` ids.
    TooLarge,
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, node_count } => {
                write!(f, "node {node} out of range (graph has {node_count} nodes)")
            }
            GraphError::LinkOutOfRange { link, link_count } => {
                write!(f, "link {link} out of range (graph has {link_count} links)")
            }
            GraphError::SelfLoop { node } => {
                write!(f, "self-loop at node {node} rejected: links must join distinct routers")
            }
            GraphError::ZeroWeight => write!(f, "link weight must be >= 1"),
            GraphError::DuplicateNodeName { name } => {
                write!(f, "duplicate node name {name:?}")
            }
            GraphError::TooManyNodes => write!(f, "graph exceeds {} nodes", Graph::MAX_NODES),
            GraphError::TooHeavy { total } => {
                write!(f, "total link weight {total} is not below u32::MAX")
            }
            GraphError::TooLarge => write!(f, "graph exceeds the u32 dart id space"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Errors arising while parsing the plain-text topology format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A line did not match any known directive.
    BadDirective {
        /// 1-based line number.
        line: usize,
        /// The directive token that was not recognised.
        directive: String,
    },
    /// A directive had the wrong number or type of arguments.
    BadArguments {
        /// 1-based line number.
        line: usize,
        /// Explanation of what was expected.
        expected: &'static str,
    },
    /// A link referenced a node name that has not been declared.
    UnknownNode {
        /// 1-based line number.
        line: usize,
        /// The unknown name.
        name: String,
    },
    /// The underlying graph construction failed.
    Graph {
        /// 1-based line number.
        line: usize,
        /// The underlying error.
        source: GraphError,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadDirective { line, directive } => {
                write!(
                    f,
                    "line {line}: unknown directive {directive:?} (expected `node` or `link`)"
                )
            }
            ParseError::BadArguments { line, expected } => {
                write!(f, "line {line}: bad arguments, expected {expected}")
            }
            ParseError::UnknownNode { line, name } => {
                write!(
                    f,
                    "line {line}: unknown node {name:?} (declare it with a `node` line first)"
                )
            }
            ParseError::Graph { line, source } => write!(f, "line {line}: {source}"),
        }
    }
}

impl std::error::Error for ParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseError::Graph { source, .. } => Some(source),
            _ => None,
        }
    }
}
