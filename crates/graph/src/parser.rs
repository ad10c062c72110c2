//! Plain-text topology format: parser and writer.
//!
//! The format is line-oriented and diff-friendly, designed so the ISP
//! topologies in `pr-topologies` can be reviewed against the published
//! maps they were transcribed from:
//!
//! ```text
//! # Comments start with '#'; blank lines are ignored.
//! node SEA -122.33 47.61     # name, then optional lon lat
//! node DEN -104.99 39.74
//! link SEA DEN 1300          # two node names, then weight
//! ```
//!
//! Node names may not contain whitespace. Links may appear only after
//! both endpoints were declared.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::{Coordinates, Graph, NodeId, ParseError};

/// Parses a topology from the plain-text format.
///
/// # Errors
///
/// Returns a [`ParseError`] pinpointing the offending line for unknown
/// directives, malformed arguments, undeclared node names, duplicate
/// node names, and graph-level violations (self-loops, zero weights,
/// the graph's node and weight limits).
pub fn parse(text: &str) -> Result<Graph, ParseError> {
    let mut g = Graph::new();
    // Names to ids in O(log n) a line: a scan of the graph's names
    // would make a file near `Graph::MAX_NODES` nodes quadratic.
    let mut ids: BTreeMap<&str, NodeId> = BTreeMap::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let mut tokens = content.split_whitespace();
        let directive = tokens.next().expect("non-empty line has a first token");
        match directive {
            "node" => {
                let Some(name) = tokens.next() else {
                    return Err(ParseError::BadArguments { line, expected: "node NAME [LON LAT]" });
                };
                if ids.contains_key(name) {
                    return Err(ParseError::Graph {
                        line,
                        source: crate::GraphError::DuplicateNodeName { name: name.to_string() },
                    });
                }
                let id = g.add_node(name).map_err(|source| ParseError::Graph { line, source })?;
                ids.insert(name, id);
                match (tokens.next(), tokens.next()) {
                    (None, _) => {}
                    (Some(lon), Some(lat)) => {
                        // `"nan".parse::<f64>()` succeeds: a coordinate
                        // must be a number one can sort and subtract.
                        let finite =
                            |text: &str| text.parse::<f64>().ok().filter(|v| v.is_finite());
                        let (Some(lon), Some(lat)) = (finite(lon), finite(lat)) else {
                            return Err(ParseError::BadArguments {
                                line,
                                expected: "node NAME [LON LAT] with finite numeric coordinates",
                            });
                        };
                        g.set_coordinates(id, Coordinates { lon, lat });
                    }
                    (Some(_), None) => {
                        return Err(ParseError::BadArguments {
                            line,
                            expected: "node NAME [LON LAT] (both coordinates or neither)",
                        });
                    }
                }
                if tokens.next().is_some() {
                    return Err(ParseError::BadArguments {
                        line,
                        expected: "node NAME [LON LAT] (no trailing tokens)",
                    });
                }
            }
            "link" => {
                let (Some(a), Some(b), Some(w)) = (tokens.next(), tokens.next(), tokens.next())
                else {
                    return Err(ParseError::BadArguments { line, expected: "link A B WEIGHT" });
                };
                if tokens.next().is_some() {
                    return Err(ParseError::BadArguments {
                        line,
                        expected: "link A B WEIGHT (no trailing tokens)",
                    });
                }
                let node = |name: &str| {
                    ids.get(name)
                        .copied()
                        .ok_or_else(|| ParseError::UnknownNode { line, name: name.to_string() })
                };
                let (na, nb) = (node(a)?, node(b)?);
                let weight: u32 = w.parse().map_err(|_| ParseError::BadArguments {
                    line,
                    expected: "link A B WEIGHT with integer weight >= 1",
                })?;
                g.add_link(na, nb, weight).map_err(|source| ParseError::Graph { line, source })?;
            }
            other => return Err(ParseError::BadDirective { line, directive: other.to_string() }),
        }
    }
    Ok(g)
}

/// Serialises a graph back to the plain-text format.
///
/// `parse(&write(&g))` reproduces the same nodes, links, weights and
/// coordinates (names must be whitespace-free, which `Graph` does not
/// enforce — the writer asserts it).
pub fn write(graph: &Graph) -> String {
    let mut out = String::new();
    for node in graph.nodes() {
        let name = graph.node_name(node);
        assert!(
            !name.chars().any(char::is_whitespace),
            "node name {name:?} contains whitespace and cannot be serialised"
        );
        match graph.coordinates(node) {
            Some(c) => writeln!(out, "node {name} {} {}", c.lon, c.lat).unwrap(),
            None => writeln!(out, "node {name}").unwrap(),
        }
    }
    for link in graph.links() {
        let (a, b) = graph.endpoints(link);
        writeln!(out, "link {} {} {}", graph.node_name(a), graph.node_name(b), graph.weight(link))
            .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# A triangle with coordinates on two nodes.
node A 0.0 0.0
node B 1.0 0.0
node C            # no coordinates

link A B 1
link B C 2
link C A 3
";

    #[test]
    fn parse_sample() {
        let g = parse(SAMPLE).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.link_count(), 3);
        let a = g.node_by_name("A").unwrap();
        let c = g.node_by_name("C").unwrap();
        assert_eq!(g.coordinates(a).unwrap().lon, 0.0);
        assert!(g.coordinates(c).is_none());
        let l = g.find_link(g.node_by_name("B").unwrap(), c).unwrap();
        assert_eq!(g.weight(l), 2);
    }

    #[test]
    fn roundtrip() {
        let g = parse(SAMPLE).unwrap();
        let text = write(&g);
        let g2 = parse(&text).unwrap();
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(g2.link_count(), g.link_count());
        for l in g.links() {
            assert_eq!(g.endpoints(l), g2.endpoints(l));
            assert_eq!(g.weight(l), g2.weight(l));
        }
        for n in g.nodes() {
            assert_eq!(
                g.coordinates(n).map(|c| (c.lon, c.lat)),
                g2.coordinates(n).map(|c| (c.lon, c.lat))
            );
        }
    }

    #[test]
    fn error_unknown_directive() {
        let err = parse("router A\n").unwrap_err();
        assert!(matches!(err, ParseError::BadDirective { line: 1, .. }));
    }

    #[test]
    fn error_unknown_node() {
        let err = parse("node A\nlink A B 1\n").unwrap_err();
        assert!(matches!(err, ParseError::UnknownNode { line: 2, ref name } if name == "B"));
    }

    #[test]
    fn error_bad_weight() {
        let err = parse("node A\nnode B\nlink A B x\n").unwrap_err();
        assert!(matches!(err, ParseError::BadArguments { line: 3, .. }));
    }

    #[test]
    fn error_zero_weight_surfaces_graph_error() {
        let err = parse("node A\nnode B\nlink A B 0\n").unwrap_err();
        assert!(matches!(
            err,
            ParseError::Graph { line: 3, source: crate::GraphError::ZeroWeight }
        ));
    }

    #[test]
    fn error_duplicate_node() {
        let err = parse("node A\nnode A\n").unwrap_err();
        assert!(matches!(
            err,
            ParseError::Graph { line: 2, source: crate::GraphError::DuplicateNodeName { .. } }
        ));
    }

    #[test]
    fn error_half_coordinates() {
        let err = parse("node A 1.0\n").unwrap_err();
        assert!(matches!(err, ParseError::BadArguments { line: 1, .. }));
    }

    #[test]
    fn error_self_loop() {
        let err = parse("node A\nlink A A 1\n").unwrap_err();
        assert!(matches!(
            err,
            ParseError::Graph { line: 2, source: crate::GraphError::SelfLoop { .. } }
        ));
    }

    /// The weight limit at its edge: the heaviest path that fits costs
    /// exactly its weight, and one more unit is refused on its line.
    #[test]
    fn the_weight_limit_is_refused_with_its_line() {
        let heaviest = u32::MAX - 1;
        let path = format!("node A\nnode B\nnode C\nlink A B {}\nlink B C 1\n", heaviest - 1);
        let g = parse(&path).unwrap();
        let tree = crate::SpTree::towards_all_live(&g, g.node_by_name("C").unwrap());
        assert_eq!(tree.cost(g.node_by_name("A").unwrap()), Some(u64::from(heaviest)));
        let err = parse(&format!("{path}link A C 1\n")).unwrap_err();
        let source = crate::GraphError::TooHeavy { total: u64::from(u32::MAX) };
        assert_eq!(err, ParseError::Graph { line: 6, source });
        assert!(err.to_string().starts_with("line 6"), "{err}");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let g = parse("\n# nothing\n   \nnode A\n").unwrap();
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn error_messages_name_the_line() {
        let err = parse("node A\nnode B\nbogus\n").unwrap_err();
        assert!(err.to_string().contains("line 3"));
    }
}
