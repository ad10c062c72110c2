//! Shrinking, on the strategy whose failing cases were unreadable
//! without it (the integer and vector cases are the stand-in's own
//! unit tests).

use proptest::prelude::*;
use proptest::test_runner::run;

use pr_testkit::strategies::two_edge_connected;

#[test]
fn a_failing_graph_case_shrinks_to_the_smallest_failing_graph() {
    // "Fewer than nine nodes or no chord" fails from 9 nodes and one
    // chord up; the case reported is that graph, not the 20-node one
    // the runner happened to draw.
    let graphs = two_edge_connected(3..24, 0..12, 1..=8);
    let failure = run(&ProptestConfig::default(), &graphs, |g| {
        prop_assert!(g.node_count() < 9 || g.link_count() == g.node_count());
        Ok(())
    })
    .expect_err("most cases are larger");
    let g = failure.minimal;
    assert_eq!((g.node_count(), g.link_count()), (9, 10), "{}", failure.message);
}
