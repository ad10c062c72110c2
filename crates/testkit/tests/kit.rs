//! The kit held to what its modules promise.

use pr_baselines::FcpAgent;
use pr_core::generous_ttl;
use pr_graph::SpTree;
use pr_testkit::fixtures;
use pr_testkit::nets::{synth, Net};
use pr_testkit::shapes::GroupShapes;

#[test]
fn every_net_keeps_oracle_trees_of_its_own() {
    // The independence every equivalence harness rests on: `base` is
    // equal to the trees the network under test lends out, and is not
    // them.
    let mesh = || synth("isp:24:7");
    let nets = [
        Net::figure1(),
        Net::abilene(),
        Net::geant(),
        Net::mesh120(),
        Net::identity(mesh()),
        Net::searched(mesh()),
        Net::geometric(mesh()),
    ];
    for net in nets {
        for dst in net.g.nodes() {
            let (own, lent): (&SpTree, &SpTree) =
                (net.base.towards(dst), net.pr.base().towards(dst));
            assert_eq!(own, lent, "{dst}");
            assert!(!std::ptr::eq(own, lent), "{dst}: the oracle reads the trees under test");
        }
    }
}

#[test]
fn every_fixture_drives_the_shapes_it_names() {
    for fixture in fixtures::TABLE {
        let net = (fixture.net)();
        let (g, ttl) = (&net.g, generous_ttl(&net.g));
        let sets = (fixture.failed_sets)(g);
        assert!(!sets.is_empty() && !(fixture.flows)(&net).flows().is_empty(), "{}", fixture.name);
        let mut seen = GroupShapes::default();
        for failed in &sets {
            seen.observe(g, &net.base, &net.pr.agent(g), failed, ttl, ttl);
            seen.observe(g, &net.base, &FcpAgent::new(g), failed, ttl, ttl);
        }
        assert!((fixture.drives)(&seen), "{}: {seen:?}", fixture.name);
        // A generous budget: nothing falls back; a planar embedding:
        // nothing drops — and an observer that said so anyway would be
        // lying about the other shapes too.
        let planar = net.pr.embedding().genus() == 0;
        assert!(!seen.ttl_fallback, "{}: {seen:?}", fixture.name);
        assert!(!planar || !seen.dropped_point, "{}: {seen:?}", fixture.name);
        assert!(seen.point_at_destination, "{}: {seen:?}", fixture.name);
    }
}
