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
fn no_oracle_reads_the_trees_under_test() {
    // The same independence, held on the source: no module of the kit
    // — the oracles, and the nets and shapes they are handed — calls
    // `PrNetwork::base()`, in method or path form. Comments may name it.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src");
    let mut read = 0;
    let mut calls = Vec::new();
    for entry in std::fs::read_dir(dir).expect("the kit's sources") {
        let path = entry.expect("a directory entry").path();
        let source = std::fs::read_to_string(&path).expect("UTF-8 source");
        read += usize::from(source.contains("AllPairs::compute_all_live"));
        for (i, line) in source.lines().enumerate() {
            let code: String =
                line.split("//").next().unwrap_or_default().split_whitespace().collect();
            if code.contains(".base()") || code.contains("::base(") {
                calls.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(read >= 2, "the oracles and the nets compute trees of their own");
    assert!(calls.is_empty(), "the kit reads the trees under test:\n{}", calls.join("\n"));
}

#[test]
fn every_fixture_drives_the_shapes_it_names() {
    for fixture in fixtures::TABLE {
        let net = (fixture.net)();
        let (g, ttl) = (&net.g, generous_ttl(&net.g));
        let sets = (fixture.failed_sets)(g);
        assert!(!sets.is_empty() && !(fixture.flows)(&net).is_empty(), "{}", fixture.name);
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
