//! The replay dataplane against the test kit's per-packet oracle,
//! `pr_testkit::oracle::replay_scenario_naive`, on Abilene: whole
//! scenarios bit for bit, and the whole load vector, not only its peak.

use pr_core::{generous_ttl, walk_packet, DenseFib, PrAgent, PrHeader, PrNetwork, TreeEdge};
use pr_graph::{AllPairs, Graph, LinkId, LinkSet, NodeId};
use pr_testkit::nets::Net;
use pr_testkit::oracle::replay_scenario_naive;
use pr_traffic::{
    replay_scenario_bitparallel, FlowSet, GravityTraffic, ReplayScratch, ScenarioTraffic,
    UniformTraffic,
};

/// Abilene under a searched genus-0 rotation, with one replay scratch.
struct Abilene {
    g: Graph,
    net: PrNetwork,
    base: AllPairs,
    dense: DenseFib,
    scratch: ReplayScratch<PrHeader>,
}

impl Abilene {
    fn new() -> Abilene {
        let Net { g, pr, base, dense } = Net::abilene();
        assert_eq!(pr.embedding().genus(), 0);
        Abilene { g, net: pr, base, dense, scratch: ReplayScratch::new() }
    }

    fn agent(&self) -> PrAgent<'_> {
        self.net.agent(&self.g)
    }

    fn replay(&mut self, flows: &FlowSet, failed: &LinkSet) -> ScenarioTraffic {
        let Abilene { g, net, base, dense, scratch } = self;
        replay_scenario_bitparallel(
            g,
            &net.agent(g),
            dense,
            base,
            flows,
            failed,
            generous_ttl(g),
            scratch,
        )
    }

    fn naive(&self, flows: &FlowSet, failed: &LinkSet) -> ScenarioTraffic {
        let ttl = generous_ttl(&self.g);
        replay_scenario_naive(&self.g, &self.agent(), &self.base, flows, failed, ttl)
    }

    /// Every link at a node of degree 2: its traffic row and column are
    /// cut off, everything else must still deliver.
    fn isolate_a_degree_two_pop(&self) -> LinkSet {
        let g = &self.g;
        let victim = g.nodes().find(|&v| g.degree(v) == 2).expect("Abilene has degree-2 PoPs");
        LinkSet::from_links(g.link_count(), g.darts_from(victim).iter().map(|d| d.link()))
    }
}

#[test]
fn no_failure_replay_delivers_everything_on_shortest_paths() {
    let mut a = Abilene::new();
    let flows = FlowSet::all_pairs(&UniformTraffic::new(&a.g));
    let none = LinkSet::empty(a.g.link_count());
    let out = a.replay(&flows, &none);
    assert_eq!(out.tally.flows as usize, flows.len());
    assert_eq!(out.tally.delivered, out.tally.offered);
    assert_eq!(out.tally.evaluated, 0.0, "nothing affected without failures");
    assert_eq!(out.tally.lost(), 0.0);
    assert!(out.max_link_load > 0.0);
    assert!(out.peak_link.is_some());
    assert!(out.max_link_utilisation() > 0.0 && out.max_link_utilisation() < 1.0);
    assert_eq!(out, a.naive(&flows, &none));
}

#[test]
fn bitparallel_matches_naive_on_every_single_failure() {
    let mut a = Abilene::new();
    let flows = FlowSet::all_pairs(&GravityTraffic::new(&a.g));
    for link in a.g.links() {
        let failed = LinkSet::from_links(a.g.link_count(), [link]);
        let out = a.replay(&flows, &failed);
        assert_eq!(out, a.naive(&flows, &failed), "link {link}");
        assert!(out.tally.evaluated > 0.0, "every link carries some shortest path");
        assert_eq!(out.tally.lost(), 0.0, "PR-DD delivers on genus 0 (2EC, k=1)");
    }
    assert_eq!(a.scratch.take_stats().baselines, 1, "one baseline serves every scenario");
}

#[test]
fn bitparallel_load_vector_matches_the_oracles_paths_on_every_single_failure() {
    // Not just the peak: the whole load vector is that of adding
    // up one `walk_packet` path per flow.
    let mut a = Abilene::new();
    let flows = FlowSet::all_pairs(&GravityTraffic::new(&a.g));
    let ttl = generous_ttl(&a.g);
    for link in a.g.links() {
        let failed = LinkSet::from_links(a.g.link_count(), [link]);
        a.replay(&flows, &failed);
        let mut loads = vec![0.0; a.g.link_count()];
        for flow in flows.by_destination().flat_map(|(_, group)| group.iter()) {
            let walk = walk_packet(&a.g, &a.agent(), flow.src, flow.dst, &failed, ttl);
            assert!(walk.result.is_delivered());
            for d in walk.path.darts() {
                loads[d.link().index()] += flow.demand;
            }
        }
        assert_eq!(a.scratch.link_loads(), loads, "link {link}");
    }
}

#[test]
fn bitparallel_handles_disconnection_and_no_failure_scenarios() {
    // Through one scratch, back to back: a cut, then nothing
    // failed (the baseline untouched by what the cut withdrew),
    // then the cut again.
    let mut a = Abilene::new();
    let flows = FlowSet::all_pairs(&UniformTraffic::new(&a.g));
    let cut = a.isolate_a_degree_two_pop();
    let none = LinkSet::empty(a.g.link_count());
    for failed in [&cut, &none, &cut] {
        let out = a.replay(&flows, failed);
        assert_eq!(out, a.naive(&flows, failed));
        assert_eq!(out.tally.flows as usize, flows.len());
    }
}

#[test]
fn sampled_flows_replay_and_conserve_demand() {
    let mut a = Abilene::new();
    let flows = FlowSet::sampled(&GravityTraffic::new(&a.g), 200, 7);
    let failed = LinkSet::from_links(a.g.link_count(), [a.g.links().next().unwrap()]);
    let out = a.replay(&flows, &failed);
    assert_eq!(out.tally.flows as usize, flows.len());
    assert!((out.tally.offered - flows.offered()).abs() < 1e-9);
    assert_eq!(out, a.naive(&flows, &failed));
}

#[test]
fn roots_of_a_destination_without_flows_leave_the_next_group_unconsumed() {
    // A handful of flows under every pair of failed links: most
    // destinations the link index names have no flow group, and
    // skipping one must not swallow the group of the next
    // destination that has both roots and flows.
    let mut a = Abilene::new();
    let flows = FlowSet::sampled(&GravityTraffic::new(&a.g), 6, 2010);
    let with_flows: Vec<NodeId> = flows.by_destination().map(|(dst, _)| dst).collect();
    assert!(with_flows.len() < a.g.node_count() / 2, "the groups must be sparse");
    let links: Vec<LinkId> = a.g.links().collect();
    let (mut roots, mut met) = (Vec::new(), 0);
    for (i, &first) in links.iter().enumerate() {
        for &second in &links[i + 1..] {
            let failed = LinkSet::from_links(a.g.link_count(), [first, second]);
            assert_eq!(a.replay(&flows, &failed), a.naive(&flows, &failed), "{failed:?}");
            // The shape: a rooted destination without a group,
            // then a rooted destination with one.
            a.dense.roots_into(&failed, &mut roots);
            let has_group = |r: &TreeEdge| with_flows.contains(&NodeId(r.dest));
            let skipped = roots.iter().position(|r| !has_group(r));
            met += usize::from(skipped.is_some_and(|at| roots[at..].iter().any(has_group)));
        }
    }
    assert!(met > 0, "no failed pair met the shape");
}
