//! Property-based tests for the scenario families.

use proptest::prelude::*;

use pr_graph::{algo, generators, Graph, LinkSet};
use pr_scenarios::{
    DetectionDelaySweep, ExhaustiveKFailures, FlapSweep, Impaired, ImpairmentProcess, NodeFailures,
    OutageParams, OutageSweep, SampledMultiFailures, ScenarioFamily, SingleLinkFailures,
    TemporalFamily,
};

/// A reproducible random 2-edge-connected graph.
fn graphs() -> impl Strategy<Value = Graph> {
    pr_testkit::strategies::two_edge_connected(3..24, 0..12, 1..=8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A node-failure scenario is exactly the union of the single-link
    /// failures of its incident links — the set-algebra identity the
    /// family's documentation promises.
    #[test]
    fn node_failure_is_union_of_incident_single_failures(g in graphs()) {
        let nodes = NodeFailures::new(&g);
        let singles = SingleLinkFailures::new(&g);
        prop_assert_eq!(nodes.len(), g.node_count());
        for i in 0..nodes.len() {
            let node_scenario = nodes.scenario(i);
            let mut union = LinkSet::empty(g.link_count());
            for dart in g.darts_from(nodes.node(i)) {
                union.union_in_place(&singles.scenario(dart.link().index()));
            }
            prop_assert_eq!(&node_scenario, &union, "node {}", i);
            // And it is never larger than the node's degree (parallel
            // links collapse into the set).
            prop_assert!(node_scenario.len() <= g.degree(nodes.node(i)));
        }
    }

    /// Exhaustive-k unranking is a bijection onto the k-subsets: every
    /// scenario has k links, all scenarios are distinct, and the count
    /// matches C(m, k).
    #[test]
    fn exhaustive_k_is_a_bijection(g in graphs(), k in 1usize..4) {
        let fam = ExhaustiveKFailures::new(&g, k);
        let m = g.link_count();
        let expected: usize = {
            // C(m, k) computed the schoolbook way for the small test sizes.
            let mut acc = 1usize;
            for i in 0..k { acc = acc * (m - i) / (i + 1); }
            acc
        };
        prop_assert_eq!(fam.len(), expected);
        let mut seen = std::collections::HashSet::new();
        for i in 0..fam.len() {
            let s = fam.scenario(i);
            prop_assert_eq!(s.len(), k, "rank {}", i);
            prop_assert!(seen.insert(s), "duplicate subset at rank {}", i);
        }
    }

    /// The connectivity-filtered exhaustive family keeps exactly the
    /// subsets whose removal leaves the graph connected.
    #[test]
    fn connected_only_agrees_with_a_direct_filter(g in graphs()) {
        let all = ExhaustiveKFailures::new(&g, 2);
        let conn = ExhaustiveKFailures::connected_only(&g, 2);
        let direct = (0..all.len())
            .map(|i| all.scenario(i))
            .filter(|s| algo::is_connected(&g, s))
            .collect::<Vec<_>>();
        prop_assert_eq!(conn.len(), direct.len());
        for (i, expected) in direct.into_iter().enumerate() {
            prop_assert_eq!(conn.scenario(i), expected);
        }
    }

    /// Sampled multi-failure families never contain duplicates, never
    /// disconnect the graph, and all draws are deterministic in the seed.
    #[test]
    fn sampled_families_are_distinct_connected_and_deterministic(
        g in graphs(),
        k in 1usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let fam = SampledMultiFailures::new(&g, k, 8, seed);
        let again = SampledMultiFailures::new(&g, k, 8, seed);
        let mut seen = std::collections::HashSet::new();
        for i in 0..fam.len() {
            let s = fam.scenario(i);
            prop_assert_eq!(&s, &again.scenario(i));
            prop_assert!(algo::is_connected(&g, &s));
            prop_assert!(s.len() <= k);
            prop_assert!(seen.insert(s), "duplicate at {}", i);
        }
    }
}

/// A located (PoP-coordinate-carrying) synthetic ISP mesh, so every
/// impairment process — including the geo-correlated storm — applies.
fn arb_located_graph() -> impl Strategy<Value = Graph> {
    (8usize..32, 0u64..u64::MAX)
        .prop_map(|(n, seed)| generators::isp_mesh(&generators::MeshParams::new(n, seed)))
}

/// Every impairment process dialled to its natural zero.
fn zero_processes() -> [ImpairmentProcess; 4] {
    [
        ImpairmentProcess::GilbertElliott { fail_rate_per_s: 0.0, mean_down_ns: 1 },
        ImpairmentProcess::FlapStorm { storms: 0, radius_km: 500.0, down_for_ns: 1 },
        ImpairmentProcess::Maintenance { window_ns: 0, links: 3 },
        ImpairmentProcess::DetectionJitter { max_extra_ns: 0 },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A zero-configured (rate-0 / storm-0 / empty-window / no-jitter)
    /// decorator is the **bit-for-bit identity** over every shipped
    /// temporal family: identical scenarios — labels, flows, event
    /// timelines, control-plane knobs — and identical per-scenario run
    /// seeds, at every index.
    #[test]
    fn zero_configured_impairment_is_bitwise_identity(
        g in arb_located_graph(),
        seed in 0u64..u64::MAX,
    ) {
        let params = OutageParams::default();
        let link = g.links().next().unwrap();
        let inners: [Box<dyn TemporalFamily>; 3] = [
            Box::new(OutageSweep::new(&g, params)),
            Box::new(FlapSweep::new(&g, params).with_holddown(10_000_000)),
            Box::new(DetectionDelaySweep::new(&g, link, vec![0, 1_000_000], params)),
        ];
        for inner in inners {
            let plain: Vec<_> = (0..inner.len()).map(|i| inner.scenario(i)).collect();
            for process in zero_processes() {
                prop_assert!(process.is_identity());
                let wrapped = Impaired::new(&g, &inner, process, seed);
                prop_assert_eq!(wrapped.len(), inner.len());
                for (i, expected) in plain.iter().enumerate() {
                    prop_assert_eq!(
                        &wrapped.scenario(i), expected,
                        "{:?} must not touch scenario {} of {}", process, i, inner.label()
                    );
                }
            }
        }
    }

    /// Stacked decorators are pure in `(scenario index, seed)`: the
    /// same stack built twice yields bit-identical timelines at every
    /// index, `scenario(i)` is stable across repeated calls, and the
    /// two stacking orders are each internally deterministic.
    #[test]
    fn stacked_decorators_are_order_deterministic_per_seed(
        g in arb_located_graph(),
        seed in 0u64..u64::MAX,
        rate in 1u32..50,
        storms in 1usize..3,
    ) {
        let gilbert = ImpairmentProcess::GilbertElliott {
            fail_rate_per_s: f64::from(rate),
            mean_down_ns: 5_000_000,
        };
        let storm = ImpairmentProcess::FlapStorm {
            storms,
            radius_km: 700.0,
            down_for_ns: 8_000_000,
        };
        let build = |outer: ImpairmentProcess, inner: ImpairmentProcess| {
            Impaired::new(
                &g,
                Impaired::new(&g, OutageSweep::new(&g, OutageParams::default()), inner, seed),
                outer,
                seed,
            )
        };
        let ab = build(storm, gilbert);
        let ab_again = build(storm, gilbert);
        let ba = build(gilbert, storm);
        for i in 0..ab.len() {
            let s = ab.scenario(i);
            prop_assert_eq!(&s, &ab_again.scenario(i), "same stack, same seed, index {}", i);
            prop_assert_eq!(&s, &ab.scenario(i), "scenario({}) must be pure", i);
            prop_assert_eq!(&ba.scenario(i), &ba.scenario(i), "reversed stack pure at {}", i);
            // Both orders tag both processes; the label records the
            // stacking order outermost-last.
            prop_assert!(s.label.ends_with("+gilbert+storm"), "{}", s.label);
            prop_assert!(ba.scenario(i).label.ends_with("+storm+gilbert"));
        }
    }
}
