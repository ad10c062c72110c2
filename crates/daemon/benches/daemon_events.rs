//! Daemon event-apply latency — the point of residency.
//!
//! **The gate** (runs even under `--test`, so CI's bench smoke step
//! enforces it): on geant, applying a link event to the resident twin
//! (incremental cone repair against its network's base trees, gauges
//! lazy) must be ≥ 5x faster per event than the cold recompile a batch
//! invocation pays for the same failed set (base trees + live trees +
//! the staged FIB). Warmup first proves the repaired trees bit-identical to
//! the cold build on every probed failed set, so the two sides of the
//! ratio are computing the same answer.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use pr_daemon::{cold_recompile, DemandSpec, Request, Twin};
use pr_graph::{Graph, LinkId, LinkSet};
use pr_testkit::nets::{link_name, Net};

/// Links probed by the gate (each contributes one down + one up event
/// to the warm side and one cold recompile to the reference side).
const EVENT_LINKS: usize = 16;

/// The gate's hard floor on cold-per-scenario / warm-per-event.
const SPEEDUP_FLOOR: f64 = 5.0;

fn geant() -> (Graph, Twin) {
    let Net { g: graph, pr, .. } = Net::geant();
    let twin = Twin::new(graph.clone(), pr, DemandSpec::gravity(), 2).expect("twin compiles");
    (graph, twin)
}

/// `"A-B"` names of the probed links, in id order.
fn event_links(graph: &Graph) -> Vec<String> {
    assert!(graph.link_count() >= EVENT_LINKS, "geant has enough links");
    graph.links().take(EVENT_LINKS).map(|l| link_name(graph, l)).collect()
}

/// One warm round: a down + up event per probed link, through the same
/// `Twin::handle` path the control loop uses (2 × `EVENT_LINKS` events).
fn apply_events(twin: &mut Twin, names: &[String]) {
    for name in names {
        let resp = twin.handle(&Request::LinkDown { link: name.clone() });
        assert!(!resp.is_error(), "{resp:?}");
        let resp = twin.handle(&Request::LinkUp { link: name.clone() });
        assert!(!resp.is_error(), "{resp:?}");
    }
}

/// One cold round: the failure-dependent recompute a batch invocation
/// pays before its first answer, per probed failed set (`EVENT_LINKS`
/// recompiles).
fn cold_sweep(graph: &Graph) {
    for l in 0..EVENT_LINKS {
        let failed = LinkSet::from_links(graph.link_count(), [LinkId(l as u32)]);
        black_box(cold_recompile(graph, &failed));
    }
}

/// The event-apply regression gate. Panics (failing the bench run,
/// `--test` smoke mode included) when warm event-apply loses its 5x
/// margin under the cold recompile. Both sides are timed interleaved,
/// best (minimum) of 20 rounds, so shared-machine throttling hits both
/// alike — the discipline every gate in this workspace uses.
fn daemon_event_gate() {
    let (graph, mut twin) = geant();
    let names = event_links(&graph);

    // Warmup + soundness: each probed failed set must repair to trees
    // bit-identical to a cold scratch build, or the speedup compares
    // different answers.
    for (i, name) in names.iter().enumerate() {
        let resp = twin.handle(&Request::LinkDown { link: name.clone() });
        assert!(!resp.is_error(), "{resp:?}");
        let failed = LinkSet::from_links(graph.link_count(), [LinkId(i as u32)]);
        let cold = cold_recompile(&graph, &failed);
        for dest in graph.nodes() {
            assert_eq!(
                twin.live_tree(dest),
                cold.live.towards(dest),
                "repaired tree towards {dest:?} diverged from the cold build under {name} down"
            );
        }
        let resp = twin.handle(&Request::LinkUp { link: name.clone() });
        assert!(!resp.is_error(), "{resp:?}");
    }
    let counters = twin.counters();
    assert_eq!(counters.events, 2 * EVENT_LINKS as u64, "warmup applied every event");
    assert!(counters.repairs > 0, "events must go through incremental repair");

    let events_per_round = (2 * EVENT_LINKS) as f64;
    let scenarios_per_round = EVENT_LINKS as f64;
    let (mut warm_secs, mut cold_secs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..20 {
        let t = Instant::now();
        apply_events(&mut twin, &names);
        warm_secs = warm_secs.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        cold_sweep(&graph);
        cold_secs = cold_secs.min(t.elapsed().as_secs_f64());
    }

    let warm_us = warm_secs * 1e6 / events_per_round;
    let cold_us = cold_secs * 1e6 / scenarios_per_round;
    let speedup = cold_us / warm_us;
    println!(
        "gate: geant event-apply {warm_us:.1}us/event warm vs {cold_us:.1}us/scenario cold \
         recompile, speedup {speedup:.2}x (floor {SPEEDUP_FLOOR:.0}x, {EVENT_LINKS} links probed)"
    );
    assert!(
        speedup >= SPEEDUP_FLOOR,
        "daemon gate: incremental event-apply must be >= {SPEEDUP_FLOOR:.0}x a cold recompile \
         on geant, got {speedup:.2}x ({warm_us:.1}us warm vs {cold_us:.1}us cold)"
    );
}

fn bench_daemon_events(c: &mut Criterion) {
    daemon_event_gate();

    let (graph, mut twin) = geant();
    let names = event_links(&graph);
    let mut group = c.benchmark_group("daemon_events");
    group.bench_function("event_apply_geant", |b| b.iter(|| apply_events(&mut twin, &names)));
    group.bench_function("cold_recompile_geant", |b| b.iter(|| cold_sweep(&graph)));
    group.finish();
}

criterion_group!(benches, bench_daemon_events);
criterion_main!(benches);
