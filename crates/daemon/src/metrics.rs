//! Prometheus text-exposition rendering of the twin's telemetry.
//!
//! One page, version 0.0.4 of the format: `# HELP` / `# TYPE` pairs
//! followed by a sample per metric. Gauges are the live resilience
//! read-outs (refreshing them replays the uniform and resident demand
//! sets if a link event dirtied them); counters reuse the repair and
//! walk-memo statistics the sweep engine already tracks, plus the
//! control plane's count of connections closed for idling.

use crate::twin::Twin;

/// Renders the whole metrics page for one scrape; `idle_closed` is the
/// server's count of control connections closed by its idle timeout.
pub fn render(twin: &mut Twin, idle_closed: u64) -> String {
    let g = twin.gauges();
    let c = twin.counters();
    let mut out = String::with_capacity(2048);
    let mut gauge = |name: &str, help: &str, value: f64| {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"));
    };
    gauge(
        "pr_coverage",
        "Uniform-unit delivery coverage under the current failed set.",
        g.coverage,
    );
    gauge(
        "pr_weighted_coverage",
        "Demand-weighted coverage of the resident traffic matrix.",
        g.weighted_coverage,
    );
    gauge(
        "pr_demand_lost_fraction",
        "Fraction of offered demand lost under the current failed set.",
        g.demand_lost_fraction,
    );
    gauge(
        "pr_max_link_utilisation",
        "Peak link load as a fraction of offered demand.",
        g.max_link_utilisation,
    );
    gauge("pr_failed_links", "Links currently failed.", g.failed_links as f64);

    let mut counter = |name: &str, help: &str, value: u64| {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"));
    };
    counter("pr_events_total", "Mutating control requests applied.", c.events);
    counter("pr_link_down_total", "link-down events applied.", c.link_down);
    counter("pr_link_up_total", "link-up events applied.", c.link_up);
    counter("pr_demand_updates_total", "set-demand events applied.", c.demand_updates);
    counter("pr_queries_total", "Queries answered.", c.queries);
    counter("pr_repairs_total", "Incremental SPT repairs run.", c.repairs);
    counter("pr_repair_full_rebuilds_total", "Full Dijkstra rebuilds.", c.full_rebuilds);
    counter("pr_repair_cone_nodes_total", "Nodes re-labelled across repairs.", c.repair_cone_nodes);
    counter("pr_repair_slots_total", "Node slots across repairs.", c.repair_slots);
    counter("pr_memo_lookups_total", "Walk-memo lookups.", c.memo_lookups);
    counter("pr_memo_hits_total", "Walk-memo hits.", c.memo_hits);
    counter(
        "pr_memo_spliced_steps_total",
        "Walk steps answered by splicing.",
        c.memo_spliced_steps,
    );
    counter("pr_memo_walked_steps_total", "Walk steps physically walked.", c.memo_walked_steps);
    counter(
        "pr_control_idle_closed_total",
        "Control connections closed after staying silent past the idle timeout.",
        idle_closed,
    );
    out
}

#[cfg(test)]
mod tests {
    /// Parses a metrics page into `(name, value)` samples, skipping
    /// comments — the "parseable text exposition" contract.
    pub fn parse_samples(page: &str) -> Vec<(String, f64)> {
        page.lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .map(|l| {
                let (name, value) = l.split_once(' ').expect("sample line");
                (name.to_string(), value.parse().expect("numeric sample"))
            })
            .collect()
    }

    #[test]
    fn sample_parser_rejects_nothing_wellformed() {
        let page = "# HELP x y\n# TYPE x gauge\nx 0.5\n";
        assert_eq!(parse_samples(page), vec![("x".to_string(), 0.5)]);
    }
}
