//! **Extension experiment** (beyond the paper's figures): the paper's
//! client-configuration skew at *fleet* scale.
//!
//! The paper shows one misconfigured client machine corrupts its own
//! measurements (Finding 1). Real load-generation deployments run fleets
//! of agents (mutilate's 4-agent deployment, ConfigTron's heterogeneous
//! fleets) and pool their samples — so the operative question becomes:
//! **how many misconfigured agents does it take to corrupt the pooled
//! aggregate?** This study runs an 8-node memcached fleet at fixed total
//! load and sweeps the number of LP (untuned, deep C-states) nodes from
//! 0 to 8, reporting the aggregate p99 the experimenter would naively
//! publish next to the per-node breakdown that reveals the culprits.
//!
//! Expected shape: good nodes' own p99 stays near the all-HP baseline
//! (the server is far from saturation), while the *pooled* p99 degrades
//! sharply once the bad minority's share of samples reaches the tail
//! percentile — with 1/8 of traffic skewed, p99 already moves; the
//! aggregate avg degrades roughly linearly in the bad-node count.

use tpv_core::analysis::Summary;
use tpv_core::report::{Csv, MarkdownTable};
use tpv_core::topology::{ClientNode, TopologySpec};
use tpv_hw::MachineConfig;
use tpv_loadgen::GeneratorSpec;
use tpv_net::LinkConfig;

use crate::banner;
use crate::study::StudyCtx;

const FLEET: usize = 8;
const TOTAL_QPS: f64 = 200_000.0;
const BAD_COUNTS: [usize; 5] = [0, 1, 2, 4, 8];

fn fleet_with_bad(bad: usize) -> Vec<ClientNode> {
    let gen = GeneratorSpec::mutilate().with_connections(160 / FLEET as u32);
    let link = LinkConfig::cloudlab_lan();
    let per_node = TOTAL_QPS / FLEET as f64;
    (0..FLEET)
        .map(|i| {
            if i < bad {
                ClientNode::new(format!("bad{i}"), MachineConfig::low_power(), gen, link, per_node)
            } else {
                ClientNode::new(format!("good{i}"), MachineConfig::high_performance(), gen, link, per_node)
            }
        })
        .collect()
}

/// Renders this artefact through the context engine.
pub(crate) fn run(ctx: &StudyCtx) -> Vec<(String, Csv)> {
    let runs = ctx.runs(15);
    let duration = ctx.duration(400);
    banner("Extension: mixed fleet — how many bad clients corrupt the aggregate?", runs, duration);
    println!(
        "{FLEET}-node memcached fleet, {:.0}K QPS total; LP nodes are the paper's untuned client.\n",
        TOTAL_QPS / 1000.0
    );

    let warmup = duration / 10;
    let service = tpv_core::experiment::Benchmark::memcached().service;
    let server = MachineConfig::server_baseline();
    let fleets: Vec<Vec<ClientNode>> = BAD_COUNTS.iter().map(|&b| fleet_with_bad(b)).collect();
    let topos: Vec<TopologySpec<'_>> = fleets
        .iter()
        .map(|nodes| TopologySpec {
            shards: None,
            service: &service,
            server: &server,
            nodes,
            duration,
            warmup,
            cohorts: &[],
        })
        .collect();
    let per_cell = ctx.run_topology_cells(&topos, runs);

    let mut table = MarkdownTable::new(&[
        "bad nodes",
        "agg avg (us)",
        "agg p99 (us)",
        "good-node p99 (us)",
        "bad-node p99 (us)",
        "agg p99 vs clean",
        "late sends %",
    ]);
    let mut csv = Csv::new(&[
        "bad_nodes",
        "agg_avg_us",
        "agg_p99_us",
        "good_p99_us",
        "bad_p99_us",
        "p99_slowdown",
        "late_pct",
    ]);

    let mut clean_p99 = f64::NAN;
    let mut corruption_threshold: Option<usize> = None;
    for (ci, &bad) in BAD_COUNTS.iter().enumerate() {
        let samples = &per_cell[ci];
        let aggregate: Vec<_> = samples.iter().map(|f| f.aggregate.clone()).collect();
        let summary = Summary::from_runs(&aggregate);
        let agg_p99 = summary.p99_median_us();
        if bad == 0 {
            clean_p99 = agg_p99;
        }
        let slowdown = agg_p99 / clean_p99;
        if corruption_threshold.is_none() && bad > 0 && slowdown > 1.10 {
            corruption_threshold = Some(bad);
        }
        // Median p99 across all (node, run) results of a class — the
        // *typical* node of that class, not its worst case. `None` when
        // the fleet has no node of the class.
        let class_p99 = |prefix: &str| -> Option<f64> {
            let per_run: Vec<_> = samples
                .iter()
                .flat_map(|f| {
                    f.nodes.iter().filter(|n| n.label.starts_with(prefix)).map(|n| n.result.clone())
                })
                .collect();
            if per_run.is_empty() {
                None
            } else {
                Some(Summary::from_runs(&per_run).p99_median_us())
            }
        };
        let good_p99 = class_p99("good");
        let bad_p99 = class_p99("bad");
        let late: f64 = aggregate.iter().map(|r| r.late_send_fraction).sum::<f64>() / aggregate.len() as f64;

        table.row(&[
            format!("{bad}/{FLEET}"),
            format!("{:.1}", summary.avg_median_us()),
            format!("{agg_p99:.1}"),
            good_p99.map_or_else(|| "-".into(), |v| format!("{v:.1}")),
            bad_p99.map_or_else(|| "-".into(), |v| format!("{v:.1}")),
            format!("{slowdown:.2}x"),
            format!("{:.1}", late * 100.0),
        ]);
        // Absent classes emit empty CSV fields, not "NaN".
        csv.row(&[
            format!("{bad}"),
            format!("{:.3}", summary.avg_median_us()),
            format!("{agg_p99:.3}"),
            good_p99.map_or_else(String::new, |v| format!("{v:.3}")),
            bad_p99.map_or_else(String::new, |v| format!("{v:.3}")),
            format!("{slowdown:.4}"),
            format!("{:.3}", late * 100.0),
        ]);
    }
    println!("{}", table.render());

    match corruption_threshold {
        Some(bad) => println!(
            "\nFleet finding: {bad} of {FLEET} misconfigured clients already inflate the pooled p99 by >10% \
             — client-side skew does not average out, it pollutes the tail."
        ),
        None => println!(
            "\nFleet finding: even {FLEET}/{FLEET} misconfigured clients stayed within 10% of the clean p99 \
             (unexpected — check scale parameters)."
        ),
    }
    vec![("ext_mixed_fleet.csv".into(), csv)]
}
