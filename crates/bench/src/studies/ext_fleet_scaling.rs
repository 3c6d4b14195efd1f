//! **Extension experiment** (beyond the paper's figures): spreading one
//! offered load over 1→16 client nodes.
//!
//! The paper's mutilate deployment already uses 4 agent machines but the
//! testbed models them as one client. This study holds the total offered
//! load and connection count fixed while splitting them across 1, 2, 4,
//! 8 and 16 well-tuned (HP) nodes, answering two methodological
//! questions: (a) does agent count itself perturb the measurement (it
//! should not, up to per-node connection granularity), and (b) how much
//! per-node sample spread should an experimenter expect from a healthy
//! homogeneous fleet — the baseline against which `ext_mixed_fleet`'s
//! skew is judged.

use tpv_core::analysis::Summary;
use tpv_core::report::{Csv, MarkdownTable};
use tpv_core::topology::{uniform_fleet, ClientNode, TopologySpec};
use tpv_hw::MachineConfig;
use tpv_loadgen::GeneratorSpec;
use tpv_net::LinkConfig;

use crate::study::StudyCtx;
use crate::{banner, env_duration, env_runs, env_seed};

const NODE_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];
const TOTAL_QPS: f64 = 200_000.0;

/// Renders this artefact through the context engine.
pub(crate) fn run(ctx: &StudyCtx) {
    let runs = env_runs(15);
    let duration = env_duration(400);
    banner("Extension: fleet scaling — one load, 1..16 client nodes", runs, duration);
    println!(
        "memcached, {:.0}K QPS total across HP nodes; 160 connections split evenly.\n",
        TOTAL_QPS / 1000.0
    );

    let warmup = duration / 10;
    let service = tpv_core::experiment::Benchmark::memcached().service;
    let server = MachineConfig::server_baseline();
    let fleets: Vec<Vec<ClientNode>> = NODE_COUNTS
        .iter()
        .map(|&n| {
            uniform_fleet(
                "agent",
                MachineConfig::high_performance(),
                GeneratorSpec::mutilate(),
                LinkConfig::cloudlab_lan(),
                TOTAL_QPS,
                n,
            )
        })
        .collect();
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
    let per_cell = ctx.run_topology_cells(&topos, runs, env_seed());

    let mut table = MarkdownTable::new(&[
        "nodes",
        "conns/node",
        "agg avg (us)",
        "agg p99 (us)",
        "achieved/target",
        "node p99 spread (worst/best)",
    ]);
    let mut csv = Csv::new(&[
        "nodes",
        "conns_per_node",
        "agg_avg_us",
        "agg_p99_us",
        "achieved_over_target",
        "node_p99_spread",
    ]);

    let mut avg_range = (f64::INFINITY, 0.0f64);
    for (ci, &n) in NODE_COUNTS.iter().enumerate() {
        let samples = &per_cell[ci];
        let aggregate: Vec<_> = samples.iter().map(|f| f.aggregate.clone()).collect();
        let summary = Summary::from_runs(&aggregate);
        let achieved: f64 =
            aggregate.iter().map(|r| r.achieved_qps / r.target_qps).sum::<f64>() / aggregate.len() as f64;
        // Median over runs of the within-run worst/best node-p99 ratio.
        let mut spreads: Vec<f64> = samples
            .iter()
            .map(|f| f.worst_node_p99().as_us() / f.best_node_p99().as_us().max(1e-9))
            .collect();
        spreads.sort_by(f64::total_cmp);
        let spread = spreads[spreads.len() / 2];
        let avg = summary.avg_median_us();
        avg_range = (avg_range.0.min(avg), avg_range.1.max(avg));

        table.row(&[
            format!("{n}"),
            format!("{}", fleets[ci][0].generator.connections),
            format!("{avg:.1}"),
            format!("{:.1}", summary.p99_median_us()),
            format!("{achieved:.3}"),
            format!("{spread:.2}x"),
        ]);
        csv.row(&[
            format!("{n}"),
            format!("{}", fleets[ci][0].generator.connections),
            format!("{avg:.3}"),
            format!("{:.3}", summary.p99_median_us()),
            format!("{achieved:.4}"),
            format!("{spread:.4}"),
        ]);
    }
    println!("{}", table.render());
    crate::write_csv("ext_fleet_scaling.csv", &csv);

    let drift = avg_range.1 / avg_range.0;
    println!(
        "\nFleet finding: splitting one load over 1..16 tuned nodes moves the median average latency by \
         {:.1}% ({}) — agent count is {} a hidden variable for a well-tuned fleet.",
        (drift - 1.0) * 100.0,
        if drift < 1.10 { "within run-to-run noise" } else { "beyond run-to-run noise" },
        if drift < 1.10 { "not" } else { "itself" },
    );
}
