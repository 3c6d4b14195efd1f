//! **Extension experiment** (beyond the paper's figures): the paper's
//! LP-client p99 spread at *population* scale — one million modeled
//! clients, cohort-compressed.
//!
//! The paper characterizes client-side variability on a handful of
//! testbed machines; the north star is a fleet of millions. ConfigTron's
//! observation makes that tractable: real client populations cluster
//! into a modest number of (hardware × network × load) classes, so a
//! population-scale simulation needs per-class state only. This study
//! declares 16 cohorts of 62,500 clients each — a quarter low-power,
//! split across two link classes, with slightly staggered per-client
//! load — over a 16-shard server tier, and lets the cohort layer lower
//! the million-client population to 48 simulated nodes (two tracked
//! representatives plus one pooled arrival stream per cohort).
//!
//! Reported per cohort class: population, pooled samples and the
//! median-across-runs p50/p99 of the cohort's rollup. Expected shape:
//! the LP cohorts own the worst tails — the paper's client-configuration
//! skew survives aggregation over 10^6 clients, and the spread between
//! the worst (LP) and best (HP) cohort p99 quantifies it.

use tpv_core::analysis::Summary;
use tpv_core::report::{Csv, MarkdownTable};
use tpv_core::topology::{ClientNode, CohortSpec, ShardSpec, TopologySpec};
use tpv_hw::MachineConfig;
use tpv_loadgen::GeneratorSpec;
use tpv_net::LinkConfig;

use crate::study::StudyCtx;
use crate::{banner, env_duration, env_runs, env_seed};

const COHORTS: usize = 16;
const POPULATION: u32 = 62_500;
const TRACKED: u32 = 2;
const SHARDS: usize = 16;
const BASE_QPS_PER_CLIENT: f64 = 2.0;

/// The 16 cohort classes: a quarter low-power, alternating link
/// classes, per-client load staggered so every class is distinct
/// content (distinct RNG streams under content addressing).
fn cohorts() -> Vec<CohortSpec> {
    let gen = GeneratorSpec::mutilate().with_connections(8);
    (0..COHORTS)
        .map(|i| {
            let lp = i % 4 == 0;
            let machine = if lp { MachineConfig::low_power() } else { MachineConfig::high_performance() };
            let link = if i % 2 == 0 { LinkConfig::cloudlab_lan() } else { LinkConfig::cross_rack() };
            let class = if lp { "lp" } else { "hp" };
            let qps = BASE_QPS_PER_CLIENT + 0.05 * i as f64;
            let node = ClientNode::new(format!("{class}-class{i}"), machine, gen, link, qps);
            CohortSpec::new(node, POPULATION).with_tracked(TRACKED)
        })
        .collect()
}

/// Renders this artefact through the context engine.
pub(crate) fn run(ctx: &StudyCtx) {
    let runs = env_runs(5);
    let duration = env_duration(150);
    let cohorts = cohorts();
    let tier = ShardSpec::uniform(MachineConfig::server_baseline(), SHARDS);
    let service = tpv_core::experiment::Benchmark::memcached().service;
    let server = MachineConfig::server_baseline();
    let topo = TopologySpec {
        shards: Some(&tier),
        service: &service,
        server: &server,
        nodes: &[],
        duration,
        warmup: duration / 10,
        cohorts: &cohorts,
    };
    banner(
        "Extension: one million cohort-compressed clients — LP-class p99 spread at population scale",
        runs,
        duration,
    );
    println!(
        "{} modeled clients in {COHORTS} cohorts of {POPULATION} ({TRACKED} tracked each) over \
         {SHARDS} shards; the cohort layer lowers the population to {} simulated nodes.\n",
        topo.modeled_clients(),
        topo.lowered_node_count(),
    );
    assert!(topo.modeled_clients() >= 1_000_000, "study must model at least a million clients");

    let per_cell = ctx.run_topology_cells(&[topo], runs, env_seed());
    let samples = &per_cell[0];

    let mut table = MarkdownTable::new(&["cohort", "class", "population", "samples", "p50 (us)", "p99 (us)"]);
    let mut csv =
        Csv::new(&["cohort", "class", "population", "samples", "p50_us", "p99_us", "per_client_qps"]);
    let mut lp_p99: Vec<f64> = Vec::new();
    let mut hp_p99: Vec<f64> = Vec::new();
    for (ci, spec) in cohorts.iter().enumerate() {
        let rollups: Vec<_> = samples.iter().map(|s| s.cohorts[ci].result.clone()).collect();
        let summary = Summary::from_runs(&rollups);
        let p99 = summary.p99_median_us();
        let mut p50s: Vec<f64> = rollups.iter().map(|r| r.p50.as_us()).collect();
        p50s.sort_by(f64::total_cmp);
        let p50 = p50s[p50s.len() / 2];
        let label = &spec.node.label;
        let class = if label.starts_with("lp") { "LP" } else { "HP" };
        if class == "LP" {
            lp_p99.push(p99);
        } else {
            hp_p99.push(p99);
        }
        table.row(&[
            label.clone(),
            class.to_string(),
            spec.population.to_string(),
            rollups[0].samples.to_string(),
            format!("{p50:.1}"),
            format!("{p99:.1}"),
        ]);
        csv.row(&[
            label.clone(),
            class.to_string(),
            spec.population.to_string(),
            rollups[0].samples.to_string(),
            format!("{p50:.3}"),
            format!("{p99:.3}"),
            format!("{:.3}", spec.node.qps),
        ]);
    }
    println!("{}", table.render());
    crate::write_csv("ext_million_fleet.csv", &csv);

    let worst_lp = lp_p99.iter().copied().fold(f64::MIN, f64::max);
    let best_hp = hp_p99.iter().copied().fold(f64::MAX, f64::min);
    let spread = worst_lp / best_hp;
    println!(
        "\nPopulation finding: across 10^6 modeled clients the worst low-power cohort posts a \
         p99 of {worst_lp:.1} us against the best high-performance cohort's {best_hp:.1} us — a \
         {spread:.2}x spread from client-side configuration alone, at the simulation cost of \
         {} nodes.",
        cohorts.len() * 3
    );
}
