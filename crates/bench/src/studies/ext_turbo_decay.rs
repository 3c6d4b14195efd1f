//! **Extension experiment** (beyond the paper's figures): mid-run
//! turbo/power-budget exhaustion on a subset of client nodes.
//!
//! The paper's client configurations are frozen per run, but a tuned
//! client does not stay tuned under sustained load: the turbo budget
//! drains, RAPL capping kicks in and the platform falls back to
//! powersave behaviour — frequency drops and deep idle states re-arm.
//! This study runs an 8-node HP memcached fleet in which two nodes
//! exhaust their budget halfway through the run and degrade to the
//! untuned (LP-like) behaviour for the rest of it.
//!
//! Expected shape: the pooled per-phase p99 is clean before the boundary
//! and degrades after it (the regime change is visible in time), while
//! the whole-run **per-node** breakdown localizes the culprits — the two
//! decayed nodes carry inflated p99 and send slip, the steady majority
//! stays clean. A mid-run state change is therefore observable twice
//! over: *when* (per-phase) and *where* (per-node).

use tpv_core::analysis::Summary;
use tpv_core::report::{Csv, MarkdownTable};
use tpv_core::topology::{ClientNode, NodeDynamics, TopologySpec};
use tpv_hw::{CStatePolicy, DynamicMachine, FreqDriver, FreqGovernor, MachineConfig, UncoreMode};
use tpv_loadgen::GeneratorSpec;
use tpv_net::LinkConfig;
use tpv_sim::{PhaseSchedule, SimTime};
use tpv_stats::desc;

use crate::study::StudyCtx;
use crate::{banner, env_duration, env_runs, env_seed};

const FLEET: usize = 8;
const DECAYED: usize = 2;
const TOTAL_QPS: f64 = 200_000.0;

/// What an HP client becomes once its turbo/power budget is spent: turbo
/// gone, the governor back in powersave with deep idle re-armed and the
/// uncore allowed to ramp — the platform's capped fallback, not a
/// generator restart.
fn exhausted(base: MachineConfig) -> MachineConfig {
    base.with_turbo(false)
        .with_dvfs(FreqDriver::IntelPstate, FreqGovernor::Powersave)
        .with_cstates(CStatePolicy::UpToC6)
        .with_uncore(UncoreMode::Dynamic)
}

/// Renders this artefact through the context engine.
pub(crate) fn run(ctx: &StudyCtx) {
    let runs = env_runs(15);
    let duration = env_duration(400);
    banner("Extension: turbo decay — power budget exhausts mid-run on 2 of 8 nodes", runs, duration);
    let decay_at = SimTime::ZERO + duration / 2;
    println!(
        "{FLEET}-node HP memcached fleet, {:.0}K QPS total; nodes decay0..{} fall back to capped \
         powersave behaviour at {decay_at}.\n",
        TOTAL_QPS / 1000.0,
        DECAYED - 1
    );

    let warmup = duration / 10;
    let service = tpv_core::experiment::Benchmark::memcached().service;
    let server = MachineConfig::server_baseline();
    let gen = GeneratorSpec::mutilate().with_connections(160 / FLEET as u32);
    let link = LinkConfig::cloudlab_lan();
    let per_node = TOTAL_QPS / FLEET as f64;
    let hp = MachineConfig::high_performance();
    let schedule = PhaseSchedule::new(vec![decay_at]);
    let decay_plan = DynamicMachine::new(schedule.clone(), vec![hp, exhausted(hp)]);
    let nodes: Vec<ClientNode> = (0..FLEET)
        .map(|i| {
            if i < DECAYED {
                ClientNode::new(format!("decay{i}"), hp, gen, link, per_node)
                    .with_dynamics(NodeDynamics::new(schedule.clone()).with_machine_plan(decay_plan.clone()))
            } else {
                ClientNode::new(format!("steady{i}"), hp, gen, link, per_node)
            }
        })
        .collect();
    let topo = TopologySpec {
        shards: None,
        service: &service,
        server: &server,
        nodes: &nodes,
        duration,
        warmup,
        cohorts: &[],
    };
    let samples = &ctx.run_topology_cells(&[topo], runs, env_seed())[0];

    // When: the pooled per-phase regimes around the boundary.
    let mut phase_table = MarkdownTable::new(&["phase", "window", "p50 (us)", "p99 (us)", "CoV"]);
    let mut csv = Csv::new(&["phase", "p50_us", "p99_us", "cov", "class", "node_p99_us", "slip_us"]);
    let median_of = |f: &dyn Fn(&tpv_core::collect::PhaseStats) -> f64, i: usize| -> f64 {
        let vals: Vec<f64> = samples.iter().map(|r| f(&r.phases[i])).collect();
        desc::median(&vals)
    };
    let mut phase_p99 = Vec::new();
    for i in 0..samples[0].phases.len() {
        let stats = &samples[0].phases[i];
        let p50 = median_of(&|p| p.p50.as_us(), i);
        let p99 = median_of(&|p| p.p99.as_us(), i);
        let cov = median_of(&|p| p.cov, i);
        phase_p99.push(p99);
        phase_table.row(&[
            format!("{}", stats.phase),
            format!("{}..{}", stats.start, stats.end),
            format!("{p50:.1}"),
            format!("{p99:.1}"),
            format!("{cov:.3}"),
        ]);
        csv.row(&[
            format!("{}", stats.phase),
            format!("{p50:.3}"),
            format!("{p99:.3}"),
            format!("{cov:.4}"),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }
    println!("{}", phase_table.render());

    // Where: the whole-run per-node breakdown that names the culprits.
    let mut node_table =
        MarkdownTable::new(&["node class", "whole-run p99 (us)", "mean send slip (us)", "deep wakes"]);
    for class in ["decay", "steady"] {
        let class_runs: Vec<_> = samples
            .iter()
            .flat_map(|r| r.nodes.iter().filter(|n| n.label.starts_with(class)).map(|n| n.result.clone()))
            .collect();
        let summary = Summary::from_runs(&class_runs);
        let slip: Vec<f64> = class_runs.iter().map(|r| r.mean_send_slip.as_us()).collect();
        let deep: Vec<f64> =
            class_runs.iter().map(|r| (r.client_wakes[2] + r.client_wakes[3]) as f64).collect();
        node_table.row(&[
            class.to_string(),
            format!("{:.1}", summary.p99_median_us()),
            format!("{:.1}", desc::median(&slip)),
            format!("{:.0}", desc::median(&deep)),
        ]);
        csv.row(&[
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            class.to_string(),
            format!("{:.3}", summary.p99_median_us()),
            format!("{:.3}", desc::median(&slip)),
        ]);
    }
    println!("{}", node_table.render());
    crate::write_csv("ext_turbo_decay.csv", &csv);

    let degradation = phase_p99.last().unwrap() / phase_p99.first().unwrap();
    println!(
        "\nDecay finding: the pooled p99 degrades {degradation:.2}x at the mid-run boundary, and the \
         per-node breakdown pins it on the {DECAYED} decayed nodes — per-phase metrics say *when*, \
         per-node metrics say *who*."
    );
}
