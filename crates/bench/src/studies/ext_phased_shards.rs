//! **Extension experiment** (beyond the paper's figures): time-varying
//! client dynamics against a *sharded* server tier — the combination the
//! kernel historically rejected (`TopologyError::PhasedMultiShard`) and
//! per-phase merges unlocked.
//!
//! A 32-node memcached fleet follows a 6-phase stepped diurnal load
//! while a quarter of the nodes exhaust their turbo/power budget at
//! mid-run and fall back to capped powersave behaviour. The same fleet
//! runs against two 8-shard tiers:
//!
//! * **uniform** — round-robin routing, every backend takes 1/8 of the
//!   fleet;
//! * **hot** — a skewed router parks 40% of the fleet on shard 0, so the
//!   diurnal peak lands on an already-loaded backend.
//!
//! Reported per tier: the pooled per-phase p50/p99 (when does the tail
//! degrade), the per-phase spread (peak-phase p99 / trough-phase p99)
//! and the whole-run per-shard tails (where the fan-out concentrates
//! it). Expected shape: uniform fan-out *absorbs* the diurnal swing —
//! every shard keeps headroom through the peak, so the per-phase spread
//! stays near the decay-driven floor — while hot-shard fan-out
//! *amplifies* it: the peak phases push the hot backend into queueing
//! and the pooled tail inherits the swing.

use tpv_core::analysis::Summary;
use tpv_core::report::{Csv, MarkdownTable};
use tpv_core::topology::{ClientNode, NodeDynamics, TopologySpec};
use tpv_hw::{DynamicMachine, MachineConfig};
use tpv_loadgen::{GeneratorSpec, PhasedRate};
use tpv_net::LinkConfig;
use tpv_stats::desc;

use super::ext_sharded_fleet::{tier, HOT_SHARE, SHARDS};
use super::ext_turbo_decay::exhausted;
use crate::banner;
use crate::study::StudyCtx;

const FLEET: usize = 32;
const PHASES: usize = 6;
const TOTAL_QPS: f64 = 640_000.0;
const AMPLITUDE: f64 = 0.5;

/// Renders this artefact through the context engine.
pub(crate) fn run(ctx: &StudyCtx) -> Vec<(String, Csv)> {
    let runs = ctx.runs(9);
    let duration = ctx.duration(240);
    banner(
        "Extension: phased × sharded — 6-phase diurnal + mid-run turbo decay over an 8-shard tier",
        runs,
        duration,
    );
    println!(
        "{FLEET}-node HP memcached fleet, {:.0}K QPS total, ±{:.0}% stepped diurnal swing; every 4th \
         node exhausts its power budget at mid-run. Uniform round-robin vs a hot shard taking \
         {:.0}% of the fleet.\n",
        TOTAL_QPS / 1000.0,
        AMPLITUDE * 100.0,
        HOT_SHARE * 100.0
    );

    let warmup = duration / 10;
    let service = tpv_core::experiment::Benchmark::memcached().service;
    let server = MachineConfig::server_baseline();
    let gen = GeneratorSpec::mutilate().with_connections(160 / FLEET as u32);
    let link = LinkConfig::cloudlab_lan();
    let per_node = TOTAL_QPS / FLEET as f64;
    let hp = MachineConfig::high_performance();

    // One 6-phase schedule carries both dynamics: the diurnal rate plan
    // on every node, and — on every 4th node — a machine plan that flips
    // to the exhausted config for the second half of the phases.
    let rate = PhasedRate::diurnal(duration, PHASES, AMPLITUDE);
    let schedule = rate.schedule().clone();
    let mut machines = vec![hp; PHASES / 2];
    machines.extend(vec![exhausted(hp); PHASES - PHASES / 2]);
    let decay_plan = DynamicMachine::new(schedule.clone(), machines);
    let nodes: Vec<ClientNode> = (0..FLEET)
        .map(|i| {
            let dynamics = if i % 4 == 0 {
                NodeDynamics::new(schedule.clone())
                    .with_rate_plan(rate.clone())
                    .with_machine_plan(decay_plan.clone())
            } else {
                NodeDynamics::new(schedule.clone()).with_rate_plan(rate.clone())
            };
            let label = if i % 4 == 0 { format!("decay{i}") } else { format!("steady{i}") };
            ClientNode::new(label, hp, gen, link, per_node).with_dynamics(dynamics)
        })
        .collect();

    let tiers_spec = [tier(false), tier(true)];
    let cells: Vec<TopologySpec<'_>> = tiers_spec
        .iter()
        .map(|shards| TopologySpec {
            shards: Some(shards),
            service: &service,
            server: &server,
            nodes: &nodes,
            duration,
            warmup,
            cohorts: &[],
        })
        .collect();
    let per_cell = ctx.run_topology_cells(&cells, runs);
    let tiers = ["uniform", "hot"];

    // When: the pooled per-phase regimes, side by side per tier.
    let mut phase_table =
        MarkdownTable::new(&["phase", "window", "uniform p50 (us)", "uniform p99 (us)", "hot p99 (us)"]);
    let mut csv = Csv::new(&["tier", "phase", "p50_us", "p99_us", "cov", "shard", "shard_p99_us"]);
    let mut spreads = Vec::new();
    for (t, samples) in per_cell.iter().enumerate() {
        let median_of = |f: &dyn Fn(&tpv_core::collect::PhaseStats) -> f64, i: usize| -> f64 {
            let vals: Vec<f64> = samples.iter().map(|r| f(&r.phases[i])).collect();
            desc::median(&vals)
        };
        let mut phase_p99 = Vec::new();
        for i in 0..samples[0].phases.len() {
            let p50 = median_of(&|p| p.p50.as_us(), i);
            let p99 = median_of(&|p| p.p99.as_us(), i);
            let cov = median_of(&|p| p.cov, i);
            phase_p99.push(p99);
            if t == 0 {
                let stats = &samples[0].phases[i];
                let hot_p99: Vec<f64> = per_cell[1].iter().map(|r| r.phases[i].p99.as_us()).collect();
                phase_table.row(&[
                    format!("{}", stats.phase),
                    format!("{}..{}", stats.start, stats.end),
                    format!("{p50:.1}"),
                    format!("{p99:.1}"),
                    format!("{:.1}", desc::median(&hot_p99)),
                ]);
            }
            csv.row(&[
                tiers[t].to_string(),
                format!("{i}"),
                format!("{p50:.3}"),
                format!("{p99:.3}"),
                format!("{cov:.4}"),
                String::new(),
                String::new(),
            ]);
        }
        let peak = phase_p99.iter().cloned().fold(f64::MIN, f64::max);
        let trough = phase_p99.iter().cloned().fold(f64::MAX, f64::min);
        spreads.push(peak / trough);
    }
    println!("{}", phase_table.render());

    // Where: the whole-run per-shard tails that show what the fan-out
    // does with the swing.
    let mut shard_table =
        MarkdownTable::new(&["tier", "worst shard p99 (us)", "best shard p99 (us)", "per-phase spread"]);
    for (t, samples) in per_cell.iter().enumerate() {
        for shard in 0..SHARDS {
            let p99s: Vec<f64> = samples.iter().map(|r| r.shards[shard].result.p99.as_us()).collect();
            csv.row(&[
                tiers[t].to_string(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                format!("{shard}"),
                format!("{:.3}", desc::median(&p99s)),
            ]);
        }
        let worst: Vec<f64> = samples
            .iter()
            .map(|r| r.shards.iter().map(|s| s.result.p99.as_us()).fold(f64::MIN, f64::max))
            .collect();
        let best: Vec<f64> = samples
            .iter()
            .map(|r| r.shards.iter().map(|s| s.result.p99.as_us()).fold(f64::MAX, f64::min))
            .collect();
        shard_table.row(&[
            tiers[t].to_string(),
            format!("{:.1}", desc::median(&worst)),
            format!("{:.1}", desc::median(&best)),
            format!("{:.2}x", spreads[t]),
        ]);
    }
    println!("{}", shard_table.render());

    // Who: the decayed quarter still shows up in the per-node breakdown
    // even with the diurnal swing and the shard fan-out in play.
    let mut node_table = MarkdownTable::new(&["node class", "whole-run p99 (us, uniform tier)"]);
    for class in ["decay", "steady"] {
        let class_runs: Vec<_> = per_cell[0]
            .iter()
            .flat_map(|r| r.nodes.iter().filter(|n| n.label.starts_with(class)).map(|n| n.result.clone()))
            .collect();
        let summary = Summary::from_runs(&class_runs);
        node_table.row(&[class.to_string(), format!("{:.1}", summary.p99_median_us())]);
    }
    println!("{}", node_table.render());

    let verdict = if spreads[1] > spreads[0] { "amplifies" } else { "absorbs" };
    println!(
        "\nPhased-shards finding: uniform fan-out holds the per-phase p99 spread at {:.2}x while the \
         hot-shard router {verdict} the diurnal swing ({:.2}x) — backend fan-out, not client hygiene \
         alone, decides whether a load swing reaches the tail.",
        spreads[0], spreads[1]
    );
    vec![("ext_phased_shards.csv".into(), csv)]
}
