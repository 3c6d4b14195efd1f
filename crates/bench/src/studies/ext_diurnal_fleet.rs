//! **Extension experiment** (beyond the paper's figures): a fleet under
//! stepped diurnal load.
//!
//! Every run in the paper holds one QPS for the whole window, but
//! production traffic is diurnal — and time-varying load is exactly what
//! makes naive whole-run statistics lie (TUNA's unstable-noise argument).
//! This study drives an 8-node HP memcached fleet with a stepped
//! approximation of one diurnal cycle (per-phase rate multipliers from a
//! sinusoid, time-average 1.0) and reports **per-phase pooled
//! statistics**: the latency regime of each load step next to the single
//! whole-run p99 an experimenter would naively publish.
//!
//! Expected shape: per-phase p99 tracks the load steps — highest at the
//! peak phase, lowest at the trough — while each phase's achieved rate
//! matches its offered multiplier; the whole-run aggregate blends the
//! regimes into one number that describes none of them.

use tpv_core::report::{Csv, MarkdownTable};
use tpv_core::topology::{uniform_fleet, ClientNode, NodeDynamics, TopologySpec};
use tpv_hw::MachineConfig;
use tpv_loadgen::{GeneratorSpec, PhasedRate};
use tpv_net::LinkConfig;
use tpv_stats::desc;

use crate::study::StudyCtx;
use crate::{banner, env_duration, env_runs, env_seed};

const FLEET: usize = 8;
const TOTAL_QPS: f64 = 200_000.0;
const STEPS: usize = 6;
const AMPLITUDE: f64 = 0.6;

/// Renders this artefact through the context engine.
pub(crate) fn run(ctx: &StudyCtx) {
    let runs = env_runs(15);
    let duration = env_duration(400);
    banner("Extension: diurnal fleet — stepped time-varying load, per-phase regimes", runs, duration);
    println!(
        "{FLEET}-node HP memcached fleet, {:.0}K QPS base; one diurnal cycle in {STEPS} steps, amplitude {AMPLITUDE}.\n",
        TOTAL_QPS / 1000.0
    );

    let warmup = duration / 10;
    let service = tpv_core::experiment::Benchmark::memcached().service;
    let server = MachineConfig::server_baseline();
    // One cycle spans the run; every node follows the same rate plan, so
    // the fleet-wide load sweeps trough -> peak deterministically.
    let rate = PhasedRate::diurnal(duration, STEPS, AMPLITUDE);
    let dynamics = NodeDynamics::new(rate.schedule().clone()).with_rate_plan(rate.clone());
    let nodes: Vec<ClientNode> = uniform_fleet(
        "agent",
        MachineConfig::high_performance(),
        GeneratorSpec::mutilate(),
        LinkConfig::cloudlab_lan(),
        TOTAL_QPS,
        FLEET,
    )
    .into_iter()
    .map(|n| n.with_dynamics(dynamics.clone()))
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
    let per_cell = ctx.run_topology_cells(&[topo], runs, env_seed());
    let samples = &per_cell[0];

    let mut table = MarkdownTable::new(&[
        "phase",
        "window",
        "multiplier",
        "offered (QPS)",
        "achieved (QPS)",
        "p50 (us)",
        "p99 (us)",
        "CoV",
    ]);
    let mut csv =
        Csv::new(&["phase", "multiplier", "offered_qps", "achieved_qps", "p50_us", "p99_us", "cov"]);

    // All runs share the schedule, so phase i means the same regime in
    // every run; report the across-run median of each per-phase metric.
    let phase_count = samples[0].phases.len();
    let median_of = |f: &dyn Fn(&tpv_core::collect::PhaseStats) -> f64, i: usize| -> f64 {
        let vals: Vec<f64> = samples.iter().map(|r| f(&r.phases[i])).collect();
        desc::median(&vals)
    };
    let mut peak = (0usize, f64::MIN);
    let mut trough = (0usize, f64::MAX);
    for i in 0..phase_count {
        let stats = &samples[0].phases[i];
        let mult = rate.multiplier(stats.phase);
        let p50 = median_of(&|p| p.p50.as_us(), i);
        let p99 = median_of(&|p| p.p99.as_us(), i);
        let cov = median_of(&|p| p.cov, i);
        let achieved = median_of(&|p| p.achieved_qps, i);
        if mult > peak.1 {
            peak = (i, mult);
        }
        if mult < trough.1 {
            trough = (i, mult);
        }
        table.row(&[
            format!("{}", stats.phase),
            format!("{}..{}", stats.start, stats.end),
            format!("{mult:.2}x"),
            format!("{:.0}", TOTAL_QPS * mult),
            format!("{achieved:.0}"),
            format!("{p50:.1}"),
            format!("{p99:.1}"),
            format!("{cov:.3}"),
        ]);
        csv.row(&[
            format!("{}", stats.phase),
            format!("{mult:.4}"),
            format!("{:.1}", TOTAL_QPS * mult),
            format!("{achieved:.1}"),
            format!("{p50:.3}"),
            format!("{p99:.3}"),
            format!("{cov:.4}"),
        ]);
    }
    println!("{}", table.render());
    crate::write_csv("ext_diurnal_fleet.csv", &csv);

    let whole_run: Vec<f64> = samples.iter().map(|r| r.aggregate.p99.as_us()).collect();
    let peak_p99 = median_of(&|p| p.p99.as_us(), peak.0);
    let trough_p99 = median_of(&|p| p.p99.as_us(), trough.0);
    println!(
        "\nDiurnal finding: the peak phase ({:.1}x load) runs a {:.2}x higher pooled p99 than the trough \
         ({:.1}x load) — one whole-run p99 ({:.1}us) describes neither regime.",
        peak.1,
        peak_p99 / trough_p99,
        trough.1,
        desc::median(&whole_run),
    );
}
