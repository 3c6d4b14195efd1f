//! **Extension experiment**: the §VI space exploration, executed.
//!
//! "When the target configuration is unknown, a space exploration could
//! be made to evaluate a technique under several scenarios, using either
//! homogeneous or heterogeneous client and server machine configurations."
//!
//! This binary runs the SMT question under a grid of client
//! configurations (LP, HP, and single-knob hybrids) and reports the
//! speedup each client would publish — the spread *is* the configuration
//! risk the paper warns about.

use crate::banner;
use tpv_core::analysis::compare;
use tpv_core::experiment::{Benchmark, Experiment, ServerScenario};
use tpv_core::report::{Csv, MarkdownTable};
use tpv_hw::{CStatePolicy, FreqDriver, FreqGovernor, MachineConfig};

use crate::study::StudyCtx;

/// Renders this artefact through the context engine.
pub(crate) fn run(ctx: &StudyCtx) -> Vec<(String, Csv)> {
    let runs = ctx.runs(15);
    let duration = ctx.duration(400);
    banner("Extension: Section VI space exploration (SMT study under client grid)", runs, duration);

    let lp = MachineConfig::low_power();
    let clients: Vec<(&str, MachineConfig)> = vec![
        ("LP", lp),
        ("LP+nocstates", lp.with_cstates(CStatePolicy::PollIdle)),
        ("LP+perfgov", lp.with_dvfs(FreqDriver::IntelPstate, FreqGovernor::Performance)),
        ("LP+C1only", lp.with_cstates(CStatePolicy::UpToC1)),
        ("HP", MachineConfig::high_performance()),
    ];

    let mut builder = Experiment::builder(Benchmark::memcached())
        .server(ServerScenario::baseline())
        .server(ServerScenario::smt_on())
        .qps(&[400_000.0])
        .runs(runs)
        .run_duration(duration)
        .seed(ctx.seed());
    for (label, cfg) in &clients {
        builder = builder.client_labelled(*label, *cfg);
    }
    let results = builder.build().run_with(&ctx.engine);

    let mut table = MarkdownTable::new(&["client config", "avg SMToff (us)", "SMT p99 speedup", "verdict"]);
    let mut csv = Csv::new(&["client", "avg_smtoff_us", "smt_speedup_p99", "verdict"]);
    let mut speedups = Vec::new();
    for (label, _) in &clients {
        let off = results.cell(label, "SMToff", 400_000.0).unwrap().summary();
        let on = results.cell(label, "SMTon", 400_000.0).unwrap().summary();
        let cmp = compare(&off, &on);
        speedups.push(cmp.speedup_p99);
        table.row(&[
            label.to_string(),
            format!("{:.1}", off.avg_median_us()),
            format!("{:.3}", cmp.speedup_p99),
            cmp.verdict_p99.to_string(),
        ]);
        csv.row(&[
            label.to_string(),
            format!("{:.2}", off.avg_median_us()),
            format!("{:.4}", cmp.speedup_p99),
            cmp.verdict_p99.to_string(),
        ]);
    }
    println!("{}", table.render());

    let lo = speedups.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = speedups.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "published SMT p99 speedup would range {lo:.3}x – {hi:.3}x depending on \
         client configuration — the spread is the reproducibility risk of \
         unreported client hardware."
    );
    vec![("ext_space_exploration.csv".into(), csv)]
}
