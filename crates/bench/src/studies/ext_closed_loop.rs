//! **Extension experiment** (beyond the paper's figures): the closed-loop
//! half of the §II taxonomy.
//!
//! The paper's taxonomy covers closed-loop generators qualitatively —
//! "because the timing of the next request depends on when the response to
//! the previous request arrives, any timing inaccuracy can further impact
//! the time when a successive request is sent" — but §V only evaluates
//! open-loop generators. This experiment fills that cell: the same
//! memcached service driven closed-loop from LP and HP clients.
//!
//! Expected shape: the client-side wake path now throttles *throughput*
//! (it sits inside the request loop), so the LP client both measures
//! higher latency and achieves lower load.

use crate::banner;
use tpv_core::experiment::{Benchmark, Experiment, ServerScenario};
use tpv_core::report::{Csv, MarkdownTable};
use tpv_hw::MachineConfig;
use tpv_sim::SimDuration;

use crate::study::StudyCtx;

/// Renders this artefact through the context engine.
pub(crate) fn run(ctx: &StudyCtx) -> Vec<(String, Csv)> {
    let runs = ctx.runs(20);
    let duration = ctx.duration(500);
    banner("Extension: closed-loop generator (LP vs HP clients)", runs, duration);

    let mut csvs = Vec::new();
    for think_us in [0u64, 100] {
        let mut bench = Benchmark::memcached();
        bench.generator = bench.generator.closed_loop(SimDuration::from_us(think_us));
        bench.name = format!("memcached-closed-{think_us}us-think");
        let results = Experiment::builder(bench)
            .client(MachineConfig::low_power())
            .client(MachineConfig::high_performance())
            .server(ServerScenario::baseline())
            // Closed loops self-pace; qps only sets the initial phase.
            .qps(&[100_000.0])
            .runs(runs)
            .run_duration(duration)
            .seed(ctx.seed())
            .build()
            .run_with(&ctx.engine);

        println!("-- think time {think_us} us --\n");
        let mut table =
            MarkdownTable::new(&["client", "avg (us)", "p99 (us)", "achieved QPS", "late sends %"]);
        let mut csv = Csv::new(&["think_us", "client", "avg_us", "p99_us", "achieved_qps", "late_pct"]);
        let mut achieved = std::collections::HashMap::new();
        for client in ["LP", "HP"] {
            let cell = results.cell(client, "SMToff", 100_000.0).unwrap();
            let s = cell.summary();
            let rate: f64 =
                cell.samples.iter().map(|r| r.achieved_qps).sum::<f64>() / cell.samples.len() as f64;
            let late: f64 =
                cell.samples.iter().map(|r| r.late_send_fraction).sum::<f64>() / cell.samples.len() as f64;
            achieved.insert(client, rate);
            table.row(&[
                client.to_string(),
                format!("{:.1}", s.avg_median_us()),
                format!("{:.1}", s.p99_median_us()),
                format!("{rate:.0}"),
                format!("{:.1}", late * 100.0),
            ]);
            csv.row(&[
                format!("{think_us}"),
                client.to_string(),
                format!("{:.2}", s.avg_median_us()),
                format!("{:.2}", s.p99_median_us()),
                format!("{rate:.1}"),
                format!("{:.3}", late * 100.0),
            ]);
        }
        println!("{}", table.render());
        println!(
            "closed-loop throughput penalty of the untuned client: {:.1}%\n",
            (1.0 - achieved["LP"] / achieved["HP"]) * 100.0
        );
        csvs.push((format!("ext_closed_loop_{think_us}us.csv"), csv));
    }
    csvs
}
