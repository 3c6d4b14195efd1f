//! Regenerates **Figure 6**: LP/HP clients on the Social Network
//! application (read-user-timeline) — the multi-service case of Finding 3.

use crate::banner;
use tpv_core::report::{Csv, MarkdownTable};
use tpv_core::scenarios::{socialnet_study, SOCIALNET_QPS};

use crate::study::StudyCtx;

/// Renders this artefact through the context engine.
pub(crate) fn run(ctx: &StudyCtx) -> Vec<(String, Csv)> {
    let runs = ctx.runs(20);
    let duration = ctx.duration(4000);
    banner("Figure 6: Social Network (read-user-timeline), LP vs HP", runs, duration);

    let results = socialnet_study(&SOCIALNET_QPS, runs, duration, ctx.seed()).run_with(&ctx.engine);

    let mut table = MarkdownTable::new(&[
        "QPS",
        "LP avg (ms)",
        "HP avg (ms)",
        "LP p99 (ms)",
        "HP p99 (ms)",
        "LP/HP avg",
        "LP/HP p99",
    ]);
    let mut csv =
        Csv::new(&["qps", "lp_avg_us", "hp_avg_us", "lp_p99_us", "hp_p99_us", "ratio_avg", "ratio_p99"]);

    let mut avg_ratios = Vec::new();
    let mut p99_ratios = Vec::new();
    for &q in &SOCIALNET_QPS {
        let lp = results.cell("LP", "SMToff", q).unwrap().summary();
        let hp = results.cell("HP", "SMToff", q).unwrap().summary();
        let r_avg = lp.avg_median_us() / hp.avg_median_us();
        let r_p99 = lp.p99_median_us() / hp.p99_median_us();
        avg_ratios.push(r_avg);
        p99_ratios.push(r_p99);
        table.row(&[
            format!("{q}"),
            format!("{:.2}", lp.avg_median_us() / 1000.0),
            format!("{:.2}", hp.avg_median_us() / 1000.0),
            format!("{:.2}", lp.p99_median_us() / 1000.0),
            format!("{:.2}", hp.p99_median_us() / 1000.0),
            format!("{r_avg:.3}"),
            format!("{r_p99:.3}"),
        ]);
        csv.row(&[
            format!("{q}"),
            format!("{:.2}", lp.avg_median_us()),
            format!("{:.2}", hp.avg_median_us()),
            format!("{:.2}", lp.p99_median_us()),
            format!("{:.2}", hp.p99_median_us()),
            format!("{r_avg:.4}"),
            format!("{r_p99:.4}"),
        ]);
    }
    println!("{}", table.render());

    let mean_avg_ratio = avg_ratios.iter().sum::<f64>() / avg_ratios.len() as f64;
    let mean_p99_ratio = p99_ratios.iter().sum::<f64>() / p99_ratios.len() as f64;
    println!(
        "\nFinding 3 (multi-service): mean LP/HP ratio {mean_avg_ratio:.3} on avg (paper ~1.05) \
         and {mean_p99_ratio:.3} on p99 (paper ~1.00: the tail is server-dominated)."
    );
    if mean_avg_ratio > 1.20 {
        eprintln!("[shape warning] Social Network LP/HP gap larger than the paper's band");
    }
    vec![("fig6_socialnet.csv".into(), csv)]
}
