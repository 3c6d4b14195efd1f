//! Regenerates **Figure 7**: the synthetic-service sensitivity sweep —
//! how the LP/HP measurement gap shrinks as service latency grows.
//!
//! Panels: (a)/(b) LP/HP ratios vs added delay per QPS, (c)–(f) absolute
//! avg/p99 at 5K and 20K QPS.

use crate::banner;
use tpv_core::report::{Csv, MarkdownTable};
use tpv_core::scenarios::{synthetic_study, SYNTHETIC_DELAYS_US, SYNTHETIC_QPS};
use tpv_sim::SimDuration;

use crate::study::StudyCtx;

/// Renders this artefact through the context engine.
pub(crate) fn run(ctx: &StudyCtx) -> Vec<(String, Csv)> {
    // §V-B: "the results presented in this section are the average of 20 runs".
    let runs = ctx.runs(20);
    let duration = ctx.duration(500);
    banner("Figure 7: synthetic-service sensitivity (delay 0-400us x 5K-20K QPS)", runs, duration);

    let mut table = MarkdownTable::new(&[
        "Delay (us)",
        "QPS",
        "LP avg",
        "HP avg",
        "LP/HP avg",
        "LP p99",
        "HP p99",
        "LP/HP p99",
    ]);
    let mut csv = Csv::new(&[
        "delay_us",
        "qps",
        "lp_avg_us",
        "hp_avg_us",
        "ratio_avg",
        "lp_p99_us",
        "hp_p99_us",
        "ratio_p99",
    ]);

    let mut ratio_at_zero_20k = 0.0;
    let mut ratio_at_400_20k = 0.0;
    for &delay_us in &SYNTHETIC_DELAYS_US {
        let results =
            synthetic_study(SimDuration::from_us(delay_us), &SYNTHETIC_QPS, runs, duration, ctx.seed())
                .run_with(&ctx.engine);
        for &q in &SYNTHETIC_QPS {
            let lp = results.cell("LP", "SMToff", q).unwrap().summary();
            let hp = results.cell("HP", "SMToff", q).unwrap().summary();
            let r_avg = lp.avg_median_us() / hp.avg_median_us();
            let r_p99 = lp.p99_median_us() / hp.p99_median_us();
            if q == 20_000.0 && delay_us == 0 {
                ratio_at_zero_20k = r_avg;
            }
            if q == 20_000.0 && delay_us == 400 {
                ratio_at_400_20k = r_avg;
            }
            table.row(&[
                format!("{delay_us}"),
                format!("{}K", q as u64 / 1000),
                format!("{:.1}", lp.avg_median_us()),
                format!("{:.1}", hp.avg_median_us()),
                format!("{r_avg:.2}"),
                format!("{:.1}", lp.p99_median_us()),
                format!("{:.1}", hp.p99_median_us()),
                format!("{r_p99:.2}"),
            ]);
            csv.row(&[
                format!("{delay_us}"),
                format!("{q}"),
                format!("{:.2}", lp.avg_median_us()),
                format!("{:.2}", hp.avg_median_us()),
                format!("{r_avg:.4}"),
                format!("{:.2}", lp.p99_median_us()),
                format!("{:.2}", hp.p99_median_us()),
                format!("{r_p99:.4}"),
            ]);
        }
    }
    println!("{}", table.render());

    println!(
        "\nFinding 3 (sensitivity): at 20K QPS the LP/HP average ratio falls from \
         {ratio_at_zero_20k:.2}x at 0us added delay to {ratio_at_400_20k:.2}x at 400us \
         (paper: 2.8x -> 1.02x)."
    );
    if ratio_at_zero_20k < 1.5 || ratio_at_400_20k > 1.15 {
        eprintln!("[shape warning] synthetic convergence outside the paper's band");
    }
    vec![("fig7_synthetic.csv".into(), csv)]
}
