//! Regenerates **Figure 4**: SMT and C1E impact on HDSearch service
//! latency with LP and HP clients — the high-response-time service where
//! client choice stops mattering (Finding 3).

use tpv_core::analysis::compare;
use tpv_core::report::{Csv, MarkdownTable};
use tpv_core::scenarios::HDSEARCH_QPS;

use crate::study::StudyCtx;

/// Renders this artefact through the context engine.
pub(crate) fn run(ctx: &StudyCtx) -> Vec<(String, Csv)> {
    let results = super::hdsearch_campaign(ctx, "Figure 4: HDSearch SMT + C1E studies (LP/HP clients)");

    let mut table = MarkdownTable::new(&[
        "QPS",
        "LP-SMToff avg (ms)",
        "HP-SMToff avg (ms)",
        "LP/HP gap",
        "SMT speedup LP",
        "SMT speedup HP",
        "C1E slowdown LP",
        "C1E slowdown HP",
    ]);
    let mut csv = Csv::new(&[
        "qps",
        "lp_smtoff_avg_us",
        "hp_smtoff_avg_us",
        "lp_smtoff_p99_us",
        "hp_smtoff_p99_us",
        "lp_hp_gap_avg",
        "lp_hp_gap_p99",
        "smt_speedup_avg_lp",
        "smt_speedup_avg_hp",
        "c1e_slowdown_avg_lp",
        "c1e_slowdown_avg_hp",
    ]);

    let mut gaps = Vec::new();
    let mut trend_agreement = 0usize;
    for &q in &HDSEARCH_QPS {
        let lp_off = results.cell("LP", "SMToff", q).unwrap().summary();
        let hp_off = results.cell("HP", "SMToff", q).unwrap().summary();
        let lp_on = results.cell("LP", "SMTon", q).unwrap().summary();
        let hp_on = results.cell("HP", "SMTon", q).unwrap().summary();
        let lp_c1e = results.cell("LP", "C1Eon", q).unwrap().summary();
        let hp_c1e = results.cell("HP", "C1Eon", q).unwrap().summary();

        let gap_avg = lp_off.avg_median_us() / hp_off.avg_median_us();
        let gap_p99 = lp_off.p99_median_us() / hp_off.p99_median_us();
        gaps.push(gap_avg);

        let smt_lp = compare(&lp_off, &lp_on).speedup_avg;
        let smt_hp = compare(&hp_off, &hp_on).speedup_avg;
        let c1e_lp = compare(&lp_c1e, &lp_off).speedup_avg;
        let c1e_hp = compare(&hp_c1e, &hp_off).speedup_avg;
        // "Same speedups (with similar trends) for both clients".
        if (smt_lp - smt_hp).abs() < 0.08 {
            trend_agreement += 1;
        }

        table.row(&[
            format!("{q}"),
            format!("{:.3}", lp_off.avg_median_us() / 1000.0),
            format!("{:.3}", hp_off.avg_median_us() / 1000.0),
            format!("{gap_avg:.3}"),
            format!("{smt_lp:.3}"),
            format!("{smt_hp:.3}"),
            format!("{c1e_lp:.3}"),
            format!("{c1e_hp:.3}"),
        ]);
        csv.row(&[
            format!("{q}"),
            format!("{:.2}", lp_off.avg_median_us()),
            format!("{:.2}", hp_off.avg_median_us()),
            format!("{:.2}", lp_off.p99_median_us()),
            format!("{:.2}", hp_off.p99_median_us()),
            format!("{gap_avg:.4}"),
            format!("{gap_p99:.4}"),
            format!("{smt_lp:.4}"),
            format!("{smt_hp:.4}"),
            format!("{c1e_lp:.4}"),
            format!("{c1e_hp:.4}"),
        ]);
    }
    println!("{}", table.render());

    let lo = gaps.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = gaps.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "\nFinding 3 (single-service): LP/HP gap {lo:.2}x – {hi:.2}x (paper: 1.07x – 1.17x); \
         SMT speedup trends agree for {trend_agreement}/{} load points.",
        HDSEARCH_QPS.len()
    );
    if hi > 1.35 {
        eprintln!("[shape warning] HDSearch LP/HP gap larger than the paper's band");
    }
    vec![("fig4_hdsearch.csv".into(), csv)]
}
