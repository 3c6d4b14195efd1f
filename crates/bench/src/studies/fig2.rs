//! **Figure 2**: performance evaluation of SMT impact on Memcached
//! service latency with LP and HP clients.
//!
//! Panels: (a) average response time (median), (b) p99 latency (median),
//! (c) slowdown caused by disabling SMT on average latency,
//! (d) slowdown on p99 latency.

use tpv_core::analysis::compare;
use tpv_core::report::{Csv, MarkdownTable};
use tpv_core::scenarios::MEMCACHED_QPS;

use crate::study::StudyCtx;

/// Renders Figure 2 through the context's engine.
pub(crate) fn run(ctx: &StudyCtx) -> Vec<(String, Csv)> {
    let results = super::section_va(ctx, "Figure 2: Memcached SMT study (LP/HP clients)", &MEMCACHED_QPS);

    let mut table = MarkdownTable::new(&[
        "QPS",
        "LP-SMToff avg",
        "LP-SMTon avg",
        "HP-SMToff avg",
        "HP-SMTon avg",
        "LP-SMToff p99",
        "HP-SMToff p99",
        "SMToff/on avg LP",
        "SMToff/on avg HP",
        "SMToff/on p99 LP",
        "SMToff/on p99 HP",
    ]);
    let mut csv = Csv::new(&[
        "qps",
        "lp_smtoff_avg_us",
        "lp_smton_avg_us",
        "hp_smtoff_avg_us",
        "hp_smton_avg_us",
        "lp_smtoff_p99_us",
        "lp_smton_p99_us",
        "hp_smtoff_p99_us",
        "hp_smton_p99_us",
        "slowdown_avg_lp",
        "slowdown_avg_hp",
        "slowdown_p99_lp",
        "slowdown_p99_hp",
    ]);

    let mut lp_gaps = Vec::new();
    for &q in &MEMCACHED_QPS {
        let lp_off = results.cell("LP", "SMToff", q).unwrap().summary();
        let lp_on = results.cell("LP", "SMTon", q).unwrap().summary();
        let hp_off = results.cell("HP", "SMToff", q).unwrap().summary();
        let hp_on = results.cell("HP", "SMTon", q).unwrap().summary();

        // Panels (c)/(d): SMT_OFF / SMT_ON from run means.
        let lp_cmp = compare(&lp_off, &lp_on); // speedup = off/on
        let hp_cmp = compare(&hp_off, &hp_on);

        lp_gaps.push(lp_off.avg_median_us() / hp_off.avg_median_us());

        table.row(&[
            format!("{}K", q as u64 / 1000),
            format!("{:.1}", lp_off.avg_median_us()),
            format!("{:.1}", lp_on.avg_median_us()),
            format!("{:.1}", hp_off.avg_median_us()),
            format!("{:.1}", hp_on.avg_median_us()),
            format!("{:.1}", lp_off.p99_median_us()),
            format!("{:.1}", hp_off.p99_median_us()),
            format!("{:.3}", lp_cmp.speedup_avg),
            format!("{:.3}", hp_cmp.speedup_avg),
            format!("{:.3}", lp_cmp.speedup_p99),
            format!("{:.3}", hp_cmp.speedup_p99),
        ]);
        csv.row(&[
            format!("{q}"),
            format!("{:.3}", lp_off.avg_median_us()),
            format!("{:.3}", lp_on.avg_median_us()),
            format!("{:.3}", hp_off.avg_median_us()),
            format!("{:.3}", hp_on.avg_median_us()),
            format!("{:.3}", lp_off.p99_median_us()),
            format!("{:.3}", lp_on.p99_median_us()),
            format!("{:.3}", hp_off.p99_median_us()),
            format!("{:.3}", hp_on.p99_median_us()),
            format!("{:.4}", lp_cmp.speedup_avg),
            format!("{:.4}", hp_cmp.speedup_avg),
            format!("{:.4}", lp_cmp.speedup_p99),
            format!("{:.4}", hp_cmp.speedup_p99),
        ]);
    }
    println!("{}", table.render());

    // Finding 1 shape checks (reported, not fatal).
    let min_gap = lp_gaps.iter().cloned().fold(f64::INFINITY, f64::min);
    let max_gap = lp_gaps.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "\nFinding 1: LP/HP average-latency gap ranges {min_gap:.2}x – {max_gap:.2}x (paper: 1.8x – 2.5x)."
    );
    if max_gap < 1.5 {
        eprintln!("[shape warning] LP/HP gap below the paper's band");
    }
    vec![("fig2_memcached_smt.csv".into(), csv)]
}
