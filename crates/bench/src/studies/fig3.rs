//! Regenerates **Figure 3**: performance evaluation of C1E impact on
//! Memcached service latency with LP and HP clients — the paper's
//! conflicting-conclusions study (Finding 2).

use tpv_core::analysis::{compare, conclusions_conflict};
use tpv_core::report::{Csv, MarkdownTable};
use tpv_core::scenarios::MEMCACHED_QPS;

use crate::study::StudyCtx;

/// Renders this artefact through the context engine.
pub(crate) fn run(ctx: &StudyCtx) -> Vec<(String, Csv)> {
    let results = super::section_va(ctx, "Figure 3: Memcached C1E study (LP/HP clients)", &MEMCACHED_QPS);

    let mut table = MarkdownTable::new(&[
        "QPS",
        "LP C1Eoff avg",
        "LP C1Eon avg",
        "HP C1Eoff avg",
        "HP C1Eon avg",
        "C1E_ON/OFF avg LP",
        "C1E_ON/OFF avg HP",
        "verdict LP",
        "verdict HP",
        "conflict",
    ]);
    let mut csv = Csv::new(&[
        "qps",
        "lp_off_avg_us",
        "lp_on_avg_us",
        "hp_off_avg_us",
        "hp_on_avg_us",
        "slowdown_avg_lp",
        "slowdown_avg_hp",
        "slowdown_p99_lp",
        "slowdown_p99_hp",
        "verdict_lp",
        "verdict_hp",
    ]);

    let mut hp_low_load_slowdown = 0.0;
    let mut conflicts = 0;
    for &q in &MEMCACHED_QPS {
        let lp_off = results.cell("LP", "SMToff", q).unwrap().summary();
        let lp_on = results.cell("LP", "C1Eon", q).unwrap().summary();
        let hp_off = results.cell("HP", "SMToff", q).unwrap().summary();
        let hp_on = results.cell("HP", "C1Eon", q).unwrap().summary();

        // Panel (c)/(d) ratios: C1E_ON / C1E_OFF (>1 ⇒ C1E slower).
        let lp_ratio = compare(&lp_on, &lp_off).speedup_avg;
        let hp_ratio = compare(&hp_on, &hp_off).speedup_avg;
        let lp_ratio_p99 = compare(&lp_on, &lp_off).speedup_p99;
        let hp_ratio_p99 = compare(&hp_on, &hp_off).speedup_p99;
        if q == 10_000.0 {
            hp_low_load_slowdown = hp_ratio;
        }

        // Verdict from the baseline's perspective: is C1E-on slower?
        let v_lp = compare(&lp_off, &lp_on).verdict_avg;
        let v_hp = compare(&hp_off, &hp_on).verdict_avg;
        let conflict = conclusions_conflict(v_lp, v_hp);
        if conflict {
            conflicts += 1;
        }

        table.row(&[
            format!("{}K", q as u64 / 1000),
            format!("{:.1}", lp_off.avg_median_us()),
            format!("{:.1}", lp_on.avg_median_us()),
            format!("{:.1}", hp_off.avg_median_us()),
            format!("{:.1}", hp_on.avg_median_us()),
            format!("{lp_ratio:.3}"),
            format!("{hp_ratio:.3}"),
            v_lp.to_string(),
            v_hp.to_string(),
            if conflict { "CONFLICT".into() } else { "-".to_string() },
        ]);
        csv.row(&[
            format!("{q}"),
            format!("{:.3}", lp_off.avg_median_us()),
            format!("{:.3}", lp_on.avg_median_us()),
            format!("{:.3}", hp_off.avg_median_us()),
            format!("{:.3}", hp_on.avg_median_us()),
            format!("{lp_ratio:.4}"),
            format!("{hp_ratio:.4}"),
            format!("{lp_ratio_p99:.4}"),
            format!("{hp_ratio_p99:.4}"),
            v_lp.to_string(),
            v_hp.to_string(),
        ]);
    }
    println!("{}", table.render());

    println!(
        "\nFinding 2: HP sees a C1E slowdown of {:.1}% at 10K QPS (paper: up to 19%), \
         and {} of {} load points produced conflicting LP-vs-HP conclusions.",
        (hp_low_load_slowdown - 1.0) * 100.0,
        conflicts,
        MEMCACHED_QPS.len()
    );
    if hp_low_load_slowdown < 1.02 {
        eprintln!("[shape warning] HP C1E slowdown at 10K below the paper's band");
    }
    vec![("fig3_memcached_c1e.csv".into(), csv)]
}
