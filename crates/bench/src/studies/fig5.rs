//! Regenerates **Figure 5**: standard deviation of the average response
//! time for Memcached and HDSearch under LP/HP clients and SMT on/off —
//! the evidence behind Finding 4.

use tpv_core::report::{Csv, MarkdownTable};
use tpv_core::scenarios::{HDSEARCH_QPS, MEMCACHED_QPS};

use crate::study::StudyCtx;

/// Renders this artefact through the context engine.
pub(crate) fn run(ctx: &StudyCtx) -> Vec<(String, Csv)> {
    let mem =
        super::section_va(ctx, "Figure 5(a): stddev of average response time, Memcached", &MEMCACHED_QPS);
    let mut table = MarkdownTable::new(&["QPS", "LP-SMToff", "LP-SMTon", "HP-SMToff", "HP-SMTon"]);
    let mut csv =
        Csv::new(&["benchmark", "qps", "lp_smtoff_us", "lp_smton_us", "hp_smtoff_us", "hp_smton_us"]);
    let mut lp_low = 0.0;
    let mut hp_low = 0.0;
    let mut lp_high = 0.0;
    let mut hp_high = 0.0;
    for &q in &MEMCACHED_QPS {
        let cells = [
            mem.cell("LP", "SMToff", q).unwrap().summary().avg_std_dev_us(),
            mem.cell("LP", "SMTon", q).unwrap().summary().avg_std_dev_us(),
            mem.cell("HP", "SMToff", q).unwrap().summary().avg_std_dev_us(),
            mem.cell("HP", "SMTon", q).unwrap().summary().avg_std_dev_us(),
        ];
        if q == 10_000.0 {
            lp_low = cells[0];
            hp_low = cells[2];
        }
        if q == 500_000.0 {
            lp_high = cells[0];
            hp_high = cells[2];
        }
        table.row(&[
            format!("{}K", q as u64 / 1000),
            format!("{:.2}", cells[0]),
            format!("{:.2}", cells[1]),
            format!("{:.2}", cells[2]),
            format!("{:.2}", cells[3]),
        ]);
        csv.row(&[
            "memcached".into(),
            format!("{q}"),
            format!("{:.3}", cells[0]),
            format!("{:.3}", cells[1]),
            format!("{:.3}", cells[2]),
            format!("{:.3}", cells[3]),
        ]);
    }
    println!("{}", table.render());

    let hd = super::hdsearch_campaign(ctx, "Figure 5(b): stddev of average response time, HDSearch");
    let mut table_b = MarkdownTable::new(&["QPS", "LP-SMToff", "LP-SMTon", "HP-SMToff", "HP-SMTon"]);
    for &q in &HDSEARCH_QPS {
        let cells = [
            hd.cell("LP", "SMToff", q).unwrap().summary().avg_std_dev_us(),
            hd.cell("LP", "SMTon", q).unwrap().summary().avg_std_dev_us(),
            hd.cell("HP", "SMToff", q).unwrap().summary().avg_std_dev_us(),
            hd.cell("HP", "SMTon", q).unwrap().summary().avg_std_dev_us(),
        ];
        table_b.row(&[
            format!("{q}"),
            format!("{:.2}", cells[0]),
            format!("{:.2}", cells[1]),
            format!("{:.2}", cells[2]),
            format!("{:.2}", cells[3]),
        ]);
        csv.row(&[
            "hdsearch".into(),
            format!("{q}"),
            format!("{:.3}", cells[0]),
            format!("{:.3}", cells[1]),
            format!("{:.3}", cells[2]),
            format!("{:.3}", cells[3]),
        ]);
    }
    println!("{}", table_b.render());

    // The paper's crossover: LP noisier than HP at 10K, quieter at 500K.
    let crossover = if lp_high < hp_high { " crossover" } else { "" };
    let quieter = |lp: f64, hp: f64| if lp < hp { "LP quieter" } else { "LP noisier" };
    println!(
        "\nFinding 4{crossover}: at 10K QPS LP stddev {lp_low:.1}us vs HP {hp_low:.1}us ({}); \
         at 500K LP {lp_high:.1}us vs HP {hp_high:.1}us ({}).",
        quieter(lp_low, hp_low),
        quieter(lp_high, hp_high)
    );
    if lp_low <= hp_low {
        eprintln!("[shape warning] LP should be noisier than HP at low load");
    }
    vec![("fig5_stddev.csv".into(), csv)]
}
