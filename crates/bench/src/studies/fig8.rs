//! Regenerates **Figure 8**: Shapiro–Wilk p-values for the §V-A
//! configurations (six scenarios × seven QPS points, 50 runs each at
//! paper scale).

use crate::avg_samples;
use tpv_core::report::Csv;
use tpv_core::scenarios::MEMCACHED_QPS;
use tpv_stats::shapiro_wilk;

use crate::study::StudyCtx;

/// Renders this artefact through the context engine.
pub(crate) fn run(ctx: &StudyCtx) -> Vec<(String, Csv)> {
    let results = super::section_va(
        ctx,
        "Figure 8: Shapiro-Wilk p-values across Section V-A configurations",
        &MEMCACHED_QPS,
    );

    let mut csv = Csv::new(&["config", "qps", "p_value", "passes_alpha_0_05"]);
    // A cell the test cannot take (fewer than 3 runs, or all equal) is
    // `n/a`, not p = 0.
    let mut tested = 0usize;
    let mut passing = 0usize;

    let header: Vec<String> =
        MEMCACHED_QPS.iter().map(|&q| format!("{:>8}", format!("{}K", q as u64 / 1000))).collect();
    println!("config        | {}", header.join(" "));
    for config in results.cells().chunks(MEMCACHED_QPS.len()) {
        let name = config[0].key();
        let mut row = format!("{name:<13} |");
        for cell in config {
            let q = cell.qps;
            match shapiro_wilk(&avg_samples(cell)).map(|r| r.p_value) {
                Ok(p) => {
                    tested += 1;
                    passing += usize::from(p >= 0.05);
                    row.push_str(&format!(" {p:>8.1e}"));
                    csv.row(&[name.clone(), format!("{q}"), format!("{p:.6e}"), format!("{}", p >= 0.05)]);
                }
                Err(_) => {
                    row.push_str(&format!(" {:>8}", "n/a"));
                    csv.row(&[name.clone(), format!("{q}"), "n/a".into(), "n/a".into()]);
                }
            }
        }
        println!("{row}");
    }
    println!("\n(threshold: p = 0.05, the red dashed line of Fig. 8)");

    if tested == 0 {
        println!("no configuration was tested: Shapiro-Wilk needs at least 3 distinct runs per cell.");
    } else {
        let frac = passing as f64 / tested as f64;
        println!(
            "{passing}/{tested} = {:.0}% of tested configurations conform to a normal distribution \
             (paper: approximately 50%).",
            frac * 100.0
        );
        if !(0.25..=0.85).contains(&frac) {
            eprintln!("[shape warning] normality fraction far from the paper's ~50%");
        }
    }
    vec![("fig8_shapiro.csv".into(), csv)]
}
