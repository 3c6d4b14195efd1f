//! Regenerates **Figure 8**: Shapiro–Wilk p-values for the §V-A
//! configurations (six scenarios × seven QPS points, 50 runs each at
//! paper scale).

use crate::{avg_samples, banner};
use tpv_core::report::Csv;
use tpv_core::scenarios::MEMCACHED_QPS;
use tpv_stats::shapiro_wilk;

use crate::study::StudyCtx;

/// Renders this artefact through the context engine.
pub(crate) fn run(ctx: &StudyCtx) -> Vec<(String, Csv)> {
    let runs = ctx.runs(50);
    let duration = ctx.duration(400);
    banner("Figure 8: Shapiro-Wilk p-values across Section V-A configurations", runs, duration);

    let mut csv = Csv::new(&["config", "qps", "p_value", "passes_alpha_0_05"]);
    let mut total = 0usize;
    let mut passing = 0usize;

    let header: Vec<String> =
        MEMCACHED_QPS.iter().map(|&q| format!("{:>8}", format!("{}K", q as u64 / 1000))).collect();
    println!("config        | {}", header.join(" "));
    for config in super::section_va_cells(ctx, runs, duration).chunks(MEMCACHED_QPS.len()) {
        let name = format!("{}-{}", config[0].client_label, config[0].server_label);
        let mut row = format!("{name:<13} |");
        for cell in config {
            let q = cell.qps;
            let xs = avg_samples(cell);
            let p = shapiro_wilk(&xs).map(|r| r.p_value).unwrap_or(0.0);
            total += 1;
            if p >= 0.05 {
                passing += 1;
            }
            row.push_str(&format!(" {p:>8.1e}"));
            csv.row(&[name.clone(), format!("{q}"), format!("{p:.6e}"), format!("{}", p >= 0.05)]);
        }
        println!("{row}");
    }
    println!("\n(threshold: p = 0.05, the red dashed line of Fig. 8)");

    let frac = passing as f64 / total as f64;
    println!(
        "{passing}/{total} = {:.0}% of configurations conform to a normal distribution \
         (paper: approximately 50%).",
        frac * 100.0
    );
    if !(0.25..=0.85).contains(&frac) {
        eprintln!("[shape warning] normality fraction far from the paper's ~50%");
    }
    vec![("fig8_shapiro.csv".into(), csv)]
}
