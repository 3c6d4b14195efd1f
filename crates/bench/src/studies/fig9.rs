//! Regenerates **Figure 9**: frequency chart of per-run average response
//! times for the HP-SMToff 400K configuration — the right-skewed,
//! queueing-dominated distribution that fails normality testing.

use crate::avg_samples;
use tpv_core::report::{frequency_chart, Csv};
use tpv_stats::desc::skewness;
use tpv_stats::shapiro_wilk;

use crate::study::StudyCtx;

/// Renders this artefact through the context engine.
pub(crate) fn run(ctx: &StudyCtx) -> Vec<(String, Csv)> {
    // The campaign's 400K cells: the same jobs as in the full sweep.
    let results = super::section_va(ctx, "Figure 9: frequency chart for HP-SMToff @ 400K QPS", &[400_000.0]);
    let cell = results.cell("HP", "SMToff", 400_000.0).unwrap();
    let xs = avg_samples(cell);

    println!("{}", frequency_chart(&xs, 17));

    let skew = skewness(&xs);
    let sw = shapiro_wilk(&xs);
    println!("sample skewness = {skew:.2} (positive = right tail, as in the paper)");
    if let Ok(r) = sw {
        println!(
            "Shapiro-Wilk: W = {:.4}, p = {:.2e} (paper: this configuration fails normality)",
            r.w, r.p_value
        );
    }

    let mut csv = Csv::new(&["run", "avg_us"]);
    for (i, x) in xs.iter().enumerate() {
        csv.row(&[format!("{i}"), format!("{x:.3}")]);
    }

    if skew < 0.0 {
        eprintln!("[shape warning] distribution should be right-skewed");
    }
    vec![("fig9_histogram.csv".into(), csv)]
}
