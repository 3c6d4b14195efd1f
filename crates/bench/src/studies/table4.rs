//! Regenerates **Table IV**: number of iterations to gain statistical
//! confidence (parametric Eq. 3 vs CONFIRM) and Shapiro–Wilk results, for
//! the six §V-A scenarios across the QPS sweep.

use tpv_core::analysis::iteration_estimate;
use tpv_core::report::{Csv, MarkdownTable};
use tpv_core::scenarios::MEMCACHED_QPS;
use tpv_sim::SimRng;

use crate::study::StudyCtx;

/// Renders this artefact through the context engine.
pub(crate) fn run(ctx: &StudyCtx) -> Vec<(String, Csv)> {
    let results = super::section_va(
        ctx,
        "Table IV: iterations to gain statistical confidence (1% error, 95% level)",
        &MEMCACHED_QPS,
    );
    let mut table = MarkdownTable::new(&["Configuration", "QPS", "Parametric", "CONFIRM", "Shapiro-Wilk"]);
    let mut csv = Csv::new(&["config", "qps", "parametric", "confirm", "shapiro"]);
    let mut rng = SimRng::seed_from_u64(ctx.seed() ^ 0x7ab1e4);

    let mut lp_low_iters = 0usize;
    let mut hp_low_iters = usize::MAX;
    for cell in results.cells() {
        let name = cell.key();
        let q = cell.qps;
        let est = iteration_estimate(&cell.summary(), &mut rng);
        let shapiro = match est.shapiro_pass {
            Some(true) => "pass",
            Some(false) => "fail",
            None => "n/a",
        };
        if name == "LP-SMToff" && q == 10_000.0 {
            lp_low_iters = est.parametric;
        }
        if name == "HP-SMToff" && q == 10_000.0 {
            hp_low_iters = est.parametric;
        }
        table.row(&[
            name.clone(),
            format!("{}K", q as u64 / 1000),
            est.parametric.to_string(),
            est.confirm.to_string(),
            shapiro.to_string(),
        ]);
        csv.row(&[
            name,
            format!("{q}"),
            est.parametric.to_string(),
            est.confirm.to_string(),
            shapiro.to_string(),
        ]);
    }
    println!("{}", table.render());

    println!(
        "\nFinding 4: at 10K QPS the LP client needs {lp_low_iters} iterations (paper: 288) \
         while the HP client needs {hp_low_iters} (paper: 1)."
    );
    if lp_low_iters < 20 * hp_low_iters {
        eprintln!("[shape warning] LP should need far more iterations than HP at low load");
    }
    vec![("table4_iterations.csv".into(), csv)]
}
