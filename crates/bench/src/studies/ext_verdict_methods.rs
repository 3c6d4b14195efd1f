//! **Extension experiment**: does the verdict methodology matter?
//!
//! The paper declares two configurations different when their
//! non-parametric CIs do not overlap. The classical alternative is a
//! two-sample test (Mann–Whitney U). This ablation reruns the C1E study's
//! decisions under both rules and reports where they disagree — a check
//! that the paper's conclusions are not an artefact of its decision rule.

use crate::avg_samples;
use tpv_core::analysis::compare;
use tpv_core::report::{Csv, MarkdownTable};
use tpv_core::scenarios::MEMCACHED_QPS;
use tpv_stats::mann_whitney_u;

use crate::study::StudyCtx;

/// Renders this artefact through the context engine.
pub(crate) fn run(ctx: &StudyCtx) -> Vec<(String, Csv)> {
    let results =
        super::section_va(ctx, "Extension: CI-overlap vs Mann-Whitney verdicts (C1E study)", &MEMCACHED_QPS);

    let mut table = MarkdownTable::new(&[
        "client",
        "QPS",
        "CI-overlap verdict",
        "Mann-Whitney p",
        "MW verdict",
        "agree?",
    ]);
    let mut csv = Csv::new(&["client", "qps", "ci_verdict", "mw_p", "mw_verdict", "agree"]);
    let mut agreements = 0usize;
    let mut total = 0usize;
    for client in ["LP", "HP"] {
        for &q in &MEMCACHED_QPS {
            let base = results.cell(client, "SMToff", q).unwrap();
            let variant = results.cell(client, "C1Eon", q).unwrap();
            let ci_verdict = compare(&base.summary(), &variant.summary()).verdict_avg;
            let mw = mann_whitney_u(&avg_samples(base), &avg_samples(variant));
            let (mw_p, mw_differs) = match mw {
                Some(r) => (r.p_value, r.differs(0.05)),
                None => (1.0, false),
            };
            let ci_differs = ci_verdict != tpv_core::analysis::Verdict::Indistinguishable;
            let agree = ci_differs == mw_differs;
            total += 1;
            if agree {
                agreements += 1;
            }
            table.row(&[
                client.to_string(),
                format!("{}K", q as u64 / 1000),
                ci_verdict.to_string(),
                format!("{mw_p:.3}"),
                if mw_differs { "differs".into() } else { "same".to_string() },
                if agree { "yes".into() } else { "NO".to_string() },
            ]);
            csv.row(&[
                client.to_string(),
                format!("{q}"),
                ci_verdict.to_string(),
                format!("{mw_p:.5}"),
                format!("{mw_differs}"),
                format!("{agree}"),
            ]);
        }
    }
    println!("{}", table.render());
    println!(
        "the two decision rules agree on {agreements}/{total} cells \
         (Mann-Whitney is more sensitive: it detects distribution shifts \
         the median-CI rule misses)."
    );
    vec![("ext_verdict_methods.csv".into(), csv)]
}
