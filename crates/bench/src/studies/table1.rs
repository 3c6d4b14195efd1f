//! **Table I**: hardware characterization in previous work.

use tpv_core::report::{Csv, MarkdownTable};
use tpv_core::survey;

use crate::study::StudyCtx;

/// Renders Table I (static survey data; the engine is unused).
pub(crate) fn run(_ctx: &StudyCtx) -> Vec<(String, Csv)> {
    println!("== Table I: Hardware characterization in previous work ==\n");
    let mut table = MarkdownTable::new(&["Characterization", "Publications"]);
    let counts = survey::table_i_counts();
    for (c, n) in &counts {
        table.row(&[c.to_string(), n.to_string()]);
    }
    let total: usize = counts.iter().map(|(_, n)| n).sum();
    table.row(&["Total".into(), total.to_string()]);
    println!("{}", table.render());
    println!(
        "{:.0}% of surveyed papers specify the client-side hardware configuration.",
        survey::client_specified_fraction() * 100.0
    );

    let mut csv = Csv::new(&["characterization", "publications"]);
    for (c, n) in &counts {
        csv.row(&[c.to_string(), n.to_string()]);
    }

    assert_eq!(total, 20, "survey must cover 20 publications");
    vec![("table1_survey.csv".into(), csv)]
}
