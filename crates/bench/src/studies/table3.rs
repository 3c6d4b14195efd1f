//! **Table III**: the scenario taxonomy and which scenarios risk wrong
//! conclusions.

use tpv_core::report::{Csv, MarkdownTable};
use tpv_core::scenarios;

use crate::study::StudyCtx;

/// Renders Table III (static taxonomy data; the engine is unused).
pub(crate) fn run(_ctx: &StudyCtx) -> Vec<(String, Csv)> {
    println!("== Table III: Scenarios tested in Section V ==\n");
    let mut table = MarkdownTable::new(&[
        "Workload Generator Design",
        "Point of Meas.",
        "Client Conf.",
        "Response Time",
        "Risk",
        "Sections",
    ]);
    let mut csv = Csv::new(&["design", "pom", "client", "response_time", "risk", "sections"]);
    for s in scenarios::table_iii() {
        let design = format!(
            "open-loop {}",
            if s.timing == tpv_loadgen::TimingMode::BlockWait {
                "time-sensitive"
            } else {
                "time-insensitive"
            }
        );
        let pom = "in-app".to_string();
        let client = if s.client_tuned { "tuned" } else { "not-tuned" }.to_string();
        let resp = if s.small_response_time { "small" } else { "big" }.to_string();
        let risk = if s.risk { "X" } else { "-" }.to_string();
        table.row(&[
            design.clone(),
            pom.clone(),
            client.clone(),
            resp.clone(),
            risk.clone(),
            s.sections.to_string(),
        ]);
        csv.row(&[design, pom, client, resp, risk, s.sections.to_string()]);
    }
    println!("{}", table.render());
    vec![("table3_scenarios.csv".into(), csv)]
}
