//! **Table II**: client- and server-side hardware configurations.

use tpv_core::report::{Csv, MarkdownTable};
use tpv_hw::MachineConfig;

use crate::study::StudyCtx;

/// Renders Table II (static configuration data; the engine is unused).
pub(crate) fn run(_ctx: &StudyCtx) -> Vec<(String, Csv)> {
    println!("== Table II: Client- and server-side hardware configurations ==\n");
    let lp = MachineConfig::low_power();
    let hp = MachineConfig::high_performance();
    let srv = MachineConfig::server_baseline();

    let rows: Vec<(&str, String, String, String)> = vec![
        ("C-states", lp.cstates.to_string(), hp.cstates.to_string(), srv.cstates.to_string()),
        (
            "Frequency Driver",
            lp.dvfs.driver.to_string(),
            hp.dvfs.driver.to_string(),
            srv.dvfs.driver.to_string(),
        ),
        (
            "Frequency Governor",
            lp.dvfs.governor.to_string(),
            hp.dvfs.governor.to_string(),
            srv.dvfs.governor.to_string(),
        ),
        ("Turbo", lp.turbo.to_string(), hp.turbo.to_string(), srv.turbo.to_string()),
        ("SMT", lp.smt.to_string(), hp.smt.to_string(), srv.smt.to_string()),
        ("Uncore Frequency", lp.uncore.to_string(), hp.uncore.to_string(), srv.uncore.to_string()),
        ("Tickless", lp.tick.to_string(), hp.tick.to_string(), srv.tick.to_string()),
    ];

    let mut table = MarkdownTable::new(&["Configuration", "Client LP", "Client HP", "Server Baseline"]);
    let mut csv = Csv::new(&["knob", "client_lp", "client_hp", "server_baseline"]);
    for (knob, a, b, c) in &rows {
        table.row(&[knob.to_string(), a.clone(), b.clone(), c.clone()]);
        csv.row(&[knob.to_string(), a.clone(), b.clone(), c.clone()]);
    }
    println!("{}", table.render());

    // Paper fidelity checks.
    assert_eq!(lp.cstates.to_string(), "C0,C1,C1E,C6");
    assert_eq!(hp.cstates.to_string(), "off");
    assert_eq!(srv.cstates.to_string(), "C0,C1");
    vec![("table2_configs.csv".into(), csv)]
}
