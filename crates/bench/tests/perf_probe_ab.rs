//! `perf_probe ab` end to end: an A/A comparison of the probe against
//! itself over a command that prints no result line.

use std::process::Command;

#[test]
fn a_a_ab_over_help_passes_and_prints_a_process_row() {
    let probe = env!("CARGO_BIN_EXE_perf_probe");
    let output =
        Command::new(probe).args(["ab", probe, probe, "--", "--help"]).output().expect("perf_probe runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "A/A ab failed:\n{stdout}\n{stderr}");
    let rows: Vec<&str> =
        stdout.lines().filter(|l| l.starts_with("| ") && !l.starts_with("| metric")).collect();
    assert_eq!(rows.len(), 1, "only process_s: `--help` prints no metrics\n{stdout}");
    assert!(rows[0].starts_with("| process_s | s | "), "{stdout}");
    assert!(!rows[0].ends_with("| FAIL |"), "{stdout}");
    // Ten pairs, two runs each.
    assert_eq!(stderr.lines().filter(|l| l.starts_with("ab: pair ")).count(), 20, "{stderr}");
}

#[test]
fn ab_fails_when_a_run_fails() {
    let probe = env!("CARGO_BIN_EXE_perf_probe");
    let output =
        Command::new(probe).args(["ab", probe, probe, "--", "--bogus"]).output().expect("perf_probe runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("the base run failed"), "{stderr}");
}
