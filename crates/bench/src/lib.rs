//! Artefact regeneration: the [`study`] registry plus shared plumbing
//! for the thin per-artefact binaries.
//!
//! Every study accepts three environment variables so the suite can be
//! run at paper scale when wall-clock budget allows (see EXPERIMENTS.md
//! at the workspace root):
//!
//! * `TPV_RUNS` — runs per cell (paper: 50; scaled default varies per
//!   experiment).
//! * `TPV_RUN_SECS` — seconds of simulated time per run (paper: 120;
//!   scaled default varies per experiment).
//! * `TPV_SEED` — master seed (default 2024).
//!
//! Results are printed as markdown and written as CSV under `results/`.

use std::path::PathBuf;

use tpv_core::experiment::Cell;
use tpv_core::report::Csv;
use tpv_sim::SimDuration;

pub mod perf;
pub mod rss;
pub(crate) mod studies;
pub mod study;

/// Runs per cell: `TPV_RUNS` or the given default.
pub fn env_runs(default: usize) -> usize {
    std::env::var("TPV_RUNS").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Simulated seconds per run: `TPV_RUN_SECS` (fractional allowed) or the
/// given default in milliseconds.
pub fn env_duration(default_ms: u64) -> SimDuration {
    match std::env::var("TPV_RUN_SECS").ok().and_then(|v| v.parse::<f64>().ok()) {
        Some(secs) if secs > 0.0 => SimDuration::from_secs_f64(secs),
        _ => SimDuration::from_ms(default_ms),
    }
}

/// Master seed: `TPV_SEED` or 2024.
pub fn env_seed() -> u64 {
    std::env::var("TPV_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(2024)
}

/// `results/` directory next to the workspace root (created on demand).
pub fn results_dir() -> PathBuf {
    let base = std::env::var("CARGO_MANIFEST_DIR").map(PathBuf::from).unwrap_or_default();
    // crates/bench -> workspace root.
    let root = base.parent().and_then(|p| p.parent()).map(PathBuf::from).unwrap_or(base);
    root.join("results")
}

/// Writes a CSV under `results/` and reports the path on stdout.
pub fn write_csv(name: &str, csv: &Csv) {
    let path = results_dir().join(name);
    match csv.write_to(&path) {
        Ok(()) => println!("\n[csv] {}", path.display()),
        Err(e) => eprintln!("[csv] failed to write {}: {e}", path.display()),
    }
}

/// Standard header every binary prints.
pub fn banner(what: &str, runs: usize, duration: SimDuration) {
    println!("== {what} ==");
    println!(
        "runs/cell = {runs}, simulated run length = {:.3}s (paper scale: 50 x 120s; set TPV_RUNS/TPV_RUN_SECS to change)\n",
        duration.as_secs()
    );
}

/// Convenience: a cell's per-run average latencies in µs.
pub fn avg_samples(cell: &Cell) -> Vec<f64> {
    cell.samples.iter().map(|r| r.avg_us()).collect()
}
