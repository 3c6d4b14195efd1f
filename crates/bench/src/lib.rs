//! Artefact regeneration: the [`study`] registry plus shared plumbing
//! for the thin per-artefact binaries.
//!
//! Three environment variables set the scale of every study, so the
//! suite can be run at paper scale when wall-clock budget allows (see
//! EXPERIMENTS.md at the workspace root). Only the drivers
//! (`all_experiments` and the per-study binaries) read them, into the
//! [`study::Scale`] of the [`study::StudyCtx`] that studies read:
//!
//! * `TPV_RUNS` — runs per cell (paper: 50; scaled default varies per
//!   experiment; 0 is rejected).
//! * `TPV_RUN_SECS` — seconds of simulated time per run (paper: 120;
//!   scaled default varies per experiment).
//! * `TPV_SEED` — master seed (default 2024).
//!
//! Studies print markdown and return their CSVs; the drivers write
//! them under `results/`.

use std::path::{Path, PathBuf};

use tpv_core::experiment::Cell;
use tpv_sim::SimDuration;

pub mod perf;
pub mod rss;
pub(crate) mod studies;
pub mod study;

/// `results/` directory next to the workspace root (created on demand).
/// The root is fixed when the crate is compiled, so a binary writes
/// there from any working directory.
pub fn results_dir() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    // crates/bench -> workspace root.
    manifest.ancestors().nth(2).unwrap_or(manifest).join("results")
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
