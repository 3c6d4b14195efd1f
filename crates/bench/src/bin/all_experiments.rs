//! Runs the complete regeneration suite — every table and figure — as an
//! **in-process** driver over the study registry. One engine (and one run
//! cache) is shared across all artefacts, so baseline cells that recur in
//! several figures execute once. Like the individual binaries, it is a
//! driver: it alone reads the `TPV_RUNS` / `TPV_RUN_SECS` / `TPV_SEED`
//! environment variables (a rejected value, such as `TPV_RUNS=0`, exits
//! with status 2 before any study runs) and writes each study's CSVs
//! under `results/`.
//!
//! Usage: `all_experiments [--all] [--list]`
//!
//! * `--all` additionally runs the extension experiments after the paper
//!   artefacts.
//! * `--list` prints the study registry (name, kind, title) without
//!   running anything.
//!
//! After each study a `[cache]` line reports how many of its engine jobs
//! the shared run cache served and the study's wall time in seconds.

use std::time::Instant;

use tpv_bench::study::{registry, Scale, StudyCtx, StudyKind};
use tpv_core::engine::CacheStats;

fn kind_name(kind: StudyKind) -> &'static str {
    match kind {
        StudyKind::Table => "table",
        StudyKind::Figure => "figure",
        StudyKind::Extension => "extension",
    }
}

fn list_registry() {
    println!("{:<24} {:<11} title", "name", "kind");
    println!("{:-<24} {:-<11} {:-<40}", "", "", "");
    for study in registry() {
        println!("{:<24} {:<11} {}", study.name, kind_name(study.kind), study.title);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--list") {
        list_registry();
        return;
    }
    let include_extensions = args.iter().any(|a| a == "--all");
    let ctx = StudyCtx::new(Scale::from_env());
    let mut ran = 0usize;
    let mut failures: Vec<&'static str> = Vec::new();
    let mut last = CacheStats::default();
    for study in registry() {
        let in_suite = match study.kind {
            StudyKind::Table | StudyKind::Figure => true,
            StudyKind::Extension => include_extensions,
        };
        if !in_suite {
            continue;
        }
        println!("\n================================================================");
        println!("running {} — {}", study.name, study.title);
        println!("================================================================\n");
        // One panicking study must not abort the rest of the suite
        // (matching the isolation of the old per-binary driver).
        let started = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| study.run_to_results(&ctx)));
        let wall_s = started.elapsed().as_secs_f64();
        match outcome {
            Ok(()) => ran += 1,
            Err(_) => {
                eprintln!("[all] {} FAILED (panicked); continuing", study.name);
                failures.push(study.name);
            }
        }
        // Per-study report: how much of this artefact was replayed from
        // cells earlier studies already executed, and its wall time
        // (stdout only — never part of a CSV or fingerprint).
        if let Some(cache) = ctx.engine.cache() {
            let now = cache.stats();
            let hits = now.hits - last.hits;
            let misses = now.misses - last.misses;
            let jobs = hits + misses;
            let pct = if jobs > 0 { 100.0 * hits as f64 / jobs as f64 } else { 0.0 };
            println!(
                "[cache] {}: {hits} of {jobs} jobs from cache ({pct:.0}%), {misses} executed; wall {wall_s:.3} s",
                study.name
            );
            last = now;
        }
    }
    println!("\n================================================================");
    if let Some(cache) = ctx.engine.cache() {
        let stats = cache.stats();
        let total = stats.hits + stats.misses;
        let pct = if total > 0 { 100.0 * stats.hits as f64 / total as f64 } else { 0.0 };
        println!(
            "run cache: {} of {} jobs served from cache ({pct:.0}% — baseline cells shared across artefacts); {} distinct results held",
            stats.hits, total, stats.entries
        );
    }
    if failures.is_empty() {
        println!("all {ran} artefacts regenerated; CSVs in results/");
    } else {
        println!("{} artefacts FAILED: {failures:?} ({ran} succeeded)", failures.len());
        std::process::exit(1);
    }
}
