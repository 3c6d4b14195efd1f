//! The whole study suite as a determinism spec: every registry study
//! rendered in-process at a tiny scale, on a serial and on a pooled
//! engine, must return the same CSV bytes, and each CSV must match the
//! FNV-1a 64 digest pinned below. Where the kernel golden tables pin
//! single runs, this pins the statistics, analysis and rendering of
//! every artefact built on them. The serial render also checks that
//! the studies reading a §V campaign another study already ran execute
//! no job of their own. At this scale every study runs the same runs
//! and run length, so that check catches a seed offset or a changed
//! matrix, not two studies whose default scales differ.
//!
//! On a mismatch the test prints the regenerated table. Replace
//! `DIGESTS` with it only under the golden-regeneration policy of
//! ARCHITECTURE.md: a change that means to move pinned arithmetic or
//! event semantics, argued in the EXPERIMENTS.md optimization log.
//!
//! The same bytes come out of `TPV_RUNS=2 TPV_RUN_SECS=0.05 TPV_SEED=7
//! all_experiments --all`, whose drivers write them under `results/`.

use std::sync::Arc;

use tpv_bench::study::{registry, Scale, StudyCtx};
use tpv_core::engine::{Engine, RunCache};

const TINY: Scale = Scale { runs: Some(2), run_secs: Some(0.05), seed: 7 };

/// Every CSV of the suite at [`TINY`] scale, in registry order.
const DIGESTS: [(&str, u64); 24] = [
    ("table1_survey.csv", 0x7de35fe2b2eacb0f),
    ("table2_configs.csv", 0xedd7d0d8a40e8bf3),
    ("table3_scenarios.csv", 0x6784eb8bb7166a65),
    ("fig2_memcached_smt.csv", 0x280b958dc808fc04),
    ("fig3_memcached_c1e.csv", 0x64f07ae570c19712),
    ("fig4_hdsearch.csv", 0xce1917e244d475d4),
    ("fig5_stddev.csv", 0x4d83f4f7a6e3e33a),
    ("fig6_socialnet.csv", 0x1a90dd209be349d4),
    ("fig7_synthetic.csv", 0xe32b311004293938),
    ("fig8_shapiro.csv", 0x1d6a8935d2b95c08),
    ("fig9_histogram.csv", 0x06ff1244bc7cab4e),
    ("table4_iterations.csv", 0x96e8a6785846622d),
    ("ext_closed_loop_0us.csv", 0x3b29d6758242923d),
    ("ext_closed_loop_100us.csv", 0x17198c95cf069e7d),
    ("ext_space_exploration.csv", 0x5cabad7a8e3dddbd),
    ("ext_mixed_fleet.csv", 0x43d66c432081e4f4),
    ("ext_fleet_scaling.csv", 0xe0973cdb73af4a58),
    ("ext_diurnal_fleet.csv", 0x6bb425156273192d),
    ("ext_turbo_decay.csv", 0x05fe9fd97daf9f24),
    ("ext_sharded_fleet.csv", 0x65e7a211a7102792),
    ("ext_phased_shards.csv", 0x2cf82cac63dee33a),
    ("ext_million_fleet.csv", 0x7f258a2c61f33f21),
    ("ext_mitigation.csv", 0x7b04c44a12693d5f),
    ("ext_verdict_methods.csv", 0xb5c99605f9d0f351),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Studies that only read §V campaigns an earlier study already ran:
/// each configuration is measured once, so these execute no job.
const MEASURED_ONCE: [&str; 6] = [
    "fig3_memcached_c1e",
    "fig5_stddev",
    "fig8_shapiro",
    "fig9_histogram",
    "table4_iterations",
    "ext_verdict_methods",
];

/// A rendered suite: every CSV in registry order, and each study's jobs
/// that the shared run cache could not serve.
struct Suite {
    csvs: Vec<(String, Vec<u8>)>,
    executed: Vec<(&'static str, u64)>,
}

/// Renders every registry study on `engine` with one run cache shared
/// across the suite, as `all_experiments` does.
fn render_suite(engine: Engine) -> Suite {
    let cache = RunCache::new();
    let ctx = StudyCtx { engine: engine.with_cache(Arc::clone(&cache)), scale: TINY };
    let mut suite = Suite { csvs: Vec::new(), executed: Vec::new() };
    for study in registry() {
        let before = cache.stats().misses;
        suite.csvs.extend((study.run)(&ctx).into_iter().map(|(name, csv)| (name, csv.render().into_bytes())));
        suite.executed.push((study.name, cache.stats().misses - before));
    }
    suite
}

#[test]
fn suite_csvs_are_engine_invariant_and_match_their_digests() {
    let Suite { csvs: serial, executed } = render_suite(Engine::serial());
    let pooled = render_suite(Engine::with_workers(3)).csvs;
    let names = |suite: &[(String, Vec<u8>)]| suite.iter().map(|(name, _)| name.clone()).collect::<Vec<_>>();
    assert_eq!(names(&serial), names(&pooled), "the two engines rendered different CSV lists");
    for ((name, serial), (_, pooled)) in serial.iter().zip(&pooled) {
        assert!(serial == pooled, "{name} differs between the serial and the 3-worker engine");
    }

    let remeasured: Vec<&(&str, u64)> =
        executed.iter().filter(|(name, jobs)| MEASURED_ONCE.contains(name) && *jobs > 0).collect();
    assert!(remeasured.is_empty(), "studies executed jobs an earlier study's campaign holds: {remeasured:?}");

    let got: Vec<(&str, u64)> = serial.iter().map(|(name, bytes)| (name.as_str(), fnv1a64(bytes))).collect();
    if got != DIGESTS {
        println!("const DIGESTS: [(&str, u64); {}] = [", got.len());
        for (name, digest) in &got {
            println!("    (\"{name}\", {digest:#018x}),");
        }
        println!("];");
        let drifted: Vec<&str> =
            got.iter().filter(|row| !DIGESTS.contains(row)).map(|(name, _)| *name).collect();
        panic!(
            "suite CSV digests drifted from DIGESTS for {drifted:?}; the regenerated table is printed above"
        );
    }
}
