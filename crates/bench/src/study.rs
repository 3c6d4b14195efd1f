//! The declarative study registry: every paper artefact and extension
//! experiment as a named, in-process runnable.
//!
//! A [`Study`] bundles an identifier (matching the historical binary
//! name), a human title and a renderer function. A renderer is a pure
//! function of its [`StudyCtx`]: it reads its runs, run length and seed
//! from the context's [`Scale`], prints its markdown and returns its
//! CSVs. Only the two drivers read the `TPV_*` environment variables
//! ([`Scale::from_env`]) and write files ([`Study::run_to_results`]):
//! the thin per-artefact binaries through [`run_by_name`], and
//! `all_experiments`, which iterates [`registry`] **in one process**, so
//! every study routes through a single [`Engine`] whose [`RunCache`]
//! deduplicates the baseline cells shared across figures (seeds are
//! content-addressed — see `tpv_core::engine`).

use tpv_core::control::{ControlResult, ControlSpec, Controller, MitigationPolicy};
use tpv_core::engine::{fingerprint_control, fingerprint_topology, Engine, JobPlan, RunCache};
use tpv_core::report::Csv;
use tpv_core::runtime::run_fleet;
use tpv_core::topology::{FleetResult, TopologySpec};
use tpv_sim::SimDuration;

use crate::studies;

/// What a study regenerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StudyKind {
    /// A table of the paper (Tables I–IV).
    Table,
    /// A figure of the paper (Figures 2–9).
    Figure,
    /// An experiment beyond the paper's artefacts.
    Extension,
}

/// How large a study runs and from which master seed: the three inputs
/// the `TPV_RUNS` / `TPV_RUN_SECS` / `TPV_SEED` variables set. `None`
/// leaves a study its own scaled default.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Runs per cell (`TPV_RUNS`).
    pub runs: Option<usize>,
    /// Simulated seconds per run (`TPV_RUN_SECS`; fractions allowed).
    pub run_secs: Option<f64>,
    /// Master seed (`TPV_SEED`, default 2024).
    pub seed: u64,
}

impl Scale {
    /// Parses the three variables' values. An unparsable value, or a
    /// run length that is not positive, leaves the default; the seed
    /// defaults to 2024.
    ///
    /// # Errors
    ///
    /// A zero run count: no cell can be summarized from no runs.
    pub fn parse(runs: Option<&str>, run_secs: Option<&str>, seed: Option<&str>) -> Result<Scale, String> {
        match runs.and_then(|v| v.parse().ok()) {
            Some(0) => Err("TPV_RUNS=0: every cell needs at least one run".into()),
            runs => Ok(Scale {
                runs,
                run_secs: run_secs.and_then(|v| v.parse().ok()).filter(|&secs: &f64| secs > 0.0),
                seed: seed.and_then(|v| v.parse().ok()).unwrap_or(2024),
            }),
        }
    }

    /// [`Scale::parse`] over the process environment: what the drivers
    /// run at. A rejected scale is printed in one line and the process
    /// exits with status 2, before any study runs.
    pub fn from_env() -> Scale {
        let var = |name| std::env::var(name).ok();
        Scale::parse(var("TPV_RUNS").as_deref(), var("TPV_RUN_SECS").as_deref(), var("TPV_SEED").as_deref())
            .unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2)
            })
    }
}

/// Execution context handed to every study renderer.
pub struct StudyCtx {
    /// The engine every experiment routes through. Sharing one context
    /// across studies shares its run cache.
    pub engine: Engine,
    /// The scale and seed every study reads.
    pub scale: Scale,
}

impl StudyCtx {
    /// A parallel engine with a fresh run cache, at `scale`.
    pub fn new(scale: Scale) -> Self {
        StudyCtx { engine: Engine::new().with_cache(RunCache::new()), scale }
    }

    /// Runs per cell: the scale's, or the study's `default`.
    pub fn runs(&self, default: usize) -> usize {
        self.scale.runs.unwrap_or(default)
    }

    /// Simulated time per run: the scale's, or the study's default in
    /// milliseconds.
    pub fn duration(&self, default_ms: u64) -> SimDuration {
        self.scale.run_secs.map_or(SimDuration::from_ms(default_ms), SimDuration::from_secs_f64)
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.scale.seed
    }

    /// Executes `runs` fleet runs of every topology cell, seeded off the
    /// context's master seed, through the context engine and regroups
    /// the results per cell — the fleet counterpart of
    /// `Experiment::run_with`. Each job is one
    /// [`run_fleet`] on the engine's leftover budget for the shards
    /// inside one run ([`Engine::shard_workers`]), so results are
    /// bit-identical at any worker split.
    ///
    /// # Panics
    ///
    /// Every cell is validated before any job executes; a misconfigured
    /// cell panics with its [`tpv_core::topology::TopologyError`] —
    /// `all_experiments` isolates study panics, so it reports the typed
    /// error without aborting the rest of the suite.
    pub fn run_topology_cells(&self, topos: &[TopologySpec<'_>], runs: usize) -> Vec<Vec<FleetResult>> {
        for topo in topos {
            topo.validate().unwrap_or_else(|e| panic!("{e}"));
        }
        let fingerprints: Vec<u64> = topos.iter().map(fingerprint_topology).collect();
        self.run_cells(&fingerprints, runs, |cell, seed, shard_workers| {
            run_fleet(&topos[cell], seed, shard_workers).expect("cell validated before execution")
        })
    }

    /// The closed-loop counterpart of [`StudyCtx::run_topology_cells`]:
    /// every cell is a `(spec, policy)` pair executed through
    /// [`tpv_core::control::Controller`], seeded per run off the cell's
    /// [`fingerprint_control`] content address — so a policy cell's seeds
    /// survive reordering the policy sweep, exactly like topology cells.
    /// What the mitigation study (`ext_mitigation`) renders.
    pub fn run_control_cells(
        &self,
        cells: &[(&ControlSpec, &(dyn MitigationPolicy + Sync))],
        runs: usize,
    ) -> Vec<Vec<ControlResult>> {
        let fingerprints: Vec<u64> =
            cells.iter().map(|(spec, policy)| fingerprint_control(spec, policy.name())).collect();
        self.run_cells(&fingerprints, runs, |cell, seed, shard_workers| {
            let (spec, policy) = cells[cell];
            Controller::new(spec, policy).run(seed, shard_workers)
        })
    }

    /// Plans `runs` jobs per content-addressed cell off the context's
    /// master seed, executes them on the context engine as `run(cell,
    /// seed, shard_workers)` and regroups the results per cell, in run
    /// order.
    fn run_cells<R, F>(&self, fingerprints: &[u64], runs: usize, run: F) -> Vec<Vec<R>>
    where
        R: Send,
        F: Fn(usize, u64, usize) -> R + Sync,
    {
        let plan = JobPlan::new(self.seed(), fingerprints, runs);
        let shard_workers = self.engine.shard_workers(&plan);
        let mut per_cell: Vec<Vec<R>> = fingerprints.iter().map(|_| Vec::with_capacity(runs)).collect();
        for (cell, _, result) in self.engine.execute_jobs(&plan, |job| run(job.cell, job.seed, shard_workers))
        {
            per_cell[cell].push(result);
        }
        per_cell
    }
}

/// One registered artefact: name + kind + renderer.
pub struct Study {
    /// Stable identifier; matches the wrapper binary's name.
    pub name: &'static str,
    /// One-line description printed by drivers.
    pub title: &'static str,
    /// Artefact classification.
    pub kind: StudyKind,
    /// Builds, executes (through `ctx.engine`) and prints the artefact,
    /// and returns its CSVs as `(file name, document)` pairs.
    pub run: fn(&StudyCtx) -> Vec<(String, Csv)>,
}

impl Study {
    /// Renders the study on `ctx` and writes its CSVs under
    /// [`results_dir`](crate::results_dir), one `[csv] <path>` line each.
    pub fn run_to_results(&self, ctx: &StudyCtx) {
        for (name, csv) in (self.run)(ctx) {
            let path = crate::results_dir().join(name);
            match csv.write_to(&path) {
                Ok(()) => println!("\n[csv] {}", path.display()),
                Err(e) => eprintln!("[csv] failed to write {}: {e}", path.display()),
            }
        }
    }
}

/// Every study, in the paper's presentation order (extensions and
/// diagnostics last).
pub fn registry() -> Vec<Study> {
    vec![
        Study {
            name: "table1_survey",
            title: "Table I: hardware characterization in previous work",
            kind: StudyKind::Table,
            run: studies::table1::run,
        },
        Study {
            name: "table2_configs",
            title: "Table II: client- and server-side hardware configurations",
            kind: StudyKind::Table,
            run: studies::table2::run,
        },
        Study {
            name: "table3_scenarios",
            title: "Table III: scenarios tested in Section V",
            kind: StudyKind::Table,
            run: studies::table3::run,
        },
        Study {
            name: "fig2_memcached_smt",
            title: "Figure 2: SMT impact on Memcached with LP/HP clients",
            kind: StudyKind::Figure,
            run: studies::fig2::run,
        },
        Study {
            name: "fig3_memcached_c1e",
            title: "Figure 3: C1E impact on Memcached with LP/HP clients",
            kind: StudyKind::Figure,
            run: studies::fig3::run,
        },
        Study {
            name: "fig4_hdsearch",
            title: "Figure 4: SMT and C1E impact on HDSearch",
            kind: StudyKind::Figure,
            run: studies::fig4::run,
        },
        Study {
            name: "fig5_stddev",
            title: "Figure 5: stddev of average response time",
            kind: StudyKind::Figure,
            run: studies::fig5::run,
        },
        Study {
            name: "fig6_socialnet",
            title: "Figure 6: Social Network read-user-timeline, LP vs HP",
            kind: StudyKind::Figure,
            run: studies::fig6::run,
        },
        Study {
            name: "fig7_synthetic",
            title: "Figure 7: synthetic-service sensitivity sweep",
            kind: StudyKind::Figure,
            run: studies::fig7::run,
        },
        Study {
            name: "fig8_shapiro",
            title: "Figure 8: Shapiro-Wilk p-values across configurations",
            kind: StudyKind::Figure,
            run: studies::fig8::run,
        },
        Study {
            name: "fig9_histogram",
            title: "Figure 9: frequency chart for HP-SMToff @ 400K QPS",
            kind: StudyKind::Figure,
            run: studies::fig9::run,
        },
        Study {
            name: "table4_iterations",
            title: "Table IV: iterations to gain statistical confidence",
            kind: StudyKind::Table,
            run: studies::table4::run,
        },
        Study {
            name: "ext_closed_loop",
            title: "Extension: closed-loop generator taxonomy cell",
            kind: StudyKind::Extension,
            run: studies::ext_closed_loop::run,
        },
        Study {
            name: "ext_space_exploration",
            title: "Extension: Section VI client-grid space exploration",
            kind: StudyKind::Extension,
            run: studies::ext_space_exploration::run,
        },
        Study {
            name: "ext_mixed_fleet",
            title: "Extension: mixed fleet — misconfigured-client minority vs aggregate p99",
            kind: StudyKind::Extension,
            run: studies::ext_mixed_fleet::run,
        },
        Study {
            name: "ext_fleet_scaling",
            title: "Extension: one offered load spread over 1..16 client nodes",
            kind: StudyKind::Extension,
            run: studies::ext_fleet_scaling::run,
        },
        Study {
            name: "ext_diurnal_fleet",
            title: "Extension: fleet under stepped diurnal load, per-phase regimes",
            kind: StudyKind::Extension,
            run: studies::ext_diurnal_fleet::run,
        },
        Study {
            name: "ext_turbo_decay",
            title: "Extension: turbo/power budget exhausts mid-run on a node subset",
            kind: StudyKind::Extension,
            run: studies::ext_turbo_decay::run,
        },
        Study {
            name: "ext_sharded_fleet",
            title: "Extension: sharded server tier — per-shard p99 under uniform vs hot-shard routing",
            kind: StudyKind::Extension,
            run: studies::ext_sharded_fleet::run,
        },
        Study {
            name: "ext_phased_shards",
            title: "Extension: phased × sharded — diurnal swing + mid-run decay over an 8-shard tier",
            kind: StudyKind::Extension,
            run: studies::ext_phased_shards::run,
        },
        Study {
            name: "ext_million_fleet",
            title:
                "Extension: one million cohort-compressed clients — LP-class p99 spread at population scale",
            kind: StudyKind::Extension,
            run: studies::ext_million_fleet::run,
        },
        Study {
            name: "ext_mitigation",
            title: "Extension: closed-loop mitigation — hedging/rerouting/remediation/throttling vs baseline",
            kind: StudyKind::Extension,
            run: studies::ext_mitigation::run,
        },
        Study {
            name: "ext_verdict_methods",
            title: "Extension: CI-overlap vs Mann-Whitney verdicts",
            kind: StudyKind::Extension,
            run: studies::ext_verdict_methods::run,
        },
    ]
}

/// The study registered under `name`.
pub fn find(name: &str) -> Option<Study> {
    registry().into_iter().find(|s| s.name == name)
}

/// Runs one study on a fresh cached context at the environment's scale
/// ([`Scale::from_env`]) and writes its CSVs — the entry point of the
/// thin per-artefact binaries.
///
/// # Panics
///
/// Panics if `name` is not in the registry.
pub fn run_by_name(name: &str) {
    let study = find(name).unwrap_or_else(|| panic!("unknown study '{name}'"));
    study.run_to_results(&StudyCtx::new(Scale::from_env()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_include_the_dynamic_studies() {
        let studies = registry();
        let mut names: Vec<&str> = studies.iter().map(|s| s.name).collect();
        names.sort_unstable();
        let mut deduped = names.clone();
        deduped.dedup();
        assert_eq!(names, deduped, "registry names must be unique");
        // Each has a binary of the same name, which the CI registry
        // smoke check looks up in `all_experiments --list`.
        for required in [
            "ext_diurnal_fleet",
            "ext_turbo_decay",
            "ext_mixed_fleet",
            "ext_fleet_scaling",
            "ext_sharded_fleet",
            "ext_million_fleet",
            "ext_phased_shards",
            "ext_mitigation",
        ] {
            assert!(
                find(required).is_some(),
                "study '{required}' must be registered (CI smoke-checks --list for it)"
            );
        }
        assert_eq!(find("ext_diurnal_fleet").unwrap().kind, StudyKind::Extension);
        assert_eq!(find("ext_turbo_decay").unwrap().kind, StudyKind::Extension);
    }

    #[test]
    fn scale_parse_rejects_zero_runs_and_defaults_what_it_cannot_read() {
        let defaults = Scale { runs: None, run_secs: None, seed: 2024 };
        assert_eq!(Scale::parse(None, None, None), Ok(defaults));
        assert_eq!(
            Scale::parse(Some("3"), Some("0.05"), Some("7")),
            Ok(Scale { runs: Some(3), run_secs: Some(0.05), seed: 7 })
        );
        assert!(Scale::parse(Some("0"), None, None).unwrap_err().contains("TPV_RUNS=0"));
        assert!(Scale::parse(Some("0"), Some("0.05"), Some("7")).is_err());
        // Unparsable values and non-positive run lengths fall back.
        for (runs, secs, seed) in
            [("garbage", "garbage", "garbage"), ("-1", "0", "-7"), ("1.5", "-0.5", "2024.0"), ("", "NaN", "")]
        {
            assert_eq!(
                Scale::parse(Some(runs), Some(secs), Some(seed)),
                Ok(defaults),
                "{runs} {secs} {seed}"
            );
        }
        // A fractional run length is kept whole.
        let ctx = StudyCtx::new(Scale::parse(Some("2"), Some("1.25"), None).unwrap());
        assert_eq!(
            (ctx.runs(30), ctx.duration(500), ctx.seed()),
            (2, SimDuration::from_secs_f64(1.25), 2024)
        );
        let ctx = StudyCtx::new(defaults);
        assert_eq!((ctx.runs(30), ctx.duration(500)), (30, SimDuration::from_ms(500)));
    }
}
