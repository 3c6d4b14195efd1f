//! Renderer implementations for every registered [`Study`](crate::study::Study).
//!
//! Each module is one artefact: it builds its experiments, executes them
//! through the context's engine (sharing the run cache with any other
//! study in the same driver process), prints the paper-format output and
//! returns its CSVs.

use tpv_core::experiment::{Benchmark, ExperimentResults, ServerScenario};
use tpv_core::scenarios::{paper_study, HDSEARCH_QPS};
use tpv_sim::SimDuration;

use crate::banner;
use crate::study::StudyCtx;

pub(crate) mod ext_closed_loop;
pub(crate) mod ext_diurnal_fleet;
pub(crate) mod ext_fleet_scaling;
pub(crate) mod ext_million_fleet;
pub(crate) mod ext_mitigation;
pub(crate) mod ext_mixed_fleet;
pub(crate) mod ext_phased_shards;
pub(crate) mod ext_sharded_fleet;
pub(crate) mod ext_space_exploration;
pub(crate) mod ext_turbo_decay;
pub(crate) mod ext_verdict_methods;
pub(crate) mod fig2;
pub(crate) mod fig3;
pub(crate) mod fig4;
pub(crate) mod fig5;
pub(crate) mod fig6;
pub(crate) mod fig7;
pub(crate) mod fig8;
pub(crate) mod fig9;
pub(crate) mod table1;
pub(crate) mod table2;
pub(crate) mod table3;
pub(crate) mod table4;

/// The §V-A campaign that Figures 2, 3, 5(a), 8 and 9, Table IV and
/// `ext_verdict_methods` read: Memcached under LP/HP clients × SMT off,
/// SMT on and C1E on × `qps`, by default 50 runs of 0.4 s per cell (the
/// paper's 50 runs, shortened from 120 s). Its cells come in (client,
/// server, qps) order: LP-SMToff, LP-SMTon, LP-C1Eon, HP-SMToff,
/// HP-SMTon, HP-C1Eon. Job seeds depend only on the master seed, a
/// cell's content and the run index, so a narrower `qps` sweep replays
/// the same jobs as the full one.
pub(crate) fn section_va(ctx: &StudyCtx, title: &str, qps: &[f64]) -> ExperimentResults {
    campaign(ctx, title, Benchmark::memcached(), qps, ctx.runs(50), ctx.duration(400))
}

/// The HDSearch campaign that Figures 4 and 5(b) read: the same three
/// servers × [`HDSEARCH_QPS`], by default 20 runs of 1.5 s per cell.
pub(crate) fn hdsearch_campaign(ctx: &StudyCtx, title: &str) -> ExperimentResults {
    campaign(ctx, title, Benchmark::hdsearch(), &HDSEARCH_QPS, ctx.runs(20), ctx.duration(1500))
}

/// Prints `title`'s banner and runs LP/HP × the three §V-A servers on
/// `benchmark` at the context's master seed, through its engine.
fn campaign(
    ctx: &StudyCtx,
    title: &str,
    benchmark: Benchmark,
    qps: &[f64],
    runs: usize,
    duration: SimDuration,
) -> ExperimentResults {
    banner(title, runs, duration);
    let servers = [ServerScenario::baseline(), ServerScenario::smt_on(), ServerScenario::c1e_on()];
    paper_study(benchmark, &servers, qps, runs, duration, ctx.seed()).run_with(&ctx.engine)
}
