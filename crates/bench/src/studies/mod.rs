//! Renderer implementations for every registered [`Study`](crate::study::Study).
//!
//! Each module is one artefact: it builds its experiments, executes them
//! through the context's engine (sharing the run cache with any other
//! study in the same driver process), prints the paper-format output and
//! returns its CSVs.

use tpv_core::experiment::{Benchmark, Cell, Experiment, ServerScenario};
use tpv_core::scenarios::{memcached_smt_study, MEMCACHED_QPS};
use tpv_hw::MachineConfig;
use tpv_sim::SimDuration;

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

/// The cells of the six §V-A configurations that Figure 8 and Table IV
/// test, over [`MEMCACHED_QPS`] in (client, server, qps) order:
/// LP-SMToff, LP-SMTon, HP-SMToff, HP-SMTon, LP-C1Eon, HP-C1Eon. The
/// C1E-on cells come from an experiment at `seed + 1` without the
/// C1E-off baseline, which neither artefact reads. Job seeds depend only
/// on the master seed, a cell's content and the run index, so these
/// cells are bit-identical to the C1E-on cells of
/// `memcached_c1e_study` at `seed + 1`.
pub(crate) fn section_va_cells(ctx: &StudyCtx, runs: usize, duration: SimDuration) -> Vec<Cell> {
    let c1e_on = Experiment::builder(Benchmark::memcached())
        .client(MachineConfig::low_power())
        .client(MachineConfig::high_performance())
        .server(ServerScenario::c1e_on())
        .qps(&MEMCACHED_QPS)
        .runs(runs)
        .run_duration(duration)
        .seed(ctx.seed() + 1)
        .build();
    [memcached_smt_study(&MEMCACHED_QPS, runs, duration, ctx.seed()), c1e_on]
        .iter()
        .flat_map(|experiment| experiment.run_with(&ctx.engine).cells().to_vec())
        .collect()
}
