//! Renderer implementations for every registered [`Study`](crate::study::Study).
//!
//! Each module is one artefact: it builds its experiments, executes them
//! through the context's engine (sharing the run cache with any other
//! study in the same driver process) and prints the paper-format output.

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
