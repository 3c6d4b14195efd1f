//! # tpv-hw — the hardware knobs of Table II
//!
//! The paper's central claim is that *client-side hardware configuration*
//! — settings a benchmarking paper rarely reports — changes measured
//! latency enough to flip conclusions. This crate models every knob in the
//! paper's Table II as an explicit timing model:
//!
//! | Knob | Module | Mechanism modelled |
//! |---|---|---|
//! | C-states | [`cstate`] | exit latency + target residency (Skylake table), menu-style governor |
//! | Frequency driver | [`dvfs`] | `intel_pstate` vs `acpi-cpufreq` transition latency |
//! | Frequency governor | [`dvfs`] | `powersave` lets frequency fall while idle; `performance` pins it |
//! | Turbo | [`turbo`] | active-core frequency bins + per-run thermal drift |
//! | SMT | [`smt`] | logical CPUs + sibling-contention inflation |
//! | Uncore frequency | [`uncore`] | dynamic-uncore ramp penalty after idle |
//! | Tickless | [`tick`] | periodic scheduler-tick steal when `nohz` is off |
//!
//! They compose in [`MachineConfig`] (with the paper's LP / HP / server
//! presets) and act through [`CoreResource`] — the single primitive every
//! simulated thread or worker executes on. Per-run variation enters through
//! [`RunEnvironment`], redrawn when the experiment harness resets the
//! environment between runs (the paper's iid methodology, §III).
//!
//! # Example: what one wake-up costs
//!
//! ```
//! use tpv_hw::{CoreResource, MachineConfig};
//! use tpv_sim::{SimDuration, SimRng, SimTime};
//!
//! let lp = MachineConfig::low_power();
//! let mut rng = SimRng::seed_from_u64(1);
//! let env = lp.draw_environment(&mut rng);
//! let mut core = CoreResource::new(&lp, &env);
//!
//! // After 5 ms of idleness a low-power core sits in C6: the next piece of
//! // work pays a triple-digit-microsecond wake-up before it runs.
//! let g = core.acquire(SimTime::from_ms(5), SimDuration::from_us(2), &mut rng);
//! assert!(g.wake_latency >= SimDuration::from_us(50));
//! ```

pub mod core;
pub mod cstate;
pub mod dvfs;
pub mod dynamic;
pub mod env;
pub mod machine;
pub mod smt;
pub mod spec;
pub mod tick;
pub mod turbo;
pub mod uncore;

pub use crate::core::{CoreGrant, CoreResource};
pub use cstate::{CState, CStatePolicy, CStateTable};
pub use dvfs::{FreqDriver, FreqGovernor};
pub use dynamic::DynamicMachine;
pub use env::RunEnvironment;
pub use machine::MachineConfig;
pub use smt::SmtConfig;
pub use spec::CpuSpec;
pub use tick::TickConfig;
pub use turbo::TurboConfig;
pub use uncore::UncoreMode;
