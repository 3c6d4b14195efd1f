//! # tpv-stats — the statistics toolkit of §III
//!
//! Everything the paper's methodology needs to turn raw run samples into
//! statistically defensible conclusions:
//!
//! * [`ci`] — confidence intervals: the **non-parametric median CI** of the
//!   paper's Eq. (1)/(2).
//! * [`normality`] — the **Shapiro–Wilk test** (AS R94 / Royston 1995) used
//!   for Fig. 8 and Table IV.
//! * [`repetitions`] — how many runs an experiment needs: **Jain's
//!   parametric formula** (Eq. 3) and the **CONFIRM** resampling method
//!   (Maricq et al., OSDI '18).
//! * [`iid`] — diagnostics for the iid assumption: the turning-point test
//!   and Spearman rank correlation.
//! * [`desc`] — descriptive statistics and Little's law.
//! * [`dist_fn`] — the underlying special functions (Φ, Φ⁻¹, erf, ln Γ,
//!   regularized incomplete beta, Student-t CDF).
//!
//! # Example: the paper's CI recipe
//!
//! ```
//! use tpv_stats::ci::nonparametric_median_ci;
//!
//! // 50 per-run average latencies (µs), as in §IV-B.
//! let samples: Vec<f64> = (0..50).map(|i| 100.0 + (i % 7) as f64).collect();
//! let ci = nonparametric_median_ci(&samples, 0.95).unwrap();
//! assert!(ci.low <= ci.mid && ci.mid <= ci.high);
//! ```

pub mod bootstrap;
pub mod ci;
pub mod desc;
pub mod dist_fn;
pub mod iid;
pub mod mannwhitney;
pub mod normality;
pub mod repetitions;

pub use bootstrap::bootstrap_ci;
pub use ci::ConfidenceInterval;
pub use mannwhitney::{mann_whitney_u, MannWhitney};
pub use normality::{shapiro_wilk, ShapiroWilk};
pub use repetitions::{confirm, jain_sample_size, ConfirmOutcome};
