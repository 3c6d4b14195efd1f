//! Workload-fidelity self-checks, in the spirit of Lancet (Kogias et al.,
//! ATC '19 — discussed in the paper's related work).
//!
//! An open-loop generator is only as good as its inter-arrival schedule.
//! Lancet's insight: the generator should *check its own output* — is the
//! request stream actually following the target distribution, and are the
//! samples independent and stationary? This module runs those checks on a
//! [`RunTrace`]:
//!
//! * **dispersion** — for exponential (Poisson) schedules, per-connection
//!   wire-departure gaps must have a coefficient of variation ≈ 1. A
//!   sleepy client batches late sends, pushing dispersion up.
//! * **independence** — lag-1 Spearman correlation of consecutive
//!   latencies (Lancet's inter-sample independence check).
//! * **stationarity/randomness** — the turning-point test on the latency
//!   series.
//! * **schedule adherence** — the fraction of sends that slipped their
//!   scheduled time (from [`RunResult`]).
//! * **drain completeness** — in-window requests cut off by the drain
//!   horizon ([`RunResult::truncated_inflight`]) right-censor the tail;
//!   a run that truncates anything is not faithful.

use tpv_stats::desc;
use tpv_stats::iid::{spearman_lag1, turning_point_test};

use crate::runtime::{RunResult, RunTrace};

/// Outcome of the fidelity assessment.
#[derive(Debug, Clone)]
pub struct FidelityReport {
    /// Coefficient of variation of per-connection wire-departure gaps
    /// (1.0 = perfectly exponential).
    pub dispersion_cv: Option<f64>,
    /// Whether dispersion is within the accepted band around 1.
    pub dispersion_ok: bool,
    /// Lag-1 Spearman rank correlation of the latency series.
    pub lag1_rho: Option<f64>,
    /// Whether consecutive latencies look independent.
    pub independence_ok: bool,
    /// Two-sided p-value of the turning-point test on latencies.
    pub turning_point_p: Option<f64>,
    /// Whether the latency series passes the randomness check.
    pub randomness_ok: bool,
    /// Fraction of sends that slipped their schedule.
    pub late_send_fraction: f64,
    /// Whether the send schedule was honoured.
    pub schedule_ok: bool,
    /// In-window requests cut off by the drain horizon (from
    /// [`RunResult::truncated_inflight`]).
    pub truncated_inflight: u64,
    /// Whether the run drained fully — a non-zero truncation count means
    /// the recorded tail is right-censored and p99/max understate it.
    pub drain_ok: bool,
}

impl FidelityReport {
    /// True when every individual check passed — the run's measurements
    /// can be trusted to represent the configured workload.
    pub fn workload_faithful(&self) -> bool {
        self.dispersion_ok && self.independence_ok && self.randomness_ok && self.schedule_ok && self.drain_ok
    }

    /// Human-readable one-line summary.
    pub fn summary(&self) -> String {
        format!(
            "dispersion cv={} ({}), lag1 rho={} ({}), turning-point p={} ({}), late sends {:.1}% ({}), truncated in-flight {} ({})",
            self.dispersion_cv.map(|v| format!("{v:.2}")).unwrap_or_else(|| "n/a".into()),
            if self.dispersion_ok { "ok" } else { "FAIL" },
            self.lag1_rho.map(|v| format!("{v:.3}")).unwrap_or_else(|| "n/a".into()),
            if self.independence_ok { "ok" } else { "FAIL" },
            self.turning_point_p.map(|v| format!("{v:.3}")).unwrap_or_else(|| "n/a".into()),
            if self.randomness_ok { "ok" } else { "FAIL" },
            self.late_send_fraction * 100.0,
            if self.schedule_ok { "ok" } else { "FAIL" },
            self.truncated_inflight,
            if self.drain_ok { "ok" } else { "FAIL" },
        )
    }
}

/// Tolerance band for the exponential-dispersion check.
const DISPERSION_BAND: (f64, f64) = (0.80, 1.25);
/// Maximum |lag-1 Spearman rho| considered independent.
const MAX_LAG1_RHO: f64 = 0.25;
/// Minimum turning-point p-value considered random.
const MIN_TP_P: f64 = 0.01;
/// Maximum tolerated late-send fraction.
const MAX_LATE_FRACTION: f64 = 0.10;

/// Runs the Lancet-style self-checks over a traced run.
///
/// Checks that cannot be computed (too few traced samples) count as
/// passing, matching Lancet's "insufficient evidence" behaviour.
pub fn assess(result: &RunResult, trace: &RunTrace) -> FidelityReport {
    // Per-connection wire-departure gaps.
    let mut per_conn: std::collections::HashMap<u32, Vec<f64>> = std::collections::HashMap::new();
    for &(conn, at) in &trace.wire_departures {
        per_conn.entry(conn).or_default().push(at.as_us());
    }
    let mut gaps: Vec<f64> = Vec::new();
    for times in per_conn.values() {
        for w in times.windows(2) {
            if w[1] > w[0] {
                gaps.push(w[1] - w[0]);
            }
        }
    }
    let dispersion_cv = if gaps.len() >= 30 { Some(desc::coefficient_of_variation(&gaps)) } else { None };
    let dispersion_ok =
        dispersion_cv.map(|cv| (DISPERSION_BAND.0..=DISPERSION_BAND.1).contains(&cv)).unwrap_or(true);

    let lag1 = spearman_lag1(&trace.latencies_us);
    let lag1_rho = lag1.map(|s| s.rho);
    let independence_ok = lag1_rho.map(|r| r.abs() <= MAX_LAG1_RHO).unwrap_or(true);

    let tp = turning_point_test(&trace.latencies_us);
    let turning_point_p = tp.map(|t| t.p_value);
    let randomness_ok = turning_point_p.map(|p| p >= MIN_TP_P).unwrap_or(true);

    let schedule_ok = result.late_send_fraction <= MAX_LATE_FRACTION;
    let drain_ok = result.truncated_inflight == 0;

    FidelityReport {
        dispersion_cv,
        dispersion_ok,
        lag1_rho,
        independence_ok,
        turning_point_p,
        randomness_ok,
        late_send_fraction: result.late_send_fraction,
        schedule_ok,
        truncated_inflight: result.truncated_inflight,
        drain_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{run_traced, RunSpec};
    use tpv_hw::MachineConfig;
    use tpv_loadgen::GeneratorSpec;
    use tpv_net::LinkConfig;
    use tpv_services::kv::KvConfig;
    use tpv_services::{ServiceConfig, ServiceKind};
    use tpv_sim::SimDuration;

    fn traced(client: MachineConfig, qps: f64, seed: u64) -> (RunResult, RunTrace) {
        let service = ServiceConfig::without_interference(ServiceKind::Memcached(KvConfig {
            preload_keys: 1_000,
            ..KvConfig::default()
        }));
        let server = MachineConfig::server_baseline();
        let generator = GeneratorSpec::mutilate();
        let link = LinkConfig::cloudlab_lan();
        let spec = RunSpec {
            service: &service,
            server: &server,
            client: &client,
            generator: &generator,
            link: &link,
            qps,
            duration: SimDuration::from_ms(80),
            warmup: SimDuration::from_ms(10),
        };
        run_traced(&spec, seed, 20_000)
    }

    #[test]
    fn hp_client_passes_the_self_checks() {
        let (result, trace) = traced(MachineConfig::high_performance(), 100_000.0, 1);
        assert!(!trace.wire_departures.is_empty());
        assert!(!trace.latencies_us.is_empty());
        let report = assess(&result, &trace);
        assert!(report.schedule_ok, "{}", report.summary());
        assert!(report.dispersion_ok, "{}", report.summary());
        assert!(report.workload_faithful(), "{}", report.summary());
    }

    #[test]
    fn lp_client_fails_the_schedule_check() {
        // The paper's risky scenario: a time-sensitive generator on an
        // untuned machine disrupts its own schedule.
        let (result, trace) = traced(MachineConfig::low_power(), 100_000.0, 2);
        let report = assess(&result, &trace);
        assert!(result.late_send_fraction > 0.10, "LP should slip sends: {}", report.summary());
        assert!(!report.workload_faithful(), "{}", report.summary());
    }

    #[test]
    fn censored_tail_fails_the_drain_check() {
        let (mut result, trace) = traced(MachineConfig::high_performance(), 100_000.0, 4);
        result.truncated_inflight = 17;
        let report = assess(&result, &trace);
        assert!(!report.drain_ok);
        assert_eq!(report.truncated_inflight, 17);
        assert!(!report.workload_faithful(), "{}", report.summary());
        assert!(report.summary().contains("truncated in-flight 17 (FAIL)"));
    }

    #[test]
    fn empty_trace_counts_as_passing() {
        let (result, _) = traced(MachineConfig::high_performance(), 50_000.0, 3);
        let empty = RunTrace::default();
        let report = assess(&result, &empty);
        assert!(report.dispersion_cv.is_none());
        assert!(report.workload_faithful());
        assert!(report.summary().contains("n/a"));
    }
}
