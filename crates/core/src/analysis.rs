//! Turning run samples into conclusions — and detecting when two client
//! configurations *disagree* (Findings 1–2).
//!
//! The decision rule is the paper's: per-cell metrics are medians of
//! per-run samples with **non-parametric 95 % CIs** (Eq. 1/2); two
//! configurations differ only when their CIs do not overlap.

use tpv_sim::{SimDuration, SimRng};
use tpv_stats::ci::{nonparametric_median_ci, ConfidenceInterval};
use tpv_stats::desc;
use tpv_stats::normality::{shapiro_wilk, ShapiroWilk};
use tpv_stats::repetitions::{confirm, jain_sample_size_of, ConfirmConfig, ConfirmOutcome};

use crate::runtime::RunResult;

/// Statistical summary of one cell's runs.
#[derive(Debug, Clone)]
pub struct Summary {
    avg_us: Vec<f64>,
    p99_us: Vec<f64>,
    level: f64,
}

impl Summary {
    /// Builds the summary from per-run results at 95 % confidence.
    pub fn from_runs(runs: &[RunResult]) -> Self {
        Summary {
            avg_us: runs.iter().map(|r| r.avg_us()).collect(),
            p99_us: runs.iter().map(|r| r.p99_us()).collect(),
            level: 0.95,
        }
    }

    /// Number of runs.
    pub fn runs(&self) -> usize {
        self.avg_us.len()
    }

    /// Per-run average-latency samples (µs).
    pub fn avg_samples_us(&self) -> &[f64] {
        &self.avg_us
    }

    /// Median of per-run average latencies (µs) — the paper's reported
    /// "Average Response Time (median)".
    pub fn avg_median_us(&self) -> f64 {
        desc::median(&self.avg_us)
    }

    /// Median of per-run p99 latencies (µs).
    pub fn p99_median_us(&self) -> f64 {
        desc::median(&self.p99_us)
    }

    /// Mean of per-run average latencies (µs) (used for the "slowdown
    /// (avg)" panels).
    pub fn avg_mean_us(&self) -> f64 {
        desc::mean(&self.avg_us)
    }

    /// Mean of per-run p99 latencies (µs).
    pub fn p99_mean_us(&self) -> f64 {
        desc::mean(&self.p99_us)
    }

    /// Standard deviation of per-run average latencies (µs) — the Fig. 5
    /// metric.
    pub fn avg_std_dev_us(&self) -> f64 {
        desc::std_dev(&self.avg_us)
    }

    /// Non-parametric CI of the median average latency, when enough runs
    /// exist.
    pub fn avg_ci(&self) -> Option<ConfidenceInterval> {
        nonparametric_median_ci(&self.avg_us, self.level)
    }

    /// Non-parametric CI of the median p99 latency.
    pub fn p99_ci(&self) -> Option<ConfidenceInterval> {
        nonparametric_median_ci(&self.p99_us, self.level)
    }

    /// Shapiro–Wilk normality test over the per-run averages (Fig. 8).
    pub fn shapiro_avg(&self) -> Option<ShapiroWilk> {
        shapiro_wilk(&self.avg_us).ok()
    }
}

/// The outcome of comparing a variant against a baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Variant is faster: its CI lies entirely below the baseline's.
    Faster,
    /// Variant is slower: its CI lies entirely above the baseline's.
    Slower,
    /// CIs overlap — the paper's "same performance".
    Indistinguishable,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Faster => write!(f, "faster"),
            Verdict::Slower => write!(f, "slower"),
            Verdict::Indistinguishable => write!(f, "same"),
        }
    }
}

/// Comparison of a variant server scenario against a baseline, as seen by
/// one client configuration.
#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    /// `baseline_avg / variant_avg` (>1 ⇒ variant faster), from means as
    /// in the paper's slowdown panels.
    pub speedup_avg: f64,
    /// `baseline_p99 / variant_p99`.
    pub speedup_p99: f64,
    /// CI-overlap verdict on average latency.
    pub verdict_avg: Verdict,
    /// CI-overlap verdict on p99 latency.
    pub verdict_p99: Verdict,
}

fn verdict(baseline: Option<ConfidenceInterval>, variant: Option<ConfidenceInterval>) -> Verdict {
    match (baseline, variant) {
        (Some(b), Some(v)) => {
            if v.overlaps(&b) {
                Verdict::Indistinguishable
            } else if v.high < b.low {
                Verdict::Faster
            } else {
                Verdict::Slower
            }
        }
        // Without CIs (too few runs) nothing can be claimed.
        _ => Verdict::Indistinguishable,
    }
}

/// Compares a variant against a baseline (the §V-A studies).
pub fn compare(baseline: &Summary, variant: &Summary) -> Comparison {
    Comparison {
        speedup_avg: safe_ratio(baseline.avg_mean_us(), variant.avg_mean_us()),
        speedup_p99: safe_ratio(baseline.p99_mean_us(), variant.p99_mean_us()),
        verdict_avg: verdict(baseline.avg_ci(), variant.avg_ci()),
        verdict_p99: verdict(baseline.p99_ci(), variant.p99_ci()),
    }
}

fn safe_ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        f64::NAN
    } else {
        a / b
    }
}

/// Finding 2's conflict detector: do two clients draw different
/// conclusions about the same server feature?
///
/// A conflict is any disagreement between definitive verdicts, or a
/// definitive verdict against an "indistinguishable" one (the paper's C1E
/// case: the LP client reports a slowdown the HP client says is not
/// there).
pub fn conclusions_conflict(a: Verdict, b: Verdict) -> bool {
    a != b
}

/// One row of the paper's Table IV: how many iterations this cell needs.
#[derive(Debug, Clone, Copy)]
pub struct IterationEstimate {
    /// Jain's parametric estimate (Eq. 3) at 1 % error, 95 % confidence.
    pub parametric: usize,
    /// The CONFIRM estimate.
    pub confirm: ConfirmOutcome,
    /// Whether the per-run averages pass Shapiro–Wilk at α = 0.05.
    pub shapiro_pass: Option<bool>,
}

/// Computes the Table IV estimates for a cell's per-run averages.
pub fn iteration_estimate(summary: &Summary, rng: &mut SimRng) -> IterationEstimate {
    let xs = summary.avg_samples_us();
    let parametric = if xs.len() >= 2 { jain_sample_size_of(xs, 1.0, 0.95) } else { 1 };
    let confirm_out = confirm(xs, &ConfirmConfig::default(), rng);
    let shapiro_pass = summary.shapiro_avg().map(|s| !s.rejects_normality(0.05));
    IterationEstimate { parametric, confirm: confirm_out, shapiro_pass }
}

/// §V-C's "experimental evaluation time": iterations × run length.
pub fn evaluation_time(iterations: usize, run_duration: SimDuration) -> SimDuration {
    run_duration * iterations as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpv_sim::SimDuration;

    fn runs_with_avgs(avgs: &[f64]) -> Vec<RunResult> {
        avgs.iter()
            .map(|&a| RunResult {
                avg: SimDuration::from_us_f64(a),
                p50: SimDuration::from_us_f64(a),
                p99: SimDuration::from_us_f64(a * 2.0),
                max: SimDuration::from_us_f64(a * 3.0),
                std_dev: SimDuration::from_us_f64(1.0),
                samples: 1000,
                achieved_qps: 1000.0,
                target_qps: 1000.0,
                late_send_fraction: 0.0,
                mean_send_slip: SimDuration::ZERO,
                client_wakes: [0; 4],
                client_energy_core_secs: 0.0,
                truncated_inflight: 0,
            })
            .collect()
    }

    #[test]
    fn summary_medians_and_cis() {
        let avgs: Vec<f64> = (1..=50).map(|i| 100.0 + (i % 10) as f64).collect();
        let s = Summary::from_runs(&runs_with_avgs(&avgs));
        assert_eq!(s.runs(), 50);
        assert!((s.avg_median_us() - desc_median(&avgs)).abs() < 1e-9);
        let ci = s.avg_ci().unwrap();
        assert!(ci.contains(s.avg_median_us()));
        assert!(s.p99_median_us() > s.avg_median_us());
        assert!(s.avg_std_dev_us() > 0.0);
        assert!(s.shapiro_avg().is_some());
    }

    fn desc_median(xs: &[f64]) -> f64 {
        let mut v = xs.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        (v[24] + v[25]) / 2.0
    }

    #[test]
    fn verdicts_follow_ci_overlap() {
        let slow = Summary::from_runs(&runs_with_avgs(
            &[200.0, 201.0, 199.0, 200.5, 199.5, 200.2, 199.8, 200.1, 199.9, 200.0].repeat(3),
        ));
        let fast = Summary::from_runs(&runs_with_avgs(
            &[100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0].repeat(3),
        ));
        let cmp = compare(&slow, &fast);
        assert_eq!(cmp.verdict_avg, Verdict::Faster);
        assert!(cmp.speedup_avg > 1.9);
        let reverse = compare(&fast, &slow);
        assert_eq!(reverse.verdict_avg, Verdict::Slower);
        assert!(reverse.speedup_avg < 0.6);
        let same = compare(&fast, &fast);
        assert_eq!(same.verdict_avg, Verdict::Indistinguishable);
        assert!((same.speedup_avg - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_cis_are_indistinguishable() {
        // Wide noise: medians differ slightly but CIs overlap.
        let a: Vec<f64> = (0..30).map(|i| 100.0 + (i * 7 % 30) as f64).collect();
        let b: Vec<f64> = (0..30).map(|i| 103.0 + (i * 11 % 30) as f64).collect();
        let cmp = compare(&Summary::from_runs(&runs_with_avgs(&a)), &Summary::from_runs(&runs_with_avgs(&b)));
        assert_eq!(cmp.verdict_avg, Verdict::Indistinguishable);
    }

    #[test]
    fn too_few_runs_never_claims_a_difference() {
        let a = Summary::from_runs(&runs_with_avgs(&[100.0, 100.0, 100.0]));
        let b = Summary::from_runs(&runs_with_avgs(&[500.0, 500.0, 500.0]));
        // 3 runs cannot form a 95 % non-parametric CI (Eq. 1/2).
        assert_eq!(compare(&a, &b).verdict_avg, Verdict::Indistinguishable);
    }

    #[test]
    fn conflict_detection_matches_finding_2() {
        assert!(conclusions_conflict(Verdict::Slower, Verdict::Indistinguishable));
        assert!(conclusions_conflict(Verdict::Faster, Verdict::Slower));
        assert!(!conclusions_conflict(Verdict::Faster, Verdict::Faster));
        assert!(!conclusions_conflict(Verdict::Indistinguishable, Verdict::Indistinguishable));
    }

    #[test]
    fn iteration_estimates_track_noise() {
        let mut rng = SimRng::seed_from_u64(1);
        let tight: Vec<f64> = (0..50).map(|i| 100.0 + 0.01 * (i % 5) as f64).collect();
        let est = iteration_estimate(&Summary::from_runs(&runs_with_avgs(&tight)), &mut rng);
        assert!(est.parametric <= 2, "parametric {}", est.parametric);
        assert_eq!(est.confirm, ConfirmOutcome::Converged(10));

        let mut noisy = Vec::new();
        let mut r2 = SimRng::seed_from_u64(2);
        for _ in 0..50 {
            noisy.push(100.0 * (1.0 + 0.1 * (r2.next_f64() - 0.5)));
        }
        let est2 = iteration_estimate(&Summary::from_runs(&runs_with_avgs(&noisy)), &mut rng);
        assert!(est2.parametric > est.parametric);
    }

    #[test]
    fn evaluation_time_scales_with_iterations() {
        let t = evaluation_time(288, SimDuration::from_secs(120));
        assert_eq!(t.as_secs(), 288.0 * 120.0);
        assert_eq!(evaluation_time(0, SimDuration::from_secs(120)), SimDuration::ZERO);
    }

    #[test]
    fn verdict_display() {
        assert_eq!(Verdict::Faster.to_string(), "faster");
        assert_eq!(Verdict::Slower.to_string(), "slower");
        assert_eq!(Verdict::Indistinguishable.to_string(), "same");
    }
}
