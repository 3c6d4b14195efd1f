//! The machine-readable kernel performance harness behind `perf_probe`.
//!
//! A [`BenchReport`] is the schema written to `BENCH.json`: one
//! [`ScenarioReport`] per probe scenario with the deterministic work
//! counters (events, requests) and the wall-clock summary (median + CoV
//! over repeated trials, derived events/sec). No registry JSON crate is
//! available offline, so [`BenchReport::to_json`] writes the schema by
//! hand. Schema `tpv-perf/6` holds, per scenario, the retained trial
//! walls, events/sec with its bootstrap 95% CI, the dual-timed
//! scenarios' serial wall and speedup with its CI, and the peak RSS,
//! plus one [`RunnerInfo`] per report; every value a scenario cannot
//! measure (a CI below 2 trials, the dual-timing fields of a scenario
//! that is not dual-timed) is `null`.
//!
//! Two builds are compared by running them, not by reading their
//! reports: `perf_probe ab` runs the two binaries in interleaved pairs,
//! reads each run's process wall and the metrics on its last stdout line
//! ([`read_result_line`]; `perf_probe` prints its own with
//! [`BenchReport::result_line`]), and judges every metric with
//! [`ab_verdict`]. Wall-clock numbers from different machines or
//! sessions do not compare, and neither do two runs minutes apart on a
//! noisy host: only alternating the two builds puts host drift on both
//! sides alike.

use std::fmt::Write as _;

use tpv_sim::SimRng;

/// Schema identifier written into every report.
pub const SCHEMA: &str = "tpv-perf/6";

/// Wall-clock summary and deterministic work counters of one scenario.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioReport {
    /// Stable scenario identifier (`static_1x1`, `fleet_16`, ...).
    pub name: String,
    /// Timed trials behind the summary (excludes the warm-up run).
    pub trials: usize,
    /// Simulation events dispatched per run — deterministic for a fixed
    /// `(scenario, seed)`, so a change here means the kernel's *work*
    /// changed, not just its speed.
    pub events: u64,
    /// In-window requests measured per run (same determinism contract).
    pub requests: u64,
    /// Median wall-clock time of one run, in milliseconds.
    pub wall_ms_median: f64,
    /// Coefficient of variation of the trial wall times (noise gauge).
    pub wall_ms_cov: f64,
    /// Events dispatched per wall second, at the median trial.
    pub events_per_sec: f64,
    /// Median wall-clock time of the same run forced serial, in
    /// milliseconds — `None` (serialized `null`) for scenarios that are
    /// not dual-timed. Only the sharded scenarios execute twice
    /// (parallel and serial) to measure intra-run scaling.
    pub wall_ms_serial: Option<f64>,
    /// `wall_ms_serial / wall_ms_median` — the intra-run parallel
    /// speedup; `None` (serialized `null`) when not dual-timed.
    pub speedup_vs_serial: Option<f64>,
    /// Kernel runs per timed trial. Short scenarios are repeated until a
    /// trial spends at least ~50 ms on the clock; all `wall_ms_*` values
    /// are already divided down to per-run milliseconds.
    pub repeats: usize,
    /// Process peak RSS (`VmHWM`) in kB right after this scenario ran;
    /// `0` when the platform does not expose it. Where the kernel
    /// supports `tpv_bench::rss::reset_peak` the probe resets the
    /// high-water mark before each scenario, making this the scenario's
    /// *own* peak; elsewhere it stays monotonic over the process
    /// lifetime and only matrix order makes later-vs-earlier
    /// comparisons meaningful.
    pub peak_rss_kb: u64,
    /// Per-run wall time of every *retained* timed trial (after
    /// [`iqr_filter`]), in milliseconds — the sample behind
    /// `wall_ms_median`.
    pub wall_ms_trials: Vec<f64>,
    /// Percentile-bootstrap 95% CI on `events_per_sec`, derived from
    /// `wall_ms_trials` by [`events_per_sec_ci`]; `None` (serialized
    /// `null`) when the trial sample is too small to bootstrap (fewer
    /// than 2 trials).
    pub events_per_sec_ci_low: Option<f64>,
    /// Upper end of the events/sec CI (see `events_per_sec_ci_low`).
    pub events_per_sec_ci_high: Option<f64>,
    /// Retained per-run wall times of the *parallel* leg of a dual-timed
    /// scenario, in milliseconds — empty when not dual-timed. Note
    /// `wall_ms_trials` holds the gated (serial) leg's sample for those
    /// scenarios, so both legs stay recomputable from the report.
    pub wall_ms_parallel_trials: Vec<f64>,
    /// Two-sample-bootstrap 95% CI on `speedup_vs_serial` from
    /// [`ratio_ci`]; `None` (serialized `null`) when not dual-timed or
    /// when either leg's sample is too small. The scaling gate binds on
    /// this lower bound when present — a point estimate inflated by one
    /// lucky parallel trial no longer passes.
    pub speedup_ci_low: Option<f64>,
    /// Upper end of the speedup CI (see `speedup_ci_low`).
    pub speedup_ci_high: Option<f64>,
}

/// Fingerprint of the machine a report was measured on.
///
/// Wall-clock numbers are only comparable between runs of the same
/// runner class; the fingerprint travels with the report so a reader
/// can tell "different machine" apart from "the kernel changed".
/// Informational: no gate reads it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunnerInfo {
    /// CPU model string (`model name` from `/proc/cpuinfo`), or
    /// `"unknown"` where the platform does not expose it.
    pub cpu_model: String,
    /// Logical cores available to the process.
    pub cores: usize,
    /// Kernel release (`/proc/sys/kernel/osrelease`), or `"unknown"`.
    pub kernel: String,
}

impl RunnerInfo {
    /// Reads the fingerprint of the current machine. Every field
    /// degrades to a harmless default off Linux — the schema stays
    /// writable everywhere the probe compiles.
    pub fn detect() -> RunnerInfo {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':').map(|(_, v)| v.trim().to_string()))
            })
            .unwrap_or_else(|| "unknown".to_string());
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        RunnerInfo { cpu_model, cores, kernel }
    }
}

/// The full probe output: what `BENCH.json` holds.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// True when the probe ran in `--quick` (CI) mode.
    pub quick: bool,
    /// The machine this report was measured on.
    pub runner: RunnerInfo,
    /// One entry per scenario, in matrix order.
    pub scenarios: Vec<ScenarioReport>,
}

impl BenchReport {
    /// Serializes the report as pretty-printed JSON with a stable key
    /// order, so two reports diff cleanly.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{}\",", self.schema);
        let _ = writeln!(out, "  \"quick\": {},", self.quick);
        out.push_str("  \"runner\": {\n");
        let _ = writeln!(out, "    \"cpu_model\": \"{}\",", escape(&self.runner.cpu_model));
        let _ = writeln!(out, "    \"cores\": {},", self.runner.cores);
        let _ = writeln!(out, "    \"kernel\": \"{}\"", escape(&self.runner.kernel));
        out.push_str("  },\n");
        out.push_str("  \"scenarios\": [\n");
        for (i, s) in self.scenarios.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"name\": \"{}\",", s.name);
            let _ = writeln!(out, "      \"trials\": {},", s.trials);
            let _ = writeln!(out, "      \"events\": {},", s.events);
            let _ = writeln!(out, "      \"requests\": {},", s.requests);
            let _ = writeln!(out, "      \"wall_ms_median\": {:.4},", s.wall_ms_median);
            let _ = writeln!(out, "      \"wall_ms_cov\": {:.4},", s.wall_ms_cov);
            let _ = writeln!(out, "      \"events_per_sec\": {:.1},", s.events_per_sec);
            let _ = writeln!(out, "      \"wall_ms_serial\": {},", opt_num(s.wall_ms_serial, 4));
            let _ = writeln!(out, "      \"speedup_vs_serial\": {},", opt_num(s.speedup_vs_serial, 4));
            let _ = writeln!(out, "      \"repeats\": {},", s.repeats);
            let _ = writeln!(out, "      \"peak_rss_kb\": {},", s.peak_rss_kb);
            let trials: Vec<String> = s.wall_ms_trials.iter().map(|t| format!("{t:.4}")).collect();
            let _ = writeln!(out, "      \"wall_ms_trials\": [{}],", trials.join(", "));
            let _ =
                writeln!(out, "      \"events_per_sec_ci_low\": {},", opt_num(s.events_per_sec_ci_low, 1));
            let _ =
                writeln!(out, "      \"events_per_sec_ci_high\": {},", opt_num(s.events_per_sec_ci_high, 1));
            let parallel: Vec<String> = s.wall_ms_parallel_trials.iter().map(|t| format!("{t:.4}")).collect();
            let _ = writeln!(out, "      \"wall_ms_parallel_trials\": [{}],", parallel.join(", "));
            let _ = writeln!(out, "      \"speedup_ci_low\": {},", opt_num(s.speedup_ci_low, 4));
            let _ = writeln!(out, "      \"speedup_ci_high\": {}", opt_num(s.speedup_ci_high, 4));
            out.push_str(if i + 1 == self.scenarios.len() { "    }\n" } else { "    },\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The line `perf_probe` prints last: every scenario's events/sec
    /// (for a dual-timed scenario the serial leg's, so that the rate
    /// does not depend on the core count) in the result-line format
    /// [`read_result_line`] reads, so that `perf_probe ab` compares
    /// per-run cost. The process wall cannot stand in for it:
    /// calibration pads every trial to ~50 ms, so a short scenario's
    /// wall barely moves with its per-run cost.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .scenarios
            .iter()
            .map(|s| {
                format!(
                    "\"{}.events_per_sec\": {{\"value\": {:?}, \"unit\": \"1/s\"}}",
                    s.name, s.events_per_sec
                )
            })
            .collect();
        format!("{{\"metrics\": {{{}}}}}", metrics.join(", "))
    }

    /// The scenario named `name`, if present.
    pub fn scenario(&self, name: &str) -> Option<&ScenarioReport> {
        self.scenarios.iter().find(|s| s.name == name)
    }
}

/// Tukey-fence outlier rejection: drops samples outside
/// `[Q1 - 1.5·IQR, Q3 + 1.5·IQR]`. A descheduled trial (GC of another
/// tenant, a CI runner napping) lands far outside the fences and would
/// otherwise drag both the median and the CoV; fewer than four samples
/// pass through untouched — the quartiles are meaningless below that.
pub fn iqr_filter(samples: &[f64]) -> Vec<f64> {
    if samples.len() < 4 {
        return samples.to_vec();
    }
    let q1 = tpv_stats::desc::percentile(samples, 25.0);
    let q3 = tpv_stats::desc::percentile(samples, 75.0);
    let iqr = q3 - q1;
    // A quantized timer can collapse the quartiles (q1 == q3): the
    // fences then degenerate to a single point and trials one ulp off
    // the mode — legitimate measurements — get fenced away. Zero spread
    // means there is nothing to reject.
    if iqr <= 0.0 {
        return samples.to_vec();
    }
    let (lo, hi) = (q1 - 1.5 * iqr, q3 + 1.5 * iqr);
    let kept: Vec<f64> = samples.iter().copied().filter(|&v| v >= lo && v <= hi).collect();
    // Degenerate fences (all-equal quartiles with NaN noise) must not
    // empty the sample; fall back to the raw trials.
    if kept.is_empty() {
        samples.to_vec()
    } else {
        kept
    }
}

/// Bootstrap resamples behind the report's confidence intervals.
const CI_RESAMPLES: usize = 1000;
/// Confidence level of the report's bootstrap intervals.
const CI_LEVEL: f64 = 0.95;
/// Fixed bootstrap seed: the intervals are a deterministic function of
/// the measured trials, so re-serializing a report never flaps them.
const CI_SEED: u64 = 0x7065_7266; // "perf"

/// Percentile-bootstrap 95% CI on events/sec, `(low, high)`.
///
/// Bootstraps the *median wall time* over the retained trials (the same
/// statistic the headline `events_per_sec` divides by) and inverts the
/// interval into throughput — wall time and rate are reciprocal, so the
/// interval ends swap. `None` below 2 trials or when the resampled wall
/// times degenerate to zero.
pub fn events_per_sec_ci(events: u64, wall_ms_trials: &[f64]) -> Option<(f64, f64)> {
    let mut rng = SimRng::seed_from_u64(CI_SEED);
    let ci = tpv_stats::bootstrap::bootstrap_ci(
        wall_ms_trials,
        tpv_stats::desc::median,
        CI_LEVEL,
        CI_RESAMPLES,
        &mut rng,
    )?;
    if ci.low <= 0.0 {
        return None;
    }
    Some((events as f64 / (ci.high / 1e3), events as f64 / (ci.low / 1e3)))
}

/// Two-sample-bootstrap 95% CI on the ratio of medians
/// `median(num) / median(den)`, `(low, high)`.
///
/// The two samples are *independent* (a dual-timed scenario's serial
/// and parallel legs, or the head's and the base's runs of an `ab`
/// comparison, time separate executions, not paired ones), so each
/// bootstrap replicate resamples both independently and takes the ratio
/// of their medians — the single-sample [`bootstrap_ci`] cannot express
/// that. `None` when either sample has fewer than 2 values or a
/// resampled `den` median degenerates to zero.
///
/// [`bootstrap_ci`]: tpv_stats::bootstrap::bootstrap_ci
pub fn ratio_ci(num: &[f64], den: &[f64]) -> Option<(f64, f64)> {
    if num.len() < 2 || den.len() < 2 {
        return None;
    }
    let mut rng = SimRng::seed_from_u64(CI_SEED ^ 1);
    let mut ratios = Vec::with_capacity(CI_RESAMPLES);
    let mut num_draw = vec![0.0; num.len()];
    let mut den_draw = vec![0.0; den.len()];
    for _ in 0..CI_RESAMPLES {
        for slot in num_draw.iter_mut() {
            *slot = num[rng.next_index(num.len())];
        }
        for slot in den_draw.iter_mut() {
            *slot = den[rng.next_index(den.len())];
        }
        let denom = tpv_stats::desc::median(&den_draw);
        if denom <= 0.0 {
            return None;
        }
        ratios.push(tpv_stats::desc::median(&num_draw) / denom);
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("NaN ratio replicate"));
    let alpha = (1.0 - CI_LEVEL) / 2.0;
    let lo = ((alpha * CI_RESAMPLES as f64) as usize).min(CI_RESAMPLES - 1);
    let hi = (((1.0 - alpha) * CI_RESAMPLES as f64) as usize).min(CI_RESAMPLES - 1);
    Some((ratios[lo], ratios[hi]))
}

/// Renders a per-second rate with an SI prefix sized to it, so a slow
/// scenario (`service_setup` builds a few hundred services per second)
/// does not print as `0.00M`.
fn format_rate(per_sec: f64) -> String {
    if per_sec >= 1e6 {
        format!("{:.2}M/s", per_sec / 1e6)
    } else if per_sec >= 1e3 {
        format!("{:.2}k/s", per_sec / 1e3)
    } else {
        format!("{per_sec:.1}/s")
    }
}

/// Renders the markdown table `perf_probe` prints and CI appends to
/// `$GITHUB_STEP_SUMMARY`: one row per scenario with its deterministic
/// work, wall-time summary, throughput, peak RSS and shard speedup.
pub fn summary_markdown(report: &BenchReport) -> String {
    let mut out = String::new();
    out.push_str("### perf_probe — kernel performance matrix\n\n");
    out.push_str(
        "| scenario | events/run | requests/run | median wall (ms) | CoV | repeats | events/sec | peak RSS (kB) \
         | shard speedup |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|---|\n");
    for s in &report.scenarios {
        let speedup = match (s.speedup_vs_serial, s.wall_ms_serial) {
            (Some(sp), Some(serial)) => format!("{sp:.2}x ({serial:.1} ms serial)"),
            _ => "—".to_string(),
        };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.2} | {:.3} | {} | {} | {} | {speedup} |",
            s.name,
            s.events,
            s.requests,
            s.wall_ms_median,
            s.wall_ms_cov,
            s.repeats,
            format_rate(s.events_per_sec),
            s.peak_rss_kb,
        );
    }
    out
}

/// Renders an optional number as JSON: `null` or a fixed-precision
/// literal.
fn opt_num(value: Option<f64>, decimals: usize) -> String {
    match value {
        None => "null".to_string(),
        Some(v) => format!("{v:.decimals$}"),
    }
}

/// Escapes a string for embedding in a JSON literal: backslash, quote,
/// newline and tab.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n").replace('\t', "\\t")
}

/// What a run's last stdout line reports, in the benchmark's result-line
/// format: `{"correct": …, "metrics": {"name": {"value": x, "unit": "u"},
/// …}}`, other keys ignored.
#[derive(Debug)]
pub struct ResultLine {
    /// False when the line says `"correct": false`.
    pub correct: bool,
    /// `(name, value, unit)` of every metric, in line order; empty for a
    /// line without `"metrics"`.
    pub metrics: Vec<(String, f64, String)>,
}

/// Reads a run's last stdout line. A line without `"metrics"` (a usage
/// line, or a program that prints no result line) reports no metrics;
/// a `"metrics"` object that does not follow the format, or a value
/// that is not a finite number, is an `Err`, never a 0.
pub fn read_result_line(line: &str) -> Result<ResultLine, String> {
    let correct = !line.contains("\"correct\": false");
    let mut metrics = Vec::new();
    if let Some((_, mut rest)) = line.split_once("\"metrics\": {") {
        let bad = || format!("malformed metrics in `{line}`");
        while !rest.starts_with('}') {
            let (name, tail) = rest.strip_prefix('"').and_then(|r| r.split_once('"')).ok_or_else(bad)?;
            let (value, tail) = tail
                .strip_prefix(": {\"value\": ")
                .and_then(|r| r.split_once(", \"unit\": \""))
                .ok_or_else(bad)?;
            let (unit, tail) = tail.split_once('"').ok_or_else(bad)?;
            let tail = tail.strip_prefix('}').ok_or_else(bad)?;
            let value = value
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("metric {name}: `{value}` is not a number"))?;
            metrics.push((name.to_string(), value, unit.to_string()));
            rest = match tail.strip_prefix(", ") {
                Some(next) => next,
                None if tail.starts_with('}') => tail,
                None => return Err(bad()),
            };
        }
    }
    Ok(ResultLine { correct, metrics })
}

/// Pairs of runs `perf_probe ab` makes: the base first in even pairs,
/// the head first in odd ones.
pub const AB_PAIRS: usize = 10;

/// A head worse than the base by more than this factor, Mann–Whitney
/// significant at α = 0.05, fails an `ab` comparison.
pub const MAX_REGRESSION: f64 = 2.0;

/// What one metric's samples say about the head against the base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbVerdict {
    /// The head won at least 9 in 10 pairs and its median is better by
    /// more than the base's IQR.
    Better,
    /// The head lost at least 9 in 10 pairs and its median is worse by
    /// more than the base's IQR.
    Worse,
    /// The head is worse by more than [`MAX_REGRESSION`], Mann–Whitney
    /// significant (p < 0.05).
    Fail,
    /// Only one side reports the metric.
    Ungated,
    /// None of the above.
    NoChange,
}

impl std::fmt::Display for AbVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AbVerdict::Better => "better",
            AbVerdict::Worse => "worse",
            AbVerdict::Fail => "FAIL",
            AbVerdict::Ungated => "ungated",
            AbVerdict::NoChange => "no change",
        })
    }
}

/// Pairs the head won and lost: `base[i]` and `head[i]` were run in the
/// same pair.
fn head_won_lost(base: &[f64], head: &[f64], higher_is_better: bool) -> (usize, usize) {
    let beats = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let won = base.iter().zip(head).filter(|&(&b, &h)| beats(h, b)).count();
    let lost = base.iter().zip(head).filter(|&(&b, &h)| beats(b, h)).count();
    (won, lost)
}

/// The spread between the base's quartiles.
fn iqr(samples: &[f64]) -> f64 {
    tpv_stats::desc::percentile(samples, 75.0) - tpv_stats::desc::percentile(samples, 25.0)
}

/// Judges one metric of an `ab` comparison from its per-pair samples
/// (`base[i]` and `head[i]` from pair `i`; an empty side does not
/// report the metric). A metric measured in `1/s` is better higher,
/// every other one lower. The rules, in order: one side empty reads
/// `Ungated`; a head median worse than the base's by more than
/// [`MAX_REGRESSION`] with Mann–Whitney p < 0.05 (both medians
/// non-negative) reads `Fail`; a head
/// that wins (loses) at least 9 in 10 pairs with a median gap larger
/// than the base's IQR reads `Better` (`Worse`); anything else reads
/// `NoChange`.
pub fn ab_verdict(base: &[f64], head: &[f64], higher_is_better: bool) -> AbVerdict {
    if base.is_empty() || head.is_empty() {
        return AbVerdict::Ungated;
    }
    let (b, h) = (tpv_stats::desc::median(base), tpv_stats::desc::median(head));
    // A ratio means nothing across or below zero (a traced benchmark
    // run's `trace.overhead_frac` can read negative): such a metric is
    // never `Fail`.
    let slowdown = if higher_is_better { b / h } else { h / b };
    let significant = tpv_stats::mann_whitney_u(head, base).is_some_and(|mw| mw.differs(0.05));
    if b >= 0.0 && h >= 0.0 && slowdown > MAX_REGRESSION && significant {
        return AbVerdict::Fail;
    }
    let (won, lost) = head_won_lost(base, head, higher_is_better);
    let pairs = base.len().min(head.len());
    let clear = (h - b).abs() > iqr(base);
    if clear && 10 * won >= 9 * pairs {
        AbVerdict::Better
    } else if clear && 10 * lost >= 9 * pairs {
        AbVerdict::Worse
    } else {
        AbVerdict::NoChange
    }
}

/// The header of the table `perf_probe ab` prints, one [`ab_row`] per
/// metric below it.
pub const AB_HEADER: &str = "| metric | unit | base median | head median | head/base (95% CI) | MW p \
                             | head won | base IQR | verdict |\n|---|---|---|---|---|---|---|---|---|";

/// One metric's markdown row of an `ab` table and its [`ab_verdict`]:
/// the two medians, the head/base ratio of medians with its
/// [`ratio_ci`], the Mann–Whitney p, the pairs the head won and the
/// base's IQR.
pub fn ab_row(metric: &str, unit: &str, base: &[f64], head: &[f64]) -> (String, AbVerdict) {
    use tpv_stats::desc::median;
    let higher_is_better = unit == "1/s";
    let verdict = ab_verdict(base, head, higher_is_better);
    let gated = verdict != AbVerdict::Ungated;
    let ci = || ratio_ci(head, base).map_or(String::new(), |(lo, hi)| format!(" ({lo:.3}–{hi:.3})"));
    let p =
        || tpv_stats::mann_whitney_u(head, base).map_or("—".to_string(), |mw| format!("{:.4}", mw.p_value));
    let cells = [
        (!base.is_empty()).then(|| sig4(median(base))),
        (!head.is_empty()).then(|| sig4(median(head))),
        gated.then(|| format!("{:.3}{}", median(head) / median(base), ci())),
        gated.then(p),
        gated.then(|| {
            format!("{}/{}", head_won_lost(base, head, higher_is_better).0, base.len().min(head.len()))
        }),
        gated.then(|| sig4(iqr(base))),
    ]
    .map(|cell| cell.unwrap_or_else(|| "—".to_string()));
    (format!("| {metric} | {unit} | {} | {verdict} |", cells.join(" | ")), verdict)
}

/// Renders `x` with four significant digits (and no exponent).
fn sig4(x: f64) -> String {
    let decimals = if x == 0.0 || !x.is_finite() {
        0
    } else {
        (3 - x.abs().log10().floor() as i32).clamp(0, 9) as usize
    };
    format!("{x:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            schema: SCHEMA.to_string(),
            quick: true,
            runner: RunnerInfo {
                cpu_model: "Test CPU \"quoted\" model, back\\slash\ttab\nnewline".to_string(),
                cores: 8,
                kernel: "6.0.0-test".to_string(),
            },
            scenarios: vec![
                ScenarioReport {
                    name: "static_1x1".to_string(),
                    trials: 1,
                    events: 32_768,
                    requests: 5_432,
                    wall_ms_median: 3.25,
                    wall_ms_cov: 0.0,
                    events_per_sec: 10_082_461.5,
                    wall_ms_serial: None,
                    speedup_vs_serial: None,
                    repeats: 16,
                    peak_rss_kb: 14_200,
                    wall_ms_trials: vec![3.25],
                    events_per_sec_ci_low: None,
                    events_per_sec_ci_high: None,
                    wall_ms_parallel_trials: Vec::new(),
                    speedup_ci_low: None,
                    speedup_ci_high: None,
                },
                ScenarioReport {
                    name: "fleet_16".to_string(),
                    trials: 5,
                    events: 500_000,
                    requests: 90_000,
                    wall_ms_median: 42.5,
                    wall_ms_cov: 0.013,
                    events_per_sec: 11_764_705.9,
                    wall_ms_serial: Some(160.1),
                    speedup_vs_serial: Some(3.7671),
                    repeats: 2,
                    peak_rss_kb: 18_944,
                    wall_ms_trials: vec![42.1, 42.5, 43.0, 42.4, 42.9],
                    events_per_sec_ci_low: Some(11_600_000.0),
                    events_per_sec_ci_high: Some(11_900_000.0),
                    wall_ms_parallel_trials: vec![11.2, 11.4, 11.3, 11.5, 11.25],
                    speedup_ci_low: Some(3.61),
                    speedup_ci_high: Some(3.90),
                },
            ],
        }
    }

    #[test]
    fn speedup_ci_is_null_off_dual_timed_scenarios() {
        let json = sample().to_json();
        assert!(json.contains("\"speedup_ci_low\": null"), "{json}");
        assert!(json.contains("\"speedup_ci_high\": 3.9000"), "{json}");
    }

    #[test]
    fn to_json_writes_null_cis_and_escapes_the_runner() {
        let json = sample().to_json();
        // A one-trial scenario has no events/sec CI: `null`, not a fake 0.
        assert!(json.contains("\"events_per_sec_ci_low\": null,\n"), "{json}");
        assert!(json.contains("\"events_per_sec_ci_high\": null,\n"), "{json}");
        assert!(json.contains("\"events_per_sec_ci_low\": 11600000.0,\n"), "{json}");
        assert!(json.contains("\"wall_ms_serial\": null,\n"), "{json}");
        assert!(json.contains("\"schema\": \"tpv-perf/6\",\n"), "{json}");
        assert!(
            json.contains(r#""cpu_model": "Test CPU \"quoted\" model, back\\slash\ttab\nnewline","#),
            "quote, backslash, tab and newline must be escaped: {json}"
        );
        // Every line is a whole line: the newline in the CPU string did
        // not break one.
        assert!(json.lines().all(|l| l.trim() != "newline\","), "{json}");
    }

    #[test]
    fn probe_result_line_reads_back() {
        let line = sample().result_line();
        assert_eq!(
            line,
            "{\"metrics\": {\"static_1x1.events_per_sec\": {\"value\": 10082461.5, \"unit\": \"1/s\"}, \
             \"fleet_16.events_per_sec\": {\"value\": 11764705.9, \"unit\": \"1/s\"}}}"
        );
        let read = read_result_line(&line).expect("the probe's own line reads");
        assert!(read.correct);
        assert_eq!(
            read.metrics,
            vec![
                ("static_1x1.events_per_sec".to_string(), 10_082_461.5, "1/s".to_string()),
                ("fleet_16.events_per_sec".to_string(), 11_764_705.9, "1/s".to_string()),
            ]
        );
    }

    /// The last stdout line of a `paper_grid` run of the repository
    /// benchmark, in the shape its `json_line` writes.
    const BENCHMARK_LINE: &str = "{\"correct\": true, \"attempted\": 412, \"failed\": 0, \"metrics\": \
        {\"wall_s\": {\"value\": 0.5734, \"unit\": \"s\"}, \"sim_req_per_s\": {\"value\": 1.0354e7, \"unit\": \"1/s\"}, \
        \"setup_s\": {\"value\": 0.00523, \"unit\": \"s\"}, \"peak_rss_mb\": {\"value\": 7.3125, \"unit\": \"MB\"}, \
        \"engine.jobs\": {\"value\": 412.0, \"unit\": \"count\"}}}";

    #[test]
    fn result_line_reads_the_benchmark_line() {
        let read = read_result_line(BENCHMARK_LINE).expect("the benchmark's line reads");
        assert!(read.correct);
        let names: Vec<&str> = read.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, ["wall_s", "sim_req_per_s", "setup_s", "peak_rss_mb", "engine.jobs"]);
        assert_eq!(read.metrics[1], ("sim_req_per_s".to_string(), 1.0354e7, "1/s".to_string()));
        assert_eq!(read.metrics[2].1, 0.00523);
        let failed = BENCHMARK_LINE.replace("\"correct\": true", "\"correct\": false");
        assert!(!read_result_line(&failed).unwrap().correct);
    }

    #[test]
    fn result_line_without_metrics_reads_none() {
        for line in [
            "",
            "perf_probe [--quick] [--trials N]",
            "| fleet_1m | 1 | 2 |",
            "{\"correct\": true, \"metrics\": {}}",
        ] {
            let read = read_result_line(line).expect(line);
            assert!(read.correct && read.metrics.is_empty(), "{line}: {read:?}");
        }
    }

    #[test]
    fn result_line_rejects_a_malformed_number() {
        for bad in ["0.57.34", "fast", "", "NaN", "inf", "\"0.5\""] {
            let line = BENCHMARK_LINE.replace("0.5734", bad);
            let err = read_result_line(&line).expect_err(bad);
            assert!(err.contains("wall_s") || err.contains("malformed"), "{bad}: {err}");
        }
        // A metrics object cut short or out of shape is an error too.
        for line in [
            &BENCHMARK_LINE[..BENCHMARK_LINE.len() - 20],
            &BENCHMARK_LINE.replace(", \"unit\": \"s\"}, \"sim", ", \"unit\": \"s\"} \"sim"),
            &BENCHMARK_LINE.replace("{\"value\": 0.5734", "{\"v\": 0.5734"),
        ] {
            assert!(read_result_line(line).is_err(), "{line}");
        }
    }

    /// Ten per-pair walls of one side, in seconds: a ~3% spread.
    const BASE_S: [f64; AB_PAIRS] = [15.0, 15.3, 14.8, 15.1, 15.4, 14.9, 15.2, 15.0, 15.3, 14.7];

    #[test]
    fn ab_verdict_reads_a_ten_percent_shift_as_worse_not_fail() {
        let head: Vec<f64> = BASE_S.iter().map(|x| x * 1.1).collect();
        assert_eq!(ab_verdict(&BASE_S, &head, false), AbVerdict::Worse);
        // The same shift in a rate reads the other way round.
        let rates: Vec<f64> = BASE_S.iter().map(|x| 1e6 / x).collect();
        let faster: Vec<f64> = head.iter().map(|x| 1e6 / x).collect();
        assert_eq!(ab_verdict(&rates, &faster, true), AbVerdict::Worse);
        assert_eq!(ab_verdict(&faster, &rates, true), AbVerdict::Better);
    }

    #[test]
    fn ab_verdict_reads_an_a_a_pair_as_no_change() {
        let mut head = BASE_S;
        head.rotate_left(1);
        assert_eq!(ab_verdict(&BASE_S, &head, false), AbVerdict::NoChange);
        assert_eq!(ab_verdict(&BASE_S, &BASE_S, false), AbVerdict::NoChange);
        // A deterministic counter that does not move.
        assert_eq!(ab_verdict(&[412.0; AB_PAIRS], &[412.0; AB_PAIRS], false), AbVerdict::NoChange);
    }

    #[test]
    fn ab_verdict_fails_a_significant_2_5x_slowdown() {
        let slower: Vec<f64> = BASE_S.iter().map(|x| x * 2.5).collect();
        assert_eq!(ab_verdict(&BASE_S, &slower, false), AbVerdict::Fail);
        let rates: Vec<f64> = BASE_S.iter().map(|x| 1e6 / x).collect();
        let slower_rates: Vec<f64> = slower.iter().map(|x| 1e6 / x).collect();
        assert_eq!(ab_verdict(&rates, &slower_rates, true), AbVerdict::Fail);
        // A 2.5x speed-up is no failure.
        assert_eq!(ab_verdict(&slower_rates, &rates, true), AbVerdict::Better);
        // Nor is a negative metric growing 2.5x more negative: lower is
        // better, and it got lower.
        let negative: Vec<f64> = BASE_S.iter().map(|x| -x).collect();
        let more_negative: Vec<f64> = slower.iter().map(|x| -x).collect();
        assert_eq!(ab_verdict(&negative, &more_negative, false), AbVerdict::Better);
    }

    #[test]
    fn ab_verdict_does_not_fail_a_2_5x_median_over_overlapping_spreads() {
        // Half of each side's runs are fast: the medians sit 2.5x apart
        // (57 and 142.5), but the samples interleave (p ≈ 0.2).
        let base = [10.0, 11.0, 12.0, 13.0, 14.0, 100.0, 101.0, 102.0, 103.0, 104.0];
        let head = [11.0, 12.0, 13.0, 14.0, 15.0, 270.0, 271.0, 272.0, 273.0, 274.0];
        let ratio = tpv_stats::desc::median(&head) / tpv_stats::desc::median(&base);
        assert!((ratio - 2.5).abs() < 1e-12, "{ratio}");
        let mw = tpv_stats::mann_whitney_u(&head, &base).unwrap();
        assert!(!mw.differs(0.05), "p = {}", mw.p_value);
        assert_ne!(ab_verdict(&base, &head, false), AbVerdict::Fail);
    }

    #[test]
    fn ab_verdict_leaves_a_one_sided_metric_ungated() {
        assert_eq!(ab_verdict(&[], &BASE_S, false), AbVerdict::Ungated);
        assert_eq!(ab_verdict(&BASE_S, &[], true), AbVerdict::Ungated);
        let (row, verdict) = ab_row("fleet_1m.events_per_sec", "1/s", &[], &[2.5e6; AB_PAIRS]);
        assert_eq!(verdict, AbVerdict::Ungated);
        assert_eq!(row, "| fleet_1m.events_per_sec | 1/s | — | 2500000 | — | — | — | — | ungated |");
    }

    #[test]
    fn ab_row_renders_medians_ratio_p_wins_and_iqr() {
        let head: Vec<f64> = BASE_S.iter().map(|x| x * 1.1).collect();
        let (row, verdict) = ab_row("process_s", "s", &BASE_S, &head);
        assert_eq!(verdict, AbVerdict::Worse);
        assert!(row.starts_with("| process_s | s | 15.05 | 16.55 | 1.100 ("), "{row}");
        assert!(row.ends_with(" | 0/10 | 0.4000 | worse |"), "{row}");
        assert_eq!(AB_HEADER.lines().next().unwrap().matches('|').count(), row.matches('|').count());
    }

    #[test]
    fn events_per_sec_ci_brackets_the_point_estimate() {
        let walls = [42.1, 42.5, 43.0, 42.4, 42.9, 42.6, 42.3];
        let events = 500_000u64;
        let (low, high) = events_per_sec_ci(events, &walls).expect("7 trials bootstrap fine");
        let point = events as f64 / (tpv_stats::desc::median(&walls) / 1e3);
        assert!(low <= point && point <= high, "CI [{low}, {high}] must bracket {point}");
        assert!(low > 0.0);
        // Deterministic: same trials, same interval.
        assert_eq!(events_per_sec_ci(events, &walls), Some((low, high)));
        // Too few trials: no interval rather than a fake one.
        assert_eq!(events_per_sec_ci(events, &[42.0]), None);
    }

    #[test]
    fn speedup_ci_brackets_the_ratio_and_detects_noise() {
        // Tight legs around a 4x speedup: the CI hugs the ratio.
        let serial = [160.0, 161.0, 159.5, 160.5, 160.2];
        let parallel = [40.0, 40.3, 39.8, 40.1, 40.2];
        let (low, high) = ratio_ci(&serial, &parallel).expect("5 trials per leg");
        assert!(low > 3.8 && high < 4.2, "tight legs must give a tight CI, got [{low}, {high}]");
        // A noisy parallel leg widens the interval downward — the lower
        // bound is what the scaling gate binds on.
        let noisy = [40.0, 80.0, 39.8, 75.0, 40.2];
        let (noisy_low, _) = ratio_ci(&serial, &noisy).expect("5 trials per leg");
        assert!(noisy_low < low, "noise must drag the lower bound down: {noisy_low} vs {low}");
        // Single-trial legs: no interval.
        assert_eq!(ratio_ci(&[160.0], &parallel), None);
        assert_eq!(ratio_ci(&serial, &[40.0]), None);
    }

    #[test]
    fn summary_markdown_renders_rates_and_speedups() {
        let mut report = sample();
        // A set-up scenario runs a few hundred constructions per second.
        report.scenarios.push(ScenarioReport {
            name: "service_setup".to_string(),
            events_per_sec: 319.4,
            ..report.scenarios[0].clone()
        });
        let md = summary_markdown(&report);
        assert!(md.contains("| static_1x1 |"), "{md}");
        assert!(md.contains("| 10.08M/s |"), "{md}");
        assert!(md.contains("| 319.4/s |") && !md.contains("0.00M"), "{md}");
        assert!(md.contains("3.77x (160.1 ms serial)"), "dual-timed scenario must show its speedup: {md}");
        assert_eq!(md.lines().filter(|l| l.starts_with("| ")).count(), 4, "{md}");
    }

    #[test]
    fn iqr_filter_drops_descheduled_trials_only() {
        // One wild trial (a napping runner) falls outside the Tukey
        // fences; the tight cluster survives untouched.
        let kept = iqr_filter(&[5.0, 5.1, 4.9, 5.05, 250.0, 5.02]);
        assert_eq!(kept.len(), 5);
        assert!(kept.iter().all(|&v| v < 6.0), "{kept:?}");
        // Fewer than four samples: quartiles are meaningless, keep all.
        assert_eq!(iqr_filter(&[1.0, 500.0, 2.0]), vec![1.0, 500.0, 2.0]);
        // An identical cluster never filters itself away.
        assert_eq!(iqr_filter(&[7.0; 6]).len(), 6);
    }

    #[test]
    fn iqr_filter_keeps_ulp_stragglers_under_zero_spread() {
        // A quantized timer wall puts both quartiles on the same value;
        // the old point-fences rejected trials one ulp off the mode.
        let above = f64::from_bits(7.0f64.to_bits() + 1);
        let below = f64::from_bits(7.0f64.to_bits() - 1);
        let samples = [7.0, 7.0, 7.0, 7.0, above, below];
        assert_eq!(iqr_filter(&samples), samples.to_vec(), "zero IQR must keep every sample");
        // Sanity: a genuinely wide spread still fences.
        assert_eq!(iqr_filter(&[7.0, 7.0, 7.0, 7.0, 7.1, 700.0]).len(), 5);
    }
}
