//! The machine-readable kernel performance harness behind `perf_probe`.
//!
//! A [`BenchReport`] is the stable schema written to `BENCH.json`: one
//! [`ScenarioReport`] per probe scenario with the deterministic work
//! counters (events, requests) and the wall-clock summary (median + CoV
//! over repeated trials, derived events/sec). No registry JSON crate is
//! available offline, so the schema is hand-serialized by
//! [`BenchReport::to_json`] and read back by [`BenchReport::from_json`],
//! a line reader for exactly that layout. The reference a report is
//! gated against is another report measured in the same session — in
//! CI, the base commit's probe run in the same job
//! (`support/perf_gate.sh`) — because wall-clock numbers from different
//! machines or sessions do not compare.
//!
//! Versioning: bump [`SCHEMA`] whenever a field changes meaning; the
//! reader rejects reports from a different schema, so a gate whose two
//! sides disagree on it fails loudly instead of comparing apples to
//! oranges.
//!
//! Schema 3 hardens the statistics: every scenario carries its per-run
//! trial wall times (after [`iqr_filter`] outlier rejection) so the
//! baseline gate can require a Mann–Whitney-significant slowdown instead
//! of trusting a lone median ratio, plus the repeat count used to pad
//! short scenarios above the timer floor and the process peak RSS
//! observed after the scenario ran (the cohort layer's flat-memory
//! gate).
//!
//! Schema 4 attaches uncertainty to the headline numbers: every scenario
//! carries a percentile-bootstrap 95% CI on its events/sec (derived from
//! the retained trial walls via [`events_per_sec_ci`]), dual-timed
//! scenarios additionally keep the parallel leg's trial walls and a
//! two-sample bootstrap CI on the intra-run speedup ([`speedup_ci`]) —
//! so the shard-scaling gate can bind on the CI lower bound instead of a
//! point estimate — and the peak-RSS reading is per-scenario where the
//! kernel supports resetting `VmHWM` (see `tpv_bench::rss`).
//!
//! Schema 5 makes the dual-timed fields honest and the report
//! self-describing: `wall_ms_serial` and `speedup_vs_serial` are `null`
//! for scenarios that never ran a serial leg (schema ≤ 4 wrote a
//! meaningless `0.0` a reader could mistake for a measurement), and
//! every report carries a [`RunnerInfo`] fingerprint — CPU model
//! string, core count, kernel release — so a baseline diff can tell
//! "the kernel regressed" apart from "CI landed on a different runner
//! class". The speedup CI (`speedup_ci_low`/`_high`) follows the same
//! rule: `null` off the dual-timed scenarios. Reports that still carry
//! the `0.0` placeholder there parse as `Some(0.0)`, so the reader loads
//! them unchanged.

use std::fmt::Write as _;

use tpv_sim::SimRng;

/// Schema identifier written into every report.
pub const SCHEMA: &str = "tpv-perf/5";

/// Warn (but do not fail) when events/sec falls below `baseline / WARN`.
pub const WARN_FACTOR: f64 = 1.25;

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
    /// `wall_ms_median`, kept so [`compare`] can run a Mann–Whitney test
    /// between a fresh probe and the baseline.
    pub wall_ms_trials: Vec<f64>,
    /// Percentile-bootstrap 95% CI on `events_per_sec`, derived from
    /// `wall_ms_trials` by [`events_per_sec_ci`]; both `0.0` when the
    /// trial sample is too small to bootstrap (fewer than 2 trials).
    pub events_per_sec_ci_low: f64,
    /// Upper end of the events/sec CI (see `events_per_sec_ci_low`).
    pub events_per_sec_ci_high: f64,
    /// Retained per-run wall times of the *parallel* leg of a dual-timed
    /// scenario, in milliseconds — empty when not dual-timed. Note
    /// `wall_ms_trials` holds the gated (serial) leg's sample for those
    /// scenarios, so both legs stay recomputable from the report.
    pub wall_ms_parallel_trials: Vec<f64>,
    /// Two-sample-bootstrap 95% CI on `speedup_vs_serial` from
    /// [`speedup_ci`]; `None` (serialized `null`) when not dual-timed or
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
/// runner class; the fingerprint travels with the report so a baseline
/// diff can surface "different machine" as the likely cause of a swing
/// instead of blaming the kernel. Informational: [`compare`] does not
/// gate on it.
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
        let _ = writeln!(out, "    \"cpu_model\": \"{}\",", json::escape(&self.runner.cpu_model));
        let _ = writeln!(out, "    \"cores\": {},", self.runner.cores);
        let _ = writeln!(out, "    \"kernel\": \"{}\"", json::escape(&self.runner.kernel));
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
            let _ = writeln!(out, "      \"wall_ms_serial\": {},", json::opt_num(s.wall_ms_serial, 4));
            let _ = writeln!(out, "      \"speedup_vs_serial\": {},", json::opt_num(s.speedup_vs_serial, 4));
            let _ = writeln!(out, "      \"repeats\": {},", s.repeats);
            let _ = writeln!(out, "      \"peak_rss_kb\": {},", s.peak_rss_kb);
            let trials: Vec<String> = s.wall_ms_trials.iter().map(|t| format!("{t:.4}")).collect();
            let _ = writeln!(out, "      \"wall_ms_trials\": [{}],", trials.join(", "));
            let _ = writeln!(out, "      \"events_per_sec_ci_low\": {:.1},", s.events_per_sec_ci_low);
            let _ = writeln!(out, "      \"events_per_sec_ci_high\": {:.1},", s.events_per_sec_ci_high);
            let parallel: Vec<String> = s.wall_ms_parallel_trials.iter().map(|t| format!("{t:.4}")).collect();
            let _ = writeln!(out, "      \"wall_ms_parallel_trials\": [{}],", parallel.join(", "));
            let _ = writeln!(out, "      \"speedup_ci_low\": {},", json::opt_num(s.speedup_ci_low, 4));
            let _ = writeln!(out, "      \"speedup_ci_high\": {}", json::opt_num(s.speedup_ci_high, 4));
            out.push_str(if i + 1 == self.scenarios.len() { "    }\n" } else { "    },\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Reads a report written by [`BenchReport::to_json`].
    ///
    /// The reader takes exactly that layout: it reads the values off the
    /// `"key": value` lines in the writer's key order, requires the
    /// schema field to match [`SCHEMA`], then writes the report back
    /// and requires every line to come out as it went in. Anything else
    /// is an `Err` naming the line.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let mut fields = json::Fields::new(text);
        let schema = fields.string("schema")?;
        if schema != SCHEMA {
            return Err(format!("schema mismatch: report is '{schema}', this binary reads '{SCHEMA}'"));
        }
        let quick = fields.parse("quick")?;
        let runner = RunnerInfo {
            cpu_model: fields.string("cpu_model")?,
            cores: fields.parse("cores")?,
            kernel: fields.string("kernel")?,
        };
        let mut scenarios = Vec::new();
        while fields.next_is("name") {
            scenarios.push(ScenarioReport {
                name: fields.string("name")?,
                trials: fields.parse("trials")?,
                events: fields.parse("events")?,
                requests: fields.parse("requests")?,
                wall_ms_median: fields.parse("wall_ms_median")?,
                wall_ms_cov: fields.parse("wall_ms_cov")?,
                events_per_sec: fields.parse("events_per_sec")?,
                wall_ms_serial: fields.opt_f64("wall_ms_serial")?,
                speedup_vs_serial: fields.opt_f64("speedup_vs_serial")?,
                repeats: fields.parse("repeats")?,
                peak_rss_kb: fields.parse("peak_rss_kb")?,
                wall_ms_trials: fields.f64_list("wall_ms_trials")?,
                events_per_sec_ci_low: fields.parse("events_per_sec_ci_low")?,
                events_per_sec_ci_high: fields.parse("events_per_sec_ci_high")?,
                wall_ms_parallel_trials: fields.f64_list("wall_ms_parallel_trials")?,
                speedup_ci_low: fields.opt_f64("speedup_ci_low")?,
                speedup_ci_high: fields.opt_f64("speedup_ci_high")?,
            });
        }
        let report = BenchReport { schema, quick, runner, scenarios };
        let written = report.to_json();
        let (want, got): (Vec<&str>, Vec<&str>) = (written.lines().collect(), text.lines().collect());
        match (0..want.len().max(got.len())).find(|&i| want.get(i) != got.get(i)) {
            None => Ok(report),
            Some(i) => Err(format!(
                "line {}: expected `{}`, got `{}`",
                i + 1,
                want.get(i).unwrap_or(&"the end of the report"),
                got.get(i).unwrap_or(&"the end of the report")
            )),
        }
    }

    /// The scenario named `name`, if present.
    pub fn scenario(&self, name: &str) -> Option<&ScenarioReport> {
        self.scenarios.iter().find(|s| s.name == name)
    }
}

/// One baseline-vs-current verdict from [`compare`].
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Current events/sec is within tolerance of the baseline.
    Ok {
        /// Scenario name.
        scenario: String,
        /// `current / baseline` events/sec (>1 = faster than baseline).
        speedup: f64,
    },
    /// Slower than the baseline but within the hard tolerance — noisy
    /// runners land here, so it only warns.
    Warn {
        /// Scenario name.
        scenario: String,
        /// `current / baseline` events/sec.
        speedup: f64,
        /// Human-readable cause.
        reason: String,
    },
    /// Slower than `baseline / max_regression` — a real regression even
    /// on a noisy runner.
    Fail {
        /// Scenario name.
        scenario: String,
        /// `current / baseline` events/sec.
        speedup: f64,
        /// Human-readable cause.
        reason: String,
    },
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

/// Two-sample-bootstrap 95% CI on the intra-run speedup, `(low, high)`.
///
/// The speedup is a ratio of two *independent* trial samples (serial and
/// parallel legs time separate executions, not paired ones), so each
/// bootstrap replicate resamples both legs independently and takes the
/// ratio of their medians — the single-sample [`bootstrap_ci`] cannot
/// express that. `None` when either leg has fewer than 2 trials or a
/// resampled parallel median degenerates to zero.
///
/// [`bootstrap_ci`]: tpv_stats::bootstrap::bootstrap_ci
pub fn speedup_ci(serial_ms: &[f64], parallel_ms: &[f64]) -> Option<(f64, f64)> {
    if serial_ms.len() < 2 || parallel_ms.len() < 2 {
        return None;
    }
    let mut rng = SimRng::seed_from_u64(CI_SEED ^ 1);
    let mut ratios = Vec::with_capacity(CI_RESAMPLES);
    let mut serial = vec![0.0; serial_ms.len()];
    let mut parallel = vec![0.0; parallel_ms.len()];
    for _ in 0..CI_RESAMPLES {
        for slot in serial.iter_mut() {
            *slot = serial_ms[rng.next_index(serial_ms.len())];
        }
        for slot in parallel.iter_mut() {
            *slot = parallel_ms[rng.next_index(parallel_ms.len())];
        }
        let denom = tpv_stats::desc::median(&parallel);
        if denom <= 0.0 {
            return None;
        }
        ratios.push(tpv_stats::desc::median(&serial) / denom);
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("NaN speedup replicate"));
    let alpha = (1.0 - CI_LEVEL) / 2.0;
    let lo = ((alpha * CI_RESAMPLES as f64) as usize).min(CI_RESAMPLES - 1);
    let hi = (((1.0 - alpha) * CI_RESAMPLES as f64) as usize).min(CI_RESAMPLES - 1);
    Some((ratios[lo], ratios[hi]))
}

/// Compares a fresh report against a baseline report measured in the
/// same session (in CI, the base commit's probe run in the same job).
///
/// The contract is deliberately loose — CI runners are noisy, so only a
/// slowdown worse than `max_regression`× **fails**; anything slower than
/// `baseline / `[`WARN_FACTOR`] warns. When both reports carry per-trial
/// wall times (schema 3), a median slowdown beyond the gate must *also*
/// be Mann–Whitney significant (α = 0.05) between the two trial samples
/// to fail — a single wild median on an otherwise overlapping spread
/// downgrades to a warning. A scenario whose deterministic work counters
/// (events, requests) differ from the baseline also warns: the change
/// alters what the scenario does, so its speed compares different work.
pub fn compare(current: &BenchReport, baseline: &BenchReport, max_regression: f64) -> Vec<Verdict> {
    assert!(max_regression >= 1.0, "max_regression is a slowdown factor, got {max_regression}");
    let mut verdicts = Vec::new();
    // Scenarios the baseline has never seen are ungated — surface them,
    // or a freshly added scenario could regress invisibly forever.
    for cur in &current.scenarios {
        if baseline.scenario(&cur.name).is_none() {
            verdicts.push(Verdict::Warn {
                scenario: cur.name.clone(),
                speedup: 0.0,
                reason: "scenario missing from the baseline (ungated): the baseline build does not run it"
                    .to_string(),
            });
        }
    }
    for base in &baseline.scenarios {
        let Some(cur) = current.scenario(&base.name) else {
            verdicts.push(Verdict::Warn {
                scenario: base.name.clone(),
                speedup: 0.0,
                reason: "scenario missing from current report".to_string(),
            });
            continue;
        };
        let speedup = if base.events_per_sec > 0.0 { cur.events_per_sec / base.events_per_sec } else { 0.0 };
        // Counter drift and the speed gate are independent signals: a
        // drifted baseline still gates throughput (events/sec stays
        // comparable across small semantic changes), so a kernel change
        // cannot smuggle a hard regression past CI behind the drift
        // warning.
        if cur.events != base.events || cur.requests != base.requests {
            verdicts.push(Verdict::Warn {
                scenario: base.name.clone(),
                speedup,
                reason: format!(
                    "work counters drifted (events {} -> {}, requests {} -> {}): the change alters this \
                     scenario's work",
                    base.events, cur.events, base.requests, cur.requests
                ),
            });
        }
        if speedup * max_regression < 1.0 {
            // A median beyond the gate fails only when the slowdown is
            // also statistically significant across the retained trials;
            // with fewer than two trial samples on a side (`--trials 1`)
            // the median ratio stands alone.
            let significance = tpv_stats::mann_whitney_u(&cur.wall_ms_trials, &base.wall_ms_trials);
            match significance {
                Some(mw) if !mw.differs(0.05) => {
                    verdicts.push(Verdict::Warn {
                        scenario: base.name.clone(),
                        speedup,
                        reason: format!(
                            "median events/sec {:.0} breaches baseline {:.0} / {max_regression}, but the \
                             trial spreads overlap (Mann-Whitney p = {:.3}) — rerun before trusting it",
                            cur.events_per_sec, base.events_per_sec, mw.p_value
                        ),
                    });
                }
                _ => {
                    verdicts.push(Verdict::Fail {
                        scenario: base.name.clone(),
                        speedup,
                        reason: format!(
                            "events/sec {:.0} is worse than baseline {:.0} / {max_regression} (speedup {speedup:.2}x{})",
                            cur.events_per_sec,
                            base.events_per_sec,
                            significance.map_or(String::new(), |mw| format!(
                                ", Mann-Whitney p = {:.4}",
                                mw.p_value
                            ))
                        ),
                    });
                }
            }
        } else if speedup * WARN_FACTOR < 1.0 {
            verdicts.push(Verdict::Warn {
                scenario: base.name.clone(),
                speedup,
                reason: format!(
                    "events/sec {:.0} lags baseline {:.0} (speedup {speedup:.2}x) — within tolerance",
                    cur.events_per_sec, base.events_per_sec
                ),
            });
        } else {
            verdicts.push(Verdict::Ok { scenario: base.name.clone(), speedup });
        }
    }
    verdicts
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
/// `$GITHUB_STEP_SUMMARY`: one row per scenario of `current` with its
/// deterministic work, wall-time summary, throughput, peak RSS, shard
/// speedup, the events/sec delta against the baseline (when one is
/// given) and the gate verdict.
pub fn summary_markdown(current: &BenchReport, baseline: Option<(&BenchReport, f64)>) -> String {
    let mut out = String::new();
    out.push_str("### perf_probe — kernel events/sec vs baseline\n\n");
    out.push_str(
        "| scenario | events/run | requests/run | median wall (ms) | CoV | repeats | events/sec | peak RSS (kB) \
         | shard speedup | Δ vs baseline | verdict |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|---|---|---|\n");
    let verdicts = baseline.map(|(base, max_regression)| compare(current, base, max_regression));
    for s in &current.scenarios {
        let (delta, verdict) = match (&verdicts, baseline) {
            (Some(verdicts), Some((base, _))) => {
                let delta = base
                    .scenario(&s.name)
                    .filter(|b| b.events_per_sec > 0.0)
                    .map_or("n/a".to_string(), |b| {
                        format!("{:+.1}%", (s.events_per_sec / b.events_per_sec - 1.0) * 100.0)
                    });
                // The worst verdict for this scenario (a scenario can
                // carry both a drift warning and a speed verdict).
                let verdict = verdicts
                    .iter()
                    .filter_map(|v| match v {
                        Verdict::Fail { scenario, .. } if *scenario == s.name => Some((0, "❌ fail")),
                        Verdict::Warn { scenario, .. } if *scenario == s.name => Some((1, "⚠️ warn")),
                        Verdict::Ok { scenario, .. } if *scenario == s.name => Some((2, "✅ ok")),
                        _ => None,
                    })
                    .min_by_key(|&(rank, _)| rank)
                    .map_or("—", |(_, label)| label);
                (delta, verdict)
            }
            _ => ("n/a".to_string(), "—"),
        };
        let speedup = match (s.speedup_vs_serial, s.wall_ms_serial) {
            (Some(sp), Some(serial)) => format!("{sp:.2}x ({serial:.1} ms serial)"),
            _ => "—".to_string(),
        };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.2} | {:.3} | {} | {} | {} | {speedup} | {delta} | {verdict} |",
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

/// The report layout's JSON pieces: the writer's renderings of optional
/// numbers and strings, and [`Fields`], which reads the values back.
mod json {
    /// Renders an optional number as JSON: `null` or a fixed-precision
    /// literal.
    pub fn opt_num(value: Option<f64>, decimals: usize) -> String {
        match value {
            None => "null".to_string(),
            Some(v) => format!("{v:.decimals$}"),
        }
    }

    /// Escapes a string for embedding in a JSON literal: backslash,
    /// quote, newline and tab, the escapes [`unescape`] undoes.
    pub fn escape(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n").replace('\t', "\\t")
    }

    /// Undoes [`escape`]; `None` on any other escape or a bare quote.
    fn unescape(s: &str) -> Option<String> {
        let mut out = String::with_capacity(s.len());
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            out.push(match c {
                '\\' => match chars.next()? {
                    '\\' => '\\',
                    '"' => '"',
                    'n' => '\n',
                    't' => '\t',
                    _ => return None,
                },
                '"' => return None,
                other => other,
            });
        }
        Some(out)
    }

    /// The `"key": value` lines of a report, in order, with their
    /// 1-based line numbers. Lines that only open or close an object or
    /// a list carry no value and are skipped: the caller checks the
    /// layout as a whole.
    pub struct Fields<'a> {
        fields: std::iter::Peekable<std::vec::IntoIter<(usize, &'a str, &'a str)>>,
        lines: usize,
    }

    impl<'a> Fields<'a> {
        pub fn new(text: &'a str) -> Fields<'a> {
            let fields: Vec<_> = text
                .lines()
                .enumerate()
                .filter_map(|(i, line)| {
                    let (key, value) = line.trim().strip_prefix('"')?.split_once("\": ")?;
                    let value = value.strip_suffix(',').unwrap_or(value);
                    (value != "{" && value != "[").then_some((i + 1, key, value))
                })
                .collect();
            Fields { fields: fields.into_iter().peekable(), lines: text.lines().count() }
        }

        /// Whether the next field is `key`.
        pub fn next_is(&mut self, key: &str) -> bool {
            self.fields.peek().is_some_and(|&(_, k, _)| k == key)
        }

        /// The raw value of the next field, which must be `key`, with
        /// its line number.
        fn value(&mut self, key: &str) -> Result<(usize, &'a str), String> {
            match self.fields.next() {
                Some((n, k, value)) if k == key => Ok((n, value)),
                Some((n, k, _)) => Err(format!("line {n}: expected the key \"{key}\", got \"{k}\"")),
                None => Err(format!("line {}: the report ends before \"{key}\"", self.lines + 1)),
            }
        }

        /// Reads the field `key` as a number or a boolean.
        pub fn parse<T: std::str::FromStr>(&mut self, key: &str) -> Result<T, String> {
            let (n, value) = self.value(key)?;
            value.parse().map_err(|_| {
                format!("line {n}: \"{key}\" must be a {}, got `{value}`", std::any::type_name::<T>())
            })
        }

        /// Reads the field `key` as a number or `null` (`None`).
        pub fn opt_f64(&mut self, key: &str) -> Result<Option<f64>, String> {
            if self.fields.peek().is_some_and(|&(_, _, value)| value == "null") {
                return self.value(key).map(|_| None);
            }
            self.parse(key).map(Some)
        }

        /// Reads the field `key` as a one-line list of numbers.
        pub fn f64_list(&mut self, key: &str) -> Result<Vec<f64>, String> {
            let (n, value) = self.value(key)?;
            let bad = || format!("line {n}: \"{key}\" must be a list of numbers, got `{value}`");
            match value.strip_prefix('[').and_then(|v| v.strip_suffix(']')).ok_or_else(bad)? {
                "" => Ok(Vec::new()),
                items => items.split(", ").map(|x| x.parse().map_err(|_| bad())).collect(),
            }
        }

        /// Reads the field `key` as a string literal.
        pub fn string(&mut self, key: &str) -> Result<String, String> {
            let (n, value) = self.value(key)?;
            value
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .and_then(unescape)
                .ok_or_else(|| format!("line {n}: \"{key}\" must be a string, got `{value}`"))
        }
    }
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
                    trials: 5,
                    events: 32_768,
                    requests: 5_432,
                    wall_ms_median: 3.25,
                    wall_ms_cov: 0.021,
                    events_per_sec: 10_082_461.5,
                    wall_ms_serial: None,
                    speedup_vs_serial: None,
                    repeats: 16,
                    peak_rss_kb: 14_200,
                    wall_ms_trials: vec![3.21, 3.25, 3.30, 3.24, 3.27],
                    events_per_sec_ci_low: 9_929_000.0,
                    events_per_sec_ci_high: 10_207_000.0,
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
                    events_per_sec_ci_low: 11_600_000.0,
                    events_per_sec_ci_high: 11_900_000.0,
                    wall_ms_parallel_trials: vec![11.2, 11.4, 11.3, 11.5, 11.25],
                    speedup_ci_low: Some(3.61),
                    speedup_ci_high: Some(3.90),
                },
            ],
        }
    }

    /// Two scenarios cut verbatim from a `perf_probe --quick` report of
    /// a 2-vCPU Xeon host, as the writer lays it out: `samplers` is
    /// single-timed (its speedup fields are `null`), `fleet_1m` is
    /// dual-timed.
    const REPORT_EXCERPT: &str = include_str!("../tests/data/perf_report_excerpt.json");

    #[test]
    fn probe_report_excerpt_parses() {
        let report = BenchReport::from_json(REPORT_EXCERPT).expect("the excerpt parses");
        assert!(report.quick);
        assert_eq!(report.runner.cores, 2);
        let names: Vec<&str> = report.scenarios.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["samplers", "fleet_1m"]);
        let samplers = report.scenario("samplers").unwrap();
        assert_eq!((samplers.events, samplers.requests, samplers.repeats), (700_000, 100_000, 2));
        assert_eq!((samplers.wall_ms_serial, samplers.speedup_ci_low), (None, None));
        assert!(samplers.wall_ms_parallel_trials.is_empty());
        let fleet = report.scenario("fleet_1m").unwrap();
        assert_eq!(fleet.speedup_vs_serial, Some(2.3663));
        assert_eq!((fleet.speedup_ci_low, fleet.speedup_ci_high), (Some(2.1670), Some(2.4243)));
        assert_eq!(fleet.wall_ms_trials.len(), 4);
        assert_eq!(fleet.wall_ms_parallel_trials.len(), 5);
        // The writer reproduces the excerpt byte for byte.
        assert_eq!(report.to_json(), REPORT_EXCERPT);
        // An A/A pair: the report gated against itself.
        let verdicts = compare(&report, &report, 2.0);
        assert_eq!(verdicts.len(), 2);
        assert!(verdicts.iter().all(|v| matches!(v, Verdict::Ok { .. })), "{verdicts:?}");
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample();
        let parsed = BenchReport::from_json(&report.to_json()).expect("round trip");
        assert_eq!(parsed.schema, report.schema);
        assert_eq!(parsed.quick, report.quick);
        assert_eq!(parsed.runner, report.runner, "runner fingerprint must round-trip (incl. escapes)");
        assert_eq!(parsed.scenarios.len(), 2);
        for (a, b) in parsed.scenarios.iter().zip(&report.scenarios) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.events, b.events);
            assert_eq!(a.requests, b.requests);
            assert!((a.wall_ms_median - b.wall_ms_median).abs() < 1e-3);
            assert!((a.events_per_sec - b.events_per_sec).abs() < 1.0);
            let assert_close = |x: Option<f64>, y: Option<f64>, what: &str| match (x, y) {
                (Some(x), Some(y)) => assert!((x - y).abs() < 1e-3, "{what}: {x} vs {y}"),
                (x, y) => assert_eq!(x, y, "{what} None-ness must round-trip"),
            };
            assert_close(a.wall_ms_serial, b.wall_ms_serial, "serial wall");
            assert_close(a.speedup_vs_serial, b.speedup_vs_serial, "speedup");
            assert_close(a.speedup_ci_low, b.speedup_ci_low, "speedup CI low");
            assert_close(a.speedup_ci_high, b.speedup_ci_high, "speedup CI high");
            assert_eq!(a.repeats, b.repeats);
            assert_eq!(a.peak_rss_kb, b.peak_rss_kb);
            assert_eq!(a.wall_ms_trials.len(), b.wall_ms_trials.len());
            for (x, y) in a.wall_ms_trials.iter().zip(&b.wall_ms_trials) {
                assert!((x - y).abs() < 1e-3);
            }
            assert!((a.events_per_sec_ci_low - b.events_per_sec_ci_low).abs() < 1.0);
            assert!((a.events_per_sec_ci_high - b.events_per_sec_ci_high).abs() < 1.0);
            assert_eq!(a.wall_ms_parallel_trials.len(), b.wall_ms_parallel_trials.len());
            for (x, y) in a.wall_ms_parallel_trials.iter().zip(&b.wall_ms_parallel_trials) {
                assert!((x - y).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn speedup_ci_is_null_off_dual_timed_scenarios() {
        let json = sample().to_json();
        assert!(json.contains("\"speedup_ci_low\": null"), "{json}");
        assert!(json.contains("\"speedup_ci_high\": 3.9000"), "{json}");
        // Reports written before the field became optional carry a 0.0
        // placeholder; they still load.
        let legacy = json.replace("\"speedup_ci_low\": null", "\"speedup_ci_low\": 0.0000");
        let parsed = BenchReport::from_json(&legacy).expect("0.0 placeholder parses");
        assert_eq!(parsed.scenarios[0].speedup_ci_low, Some(0.0));
        assert_eq!(parsed.scenarios[0].speedup_ci_high, None);
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
        let (low, high) = speedup_ci(&serial, &parallel).expect("5 trials per leg");
        assert!(low > 3.8 && high < 4.2, "tight legs must give a tight CI, got [{low}, {high}]");
        // A noisy parallel leg widens the interval downward — the lower
        // bound is what the scaling gate binds on.
        let noisy = [40.0, 80.0, 39.8, 75.0, 40.2];
        let (noisy_low, _) = speedup_ci(&serial, &noisy).expect("5 trials per leg");
        assert!(noisy_low < low, "noise must drag the lower bound down: {noisy_low} vs {low}");
        // Single-trial legs: no interval.
        assert_eq!(speedup_ci(&[160.0], &parallel), None);
        assert_eq!(speedup_ci(&serial, &[40.0]), None);
    }

    #[test]
    fn summary_markdown_renders_deltas_and_verdicts() {
        let mut baseline = sample();
        let mut current = sample();
        current.scenarios[0].events_per_sec *= 1.10;
        current.scenarios[1].events_per_sec /= 3.0;
        for t in &mut current.scenarios[1].wall_ms_trials {
            *t *= 3.0; // a real slowdown: walls stretch with the rate
        }
        // A set-up scenario runs a few hundred constructions per second.
        let setup = ScenarioReport {
            name: "service_setup".to_string(),
            events_per_sec: 319.4,
            ..baseline.scenarios[0].clone()
        };
        baseline.scenarios.push(setup.clone());
        current.scenarios.push(setup);
        let md = summary_markdown(&current, Some((&baseline, 2.0)));
        assert!(md.contains("| static_1x1 |"), "{md}");
        assert!(md.contains("| 11.09M/s |"), "{md}");
        assert!(md.contains("| 319.4/s |") && !md.contains("0.00M"), "{md}");
        assert!(md.contains("+10.0%"), "{md}");
        assert!(md.contains("✅ ok"), "{md}");
        assert!(md.contains("❌ fail"), "{md}");
        assert!(md.contains("3.77x"), "dual-timed scenario must show its speedup: {md}");
        // Without a baseline the table still renders, ungated.
        let md = summary_markdown(&current, None);
        assert!(md.contains("n/a"), "{md}");
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let mut report = sample();
        report.schema = "tpv-perf/1".to_string();
        let err = BenchReport::from_json(&report.to_json()).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
    }

    #[test]
    fn malformed_json_is_rejected_not_panicked() {
        for bad in [
            "",
            "{",
            "{\"schema\": }",
            "[1,2",
            "{\"schema\":\"tpv-perf/1\"} extra",
            "{\"schema\": \"tpv-perf/5\"}",
        ] {
            assert!(BenchReport::from_json(bad).is_err(), "{bad:?} should fail");
        }
        // Every truncation of a real report short of its closing brace.
        let end = REPORT_EXCERPT.trim_end().len() - 1;
        for cut in (0..end).filter(|&i| REPORT_EXCERPT.is_char_boundary(i)) {
            assert!(BenchReport::from_json(&REPORT_EXCERPT[..cut]).is_err(), "truncated at byte {cut}");
        }
        // A missing key, a value of the wrong kind or a layout the writer
        // does not produce: each is an error naming the line.
        let missing: Vec<&str> = REPORT_EXCERPT.lines().filter(|l| !l.contains("\"requests\"")).collect();
        let err = BenchReport::from_json(&missing.join("\n")).unwrap_err();
        assert!(err.starts_with("line 14:") && err.contains("\"requests\""), "{err}");
        for (old, new) in [
            ("\"events\": 700000", "\"events\": \"700000\""),
            ("\"events\": 700000", "\"events\": -7"),
            ("\"wall_ms_median\": 32.6986", "\"wall_ms_median\": fast"),
            ("\"wall_ms_median\": 32.6986", "\"wall_ms_median\": 32.69860"),
            ("[32.3871,", "[x,"),
            ("\"quick\": true", "\"quick\": 1"),
            ("\"samplers\"", "samplers"),
            ("\"runner\": {", "\"runner\": ["),
            ("\n  ]\n}", "\n  ]\n}\n{}"),
        ] {
            let err = BenchReport::from_json(&REPORT_EXCERPT.replace(old, new)).expect_err(new);
            assert!(err.starts_with("line "), "{new}: {err}");
        }
    }

    #[test]
    fn compare_passes_within_tolerance_and_fails_beyond() {
        let baseline = sample();
        // Identical performance: all Ok.
        let verdicts = compare(&baseline, &baseline, 2.0);
        assert!(verdicts.iter().all(|v| matches!(v, Verdict::Ok { .. })), "{verdicts:?}");

        // 1.5x slower: warns but does not fail under the 2x gate.
        let mut slower = baseline.clone();
        for s in &mut slower.scenarios {
            s.events_per_sec /= 1.5;
        }
        let verdicts = compare(&slower, &baseline, 2.0);
        assert!(verdicts.iter().all(|v| matches!(v, Verdict::Warn { .. })), "{verdicts:?}");

        // 3x slower — walls stretched to match, so the slowdown is both
        // beyond the gate and Mann-Whitney significant: fails.
        let mut much_slower = baseline.clone();
        for s in &mut much_slower.scenarios {
            s.events_per_sec /= 3.0;
            for t in &mut s.wall_ms_trials {
                *t *= 3.0;
            }
        }
        let verdicts = compare(&much_slower, &baseline, 2.0);
        assert!(verdicts.iter().all(|v| matches!(v, Verdict::Fail { .. })), "{verdicts:?}");
    }

    #[test]
    fn compare_downgrades_insignificant_breaches() {
        let mut baseline = sample();
        let mut current = sample();
        // Median events/sec breaches the 2x gate, but the trial spreads
        // interleave — no statistically detectable slowdown.
        baseline.scenarios.truncate(1);
        current.scenarios.truncate(1);
        baseline.scenarios[0].wall_ms_trials = vec![10.0, 1_000.0, 12.0, 1_002.0];
        current.scenarios[0].wall_ms_trials = vec![11.0, 1_001.0, 13.0, 1_003.0];
        current.scenarios[0].events_per_sec = baseline.scenarios[0].events_per_sec / 3.0;
        let verdicts = compare(&current, &baseline, 2.0);
        assert!(
            matches!(&verdicts[0], Verdict::Warn { reason, .. } if reason.contains("overlap")),
            "an insignificant breach must warn, not fail: {verdicts:?}"
        );

        // Strip the trial samples (too few for the test): the median
        // ratio stands alone again and the same breach hard-fails.
        baseline.scenarios[0].wall_ms_trials.clear();
        current.scenarios[0].wall_ms_trials.clear();
        let verdicts = compare(&current, &baseline, 2.0);
        assert!(
            matches!(&verdicts[0], Verdict::Fail { .. }),
            "without trial samples the ratio gate must still bind: {verdicts:?}"
        );
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

    #[test]
    fn compare_flags_work_drift_and_missing_scenarios() {
        let baseline = sample();
        let mut drifted = baseline.clone();
        drifted.scenarios[0].events += 1;
        let verdicts = compare(&drifted, &baseline, 2.0);
        assert!(
            matches!(&verdicts[0], Verdict::Warn { reason, .. } if reason.contains("work counters")),
            "{verdicts:?}"
        );

        // Drift must not mask a hard regression: both verdicts surface.
        let mut drifted_and_slow = baseline.clone();
        drifted_and_slow.scenarios[0].events += 1;
        drifted_and_slow.scenarios[0].events_per_sec /= 3.0;
        for t in &mut drifted_and_slow.scenarios[0].wall_ms_trials {
            *t *= 3.0;
        }
        let verdicts = compare(&drifted_and_slow, &baseline, 2.0);
        assert!(
            verdicts
                .iter()
                .any(|v| matches!(v, Verdict::Warn { reason, .. } if reason.contains("work counters"))),
            "{verdicts:?}"
        );
        assert!(
            verdicts.iter().any(|v| matches!(v, Verdict::Fail { .. })),
            "a 3x slowdown must fail even when counters drifted: {verdicts:?}"
        );

        let mut missing = baseline.clone();
        missing.scenarios.remove(1);
        let verdicts = compare(&missing, &baseline, 2.0);
        assert!(
            verdicts.iter().any(|v| matches!(v, Verdict::Warn { reason, .. } if reason.contains("missing"))),
            "{verdicts:?}"
        );

        // The asymmetric case: a scenario the baseline has never seen is
        // ungated and must warn, not pass silently.
        let mut extra = baseline.clone();
        extra.scenarios.push(ScenarioReport {
            name: "brand_new".to_string(),
            trials: 5,
            events: 1,
            requests: 1,
            wall_ms_median: 1.0,
            wall_ms_cov: 0.0,
            events_per_sec: 1.0,
            wall_ms_serial: None,
            speedup_vs_serial: None,
            repeats: 1,
            peak_rss_kb: 0,
            wall_ms_trials: Vec::new(),
            ..ScenarioReport::default()
        });
        let verdicts = compare(&extra, &baseline, 2.0);
        assert!(
            verdicts.iter().any(
                |v| matches!(v, Verdict::Warn { scenario, reason, .. } if scenario == "brand_new" && reason.contains("ungated"))
            ),
            "{verdicts:?}"
        );
    }
}
