//! Background interference on server machines.
//!
//! Even a "quiet" dedicated server runs daemons, kernel housekeeping and
//! occasional page-cache flushes. The paper's §V-C finds the *tuned*
//! configurations fail normality at high load — the signature of rare,
//! right-tailed disturbances amplified by queueing. This module models
//! them: per run, a Poisson process of CPU *spikes* lands on worker cores.
//!
//! A spike only collides with a worker when the socket is busy enough that
//! the scheduler cannot migrate it to an idle CPU, so its effective cost
//! scales with utilisation squared — negligible at the paper's 5 %
//! low-load points, queue-amplifying at 50 %+.

use serde::{Deserialize, Serialize};
use tpv_sim::dist::{Exponential, LogNormal, Sampler};
use tpv_sim::{SimDuration, SimRng, SimTime};

/// Interference magnitudes for a server machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterferenceProfile {
    /// Mean spike arrival rate (per second); the per-run rate is drawn
    /// exponentially around this, so some runs are clean and some noisy.
    pub mean_spikes_per_sec: f64,
    /// Mean CPU time of one spike.
    pub mean_spike_len: SimDuration,
    /// Log-space sigma of spike lengths.
    pub spike_len_sigma: f64,
}

impl InterferenceProfile {
    /// A dedicated, well-run server: a few millisecond-scale spikes per
    /// second across the whole socket.
    pub fn quiet_server() -> Self {
        InterferenceProfile {
            mean_spikes_per_sec: 3.0,
            mean_spike_len: SimDuration::from_ms(4),
            spike_len_sigma: 0.7,
        }
    }

    /// No interference at all (unit tests, ablations).
    pub fn none() -> Self {
        InterferenceProfile {
            mean_spikes_per_sec: 0.0,
            mean_spike_len: SimDuration::ZERO,
            spike_len_sigma: 0.0,
        }
    }
}

impl Default for InterferenceProfile {
    fn default() -> Self {
        InterferenceProfile::quiet_server()
    }
}

/// The spikes drawn for one run, assigned to workers.
#[derive(Debug, Clone)]
pub struct RunInterference {
    /// Per-worker queues of `(time, cpu_len)`, each sorted by time.
    per_worker: Vec<Vec<(SimTime, SimDuration)>>,
    /// Per-worker cursor of the next undelivered spike.
    cursor: Vec<usize>,
}

impl RunInterference {
    /// Draws the run's spike schedule.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn draw(
        profile: &InterferenceProfile,
        workers: usize,
        horizon: SimDuration,
        rng: &mut SimRng,
    ) -> Self {
        assert!(workers > 0, "a worker pool needs at least one worker");
        let mut per_worker = vec![Vec::new(); workers];
        if profile.mean_spikes_per_sec > 0.0 && !profile.mean_spike_len.is_zero() {
            // Per-run rate: exponential around the profile mean (heavy
            // run-to-run variation is the point).
            let run_rate = Exponential::with_mean(profile.mean_spikes_per_sec).sample(rng);
            if run_rate > 1e-9 {
                let gap = Exponential::with_mean(1.0 / run_rate);
                let len = LogNormal::with_mean(profile.mean_spike_len.as_us(), profile.spike_len_sigma);
                let mut t_s = gap.sample(rng); // seconds since run start
                while t_s < horizon.as_secs() {
                    let t = SimTime::from_ns((t_s * 1e9) as u64);
                    let worker = rng.next_index(workers);
                    per_worker[worker].push((t, len.sample_us(rng)));
                    t_s += gap.sample(rng);
                }
            }
        }
        let cursor = vec![0; workers];
        RunInterference { per_worker, cursor }
    }

    /// Empty schedule (no interference).
    pub fn empty(workers: usize) -> Self {
        RunInterference { per_worker: vec![Vec::new(); workers], cursor: vec![0; workers] }
    }

    /// Pops every spike on `worker` due at or before `now`, returning its
    /// unscaled `(time, cpu)` pairs. Most requests find nothing due, so
    /// the caller can defer computing its collision factor until this
    /// returns non-empty (see `WorkerPool::execute`).
    pub fn due_spikes(&mut self, worker: usize, now: SimTime) -> Vec<(SimTime, SimDuration)> {
        let spikes = &self.per_worker[worker];
        let cur = &mut self.cursor[worker];
        let start = *cur;
        while *cur < spikes.len() && spikes[*cur].0 <= now {
            *cur += 1;
        }
        spikes[start..*cur].to_vec()
    }

    /// Total number of spikes drawn for the run.
    pub fn total_spikes(&self) -> usize {
        self.per_worker.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_profile_draws_nothing() {
        let mut rng = SimRng::seed_from_u64(1);
        let ri =
            RunInterference::draw(&InterferenceProfile::none(), 10, SimDuration::from_secs(10), &mut rng);
        assert_eq!(ri.total_spikes(), 0);
    }

    #[test]
    fn rate_controls_spike_count_on_average() {
        let mut rng = SimRng::seed_from_u64(2);
        let profile = InterferenceProfile::quiet_server();
        let runs = 200;
        let total: usize = (0..runs)
            .map(|_| RunInterference::draw(&profile, 10, SimDuration::from_secs(1), &mut rng).total_spikes())
            .sum();
        let mean = total as f64 / runs as f64;
        // Mean of Exp(3) rate over 1 s ⇒ ~3 spikes, very dispersed.
        assert!((1.0..6.0).contains(&mean), "mean spikes {mean}");
    }

    #[test]
    fn spike_counts_vary_heavily_between_runs() {
        let mut rng = SimRng::seed_from_u64(3);
        let profile = InterferenceProfile::quiet_server();
        let counts: Vec<usize> = (0..50)
            .map(|_| RunInterference::draw(&profile, 10, SimDuration::from_secs(1), &mut rng).total_spikes())
            .collect();
        let distinct: std::collections::HashSet<_> = counts.iter().collect();
        assert!(distinct.len() >= 5, "counts {counts:?}");
        assert!(counts.contains(&0), "some runs should be clean");
    }

    #[test]
    fn due_spikes_delivers_in_order_and_once() {
        let mut ri = RunInterference::empty(2);
        ri.per_worker[0] = vec![
            (SimTime::from_us(10), SimDuration::from_us(100)),
            (SimTime::from_us(50), SimDuration::from_us(200)),
            (SimTime::from_us(90), SimDuration::from_us(300)),
        ];
        let due = ri.due_spikes(0, SimTime::from_us(60));
        assert_eq!(
            due,
            [
                (SimTime::from_us(10), SimDuration::from_us(100)),
                (SimTime::from_us(50), SimDuration::from_us(200)),
            ]
        );
        // Already-delivered spikes do not repeat.
        let again = ri.due_spikes(0, SimTime::from_us(60));
        assert!(again.is_empty());
        // Worker 1 has none.
        assert!(ri.due_spikes(1, SimTime::from_us(60)).is_empty());
    }
}
