//! Worker-thread core pinning for the sharded runner.
//!
//! The paper's testbed pins its server threads to cores to keep
//! scheduler migrations out of the measurement (§IV-B pins memcached's
//! 10 workers on one socket); this module gives the *simulator's own*
//! shard workers the same treatment. A migrated worker drags its working
//! set across LLC domains mid-run, which shows up as wall-clock
//! variability in the very benchmark harness (`perf_probe`) this
//! repository uses to gate kernel regressions — pinning trades a little
//! scheduler freedom for steadier trial-to-trial timings on multi-core
//! runners.
//!
//! Pinning is **off by default** ([`PinPolicy::Off`]) and purely a
//! placement decision: shard results are bit-identical with pinning on,
//! off, or unsupported, because shard results merge exactly in any
//! order, whatever thread ran which shard —
//! `tests/shard_runtime.rs` asserts exactly that. On non-Linux targets (and on
//! kernels that reject the affinity call) pinning degrades to a no-op.
//!
//! The only `unsafe` in the workspace lives here: one direct
//! `sched_setaffinity(2)` declaration, scoped to this module behind
//! `#[allow(unsafe_code)]` while the crate as a whole stays
//! `#![deny(unsafe_code)]`.

/// Placement policy for the sharded runner's worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PinPolicy {
    /// Let the OS scheduler place workers (the default).
    #[default]
    Off,
    /// Pin worker `w` to CPU `w % available_parallelism`, round-robin.
    ///
    /// Best-effort: unsupported targets and failed affinity calls are
    /// ignored (the worker simply runs unpinned), so results never
    /// depend on the policy actually sticking.
    RoundRobin,
}

impl PinPolicy {
    /// Applies the policy to the calling thread as worker `worker` of a
    /// pool. Returns whether an affinity mask was actually installed —
    /// informational only; callers must not branch results on it.
    pub fn apply(self, worker: usize) -> bool {
        match self {
            PinPolicy::Off => false,
            PinPolicy::RoundRobin => {
                let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
                sys::pin_current_thread(worker % cores)
            }
        }
    }
}

#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod sys {
    /// CPU mask sized for 1024 CPUs — the kernel's default `cpu_set_t`
    /// width, expressed as `u64` words.
    const MASK_WORDS: usize = 16;

    extern "C" {
        /// `sched_setaffinity(2)`, linked from the libc `std` already
        /// pulls in. `pid == 0` targets the calling thread.
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// Pins the calling thread to `cpu`. Best-effort: returns `false`
    /// when the CPU index exceeds the mask or the kernel refuses.
    pub fn pin_current_thread(cpu: usize) -> bool {
        let mut mask = [0u64; MASK_WORDS];
        let Some(word) = mask.get_mut(cpu / 64) else {
            return false;
        };
        *word = 1u64 << (cpu % 64);
        // SAFETY: `mask` is a live, properly aligned `[u64; 16]` for the
        // whole call and `cpusetsize` is exactly its byte length;
        // `sched_setaffinity` only reads `cpusetsize` bytes from it and
        // touches no other user memory. pid 0 names the calling thread,
        // so no foreign process state is involved.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<[u64; MASK_WORDS]>(), mask.as_ptr()) };
        rc == 0
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    /// Non-Linux targets have no `sched_setaffinity`; pinning is a no-op.
    pub fn pin_current_thread(_cpu: usize) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_never_pins() {
        assert!(!PinPolicy::Off.apply(0));
        assert!(!PinPolicy::Off.apply(7));
    }

    #[test]
    fn round_robin_is_best_effort_and_wraps() {
        // Whatever the platform answers, the call must not panic and the
        // worker index may exceed the core count (round-robin wrap).
        let _ = PinPolicy::RoundRobin.apply(0);
        let _ = PinPolicy::RoundRobin.apply(usize::MAX % 4096);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn round_robin_pins_on_linux() {
        // CPU 0 always exists; the affinity call should succeed inside
        // any standard cpuset.
        assert!(PinPolicy::RoundRobin.apply(0));
    }

    #[test]
    fn default_is_off() {
        assert_eq!(PinPolicy::default(), PinPolicy::Off);
    }
}
