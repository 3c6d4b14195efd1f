//! The host-speed reference: a fixed floating-point job that uses none of
//! the repository's code, run between timed passes on as many threads as
//! the workload has workers. Its host time tracks how fast the machine
//! runs at that moment, not how fast the program is, so dividing a pass's
//! time by it removes the machine's drift and keeps the program's speed.
//!
//! A dependent chain of multiplies and adds was chosen over a
//! memory-bound job by measurement: on a shared 2-vCPU VM the chain's
//! slowdowns tracked both workloads' (slope 1.2 in log–log across runs),
//! while a random-access loop over a 4 MiB table slowed two to three
//! times as much as the workloads did and widened their spread.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Iterations of the chain per thread.
const STEPS: u64 = 4_000_000;

/// The reference job's time on an idle 2-vCPU Intel Xeon VM. Times are
/// reported as if every pass had run at that speed.
pub const NOMINAL: Duration = Duration::from_millis(80);

fn chain(salt: u64) -> f64 {
    let mut x = 1.0 + salt as f64 * 1e-3;
    let mut acc = 0.0;
    for i in 0..STEPS {
        let y = x * (1.0 + x * (0.5 + x * (0.1666 + x * (0.0416 + x * 0.0083))));
        acc += y;
        x = 0.5 + (y - y.floor()) * 0.4 + (i & 7) as f64 * 1e-9;
    }
    acc
}

/// Runs the reference job on `threads` threads at once and returns the
/// host time until all have finished.
pub fn reference(threads: usize) -> Duration {
    let start = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads as u64).map(|t| s.spawn(move || chain(black_box(t)))).collect();
        for h in handles {
            black_box(h.join().expect("the reference job does not panic"));
        }
    });
    start.elapsed()
}
