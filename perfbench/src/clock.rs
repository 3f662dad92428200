//! The clocks the benchmark reads from outside the program, and their
//! resolution.
//!
//! Per-thread CPU and run-queue time come from
//! `/proc/thread-self/schedstat` (fields 1 and 2, in ns). The unit is ns
//! but the kernel advances field 1 of a running thread only at scheduler
//! ticks and context switches, so its real resolution is the tick. The
//! benchmark measures that step at start-up and refuses to call a total
//! of fewer than [`RESOLVED_STEPS`] steps a measurement.

use std::time::{Duration, Instant};

/// A CPU or run-queue total below this many schedstat steps is reported
/// as unresolved, not as a measurement.
pub const RESOLVED_STEPS: u64 = 10;

/// `(cpu_ns, runq_ns)` of the calling thread: fields 1 and 2 of
/// `/proc/thread-self/schedstat`.
///
/// # Panics
/// Panics if the file is missing or malformed; `main` checks it once
/// before any work starts.
pub fn schedstat() -> (u64, u64) {
    try_schedstat().expect("/proc/thread-self/schedstat is readable (checked at start-up)")
}

/// As [`schedstat`], returning `None` where the kernel does not provide it.
pub fn try_schedstat() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().ok());
    Some((fields.next()??, fields.next()??))
}

/// Measured resolution of the two clocks.
#[derive(Clone, Copy, Debug)]
pub struct Resolution {
    /// Median step of schedstat field 1 while this thread spins, in ns.
    pub schedstat_step_ns: u64,
    /// Number of steps the median was taken over.
    pub schedstat_samples: usize,
    /// Smallest non-zero difference between two `Instant::now()` reads.
    pub instant_ns: u64,
}

impl Resolution {
    /// Measures both resolutions (spins one core for up to ~0.3 s).
    pub fn measure() -> Self {
        let (schedstat_step_ns, schedstat_samples) = schedstat_step();
        Resolution {
            schedstat_step_ns,
            schedstat_samples,
            instant_ns: instant_step(),
        }
    }

    /// Whether a schedstat total of `ns` spans enough steps to report.
    pub fn resolves(&self, ns: u64) -> bool {
        ns >= RESOLVED_STEPS * self.schedstat_step_ns
    }
}

/// Spins reading schedstat and returns the median non-zero advance of
/// field 1 and how many advances it saw.
fn schedstat_step() -> (u64, usize) {
    let deadline = Instant::now() + Duration::from_millis(300);
    let mut steps = Vec::new();
    let mut last = schedstat().0;
    while steps.len() < 50 && Instant::now() < deadline {
        let now = schedstat().0;
        if now != last {
            steps.push(now - last);
            last = now;
        }
    }
    if steps.is_empty() {
        // Field 1 never moved while spinning: report the whole spin as
        // one step so every total is judged unresolved.
        return (300_000_000, 0);
    }
    steps.sort_unstable();
    (steps[steps.len() / 2], steps.len())
}

/// Smallest non-zero gap between consecutive `Instant::now()` reads.
fn instant_step() -> u64 {
    let mut best = u64::MAX;
    let mut prev = Instant::now();
    for _ in 0..20_000 {
        let now = Instant::now();
        let gap = u64::try_from(now.duration_since(prev).as_nanos()).unwrap_or(u64::MAX);
        if gap > 0 {
            best = best.min(gap);
        }
        prev = now;
    }
    best
}
