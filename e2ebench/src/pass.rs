//! What one measured pass over a workload yields, and the run clock.

use std::sync::OnceLock;
use std::time::Instant;

use teamsteal_core::MetricsSnapshot;

use crate::stats::{median_f64, percentile};
use crate::trace::SpanLog;

/// Nanoseconds since the first call in this process: the one clock every
/// timestamp, latency and span of a run is read from.
#[inline]
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Admission counters of one service pass, summed over the tenants.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceCounts {
    pub offered: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub shed: u64,
    pub drain_rejected: u64,
    pub completed: u64,
    pub drain_ms: f64,
}

impl ServiceCounts {
    /// Violations of the service's accounting identities after a drain:
    /// every offer is admitted or refused once, and every admitted task
    /// completes.  Returns how many tasks the books are off by (0 = clean).
    pub fn violations(&self) -> u64 {
        let refused = self.rejected + self.shed + self.drain_rejected;
        self.offered.abs_diff(self.admitted + refused) + self.admitted.abs_diff(self.completed)
    }
}

/// One completed operation: when it ended (or was due) and its latency.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    pub at_ns: u64,
    pub latency_ns: u64,
}

/// A sub-window boundary: completed operations and CPU time of the system
/// under test, both cumulative.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub at_ns: u64,
    pub ops: u64,
    pub cpu_ns: u64,
}

/// The measured window of one pass.
///
/// A service pass marks sub-windows; its latency percentiles, throughput
/// and CPU per operation are the medians over the sub-windows, so a burst
/// of interference from outside the process moves few of them.  A sort
/// pass (one caller in a closed loop) reports medians over its sorts
/// instead: time windows would weight a slow spell by its length, since a
/// slow spell fills more windows with fewer sorts.
#[derive(Default)]
pub struct Pass {
    /// Operations (sorts or submissions) attempted in the window.
    pub attempted: u64,
    /// Operations that failed their output check or were refused, lost,
    /// expired or run more than once.
    pub failed: u64,
    /// One sample per completed operation (or an even subsample).
    pub samples: Vec<Sample>,
    /// Sub-window boundaries (service passes); a sample belongs to the
    /// window whose end is the first boundary at or after it.
    pub marks: Vec<Mark>,
    /// CPU time of each operation (sort passes).
    pub op_cpu_ns: Vec<f64>,
    /// Time between consecutive completions (sort passes: one caller in
    /// a closed loop).
    pub cycle_ns: Vec<f64>,
    /// Operations completed in the window.
    pub ops: u64,
    /// Scheduler counter deltas over the window.
    pub core: MetricsSnapshot,
    /// Allocation calls inside the window (traced passes only).
    pub allocations: u64,
    /// Spans recorded by a traced pass.
    pub spans: SpanLog,
    /// Service admission counters (service passes only).
    pub service: Option<ServiceCounts>,
}

impl Pass {
    /// Latency percentile `p` over all samples, in µs.
    pub fn pooled_latency_us(&self, p: f64) -> f64 {
        let mut v: Vec<u64> = self.samples.iter().map(|s| s.latency_ns).collect();
        percentile(&mut v, p) as f64 / 1e3
    }

    /// Latency percentile `p` in µs: the median over sub-windows of each
    /// one's percentile, or the pooled percentile without sub-windows.
    pub fn latency_us(&self, p: f64) -> f64 {
        if self.marks.len() < 2 {
            return self.pooled_latency_us(p);
        }
        let per_window: Vec<f64> = self
            .marks
            .windows(2)
            .filter_map(|w| {
                let mut v: Vec<u64> = self
                    .samples
                    .iter()
                    .filter(|s| s.at_ns > w[0].at_ns && s.at_ns <= w[1].at_ns)
                    .map(|s| s.latency_ns)
                    .collect();
                (!v.is_empty()).then(|| percentile(&mut v, p) as f64)
            })
            .collect();
        median_f64(&per_window) / 1e3
    }

    /// Completed operations per second: for one caller in a closed loop
    /// the inverse of the median time between completions, otherwise the
    /// median over sub-windows.  A window rate is a mean, which one slow
    /// sort among the dozen in a window moves.
    pub fn ops_per_s(&self) -> f64 {
        if !self.cycle_ns.is_empty() {
            return 1e9 / median_f64(&self.cycle_ns).max(1.0);
        }
        let rates: Vec<f64> = self
            .marks
            .windows(2)
            .map(|w| (w[1].ops - w[0].ops) as f64 * 1e9 / (w[1].at_ns - w[0].at_ns).max(1) as f64)
            .collect();
        median_f64(&rates)
    }

    /// CPU time per operation in ns: the median over sub-windows, or over
    /// operations without them.
    pub fn cpu_ns_per_op(&self) -> f64 {
        if self.marks.len() < 2 {
            return median_f64(&self.op_cpu_ns);
        }
        let per_op: Vec<f64> = self
            .marks
            .windows(2)
            .filter(|w| w[1].ops > w[0].ops)
            .map(|w| w[1].cpu_ns.saturating_sub(w[0].cpu_ns) as f64 / (w[1].ops - w[0].ops) as f64)
            .collect();
        median_f64(&per_op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_books_have_no_violations() {
        let c = ServiceCounts {
            offered: 10,
            admitted: 8,
            rejected: 1,
            shed: 1,
            drain_rejected: 0,
            completed: 8,
            drain_ms: 0.1,
        };
        assert_eq!(c.violations(), 0);
    }

    #[test]
    fn lost_and_unaccounted_tasks_are_violations() {
        let lost = ServiceCounts {
            offered: 10,
            admitted: 10,
            completed: 9,
            ..Default::default()
        };
        assert_eq!(lost.violations(), 1);
        let unaccounted = ServiceCounts {
            offered: 12,
            admitted: 10,
            completed: 10,
            ..Default::default()
        };
        assert_eq!(unaccounted.violations(), 2);
    }

    fn sample(at_ns: u64, latency_ns: u64) -> Sample {
        Sample { at_ns, latency_ns }
    }

    #[test]
    fn sub_window_medians_shrug_off_one_disturbed_window() {
        let mut pass = Pass::default();
        let ops = [0u64, 10, 20, 25, 50];
        let cpu = [0u64, 100, 200, 900, 1000];
        for i in 0..5 {
            pass.marks.push(Mark {
                at_ns: i as u64 * 1000,
                ops: ops[i],
                cpu_ns: cpu[i],
            });
        }
        // Windows 0, 1 and 3 see 10 µs latencies, window 2 sees 1 ms.
        for w in 0..4u64 {
            let latency = if w == 2 { 1_000_000 } else { 10_000 };
            for k in 1..=10 {
                pass.samples.push(sample(w * 1000 + k * 100, latency));
            }
        }
        assert_eq!(pass.latency_us(0.5), 10.0);
        assert_eq!(pass.pooled_latency_us(0.99), 1000.0);
        // Rates per window: 10, 10, 5, 25 ops per µs -> median 10.
        assert_eq!(pass.ops_per_s(), 10.0 * 1e6);
        // CPU per op: 10, 10, 140, 4 ns -> median 10.
        assert_eq!(pass.cpu_ns_per_op(), 10.0);
    }

    #[test]
    fn one_caller_rate_is_the_inverse_median_cycle() {
        let pass = Pass {
            cycle_ns: vec![100e6, 100e6, 400e6, 100e6, 90e6],
            ..Default::default()
        };
        assert_eq!(pass.ops_per_s(), 10.0);
    }

    #[test]
    fn without_windows_latency_and_cpu_are_per_operation_medians() {
        let pass = Pass {
            samples: (1..=100).map(|i| sample(i, i * 1000)).collect(),
            op_cpu_ns: vec![3.0, 1.0, 2.0],
            ..Default::default()
        };
        assert_eq!(pass.cpu_ns_per_op(), 2.0);
        assert_eq!(pass.latency_us(0.5), 50.0);
        assert_eq!(pass.latency_us(0.9), 90.0);
    }
}
