//! Scheduler observability: per-worker and aggregated counters.
//!
//! The counters exist for three reasons: the degenerate-case claim of the
//! paper ("if all tasks require `r = 1` … the additional CAS … are never
//! executed") is directly testable through them, the perf harness reports
//! them, and they make scheduler tests meaningful (e.g. "stealing actually
//! happened" rather than "the result happened to be correct").
//!
//! Every scalar counter is declared exactly once, in the `counters!` table
//! below; the per-worker [`WorkerCounters`], the [`MetricsSnapshot`] copy,
//! its arithmetic and the by-name accessors the report writer and parser use
//! are all generated from that table.  Adding a counter takes one table line
//! plus its increment site (`counters.<name>.inc()`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of buckets in the wake-latency histogram.
pub const WAKE_LATENCY_BUCKETS: usize = 8;

/// Upper bounds (exclusive, in microseconds) of the wake-latency buckets;
/// the last bucket is unbounded.  Factor-4 spacing from 1 µs to 4 ms covers
/// everything between "futex fast path" and "the backstop fired".
pub const WAKE_LATENCY_BOUNDS_US: [u64; WAKE_LATENCY_BUCKETS - 1] =
    [1, 4, 16, 64, 256, 1024, 4096];

/// Index of the bucket a wake latency falls into.
fn wake_latency_bucket(latency: Duration) -> usize {
    let us = latency.as_micros() as u64;
    WAKE_LATENCY_BOUNDS_US
        .iter()
        .position(|&bound| us < bound)
        .unwrap_or(WAKE_LATENCY_BUCKETS - 1)
}

/// One relaxed event counter, bumped only by the worker that owns it and
/// read by snapshots from any thread.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Generates [`WorkerCounters`], [`MetricsSnapshot`] and their by-name
/// accessors from one list of `/// doc` + `name` entries; everything else
/// field-wise goes through the accessors.  The list order is the schema
/// order of the `metrics` object in `BENCH_*.json`.
macro_rules! counters {
    ($($(#[doc = $doc:literal])+ $name:ident,)+) => {
        /// Relaxed event counters owned by one worker.
        #[derive(Debug, Default)]
        pub struct WorkerCounters {
            $($(#[doc = $doc])+ pub $name: Counter,)+
            /// Histogram of notification-to-wake latencies for parks that
            /// were explicitly claimed by a notifier (bucket bounds:
            /// [`WAKE_LATENCY_BOUNDS_US`]).
            pub wake_latency: [Counter; WAKE_LATENCY_BUCKETS],
        }

        /// A point-in-time copy of the counters, either of one worker or
        /// aggregated over the whole scheduler.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $($(#[doc = $doc])+ pub $name: u64,)+
            /// Notification-to-wake latency histogram for claimed parks.
            pub wake_latency: WakeLatencyHistogram,
        }

        impl WorkerCounters {
            /// The scalar counters as `(name, counter)` pairs, in schema
            /// order.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, &Counter)> {
                [$((stringify!($name), &self.$name)),+].into_iter()
            }
        }

        impl MetricsSnapshot {
            /// The scalar counters as `(name, value)` pairs, in schema order.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($name), self.$name)),+].into_iter()
            }

            /// The scalar counters as `(name, &mut value)` pairs, in schema
            /// order.
            pub fn counters_mut(&mut self) -> impl Iterator<Item = (&'static str, &mut u64)> {
                [$((stringify!($name), &mut self.$name)),+].into_iter()
            }
        }
    };
}

counters! {
    /// Sequential (`r = 1`) tasks executed.
    tasks_executed,
    /// Team-task executions, counted once per participating worker.
    team_tasks_executed,
    /// Teams formed, counted at the coordinator.
    teams_formed,
    /// Successful joins of a foreign coordinator's team (each one is
    /// exactly one CAS — the paper's "single extra CAS").
    registrations,
    /// Successful steal operations (at least one task transferred).
    steals,
    /// Tasks received through stealing.
    tasks_stolen,
    /// Steal rounds that visited every partner without finding anything.
    failed_steal_rounds,
    /// Steals performed while helping a smaller task during coordination
    /// (Algorithm 8, lines 21–29).
    help_steals,
    /// Tasks spawned from running tasks.
    tasks_spawned,
    /// CAS failures observed on registration structures.
    cas_failures,
    /// Task nodes served from a worker's recycling arena instead of fresh
    /// memory (divided by the spawned tasks: the arena hit rate).
    nodes_recycled,
    /// Externally injected root tasks pulled from the injection queue,
    /// including those dropped at pop time as expired or cancelled, so the
    /// local and remote injector pops below sum to it exactly.
    tasks_injected,
    /// Injected tasks popped from the popping worker's **own** domain
    /// shard (DESIGN.md §13).  The remote share of all injector pops is
    /// the locality cost of injection.
    injector_local_pops,
    /// Injected tasks popped from a foreign domain's shard during the
    /// distance-ordered sweep.
    injector_remote_pops,
    /// Exhaustion-backoff episodes of external submitters waiting for a
    /// free epoch-pin slot (always zero per worker; filled in by the
    /// scheduler-wide aggregate, which owns the shared pin array).
    external_pin_waits,
    /// Times the liveness backstop fired (coordinator re-announcement or
    /// member re-registration after a long unproductive poll).  Zero in
    /// healthy runs.
    liveness_resyncs,
    /// Consumed injection-queue segments freed while collecting the epoch
    /// domain at a quiescent point (DESIGN.md §11).
    segments_reclaimed,
    /// Retired deque growth buffers freed while collecting the epoch domain.
    buffers_reclaimed,
    /// Global epoch advances won by collection calls.
    epoch_advances,
    /// Times a worker committed an eventcount park (blocked on the OS
    /// instead of sleep-polling; DESIGN.md §12).
    parks,
    /// Parks that ended through an explicit notification (a targeted claim
    /// or a ticket movement) rather than the defensive backstop.
    wakeups,
    /// Parks that ended through the backstop timeout.  (Almost) zero in
    /// healthy runs; growth means a state change forgot its notify call.
    spurious_wakes,
    /// Team-task publications onto a *freshly built* team: the coordinator
    /// paid the full §8 protocol (partner visits, registration, countdown).
    /// With the warm reuses below it gives the reuse hit rate (DESIGN.md
    /// §15).
    teams_built,
    /// Team-task publications onto a still-warm team from a previous task:
    /// the build protocol was skipped — one `try_reuse` load plus the
    /// publication seqlock write.
    team_reuses,
    /// Elastic-shrink events: an executing team released its members back
    /// to the steal loop at a barrier because injector depth / sleeper
    /// pressure crossed the configured threshold (DESIGN.md §15).
    team_shrinks,
    /// Successful steal operations whose victim shares the thief's
    /// hierarchy domain (DESIGN.md §13/§15); the remote share of all
    /// classified steal operations is the cross-domain steal share.
    steals_local,
    /// Successful steal operations from a victim in a foreign hierarchy
    /// domain.
    steals_remote,
    /// Tasks dropped without running because their deadline had already
    /// passed when a worker picked them up (DESIGN.md §17).  The scope
    /// countdown and completion accounting still fire exactly once.
    tasks_expired,
    /// Tasks dropped without running because their cancel token was
    /// cancelled before the claim-to-run CAS (DESIGN.md §17).
    tasks_cancelled,
    /// Admission retries performed by the service layer's `RetryPolicy`
    /// (always zero per worker; filled in by the service report and
    /// load-generator aggregation, like the external pin waits).
    retry_attempts,
}

impl WorkerCounters {
    /// Snapshot of this worker's counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snapshot = MetricsSnapshot {
            wake_latency: WakeLatencyHistogram {
                buckets: std::array::from_fn(|i| self.wake_latency[i].get()),
            },
            ..MetricsSnapshot::default()
        };
        // Both iterators walk the one counter table, so they pair up.
        for ((_, slot), (_, counter)) in snapshot.counters_mut().zip(self.counters()) {
            *slot = counter.get();
        }
        snapshot
    }

    /// Records one notification-to-wake latency sample.
    #[inline]
    pub fn record_wake_latency(&self, latency: Duration) {
        self.wake_latency[wake_latency_bucket(latency)].inc();
    }
}

/// A point-in-time copy of the wake-latency histogram (bucket bounds:
/// [`WAKE_LATENCY_BOUNDS_US`], last bucket unbounded).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WakeLatencyHistogram {
    /// Sample count per bucket.
    pub buckets: [u64; WAKE_LATENCY_BUCKETS],
}

impl WakeLatencyHistogram {
    /// Total recorded samples.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Upper bound (µs) of the bucket containing the p-th percentile sample,
    /// or `None` when there are no samples or the percentile lands in the
    /// unbounded last bucket.  A coarse but monotone latency summary: "p95
    /// ≤ 16 µs" style statements, which is all the regression gate needs.
    ///
    /// ```
    /// use teamsteal_core::WakeLatencyHistogram;
    ///
    /// let h = WakeLatencyHistogram { buckets: [90, 8, 2, 0, 0, 0, 0, 0] };
    /// assert_eq!(h.percentile_bound_us(50.0), Some(1));
    /// assert_eq!(h.percentile_bound_us(95.0), Some(4));
    /// assert_eq!(h.percentile_bound_us(99.0), Some(16));
    /// ```
    pub fn percentile_bound_us(&self, p: f64) -> Option<u64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let rank = (p / 100.0 * total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank.max(1) {
                return WAKE_LATENCY_BOUNDS_US.get(i).copied();
            }
        }
        None
    }

    /// Element-wise sum.
    pub fn merge(self, other: WakeLatencyHistogram) -> WakeLatencyHistogram {
        WakeLatencyHistogram {
            buckets: std::array::from_fn(|i| self.buckets[i] + other.buckets[i]),
        }
    }

    /// Element-wise difference, saturating at zero.
    pub fn delta_since(&self, earlier: &WakeLatencyHistogram) -> WakeLatencyHistogram {
        WakeLatencyHistogram {
            buckets: std::array::from_fn(|i| {
                self.buckets[i].saturating_sub(earlier.buckets[i])
            }),
        }
    }
}

impl MetricsSnapshot {
    /// Element-wise sum of two snapshots.
    ///
    /// ```
    /// use teamsteal_core::MetricsSnapshot;
    ///
    /// let a = MetricsSnapshot { steals: 2, ..Default::default() };
    /// let b = MetricsSnapshot { steals: 3, teams_formed: 1, ..Default::default() };
    /// let sum = a.merge(b);
    /// assert_eq!(sum.steals, 5);
    /// assert_eq!(sum.teams_formed, 1);
    /// ```
    pub fn merge(self, other: MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            wake_latency: self.wake_latency.merge(other.wake_latency),
            ..self.zip_with(&other, |a, b| a + b)
        }
    }

    /// Element-wise difference `self - earlier`, saturating at zero.
    ///
    /// Scheduler counters are cumulative over the scheduler's lifetime; to
    /// attribute events to one measured region, snapshot before and after and
    /// diff.  Saturation (rather than panicking) keeps the result sane if the
    /// two snapshots are accidentally swapped.
    ///
    /// ```
    /// use teamsteal_core::Scheduler;
    ///
    /// let scheduler = Scheduler::with_threads(2);
    /// let before = scheduler.metrics();
    /// scheduler.run_team(2, |ctx| {
    ///     ctx.barrier();
    /// });
    /// let delta = scheduler.metrics().delta_since(&before);
    /// assert_eq!(delta.teams_formed, 1);
    /// ```
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            wake_latency: self.wake_latency.delta_since(&earlier.wake_latency),
            ..self.zip_with(earlier, u64::saturating_sub)
        }
    }

    /// Total number of task executions (sequential + team participations).
    ///
    /// ```
    /// use teamsteal_core::MetricsSnapshot;
    ///
    /// let s = MetricsSnapshot { tasks_executed: 3, team_tasks_executed: 4, ..Default::default() };
    /// assert_eq!(s.total_executions(), 7);
    /// ```
    pub fn total_executions(&self) -> u64 {
        self.tasks_executed + self.team_tasks_executed
    }

    /// Applies `f` field-wise to the scalar counters of `self` and
    /// `other`; the histogram is left to the caller.
    fn zip_with(&self, other: &MetricsSnapshot, f: impl Fn(u64, u64) -> u64) -> MetricsSnapshot {
        let mut out = *self;
        for ((_, a), (_, b)) in out.counters_mut().zip(other.counters()) {
            *a = f(*a, b);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero_and_increment() {
        let c = WorkerCounters::default();
        assert_eq!(c.snapshot(), MetricsSnapshot::default());
        c.tasks_executed.inc();
        c.tasks_executed.inc();
        c.teams_formed.inc();
        c.tasks_stolen.add(5);
        c.record_wake_latency(Duration::from_micros(2));
        let s = c.snapshot();
        assert_eq!(s.tasks_executed, 2);
        assert_eq!(s.teams_formed, 1);
        assert_eq!(s.tasks_stolen, 5);
        assert_eq!(s.total_executions(), 2);
        assert_eq!(s.wake_latency.buckets, [0, 1, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn every_counter_has_a_working_incrementer() {
        let c = WorkerCounters::default();
        for (i, (_, counter)) in c.counters().enumerate() {
            counter.add(i as u64 + 1);
        }
        // Each counter's increments land in its own snapshot field, under
        // its own name, and every name is distinct.
        let s = c.snapshot();
        let by_worker: Vec<(&str, u64)> = c.counters().map(|(n, k)| (n, k.get())).collect();
        let by_snapshot: Vec<(&str, u64)> = s.counters().collect();
        assert_eq!(by_worker, by_snapshot);
        assert_eq!(s.tasks_executed, 1);
        assert_eq!(s.retry_attempts, by_snapshot.len() as u64);
        let mut names: Vec<&str> = by_snapshot.iter().map(|&(n, _)| n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), by_snapshot.len(), "duplicate counter name");
        // Writes through `counters_mut` reach the same fields.
        let mut t = MetricsSnapshot::default();
        for ((_, slot), (_, v)) in t.counters_mut().zip(s.counters()) {
            *slot = v;
        }
        assert_eq!(t, s);
        // Merge and delta cover every counter.
        assert!(s.merge(s).counters().zip(s.counters()).all(|((_, d), (_, v))| d == 2 * v));
        assert!(s.delta_since(&s).counters().all(|(_, v)| v == 0));
    }

    #[test]
    fn wake_latency_buckets_cover_the_range() {
        let c = WorkerCounters::default();
        c.record_wake_latency(Duration::from_nanos(100)); // < 1 µs
        c.record_wake_latency(Duration::from_micros(3)); // [1, 4)
        c.record_wake_latency(Duration::from_micros(100)); // [64, 256)
        c.record_wake_latency(Duration::from_millis(50)); // >= 4096 µs
        let h = c.snapshot().wake_latency;
        assert_eq!(h.buckets, [1, 1, 0, 0, 1, 0, 0, 1]);
        assert_eq!(h.total(), 4);
        assert_eq!(h.percentile_bound_us(50.0), Some(4));
        assert_eq!(h.percentile_bound_us(100.0), None, "top bucket unbounded");
        assert_eq!(WakeLatencyHistogram::default().percentile_bound_us(95.0), None);
        // Merge and delta are element-wise.
        let merged = h.merge(h);
        assert_eq!(merged.total(), 8);
        assert_eq!(merged.delta_since(&h), h);
    }

    #[test]
    fn delta_since_subtracts_and_saturates() {
        let earlier = MetricsSnapshot {
            tasks_executed: 5,
            steals: 2,
            ..Default::default()
        };
        let later = MetricsSnapshot {
            tasks_executed: 9,
            steals: 2,
            registrations: 4,
            ..Default::default()
        };
        let d = later.delta_since(&earlier);
        assert_eq!(d.tasks_executed, 4);
        assert_eq!(d.steals, 0);
        assert_eq!(d.registrations, 4);
        // Swapped operands saturate instead of underflowing.
        let swapped = earlier.delta_since(&later);
        assert_eq!(swapped.tasks_executed, 0);
        assert_eq!(swapped.registrations, 0);
    }

    #[test]
    fn merge_adds_fields() {
        let a = MetricsSnapshot {
            tasks_executed: 1,
            steals: 2,
            ..Default::default()
        };
        let b = MetricsSnapshot {
            tasks_executed: 10,
            registrations: 3,
            ..Default::default()
        };
        let m = a.merge(b);
        assert_eq!(m.tasks_executed, 11);
        assert_eq!(m.steals, 2);
        assert_eq!(m.registrations, 3);
    }
}
