//! Layer probes of the traced run: each calls one public function alone, on
//! one thread unless the layer is itself parallel, and records one span per
//! repetition.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use teamsteal_core::{CancelCell, Scheduler};
use teamsteal_deque::ShardedInjector;
use teamsteal_service::admission::TokenBucket;
use teamsteal_service::gate::DrainGate;
use teamsteal_sort::seq::{median_of_three, split_around};
use teamsteal_sort::{sequential_quicksort, std_sort, ParallelPartitioner, SortConfig};
use teamsteal_util::epoch::Domain;
use teamsteal_util::eventcount::EventCount;
use teamsteal_util::SendMutPtr;

use crate::pass::now_ns;
use crate::stats::median_f64;
use crate::trace::SpanLog;

/// Repetitions of each probe; its value is the median.
const REPS: usize = 5;
/// Calls per repetition of a single-thread ledger probe.
const LEDGER_CALLS: u64 = 200_000;
/// Empty scheduler round trips per repetition.
const ROUND_TRIPS: u64 = 200;

/// What the probes measured.
#[derive(Debug, Default, Clone)]
pub struct Probes {
    pub partition_ns_per_elem: f64,
    pub leaf_ns_per_elem: f64,
    pub seqqs_ms: f64,
    pub std_ms: f64,
    pub parallel_partition_ms: f64,
    pub parallel_partition_speedup: f64,
    pub run_empty_us: f64,
    pub run_team2_empty_us: f64,
    pub acquire_ns: f64,
    pub gate_ns: f64,
    pub injector_ns: f64,
    pub claim_ns: f64,
    pub notify_ns: f64,
    pub pin_ns: f64,
    /// Probe outputs that failed their check.
    pub failed: u64,
}

impl Probes {
    /// Sum of the single-thread ledger a plain submission passes through.
    pub fn ledger_sum_ns(&self) -> f64 {
        self.acquire_ns
            + self.gate_ns
            + self.injector_ns
            + self.claim_ns
            + self.notify_ns
            + self.pin_ns
    }
}

/// Runs `body` `REPS` times inside a span named `name`; returns the median
/// of `body`'s measured duration (ns) divided by `per`.
fn timed(
    log: &mut SpanLog,
    op: &mut u64,
    name: &'static str,
    per: f64,
    mut body: impl FnMut(),
) -> f64 {
    let mut values = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = now_ns();
        body();
        let t1 = now_ns();
        log.push(*op, name, None, t0, t1);
        *op += 1;
        values.push((t1 - t0) as f64 / per);
    }
    median_f64(&values)
}

/// Checks the partition contract: `data[..left] <= pivot < data[right..]`
/// and the gap holds only the pivot.
fn partitioned(data: &[u32], pivot: u32, left: usize, right: usize) -> bool {
    data[..left].iter().all(|&x| x <= pivot)
        && data[left..right].iter().all(|&x| x == pivot)
        && data[right..].iter().all(|&x| x > pivot)
}

/// Runs every probe.  `input` and `reference` are the sort input and its
/// sorted copy; `scheduler` is idle.
pub fn run(
    scheduler: &Scheduler,
    input: &[u32],
    reference: &[u32],
    log: &mut SpanLog,
    op_base: u64,
) -> Probes {
    let mut p = Probes::default();
    let mut op = op_base;
    let n = input.len();
    let config = SortConfig::default();
    let mut work = input.to_vec();

    // ---- sort.seq -------------------------------------------------------
    let mut seq_partition_ns = Vec::new();
    for _ in 0..REPS {
        work.copy_from_slice(input);
        let pivot = median_of_three(&work);
        let t0 = now_ns();
        let (left, right) = split_around(&mut work, pivot);
        let t1 = now_ns();
        log.push(op, "sort.seq.partition", None, t0, t1);
        op += 1;
        seq_partition_ns.push((t1 - t0) as f64);
        p.failed += u64::from(!partitioned(&work, pivot, left, right));
    }
    let seq_partition_ns = median_f64(&seq_partition_ns);
    p.partition_ns_per_elem = seq_partition_ns / n as f64;

    p.leaf_ns_per_elem = {
        let mut values = Vec::new();
        for _ in 0..REPS {
            work.copy_from_slice(input);
            let t0 = now_ns();
            for chunk in work.chunks_mut(config.cutoff) {
                std_sort(chunk);
            }
            let t1 = now_ns();
            log.push(op, "sort.seq.leaf", None, t0, t1);
            op += 1;
            values.push((t1 - t0) as f64 / n as f64);
            p.failed += u64::from(!work.chunks(config.cutoff).all(|c| c.is_sorted()));
        }
        median_f64(&values)
    };

    for (name, seqqs) in [("sort.seqqs", true), ("sort.std", false)] {
        let mut values = Vec::new();
        for _ in 0..REPS {
            work.copy_from_slice(input);
            let t0 = now_ns();
            if seqqs {
                sequential_quicksort(&mut work, &config);
            } else {
                std_sort(&mut work);
            }
            let t1 = now_ns();
            log.push(op, name, None, t0, t1);
            op += 1;
            values.push((t1 - t0) as f64 / 1e6);
            p.failed += u64::from(work != reference);
        }
        if seqqs {
            p.seqqs_ms = median_f64(&values);
        } else {
            p.std_ms = median_f64(&values);
        }
    }

    // ---- sort.parallel_partition ----------------------------------------
    let team = scheduler.num_threads().min(2);
    let mut values = Vec::new();
    for _ in 0..REPS {
        work.copy_from_slice(input);
        let pivot = median_of_three(&work);
        let partitioner = Arc::new(ParallelPartitioner::new(n, config.block_size, team));
        let ptr = SendMutPtr::from_slice(&mut work);
        let split = Arc::new(AtomicUsize::new(usize::MAX));
        let split_out = Arc::clone(&split);
        let t0 = now_ns();
        scheduler.run_team(team, move |ctx| {
            let s = partitioner.run(ctx, ptr, pivot);
            if ctx.local_id() == 0 {
                split_out.store(s, Ordering::Release);
            }
        });
        let t1 = now_ns();
        log.push(op, "sort.parallel_partition", None, t0, t1);
        op += 1;
        values.push((t1 - t0) as f64 / 1e6);
        let s = split.load(Ordering::Acquire);
        p.failed += u64::from(s > n || !partitioned(&work, pivot, s, s));
    }
    p.parallel_partition_ms = median_f64(&values);
    p.parallel_partition_speedup = seq_partition_ns / 1e6 / p.parallel_partition_ms;

    // ---- core round trips -------------------------------------------------
    let per_trip = ROUND_TRIPS as f64 * 1e3;
    p.run_empty_us = timed(log, &mut op, "core.run_empty", per_trip, || {
        for _ in 0..ROUND_TRIPS {
            scheduler.run(|_| {});
        }
    });
    p.run_team2_empty_us = timed(log, &mut op, "core.run_team2_empty", per_trip, || {
        for _ in 0..ROUND_TRIPS {
            scheduler.run_team(team, |_| {});
        }
    });

    // ---- isolated single-thread ledger ------------------------------------
    let calls = LEDGER_CALLS as f64;
    let bucket = TokenBucket::new(1_000_000_000, 1, 1 << 16);
    let mut clock_us = 0u64;
    p.acquire_ns = timed(log, &mut op, "service.admission.acquire", calls, || {
        for _ in 0..LEDGER_CALLS {
            clock_us += 1;
            let _ = black_box(bucket.try_acquire_at(black_box(clock_us)));
        }
    });
    let gate = DrainGate::new();
    p.gate_ns = timed(log, &mut op, "service.gate.enter_exit", calls, || {
        for _ in 0..LEDGER_CALLS {
            black_box(gate.try_enter());
            gate.exit();
        }
    });
    let injector = ShardedInjector::<u64>::new(1);
    p.injector_ns = timed(log, &mut op, "deque.injector.push_pop", calls, || {
        for i in 0..LEDGER_CALLS {
            injector.push_to(0, black_box(i));
            black_box(injector.pop_from(0));
        }
    });
    p.claim_ns = timed(log, &mut op, "core.cancel.claim", calls, || {
        for _ in 0..LEDGER_CALLS {
            let cell = black_box(CancelCell::new());
            black_box(cell.try_claim());
        }
    });
    let events = EventCount::new(2);
    p.notify_ns = timed(log, &mut op, "util.eventcount.notify_idle", calls, || {
        for _ in 0..LEDGER_CALLS {
            black_box(events.notify_one_idle());
        }
    });
    let domain = Domain::new(4);
    let participant = domain.register().expect("a fresh domain has free slots");
    p.pin_ns = timed(log, &mut op, "util.epoch.pin_unpin", calls, || {
        for _ in 0..LEDGER_CALLS {
            participant.pin();
            participant.unpin();
        }
    });
    p
}
