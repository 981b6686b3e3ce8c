//! The service workloads, driven by the benchmark's own generator thread
//! (the calling thread) against a `TaskService` of singleton tasks.
//!
//! * `svc_paced` — an open loop: request `i` is due at `start + i / RATE`.
//!   The generator spins until each due time, and a request's latency runs
//!   from its due time to the end of its body, so a generator or service
//!   stall is charged to every request that waited behind it.
//! * `svc_saturate` — a closed loop of [`CLIENTS`] clients: each keeps one
//!   empty task in flight and resubmits as soon as it sees it complete.
//!   Its latency is a client's round trip, from its submit call to its
//!   noticing the task complete.  By Little's law that averages
//!   `CLIENTS / throughput` whichever of generator and worker is the
//!   bottleneck; submit-to-completion time and the time inside `submit`
//!   both swing with which one it is.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Duration;

use teamsteal_service::{ServiceBuilder, SubmitOptions, TaskService, Tenant, TenantConfig};
use teamsteal_util::rng::Xoshiro256;
use teamsteal_util::CachePadded;

use crate::host::{process_cpu_time, thread_cpu_time, CountingAlloc};
use crate::pass::{now_ns, Mark, Pass, Sample, ServiceCounts};
use crate::stats::Decimator;

/// Offered rate of `svc_paced`, tasks per second.
pub const RATE: u64 = 50_000;
/// Busy work of one `svc_paced` body.
pub const BODY: Duration = Duration::from_micros(1);
/// Deadline of every `svc_paced` submission.
pub const DEADLINE: Duration = Duration::from_secs(1);
/// Tasks `svc_saturate` keeps in flight.
pub const CLIENTS: usize = 64;
/// Warm-up before each window opens.
const WARMUP: Duration = Duration::from_millis(500);
/// Length of the sub-windows whose medians a service pass reports.
const SUB_WINDOW: Duration = Duration::from_millis(500);
/// A traced pass keeps the spans of one request in `2^k`, picked by a hash
/// of the request id so the pick does not follow the clients' round robin.
const PACED_SPAN_SHIFT: u32 = 3;
const SATURATE_SPAN_SHIFT: u32 = 6;
/// Latency samples `svc_saturate` keeps (an even subsample beyond that).
const SATURATE_SAMPLES: usize = 1 << 20;
/// How long a pass waits for admitted tasks after its last submission
/// before counting the missing ones as lost.
const LOST_TASK_GRACE: Duration = Duration::from_secs(5);

/// Whether request `op` is one in `2^shift` whose spans a traced pass keeps.
fn span_sampled(op: u64, shift: u32) -> bool {
    op.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - shift) == 0
}

/// Tenant weights: submissions go to tenant 0 three times as often as to
/// tenant 1, matching their weights.
const WEIGHTS: [u64; 2] = [3, 1];

/// Which service workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Paced,
    Saturate,
}

/// Per-request record shared with the task body.  Timestamps are
/// [`now_ns`] readings; 0 means "not yet".
#[derive(Default)]
pub struct Slot {
    runs: AtomicU32,
    body_start_ns: AtomicU64,
    body_end_ns: AtomicU64,
}

/// Everything a service pass needs, built during set-up.
pub struct SvcSetup {
    service: TaskService,
    tenants: [Tenant; 2],
    /// Tenant of each request (`svc_saturate` cycles through it).
    choice: Vec<u8>,
    slots: Slots,
}

/// `svc_paced` has one slot per request, written by the workers only;
/// `svc_saturate` has one per client, polled by the generator, so each sits
/// on its own cache line.
enum Slots {
    PerRequest(Box<[Slot]>),
    PerClient(Box<[CachePadded<Slot>]>),
}

impl SvcSetup {
    pub fn new(mode: Mode, seed: u64, workers: usize, seconds: f64) -> SvcSetup {
        let (refill_rate, requests) = match mode {
            // Each tenant's budget is several times its offered share, so a
            // correct service refuses nothing.
            Mode::Paced => (RATE, paced_requests(seconds)),
            // Effectively unlimited: never the bottleneck, and far from the
            // bucket's saturating arithmetic.
            Mode::Saturate => (1_000_000_000, 1 << 20),
        };
        let mut builder = ServiceBuilder::new()
            .threads(workers)
            .refill_rate(refill_rate)
            .high_water(1 << 20);
        for (i, weight) in WEIGHTS.iter().enumerate() {
            builder = builder.tenant(
                TenantConfig::new(format!("t{i}"))
                    .weight(*weight)
                    .burst(1 << 16),
            );
        }
        let service = builder.build();
        let tenants = [0, 1].map(|i| service.tenant(&format!("t{i}")).expect("registered tenant"));
        let mut rng = Xoshiro256::new(seed);
        let total: u64 = WEIGHTS.iter().sum();
        let choice = (0..requests)
            .map(|_| u8::from(rng.next_below(total) >= WEIGHTS[0]))
            .collect();
        let slots = match mode {
            Mode::Paced => Slots::PerRequest((0..requests).map(|_| Slot::default()).collect()),
            Mode::Saturate => {
                Slots::PerClient((0..CLIENTS).map(|_| CachePadded::default()).collect())
            }
        };
        SvcSetup {
            service,
            tenants,
            choice,
            slots,
        }
    }
}

/// Requests of a paced pass: the warm-up plus the window.
fn paced_requests(seconds: f64) -> usize {
    ((WARMUP.as_secs_f64() + seconds) * RATE as f64).ceil() as usize
}

/// Due time of paced request `i` on a schedule starting at `start_ns`.
pub fn due_ns(start_ns: u64, i: u64) -> u64 {
    start_ns + i * 1_000_000_000 / RATE
}

/// Runs one pass and drains the service.  A traced pass records spans and
/// counts allocations over the window.
pub fn run(setup: SvcSetup, seconds: f64, traced: bool, op_base: u64) -> Pass {
    // The slots outlive every task: the drain below waits for all of them,
    // and the process ends soon after.  Leaking them keeps reference-count
    // traffic out of the measured bodies.
    let mut pass = match setup.slots {
        Slots::PerRequest(slots) => run_paced(
            &setup.tenants,
            &setup.choice,
            Box::leak(slots),
            &setup.service,
            traced,
            op_base,
        ),
        Slots::PerClient(slots) => run_saturate(
            &setup.tenants,
            &setup.choice,
            Box::leak(slots),
            &setup.service,
            seconds,
            traced,
            op_base,
        ),
    };
    let drain_start = now_ns();
    let report = setup.service.drain();
    let drain_ms = (now_ns() - drain_start) as f64 / 1e6;
    let mut counts = ServiceCounts {
        drain_ms,
        ..Default::default()
    };
    for (_, s) in &report.tenants {
        counts.offered += s.offered;
        counts.admitted += s.admitted;
        counts.rejected += s.rejected;
        counts.shed += s.shed;
        counts.drain_rejected += s.drain_rejected;
        counts.completed += s.completed;
    }
    pass.failed += counts.violations();
    pass.service = Some(counts);
    pass
}

/// Completed tasks over both tenants (cumulative).
fn completed(tenants: &[Tenant; 2]) -> u64 {
    tenants.iter().map(|t| t.stats().completed).sum()
}

/// The window's instruments, read by the generator: CPU time of every
/// thread but its own, completions, scheduler counters and allocations.
struct Meter {
    process_cpu: Duration,
    generator_cpu: Duration,
    metrics: teamsteal_core::MetricsSnapshot,
    allocations: u64,
}

impl Meter {
    /// Opens the window and marks its start.
    fn open(service: &TaskService, tenants: &[Tenant; 2], traced: bool, pass: &mut Pass) -> Meter {
        let meter = Meter {
            process_cpu: process_cpu_time(),
            generator_cpu: thread_cpu_time(),
            metrics: service.metrics(),
            allocations: CountingAlloc::allocations(),
        };
        meter.mark(tenants, pass);
        CountingAlloc::set_counting(traced);
        meter
    }

    /// Marks a sub-window boundary.  The reading itself allocates, and is
    /// not counted.
    fn mark(&self, tenants: &[Tenant; 2], pass: &mut Pass) {
        CountingAlloc::uncounted(|| {
            let cpu = process_cpu_time().saturating_sub(self.process_cpu);
            let generator = thread_cpu_time().saturating_sub(self.generator_cpu);
            pass.marks.push(Mark {
                at_ns: now_ns(),
                ops: completed(tenants),
                cpu_ns: cpu.saturating_sub(generator).as_nanos() as u64,
            });
        });
    }

    /// Marks the end of the window and stops counting; scheduler counter
    /// deltas and allocations go into `pass`.  Call it before recording
    /// spans, which allocate.
    fn close(self, service: &TaskService, tenants: &[Tenant; 2], pass: &mut Pass) {
        self.mark(tenants, pass);
        CountingAlloc::set_counting(false);
        pass.allocations = CountingAlloc::allocations() - self.allocations;
        pass.core = service.metrics().delta_since(&self.metrics);
    }
}

/// Sub-windows a pass of `seconds` is marked into (plus a spare).
fn mark_capacity(seconds: f64) -> usize {
    (seconds / SUB_WINDOW.as_secs_f64()).ceil() as usize + 3
}

fn run_paced(
    tenants: &[Tenant; 2],
    choice: &[u8],
    slots: &'static [Slot],
    service: &TaskService,
    traced: bool,
    op_base: u64,
) -> Pass {
    let requests = slots.len();
    let warm = (WARMUP.as_secs_f64() * RATE as f64) as usize;
    let per_mark = (SUB_WINDOW.as_secs_f64() * RATE as f64) as usize;
    let mut submit_start = vec![0u64; requests];
    let mut submit_end = vec![0u64; if traced { requests } else { 0 }];
    let mut admitted = vec![false; requests];
    let mut pass = Pass::default();
    pass.marks
        .reserve(mark_capacity((requests - warm) as f64 / RATE as f64));
    let mut meter = None;
    // Start a little ahead so the first due time is not already past.
    let start = now_ns() + 1_000_000;
    for i in 0..requests {
        if i == warm {
            meter = Some(Meter::open(service, tenants, traced, &mut pass));
        } else if i > warm && (i - warm).is_multiple_of(per_mark) {
            if let Some(m) = &meter {
                m.mark(tenants, &mut pass);
            }
        }
        let due = due_ns(start, i as u64);
        let mut now = now_ns();
        while now < due {
            std::hint::spin_loop();
            now = now_ns();
        }
        submit_start[i] = now;
        let slot: &'static Slot = &slots[i];
        let result = tenants[usize::from(choice[i])].submit_with(
            SubmitOptions::new().deadline(DEADLINE),
            move |_| {
                if traced {
                    slot.body_start_ns.store(now_ns(), Ordering::Relaxed);
                }
                let begin = std::time::Instant::now();
                while begin.elapsed() < BODY {
                    std::hint::spin_loop();
                }
                slot.runs.fetch_add(1, Ordering::Relaxed);
                slot.body_end_ns.store(now_ns(), Ordering::Release);
            },
        );
        if traced {
            submit_end[i] = now_ns();
        }
        admitted[i] = result.is_ok();
    }
    // The window closes when every admitted request has completed (or,
    // should the service lose one, after a grace period).
    let admitted_total: u64 = tenants.iter().map(|t| t.stats().admitted).sum();
    let grace = now_ns() + LOST_TASK_GRACE.as_nanos() as u64;
    while completed(tenants) < admitted_total && now_ns() < grace {
        std::hint::spin_loop();
    }
    if let Some(m) = meter {
        m.close(service, tenants, &mut pass);
    }
    pass.samples.reserve(requests - warm);
    for i in warm..requests {
        pass.attempted += 1;
        let slot = &slots[i];
        let ended = slot.body_end_ns.load(Ordering::Acquire);
        if !admitted[i] || ended == 0 {
            pass.failed += 1;
            continue;
        }
        let due = due_ns(start, i as u64);
        pass.ops += 1;
        pass.samples.push(Sample {
            at_ns: due,
            latency_ns: latency_from_due(due, ended),
        });
        if traced && span_sampled(i as u64, PACED_SPAN_SHIFT) {
            let op = op_base + i as u64;
            let body_start = slot.body_start_ns.load(Ordering::Relaxed);
            pass.spans.push(op, "request", None, due, ended);
            pass.spans
                .push(op, "late", Some("request"), due, submit_start[i]);
            pass.spans.push(
                op,
                "submit",
                Some("request"),
                submit_start[i],
                submit_end[i],
            );
            pass.spans
                .push(op, "queue", Some("request"), submit_end[i], body_start);
            pass.spans
                .push(op, "body", Some("request"), body_start, ended);
        }
    }
    // Exactly once: no body runs twice, and no admitted warm-up request
    // is lost either (the window's own losses are counted above).
    for (i, slot) in slots.iter().enumerate() {
        let runs = slot.runs.load(Ordering::Acquire);
        if runs > 1 || (i < warm && runs != u32::from(admitted[i])) {
            pass.failed += 1;
        }
    }
    pass
}

/// Latency of an open-loop request: from when it was due, not from when
/// the generator got round to sending it, so generator stalls count.
pub fn latency_from_due(due_ns: u64, ended_ns: u64) -> u64 {
    ended_ns.saturating_sub(due_ns)
}

fn run_saturate(
    tenants: &[Tenant; 2],
    choice: &[u8],
    slots: &'static [CachePadded<Slot>],
    service: &TaskService,
    seconds: f64,
    traced: bool,
    op_base: u64,
) -> Pass {
    let mut pass = Pass::default();
    pass.marks.reserve(mark_capacity(seconds));
    let mut samples = Decimator::with_capacity(SATURATE_SAMPLES);
    if traced {
        pass.spans
            .reserve((5 * 2_000_000 * seconds.ceil() as usize) >> SATURATE_SPAN_SHIFT);
    }
    // Per client: the op in flight, when it was submitted, when the
    // submit call returned, when its previous task ended, how many tasks
    // it has submitted, and whether one is in flight.
    let mut op = [0u64; CLIENTS];
    let mut submitted_at = [0u64; CLIENTS];
    let mut returned_at = [0u64; CLIENTS];
    let mut freed_at = [0u64; CLIENTS];
    let mut uses = [0u32; CLIENTS];
    let mut in_flight = [false; CLIENTS];
    let mut next_op = 0u64;
    let open_at = now_ns() + WARMUP.as_nanos() as u64;
    let close_at = open_at + (seconds * 1e9) as u64;
    let give_up_at = close_at + LOST_TASK_GRACE.as_nanos() as u64;
    let mut next_mark = open_at;
    let mut meter: Option<Meter> = None;
    loop {
        let now = now_ns();
        if now >= next_mark && now < close_at {
            match &meter {
                None => meter = Some(Meter::open(service, tenants, traced, &mut pass)),
                Some(m) => m.mark(tenants, &mut pass),
            }
            next_mark += SUB_WINDOW.as_nanos() as u64;
        }
        let closing = now >= close_at;
        if closing && (in_flight.iter().all(|f| !f) || now >= give_up_at) {
            break;
        }
        let measuring = meter.is_some() && !closing;
        for c in 0..CLIENTS {
            let slot = &slots[c];
            let mut round_trip_from = None;
            if in_flight[c] {
                let done = slot.body_end_ns.load(Ordering::Acquire);
                if done == 0 {
                    continue;
                }
                in_flight[c] = false;
                freed_at[c] = done;
                round_trip_from = Some(submitted_at[c]);
                if measuring {
                    pass.ops += 1;
                    if traced && span_sampled(op[c], SATURATE_SPAN_SHIFT) {
                        let id = op_base + op[c];
                        let body_start = slot.body_start_ns.load(Ordering::Relaxed);
                        pass.spans.push(id, "request", None, submitted_at[c], done);
                        pass.spans.push(
                            id,
                            "submit",
                            Some("request"),
                            submitted_at[c],
                            returned_at[c],
                        );
                        pass.spans
                            .push(id, "queue", Some("request"), returned_at[c], body_start);
                        pass.spans
                            .push(id, "body", Some("request"), body_start, done);
                    }
                }
            }
            if closing {
                continue;
            }
            slot.body_end_ns.store(0, Ordering::Relaxed);
            let start = now_ns();
            if measuring {
                pass.attempted += 1;
                if let Some(from) = round_trip_from {
                    samples.push(Sample {
                        at_ns: start,
                        latency_ns: start - from,
                    });
                }
                if traced && span_sampled(next_op, SATURATE_SPAN_SHIFT) {
                    pass.spans.push(
                        op_base + next_op,
                        "late",
                        Some("request"),
                        freed_at[c],
                        start,
                    );
                }
            }
            submitted_at[c] = start;
            op[c] = next_op;
            let tenant = &tenants[usize::from(choice[next_op as usize % choice.len()])];
            next_op += 1;
            let result = tenant.submit(move |_| {
                if traced {
                    slot.body_start_ns.store(now_ns(), Ordering::Relaxed);
                }
                slot.runs.fetch_add(1, Ordering::Relaxed);
                slot.body_end_ns.store(now_ns().max(1), Ordering::Release);
            });
            returned_at[c] = now_ns();
            if result.is_ok() {
                in_flight[c] = true;
                uses[c] += 1;
            } else if measuring {
                pass.failed += 1;
            }
        }
    }
    if let Some(m) = meter {
        m.close(service, tenants, &mut pass);
    }
    // Exactly once: every client's slot counts one run per submission.
    for c in 0..CLIENTS {
        if slots[c].runs.load(Ordering::Acquire) != uses[c] {
            pass.failed += 1;
        }
    }
    pass.samples = samples.into_samples();
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic open-loop schedule: the generator stalls for 1 ms
    /// before request 10, then catches up; the service answers each
    /// request 5 µs after it is sent.  Requests due during the stall must
    /// carry it; timing from the send would hide it.
    #[test]
    fn due_time_latency_charges_a_generator_stall_to_later_requests() {
        let start = 1_000_000;
        let stall_end = due_ns(start, 10) + 1_000_000;
        let mut from_due = Vec::new();
        let mut from_send = Vec::new();
        let mut late = Vec::new();
        for i in 0..200u64 {
            let due = due_ns(start, i);
            let sent = if i >= 10 { due.max(stall_end) } else { due };
            let ended = sent + 5_000;
            from_due.push(latency_from_due(due, ended));
            from_send.push(ended - sent);
            late.push(sent - due);
        }
        let interval = 1_000_000_000 / RATE;
        // Every request due inside the stall waited for its end.
        for i in 10..10 + (1_000_000 / interval) {
            assert_eq!(from_due[i as usize], stall_end - due_ns(start, i) + 5_000);
            assert!(from_due[i as usize] > 5_000);
        }
        assert!(from_send.iter().all(|&l| l == 5_000));
        assert_eq!(from_due[10], 1_005_000);
        let mut late_sorted = late.clone();
        assert!(crate::stats::percentile(&mut late_sorted, 0.9) > 0);
        assert_eq!(late[9], 0);
    }

    /// A short paced pass against a real service: nothing is refused, lost
    /// or run twice, and the books balance.
    #[test]
    fn a_short_paced_pass_is_clean() {
        let setup = SvcSetup::new(Mode::Paced, 5, 1, 0.2);
        let pass = run(setup, 0.2, true, 0);
        assert_eq!(pass.failed, 0);
        assert_eq!(pass.ops, pass.attempted);
        let counts = pass.service.expect("service pass");
        assert_eq!(counts.violations(), 0);
        assert_eq!(counts.offered, paced_requests(0.2) as u64);
        assert!(pass.allocations > 0);
        assert!(pass.marks.len() >= 2);
    }

    #[test]
    fn a_short_saturating_pass_is_clean() {
        let setup = SvcSetup::new(Mode::Saturate, 5, 1, 0.2);
        let pass = run(setup, 0.2, false, 0);
        assert_eq!(pass.failed, 0);
        assert!(pass.ops > 0 && pass.ops_per_s() > 0.0);
        assert_eq!(pass.service.expect("service pass").violations(), 0);
    }
}
