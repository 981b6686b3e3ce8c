//! The host a run measures on, and the process-level probes read from it:
//! CPU counts, thread CPU time, peak RSS, and the counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// CPUs and threads of one run.
#[derive(Debug, Clone)]
pub struct Host {
    /// CPUs in this process's affinity mask (what `nproc` prints).
    pub nproc: usize,
    /// `std::thread::available_parallelism` (also honours CPU quotas).
    pub available_parallelism: usize,
    /// Scheduler worker threads the workload runs.
    pub workers: usize,
    /// Load-generator threads of the benchmark's own (0 for the sorts,
    /// whose single caller blocks inside the scheduler scope).
    pub generator_threads: usize,
    /// The commit the checkout was built from, or `unknown`.
    pub commit: String,
}

impl Host {
    /// Probes the host and sizes the thread budget: a sort workload runs
    /// one worker per CPU; a service workload runs one worker fewer, leaving
    /// a CPU to the generator.
    pub fn probe(service: bool) -> Host {
        let nproc = affinity_cpus().unwrap_or(1);
        let available_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpus = nproc.min(available_parallelism).max(1);
        let (workers, generator_threads) = if service {
            ((cpus - 1).max(1), 1)
        } else {
            (cpus, 0)
        };
        Host {
            nproc,
            available_parallelism,
            workers,
            generator_threads,
            commit: git_commit().unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// More runnable threads than CPUs: such a run is time-sliced and its
    /// numbers do not count.
    pub fn oversubscribed(&self) -> bool {
        self.workers + self.generator_threads > self.nproc.min(self.available_parallelism)
    }

    /// The host record as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"available_parallelism\": {}, \"workers\": {}, \
             \"generator_threads\": {}, \"oversubscribed\": {}, \"commit\": \"{}\"}}",
            self.nproc,
            self.available_parallelism,
            self.workers,
            self.generator_threads,
            self.oversubscribed(),
            self.commit
        )
    }
}

/// Counts the CPUs in `Cpus_allowed_list` of `/proc/self/status`.
fn affinity_cpus() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
        .trim();
    let mut count = 0;
    for range in list.split(',') {
        let (lo, hi) = match range.split_once('-') {
            Some((lo, hi)) => (lo.parse::<usize>().ok()?, hi.parse::<usize>().ok()?),
            None => {
                let cpu = range.parse::<usize>().ok()?;
                (cpu, cpu)
            }
        };
        count += hi.checked_sub(lo)? + 1;
    }
    Some(count)
}

/// The commit `.git/HEAD` of the working directory points at, if the run
/// happens inside a git checkout.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// On-CPU time of the calling thread (`/proc/thread-self/schedstat`).
pub fn thread_cpu_time() -> Duration {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(Duration::ZERO, Duration::from_nanos)
}

/// On-CPU time of every thread of the process.
pub fn process_cpu_time() -> Duration {
    teamsteal_apps::micro::process_cpu_time().unwrap_or(Duration::ZERO)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The system allocator, counting allocation calls while counting is on.
/// Counting is switched on only for the traced run; untraced runs pay one
/// relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set while this thread does the benchmark's own bookkeeping.
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

impl CountingAlloc {
    /// Switches counting on or off.
    pub fn set_counting(on: bool) {
        COUNTING.store(on, Ordering::SeqCst);
    }

    /// Runs `f` with this thread's allocations left out of the count.
    pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
        UNCOUNTED.with(|u| u.set(true));
        let result = f();
        UNCOUNTED.with(|u| u.set(false));
        result
    }

    /// Allocation calls counted so far (`alloc`, `alloc_zeroed`, `realloc`).
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::SeqCst)
    }

    #[inline]
    fn count() {
        if COUNTING.load(Ordering::Relaxed) && !UNCOUNTED.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}
