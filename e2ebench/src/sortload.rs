//! The sort workloads: back-to-back `mixed_mode_sort` calls by one caller
//! that blocks in the scheduler scope (a closed loop).

use std::time::Duration;

use teamsteal_core::Scheduler;
use teamsteal_sort::{mixed_mode_sort, std_sort, SortConfig};
use teamsteal_util::rng::Xoshiro256;

use crate::host::{process_cpu_time, CountingAlloc};
use crate::pass::{now_ns, Pass, Sample};

/// Input size: the paper's odd size 2^k − 1, scaled down.
pub const N: usize = (1 << 21) - 1;

/// Distinct keys of the duplicate-heavy input.
pub const DISTINCT_KEYS: usize = 64;

/// Sorts run before the window opens (first-touch, team caches).
const WARMUP_SORTS: usize = 2;

/// Which keys a sort workload draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keys {
    /// Uniform random `u32`.
    Random,
    /// [`DISTINCT_KEYS`] distinct values spaced evenly over `u32`.
    Dups,
}

/// The input of a sort workload for `seed`.
pub fn generate(keys: Keys, seed: u64) -> Vec<u32> {
    let mut rng = Xoshiro256::new(seed);
    match keys {
        Keys::Random => (0..N).map(|_| rng.next_u32()).collect(),
        Keys::Dups => {
            // The values are fixed so that the seed changes only their
            // order, not how the partitions fall.
            let spacing = (1u64 << 32) / DISTINCT_KEYS as u64;
            (0..N)
                .map(|_| (rng.next_below(DISTINCT_KEYS as u64) * spacing + spacing / 2) as u32)
                .collect()
        }
    }
}

/// Everything a sort pass needs, built during set-up.
pub struct SortSetup {
    pub scheduler: Scheduler,
    pub input: Vec<u32>,
    /// `input` sorted by the standard library: what every sort must equal.
    pub reference: Vec<u32>,
}

impl SortSetup {
    pub fn new(keys: Keys, seed: u64, workers: usize) -> SortSetup {
        let scheduler = Scheduler::builder().threads(workers).seed(seed).build();
        let input = generate(keys, seed);
        let mut reference = input.clone();
        std_sort(&mut reference);
        SortSetup {
            scheduler,
            input,
            reference,
        }
    }
}

/// Sorts a fresh copy of the input back to back for `seconds` and at least
/// `min_sorts` times.  Each sort is checked against the reference.
/// A traced pass records one `sort` span per call and counts the
/// allocations made while a sort runs.
pub fn run(setup: &SortSetup, seconds: f64, min_sorts: usize, traced: bool, op_base: u64) -> Pass {
    let config = SortConfig::default();
    let mut work = vec![0u32; setup.input.len()];
    for _ in 0..WARMUP_SORTS {
        work.copy_from_slice(&setup.input);
        mixed_mode_sort(&setup.scheduler, &mut work, &config);
    }
    let mut pass = Pass::default();
    let metrics_before = setup.scheduler.metrics();
    let allocations_before = CountingAlloc::allocations();
    let window = Duration::from_secs_f64(seconds);
    let start = now_ns();
    let mut previous_end = start;
    while Duration::from_nanos(now_ns() - start) < window || pass.ops < min_sorts as u64 {
        work.copy_from_slice(&setup.input);
        let cpu0 = process_cpu_time();
        CountingAlloc::set_counting(traced);
        let t0 = now_ns();
        mixed_mode_sort(&setup.scheduler, &mut work, &config);
        let t1 = now_ns();
        CountingAlloc::set_counting(false);
        let cpu1 = process_cpu_time();
        pass.attempted += 1;
        if work != setup.reference {
            pass.failed += 1;
        }
        pass.samples.push(Sample {
            at_ns: t1,
            latency_ns: t1 - t0,
        });
        pass.cycle_ns.push((t1 - previous_end) as f64);
        previous_end = t1;
        pass.op_cpu_ns
            .push(cpu1.saturating_sub(cpu0).as_nanos() as f64);
        if traced {
            pass.spans.push(op_base + pass.ops, "sort", None, t0, t1);
        }
        pass.ops += 1;
    }
    pass.core = setup.scheduler.metrics().delta_since(&metrics_before);
    pass.allocations = CountingAlloc::allocations() - allocations_before;
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_per_seed() {
        assert_eq!(
            generate(Keys::Dups, 7)[..1000],
            generate(Keys::Dups, 7)[..1000]
        );
        assert_ne!(
            generate(Keys::Random, 7)[..1000],
            generate(Keys::Random, 8)[..1000]
        );
    }

    /// A small set-up whose reference is `input` sorted, or, with `wrong`,
    /// deliberately not.
    fn small_setup(wrong: bool) -> SortSetup {
        let input: Vec<u32> = generate(Keys::Random, 9)[..20_000].to_vec();
        let mut reference = input.clone();
        std_sort(&mut reference);
        if wrong {
            reference[7] ^= 1;
        }
        SortSetup {
            scheduler: Scheduler::builder().threads(2).build(),
            input,
            reference,
        }
    }

    #[test]
    fn every_sort_is_checked_against_the_reference() {
        let pass = run(&small_setup(false), 0.05, 12, true, 0);
        assert_eq!((pass.attempted, pass.failed), (pass.ops, 0));
        assert!(pass.ops >= 12);
        assert_eq!(pass.spans.len() as u64, pass.ops);
        assert_eq!(pass.op_cpu_ns.len() as u64, pass.ops);
        assert!(pass.ops_per_s() > 0.0 && pass.cpu_ns_per_op() > 0.0);
        let broken = run(&small_setup(true), 0.05, 12, false, 0);
        assert_eq!(broken.failed, broken.attempted);
    }

    #[test]
    fn dups_draw_from_few_values() {
        let mut keys = generate(Keys::Dups, 3);
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), DISTINCT_KEYS);
    }
}
