//! The Tsigas–Zhang blocked, data-parallel partitioning step.
//!
//! The array is split into cache-aligned blocks.  During **phase 1** every
//! team member repeatedly takes one block from the left end and one from the
//! right end of the not-yet-claimed range and *neutralizes* them with the
//! branchless kernel `seq::neutralize`: elements greater than the pivot in
//! the left block are swapped with elements less than or equal to the pivot
//! in the right block until one of the blocks is fully scanned, at which
//! point a fresh block is claimed from that side.  When no blocks remain,
//! each member parks its at most one unfinished block per side.
//!
//! **Phase 2/3** (performed by the member with local id 0 after a team
//! barrier) moves the unfinished blocks to the inner boundary of their
//! region, so everything that is not yet classified forms one contiguous
//! range (unfinished blocks + never-claimed middle + the sub-block tail), and
//! finishes it with the sequential [`partition_by`], which runs the same
//! kernel.  The paper replaces the original "thread 0 collects everything"
//! second phase with a producer/consumer exchanger; we keep the sequential
//! cleanup (its work is bounded by `O(team_size · block_size + block_size)`
//! elements) and note the substitution in DESIGN.md.
//!
//! The result is the usual partition contract: a split point `s` such that
//! `data[..s] <= pivot < data[s..]` (with the all-`<= pivot` corner case
//! reported as `s == n` and resolved by the caller).

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use teamsteal_core::TaskContext;
use teamsteal_util::SendMutPtr;

use crate::seq::{neutralize, partition_by};

/// Which side of the array a block is claimed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Left,
    Right,
}

/// Shared state of one data-parallel partitioning step, used by every member
/// of the team executing it.  A `ParallelPartitioner` is **single use**: it
/// partitions exactly one array once.
pub struct ParallelPartitioner {
    n: usize,
    block_size: usize,
    nblocks: usize,
    /// Packed claim counters: upper 32 bits = blocks taken from the left,
    /// lower 32 bits = blocks taken from the right.
    taken: AtomicU64,
    /// Per-member unfinished left block (index + 1; 0 = none).
    leftover_left: Vec<AtomicUsize>,
    /// Per-member unfinished right block (index + 1; 0 = none).
    leftover_right: Vec<AtomicUsize>,
    /// The final split point, published by local id 0.
    split: AtomicUsize,
}

impl ParallelPartitioner {
    /// Creates the shared state for partitioning an array of `n` elements
    /// with blocks of `block_size` elements and at most `max_team` members.
    pub fn new(n: usize, block_size: usize, max_team: usize) -> Self {
        let block_size = block_size.max(1);
        let nblocks = n / block_size;
        // `taken` packs both claim counts into 32-bit halves; a larger count
        // would carry from one half into the other and hand a block out twice.
        assert!(
            nblocks <= u32::MAX as usize,
            "{nblocks} blocks exceed the 32-bit claim counters"
        );
        ParallelPartitioner {
            n,
            block_size,
            nblocks,
            taken: AtomicU64::new(0),
            leftover_left: (0..max_team.max(1)).map(|_| AtomicUsize::new(0)).collect(),
            leftover_right: (0..max_team.max(1)).map(|_| AtomicUsize::new(0)).collect(),
            split: AtomicUsize::new(0),
        }
    }

    /// Number of full blocks phase 1 operates on.
    pub fn num_blocks(&self) -> usize {
        self.nblocks
    }

    /// Claims the next block from `side`, if any block is still unclaimed.
    fn acquire_block(&self, side: Side) -> Option<usize> {
        loop {
            let cur = self.taken.load(Ordering::Acquire);
            let left = (cur >> 32) as usize;
            let right = (cur & 0xFFFF_FFFF) as usize;
            if left + right >= self.nblocks {
                return None;
            }
            let (new, index) = match side {
                Side::Left => (((left as u64 + 1) << 32) | right as u64, left),
                Side::Right => (
                    ((left as u64) << 32) | (right as u64 + 1),
                    self.nblocks - 1 - right,
                ),
            };
            if self
                .taken
                .compare_exchange(cur, new, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some(index);
            }
        }
    }

    /// Runs the partitioning step as part of a team task.  Every member of
    /// the team executing the task must call this exactly once with its own
    /// `ctx`; the call returns the split point `s` (`data[..s] <= pivot`,
    /// `data[s..] > pivot`).
    ///
    /// # Safety contract
    ///
    /// `ptr[0 .. n]` (with `n` as passed to [`ParallelPartitioner::new`])
    /// must be valid and owned exclusively by this team task for the duration
    /// of the call.
    pub fn run(&self, ctx: &TaskContext<'_>, ptr: SendMutPtr<u32>, pivot: u32) -> usize {
        let me = ctx.local_id();
        debug_assert!(me < self.leftover_left.len());

        // ---- Phase 1: parallel block neutralization -------------------
        self.neutralize_blocks(me, ptr, pivot);
        ctx.barrier();

        // ---- Phase 2 + 3: sequential cleanup by local id 0 -------------
        if me == 0 {
            let split = self.cleanup(ptr, pivot);
            self.split.store(split, Ordering::Release);
        }
        ctx.barrier();
        self.split.load(Ordering::Acquire)
    }

    fn block_slice<'a>(&self, ptr: SendMutPtr<u32>, block: usize) -> &'a mut [u32] {
        // SAFETY: blocks are disjoint (acquire_block never hands the same
        // index to two claims) and inside ptr[0..n].
        unsafe { ptr.add(block * self.block_size).slice_mut(self.block_size) }
    }

    fn neutralize_blocks(&self, me: usize, ptr: SendMutPtr<u32>, pivot: u32) {
        let bs = self.block_size;
        // (block, elements classified): from the start of a left block, from
        // the end of a right block.
        let mut left: Option<(usize, usize)> = None;
        let mut right: Option<(usize, usize)> = None;
        loop {
            if left.is_none() {
                match self.acquire_block(Side::Left) {
                    Some(b) => left = Some((b, 0)),
                    None => break,
                }
            }
            if right.is_none() {
                match self.acquire_block(Side::Right) {
                    Some(b) => right = Some((b, 0)),
                    None => break,
                }
            }
            let (lb, mut i) = left.take().expect("left block present");
            let (rb, mut j) = right.take().expect("right block present");
            let lslice = self.block_slice(ptr, lb);
            let rslice = self.block_slice(ptr, rb);
            let (l, r) = neutralize(&mut lslice[i..], &mut rslice[..bs - j], |x| x <= pivot);
            i += l;
            j += r;
            if i < bs {
                left = Some((lb, i));
            }
            if j < bs {
                right = Some((rb, j));
            }
        }
        if let Some((lb, _)) = left {
            self.leftover_left[me].store(lb + 1, Ordering::Release);
        }
        if let Some((rb, _)) = right {
            self.leftover_right[me].store(rb + 1, Ordering::Release);
        }
    }

    /// Swaps the contents of two (disjoint) blocks.
    fn swap_blocks(&self, ptr: SendMutPtr<u32>, a: usize, b: usize) {
        if a == b {
            return;
        }
        let sa = self.block_slice(ptr, a);
        let sb = self.block_slice(ptr, b);
        sa.swap_with_slice(sb);
    }

    /// Moves the unfinished blocks of one side (`leftovers`, one slot per
    /// member) into `targets`, that side's innermost block slots, so the
    /// unclassified data becomes contiguous.  `targets` holds exactly as
    /// many slots as there are unfinished blocks.
    fn compact_leftovers(
        &self,
        ptr: SendMutPtr<u32>,
        leftovers: &[AtomicUsize],
        targets: Range<usize>,
    ) {
        let blocks = || {
            leftovers
                .iter()
                .filter_map(|a| a.load(Ordering::Acquire).checked_sub(1))
        };
        // Unfinished blocks already in a target slot stay; the others are
        // swapped into the target slots holding finished blocks.
        let mut outside = blocks().filter(|b| !targets.contains(b));
        for chunk in targets.clone().step_by(64) {
            let chunk = chunk..targets.end.min(chunk + 64);
            let held = blocks()
                .filter(|b| chunk.contains(b))
                .fold(0u64, |mask, b| mask | 1 << (b - chunk.start));
            for target in chunk.clone().filter(|t| held >> (t - chunk.start) & 1 == 0) {
                let block = outside
                    .next()
                    .expect("one unfinished block per free target slot");
                self.swap_blocks(ptr, block, target);
            }
        }
    }

    /// Phase 2 + 3: make the unclassified range contiguous and finish it with
    /// a sequential pass.  Returns the global split point.
    fn cleanup(&self, ptr: SendMutPtr<u32>, pivot: u32) -> usize {
        let bs = self.block_size;
        let cur = self.taken.load(Ordering::Acquire);
        let taken_left = (cur >> 32) as usize;
        let taken_right = (cur & 0xFFFF_FFFF) as usize;
        debug_assert!(taken_left + taken_right <= self.nblocks);

        let unfinished = |side: &[AtomicUsize]| {
            side.iter()
                .filter(|a| a.load(Ordering::Acquire) > 0)
                .count()
        };
        let ll = unfinished(&self.leftover_left);
        let rl = unfinished(&self.leftover_right);
        // Left region: innermost = highest indices; right region: lowest.
        self.compact_leftovers(ptr, &self.leftover_left, taken_left - ll..taken_left);
        let right_start = self.nblocks - taken_right;
        self.compact_leftovers(ptr, &self.leftover_right, right_start..right_start + rl);

        // The contiguous unclassified range: unfinished left blocks, the
        // never-claimed middle, and the unfinished right blocks.
        let unknown_start = (taken_left - ll) * bs;
        let unknown_end = (self.nblocks - taken_right + rl) * bs;
        debug_assert!(unknown_start <= unknown_end);
        // SAFETY: exclusive access (phase 1 is over; only local id 0 runs this).
        let unknown =
            unsafe { ptr.add(unknown_start).slice_mut(unknown_end - unknown_start) };
        let mut split = unknown_start + partition_by(unknown, |x| x <= pivot);

        // Finally fold in the sub-block tail that phase 1 never touched.
        // Invariant: data[split .. nblocks*bs] > pivot.
        // SAFETY: exclusive access, whole array.
        let data = unsafe { ptr.slice_mut(self.n) };
        for k in self.nblocks * bs..self.n {
            if data[k] <= pivot {
                data.swap(k, split);
                split += 1;
            }
        }
        split
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use teamsteal_core::Scheduler;
    use teamsteal_data::{is_permutation_of, Distribution};

    use crate::seq::OFFSETS;

    /// Runs the partitioner inside a real team task and checks the partition
    /// contract.
    fn check_partition(scheduler: &Scheduler, team: usize, n: usize, block_size: usize, seed: u64) {
        for d in Distribution::ALL {
            let original = d.generate(n, 8, seed);
            let mut data = original.clone();
            if data.is_empty() {
                continue;
            }
            let pivot = crate::seq::median_of_three(&data);
            let ptr = SendMutPtr::from_slice(&mut data);
            let partitioner = Arc::new(ParallelPartitioner::new(
                n,
                block_size,
                scheduler.num_threads(),
            ));
            let split_seen = Arc::new(AtomicUsize::new(usize::MAX));
            {
                let partitioner = Arc::clone(&partitioner);
                let split_seen = Arc::clone(&split_seen);
                scheduler.run_team(team, move |ctx| {
                    let s = partitioner.run(ctx, ptr, pivot);
                    split_seen.store(s, Ordering::Release);
                });
            }
            let split = split_seen.load(Ordering::Acquire);
            assert!(split <= n);
            assert!(
                data[..split].iter().all(|&x| x <= pivot),
                "{d:?}: left side contains an element above the pivot (n={n}, team={team})"
            );
            assert!(
                data[split..].iter().all(|&x| x > pivot),
                "{d:?}: right side contains an element at or below the pivot (n={n}, team={team})"
            );
            assert!(
                is_permutation_of(&original, &data),
                "{d:?}: partition changed the multiset of elements"
            );
            assert!(split >= 1, "the pivot element itself must land on the left");
        }
    }

    #[test]
    fn partitions_with_a_singleton_team() {
        let s = Scheduler::with_threads(1);
        check_partition(&s, 1, 10_000, 256, 1);
    }

    #[test]
    fn partitions_with_a_team_of_two() {
        let s = Scheduler::with_threads(2);
        check_partition(&s, 2, 50_000, 512, 2);
    }

    #[test]
    fn partitions_with_a_team_of_four() {
        let s = Scheduler::with_threads(4);
        check_partition(&s, 4, 120_000, 1024, 3);
    }

    #[test]
    fn handles_sizes_not_multiple_of_block_size() {
        let s = Scheduler::with_threads(4);
        check_partition(&s, 4, 100_003, 1024, 4);
        check_partition(&s, 2, 1_023, 1024, 5); // fewer elements than one block
        check_partition(&s, 4, 4_097, 4_096, 6);
    }

    #[test]
    fn handles_tiny_blocks_and_many_claims() {
        let s = Scheduler::with_threads(4);
        check_partition(&s, 4, 30_000, 64, 7);
    }

    #[test]
    fn partitions_at_kernel_and_paper_block_sizes() {
        let s = Scheduler::with_threads(4);
        for (seed, bs) in [1, 3, OFFSETS - 1, OFFSETS + 1, 1000, 5000]
            .into_iter()
            .enumerate()
        {
            for team in [1, 2, 4] {
                // Enough blocks for every member to claim several from each
                // side, plus a sub-block tail.
                let n = bs * 6 * team + bs / 2 + 1;
                check_partition(&s, team, n, bs, seed as u64);
            }
        }
    }

    #[test]
    fn compaction_moves_every_unfinished_block_into_the_target_slots() {
        // More unfinished blocks than one 64-slot mask, on both sides.
        let (bs, team, nblocks) = (2, 150, 600);
        let p = ParallelPartitioner::new(nblocks * bs, bs, team);
        let mut data: Vec<u32> = (0..nblocks * bs).map(|i| (i / bs) as u32).collect();
        let ptr = SendMutPtr::from_slice(&mut data);
        let mut rng = teamsteal_util::rng::Xoshiro256::new(9);
        // Left region: blocks 0..300, 130 of them unfinished, some already
        // inside the target slots 170..300.
        let mut left: Vec<usize> = (0..300).collect();
        rng.shuffle(&mut left);
        left.truncate(130);
        for (slot, &b) in left.iter().enumerate() {
            p.leftover_left[slot].store(b + 1, Ordering::Relaxed);
        }
        p.compact_leftovers(ptr, &p.leftover_left, 170..300);
        let mut moved: Vec<usize> = (170..300).map(|b| data[b * bs] as usize).collect();
        moved.sort_unstable();
        left.sort_unstable();
        assert_eq!(
            moved, left,
            "target slots must hold exactly the unfinished blocks"
        );
        let mut all: Vec<u32> = data.chunks(bs).map(|c| c[0]).collect();
        assert!(data.chunks(bs).all(|c| c[0] == c[1]), "blocks move whole");
        all.sort_unstable();
        assert_eq!(all, (0..nblocks as u32).collect::<Vec<_>>());
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn claim_counters_accept_u32_max_blocks() {
        let p = ParallelPartitioner::new(u32::MAX as usize, 1, 1);
        assert_eq!(p.num_blocks(), u32::MAX as usize);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "32-bit claim counters")]
    fn claim_counters_reject_more_than_u32_max_blocks() {
        // One block more than the 32-bit halves of `taken` can count.
        let _ = ParallelPartitioner::new((u32::MAX as usize + 1) * 4, 4, 1);
    }

    #[test]
    fn all_elements_below_pivot_reports_full_split() {
        let s = Scheduler::with_threads(2);
        let n = 8_192;
        let mut data = vec![3u32; n];
        let ptr = SendMutPtr::from_slice(&mut data);
        let partitioner = Arc::new(ParallelPartitioner::new(n, 512, 2));
        let split_seen = Arc::new(AtomicUsize::new(0));
        {
            let partitioner = Arc::clone(&partitioner);
            let split_seen = Arc::clone(&split_seen);
            s.run_team(2, move |ctx| {
                let split = partitioner.run(ctx, ptr, 3);
                split_seen.store(split, Ordering::Release);
            });
        }
        assert_eq!(split_seen.load(Ordering::Acquire), n);
    }

    #[test]
    fn acquire_block_never_hands_out_duplicates() {
        let p = ParallelPartitioner::new(64 * 128, 128, 4);
        let mut seen = vec![false; p.num_blocks()];
        let mut toggle = true;
        loop {
            let side = if toggle { Side::Left } else { Side::Right };
            toggle = !toggle;
            match p.acquire_block(side) {
                Some(b) => {
                    assert!(!seen[b], "block {b} handed out twice");
                    seen[b] = true;
                }
                None => break,
            }
        }
        assert!(seen.into_iter().all(|s| s), "every block must be claimed");
    }
}
