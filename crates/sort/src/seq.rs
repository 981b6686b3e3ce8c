//! Sequential baselines: the standard-library reference sort and the
//! handwritten sequential Quicksort ("SeqQS").

use crate::SortConfig;

/// The "best available sequential sort" the paper normalizes all speedups to
/// (its tables call it *Seq/STL*; `std::sort` there, `slice::sort_unstable`
/// — pattern-defeating quicksort — here).
pub fn std_sort(data: &mut [u32]) {
    data.sort_unstable();
}

/// Handwritten sequential Quicksort with the same cutoff as the parallel
/// variants (the paper's *SeqQS* column): median-of-three pivot selection,
/// two-pointer partitioning, recursion into the smaller side first and a
/// switch to [`std_sort`] below the cutoff.
pub fn sequential_quicksort(data: &mut [u32], config: &SortConfig) {
    quicksort_recursive(data, config.cutoff.max(1));
}

fn quicksort_recursive(mut data: &mut [u32], cutoff: usize) {
    loop {
        let n = data.len();
        if n <= cutoff {
            std_sort(data);
            return;
        }
        let pivot = median_of_three(data);
        let (left_len, right_start) = split_around(data, pivot);
        // Recurse into the smaller part, loop on the larger one so the stack
        // depth stays O(log n) even for adversarial inputs.
        let whole = std::mem::take(&mut data);
        let (left, rest) = whole.split_at_mut(left_len);
        let right = &mut rest[right_start - left_len..];
        if left.len() < right.len() {
            quicksort_recursive(left, cutoff);
            data = right;
        } else {
            quicksort_recursive(right, cutoff);
            data = left;
        }
    }
}

/// Median of the first, middle and last element — the pivot selection used by
/// every Quicksort variant in this crate.
pub fn median_of_three(data: &[u32]) -> u32 {
    let n = data.len();
    debug_assert!(n >= 1);
    let a = data[0];
    let b = data[n / 2];
    let c = data[n - 1];
    a.max(b).min(a.min(b).max(c))
}

/// Partitions `data` around the pivot *value* and returns
/// `(left_len, right_start)` such that sorting `[0, left_len)` and
/// `[right_start, n)` independently sorts the whole slice; the (possibly
/// empty) gap `[left_len, right_start)` consists of elements equal to the
/// pivot that are already in their final position.
///
/// In the common case this is a single two-pointer pass splitting into
/// `≤ pivot | > pivot`.  Only when every element is `≤ pivot` (e.g. the pivot
/// is the maximum, or the slice is constant) a second pass separates the
/// elements equal to the pivot so both recursion ranges are strictly smaller
/// than the input — this is what keeps duplicate-heavy inputs from
/// degenerating into infinite recursion.
pub fn split_around(data: &mut [u32], pivot: u32) -> (usize, usize) {
    let le = partition_by(data, |x| x <= pivot);
    if le < data.len() {
        (le, le)
    } else {
        // Everything is <= pivot (e.g. pivot is the maximum): split off the
        // equals so the recursion strictly shrinks.
        let lt = partition_by(data, |x| x < pivot);
        (lt, data.len())
    }
}

/// Width of the kernel's offset buffers: how many elements of a block one
/// scan classifies before the swaps.  Also the block size of
/// [`partition_by`].  Offsets within a window are stored as `u8`.
pub(crate) const OFFSETS: usize = 128;
const _: () = assert!(OFFSETS.is_power_of_two() && OFFSETS <= 256);

/// In-place partition by a predicate: afterwards every element satisfying
/// `pred` precedes every element that does not; returns the number of
/// elements satisfying `pred`.
///
/// This is the Tsigas–Zhang partition of [`crate::parallel_partition`] with
/// a team of one: blocks of 128 elements are taken from both ends and
/// neutralized pairwise by a branchless kernel shared with the team
/// partition.  The fewer than two blocks left in the middle are finished by
/// a two-pointer pass.  Misplaced elements are paired in the same order as
/// by a plain two-pointer (Hoare) partition, so the result is the same
/// permutation.
pub fn partition_by(data: &mut [u32], pred: impl Fn(u32) -> bool) -> usize {
    // data[..lo] satisfies `pred` and data[lo..lo_end] is the unclassified
    // rest of the current left block; data[hi_start..hi] is the unclassified
    // rest of the current right block and data[hi..] fails `pred`.
    let (mut lo, mut lo_end) = (0, 0);
    let (mut hi_start, mut hi) = (data.len(), data.len());
    loop {
        if lo == lo_end {
            if hi_start - lo_end < OFFSETS {
                break;
            }
            lo_end += OFFSETS;
        }
        if hi == hi_start {
            if hi_start - lo_end < OFFSETS {
                break;
            }
            hi_start -= OFFSETS;
        }
        let (head, tail) = data.split_at_mut(hi_start);
        let (l, r) = neutralize(&mut head[lo..lo_end], &mut tail[..hi - hi_start], &pred);
        lo += l;
        hi -= r;
    }
    lo + two_pointer_partition(&mut data[lo..hi], &pred)
}

/// The block-neutralization kernel shared by [`partition_by`] and
/// [`crate::ParallelPartitioner`], after BlockQuicksort (Edelkamp & Weiß,
/// ESA 2016).
///
/// Swaps elements of `left` that fail `pred` with elements of `right` that
/// satisfy it until one of the two blocks is exhausted; `left` is scanned
/// from its start and `right` from its end.  Returns `(l, r)` such that
/// `left[..l]` all satisfy `pred` and the last `r` elements of `right` all
/// fail it; `l == left.len()` or `r == right.len()`.
///
/// Each block is scanned in windows of [`OFFSETS`] elements.  A scan writes
/// every offset into a buffer and advances the buffer's length by
/// `misplaced(x) as usize`, so classification has no data-dependent branch;
/// then `min(nl, nr)` pairs are swapped.
pub(crate) fn neutralize(
    left: &mut [u32],
    right: &mut [u32],
    pred: impl Fn(u32) -> bool,
) -> (usize, usize) {
    let mut ls = Offsets::new();
    let mut rs = Offsets::new();
    loop {
        while ls.pending() == 0 && ls.scanned < left.len() {
            ls.scan(left[ls.scanned..].iter().take(OFFSETS), |x| !pred(x));
        }
        while rs.pending() == 0 && rs.scanned < right.len() {
            rs.scan(
                right[..right.len() - rs.scanned].iter().rev().take(OFFSETS),
                &pred,
            );
        }
        let k = ls.pending().min(rs.pending());
        if k == 0 {
            return (ls.classified(), rs.classified());
        }
        // Right offsets count from the block's end.
        let (lb, rb) = (ls.base, right.len() - 1 - rs.base);
        for (&a, &b) in ls.take(k).iter().zip(rs.take(k)) {
            std::mem::swap(&mut left[lb + a as usize], &mut right[rb - b as usize]);
        }
    }
}

/// One side of [`neutralize`]: the offsets of the misplaced elements of the
/// window last scanned, relative to `base`, counted in scan direction.
struct Offsets {
    buf: [u8; OFFSETS],
    /// Start of the window the buffer refers to.
    base: usize,
    /// Length of the scanned part of the block.
    scanned: usize,
    /// Pending offsets: `buf[start..end]`.
    start: usize,
    end: usize,
}

impl Offsets {
    fn new() -> Self {
        Offsets {
            buf: [0; OFFSETS],
            base: 0,
            scanned: 0,
            start: 0,
            end: 0,
        }
    }

    fn pending(&self) -> usize {
        self.end - self.start
    }

    /// Scans the next window (at most [`OFFSETS`] elements, in scan order)
    /// and records the offsets of the elements for which `misplaced` holds.
    fn scan<'a>(
        &mut self,
        window: impl ExactSizeIterator<Item = &'a u32>,
        misplaced: impl Fn(u32) -> bool,
    ) {
        let len = window.len();
        let mut num = 0;
        for (t, &x) in window.enumerate() {
            // num <= t < OFFSETS: the mask only spares the bounds check.
            self.buf[num % OFFSETS] = t as u8;
            num += misplaced(x) as usize;
        }
        self.base = self.scanned;
        self.scanned += len;
        self.start = 0;
        self.end = num;
    }

    /// Removes the next `k` pending offsets.
    fn take(&mut self, k: usize) -> &[u8] {
        self.start += k;
        &self.buf[self.start - k..self.start]
    }

    /// Length of the block prefix (in scan order) known to be in place: up
    /// to the first pending misplaced element, or the whole scanned part.
    fn classified(&self) -> usize {
        if self.pending() == 0 {
            self.scanned
        } else {
            self.base + self.buf[self.start] as usize
        }
    }
}

/// Two-pointer partition of the short middle range [`partition_by`] leaves.
fn two_pointer_partition(data: &mut [u32], pred: impl Fn(u32) -> bool) -> usize {
    let mut i = 0usize;
    let mut j = data.len();
    loop {
        while i < j && pred(data[i]) {
            i += 1;
        }
        while i < j && !pred(data[j - 1]) {
            j -= 1;
        }
        if i >= j {
            return i;
        }
        data.swap(i, j - 1);
        i += 1;
        j -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use teamsteal_data::{is_permutation_of, is_sorted, Distribution};
    use teamsteal_util::rng::Xoshiro256;

    #[test]
    fn std_sort_sorts() {
        let mut v = vec![5u32, 3, 9, 1, 1, 0];
        std_sort(&mut v);
        assert_eq!(v, vec![0, 1, 1, 3, 5, 9]);
    }

    #[test]
    fn median_of_three_examples() {
        assert_eq!(median_of_three(&[1, 2, 3]), 2);
        assert_eq!(median_of_three(&[3, 2, 1]), 2);
        assert_eq!(median_of_three(&[2, 9, 2]), 2);
        assert_eq!(median_of_three(&[7]), 7);
        assert_eq!(median_of_three(&[7, 7]), 7);
    }

    #[test]
    fn partition_by_basic() {
        let mut v = vec![4u32, 1, 7, 2, 9, 3];
        let k = partition_by(&mut v, |x| x <= 3);
        assert_eq!(k, 3);
        assert!(v[..k].iter().all(|&x| x <= 3));
        assert!(v[k..].iter().all(|&x| x > 3));
    }

    #[test]
    fn partition_by_all_or_nothing() {
        let mut v = vec![1u32, 2, 3];
        assert_eq!(partition_by(&mut v, |_| true), 3);
        assert_eq!(partition_by(&mut v, |_| false), 0);
        let mut empty: Vec<u32> = vec![];
        assert_eq!(partition_by(&mut empty, |_| true), 0);
    }

    /// `n` elements drawn from `keys` distinct values (`None`: all of `u32`).
    fn keyed_input(n: usize, keys: Option<u64>, seed: u64) -> Vec<u32> {
        let mut rng = Xoshiro256::new(seed);
        (0..n)
            .map(|_| match keys {
                Some(k) => rng.next_below(k) as u32,
                None => rng.next_u32(),
            })
            .collect()
    }

    /// Checks the `partition_by` contract on `v` and that the result is the
    /// permutation the plain two-pointer partition produces.
    fn check_partition_by(v: &[u32], pred: impl Fn(u32) -> bool + Copy) {
        let mut blocked = v.to_vec();
        let k = partition_by(&mut blocked, pred);
        assert!(blocked[..k].iter().all(|&x| pred(x)), "n={}", v.len());
        assert!(blocked[k..].iter().all(|&x| !pred(x)), "n={}", v.len());
        assert!(is_permutation_of(v, &blocked));
        let mut hoare = v.to_vec();
        assert_eq!(two_pointer_partition(&mut hoare, pred), k);
        assert_eq!(hoare, blocked, "n={}", v.len());
    }

    #[test]
    fn partition_by_at_every_length_around_block_boundaries() {
        for n in 0..=4 * OFFSETS + 1 {
            for keys in [Some(1), Some(2), Some(64), None] {
                let v = keyed_input(n, keys, n as u64);
                let pivot = if v.is_empty() { 0 } else { median_of_three(&v) };
                check_partition_by(&v, |x| x <= pivot);
                check_partition_by(&v, |x| x < pivot);
                check_partition_by(&v, |_| true);
                check_partition_by(&v, |_| false);
            }
        }
    }

    #[test]
    fn neutralize_exhausts_one_block_and_classifies_both_ends() {
        let lens = [0, 1, OFFSETS - 1, OFFSETS, OFFSETS + 1, 3 * OFFSETS + 5];
        for (seed, (&ln, &rn)) in lens
            .iter()
            .flat_map(|l| lens.iter().map(move |r| (l, r)))
            .enumerate()
        {
            for keys in [Some(2), Some(64), None] {
                let original = keyed_input(ln + rn, keys, seed as u64);
                let pivot = original.first().copied().unwrap_or(0);
                let mut v = original.clone();
                let (left, right) = v.split_at_mut(ln);
                let (l, r) = neutralize(left, right, |x| x <= pivot);
                assert!(l == ln || r == rn, "neither block exhausted ({ln}, {rn})");
                assert!(left[..l].iter().all(|&x| x <= pivot));
                assert!(right[rn - r..].iter().all(|&x| x > pivot));
                assert!(l == ln || left[l] > pivot, "classified prefix is maximal");
                assert!(
                    r == rn || right[rn - r - 1] <= pivot,
                    "classified suffix is maximal"
                );
                assert!(is_permutation_of(&original, &v));
            }
        }
    }

    #[test]
    fn split_around_two_pass_path_splits_off_the_equals() {
        // The pivot is the maximum, so the first pass puts everything on the
        // left and the second separates the elements equal to it.
        for n in [3 * OFFSETS + 7, 10_000] {
            let original = keyed_input(n, Some(3), 5);
            let mut v = original.clone();
            let (lt, end) = split_around(&mut v, 2);
            assert_eq!(end, n);
            assert_eq!(lt, original.iter().filter(|&&x| x < 2).count());
            assert!(v[..lt].iter().all(|&x| x < 2));
            assert!(v[lt..].iter().all(|&x| x == 2));
            assert!(is_permutation_of(&original, &v));
        }
    }

    #[test]
    fn split_around_handles_all_equal_input() {
        let mut v = vec![5u32; 100];
        let (lt, ge) = split_around(&mut v, 5);
        assert_eq!(lt, 0);
        assert_eq!(ge, 100);
    }

    #[test]
    fn split_around_ranges_sort_independently() {
        let mut v: Vec<u32> = (0..1000).map(|i| (i * 7919) % 50).collect();
        let original = v.clone();
        let pivot = 25;
        let (left_len, right_start) = split_around(&mut v, pivot);
        assert!(left_len <= right_start && right_start <= v.len());
        assert!(v[..left_len].iter().all(|&x| x <= pivot));
        assert!(v[left_len..right_start].iter().all(|&x| x == pivot));
        assert!(v[right_start..].iter().all(|&x| x >= pivot));
        // Sorting the two recursion ranges independently sorts the slice.
        v[..left_len].sort_unstable();
        v[right_start..].sort_unstable();
        assert!(is_sorted(&v));
        assert!(is_permutation_of(&original, &v));
    }

    #[test]
    fn sequential_quicksort_sorts_every_distribution() {
        let cfg = SortConfig::default();
        for d in Distribution::ALL {
            let original = d.generate(50_000, 8, 11);
            let mut v = original.clone();
            sequential_quicksort(&mut v, &cfg);
            assert!(is_sorted(&v), "{d:?} not sorted");
            assert!(is_permutation_of(&original, &v), "{d:?} lost elements");
        }
    }

    #[test]
    fn sequential_quicksort_edge_cases() {
        let cfg = SortConfig {
            cutoff: 4,
            ..SortConfig::default()
        };
        for v in [
            vec![],
            vec![1u32],
            vec![2, 1],
            vec![3, 3, 3, 3, 3, 3, 3, 3, 3],
        ] {
            let mut s = v.clone();
            sequential_quicksort(&mut s, &cfg);
            assert!(is_sorted(&s));
            assert!(is_permutation_of(&v, &s));
        }
        // Already sorted and reverse sorted, larger than the cutoff.
        let mut asc: Vec<u32> = (0..10_000).collect();
        sequential_quicksort(&mut asc, &cfg);
        assert!(is_sorted(&asc));
        let mut desc: Vec<u32> = (0..10_000).rev().collect();
        sequential_quicksort(&mut desc, &cfg);
        assert!(is_sorted(&desc));
    }

    proptest! {
        #[test]
        fn quicksort_matches_std_sort(mut v in proptest::collection::vec(any::<u32>(), 0..2000)) {
            let mut reference = v.clone();
            reference.sort_unstable();
            sequential_quicksort(&mut v, &SortConfig { cutoff: 8, ..SortConfig::default() });
            prop_assert_eq!(v, reference);
        }

        #[test]
        fn partition_by_contract_near_block_boundaries(
            v in proptest::collection::vec(0u32..64, 0..=4 * OFFSETS + 1),
            pivot in 0u32..64,
        ) {
            check_partition_by(&v, |x| x <= pivot);
        }

        #[test]
        fn partition_by_is_a_partition(mut v in proptest::collection::vec(any::<u32>(), 0..500), pivot in any::<u32>()) {
            let original = v.clone();
            let k = partition_by(&mut v, |x| x <= pivot);
            prop_assert!(v[..k].iter().all(|&x| x <= pivot));
            prop_assert!(v[k..].iter().all(|&x| x > pivot));
            prop_assert!(is_permutation_of(&original, &v));
        }
    }
}
