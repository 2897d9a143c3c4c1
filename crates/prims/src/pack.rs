//! Packing (filtering) primitives.
//!
//! The paper's linear-work variant (Theorem 4.5) densely packs the surviving
//! vertices of a prefix into new arrays, and graph construction drops
//! duplicate arcs. Packing a slice under a predicate is a scan over 0/1
//! flags followed by a scatter, which is what [`par_pack`] implements. Order
//! is preserved and the output matches the sequential filter exactly.

use rayon::prelude::*;

use crate::scan::exclusive_scan_in_place;
use crate::util::{blocks, default_num_blocks, SEQUENTIAL_CUTOFF};

/// Sequential pack: the elements of `input` whose flag is `true`, in order.
///
/// ```
/// use greedy_prims::pack::pack;
/// let out = pack(&[10, 20, 30, 40], &[true, false, true, false]);
/// assert_eq!(out, vec![10, 30]);
/// ```
pub fn pack<T: Copy>(input: &[T], flags: &[bool]) -> Vec<T> {
    assert_eq!(
        input.len(),
        flags.len(),
        "pack: input/flags length mismatch"
    );
    input
        .iter()
        .zip(flags.iter())
        .filter_map(|(&x, &keep)| keep.then_some(x))
        .collect()
}

/// Sequential pack of the *indices* whose flag is `true`.
///
/// ```
/// use greedy_prims::pack::pack_index;
/// assert_eq!(pack_index(&[false, true, true, false, true]), vec![1, 2, 4]);
/// ```
pub fn pack_index(flags: &[bool]) -> Vec<usize> {
    flags
        .iter()
        .enumerate()
        .filter_map(|(i, &keep)| keep.then_some(i))
        .collect()
}

/// Parallel pack: identical output to [`pack`], computed with a blocked
/// count–scan–scatter pass.
pub fn par_pack<T: Copy + Send + Sync>(input: &[T], flags: &[bool]) -> Vec<T> {
    assert_eq!(
        input.len(),
        flags.len(),
        "par_pack: input/flags length mismatch"
    );
    let n = input.len();
    if n < SEQUENTIAL_CUTOFF {
        return pack(input, flags);
    }
    let ranges = blocks(n, SEQUENTIAL_CUTOFF / 2, default_num_blocks());

    // Count survivors per block.
    let mut counts: Vec<usize> = ranges
        .par_iter()
        .map(|r| flags[r.clone()].iter().filter(|&&b| b).count())
        .collect();
    let total = exclusive_scan_in_place(&mut counts);

    // Scatter each block into its slot range of the output.
    let mut out: Vec<T> = Vec::with_capacity(total);
    // Fill with the first element as a placeholder; overwritten below. Using
    // resize keeps this safe (no uninitialized memory) at the cost of one
    // extra pass, which is cheap relative to the filter itself.
    if total == 0 {
        return out;
    }
    out.resize(total, input[0]);

    // Disjoint output slices per block.
    let mut out_slices: Vec<&mut [T]> = Vec::with_capacity(ranges.len());
    {
        let mut rest = out.as_mut_slice();
        for (i, r) in ranges.iter().enumerate() {
            let cnt = if i + 1 < counts.len() {
                counts[i + 1] - counts[i]
            } else {
                total - counts[i]
            };
            let _ = r;
            let (head, tail) = rest.split_at_mut(cnt);
            out_slices.push(head);
            rest = tail;
        }
    }

    ranges
        .par_iter()
        .zip(out_slices.into_par_iter())
        .for_each(|(r, dst)| {
            let mut k = 0;
            for i in r.clone() {
                if flags[i] {
                    dst[k] = input[i];
                    k += 1;
                }
            }
            debug_assert_eq!(k, dst.len());
        });
    out
}

/// Parallel pack of indices with `flags[i] == true`; identical output to
/// [`pack_index`].
pub fn par_pack_index(flags: &[bool]) -> Vec<usize> {
    let n = flags.len();
    if n < SEQUENTIAL_CUTOFF {
        return pack_index(flags);
    }
    // Reuse par_pack over the index range.
    let indices: Vec<usize> = (0..n).collect();
    par_pack(&indices, flags)
}

/// Parallel adjacent-duplicate removal: identical output to [`Vec::dedup`],
/// computed as a parallel keep-flag pass (`keep[i] = i == 0 || v[i] != v[i-1]`)
/// followed by [`par_pack`].
///
/// On sorted input this removes all duplicates, which is how the CSR build
/// and edge-list canonicalization use it after their radix sorts — the serial
/// `Vec::dedup` there was the last O(n) sequential tail on those paths.
///
/// ```
/// use greedy_prims::pack::par_dedup_adjacent;
/// assert_eq!(par_dedup_adjacent(vec![1, 1, 2, 3, 3, 3]), vec![1, 2, 3]);
/// ```
pub fn par_dedup_adjacent<T: PartialEq + Copy + Send + Sync>(mut v: Vec<T>) -> Vec<T> {
    if v.len() < SEQUENTIAL_CUTOFF {
        v.dedup();
        return v;
    }
    let slice = &v[..];
    let flags: Vec<bool> = (0..slice.len())
        .into_par_iter()
        .map(|i| i == 0 || slice[i] != slice[i - 1])
        .collect();
    par_pack(&v, &flags)
}

/// Splits `input` into (elements with `flags[i] == true`, elements with
/// `flags[i] == false`), both preserving order.
///
/// ```
/// use greedy_prims::pack::split_by;
/// let (yes, no) = split_by(&[1, 2, 3, 4], &[true, false, false, true]);
/// assert_eq!(yes, vec![1, 4]);
/// assert_eq!(no, vec![2, 3]);
/// ```
pub fn split_by<T: Copy>(input: &[T], flags: &[bool]) -> (Vec<T>, Vec<T>) {
    assert_eq!(input.len(), flags.len(), "split_by: length mismatch");
    let mut yes = Vec::new();
    let mut no = Vec::new();
    for (&x, &keep) in input.iter().zip(flags) {
        if keep {
            yes.push(x);
        } else {
            no.push(x);
        }
    }
    (yes, no)
}

/// Parallel filter by predicate; preserves order and matches
/// `input.iter().filter(...)` exactly.
pub fn par_filter<T, F>(input: &[T], pred: F) -> Vec<T>
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> bool + Send + Sync,
{
    let flags: Vec<bool> = input.par_iter().map(&pred).collect();
    par_pack(input, &flags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pack_empty() {
        assert!(pack::<u32>(&[], &[]).is_empty());
        assert!(par_pack::<u32>(&[], &[]).is_empty());
    }

    #[test]
    fn pack_all_true_and_all_false() {
        let data: Vec<u32> = (0..10).collect();
        assert_eq!(pack(&data, &[true; 10]), data);
        assert!(pack(&data, &[false; 10]).is_empty());
    }

    #[test]
    fn par_pack_matches_sequential_large() {
        let data: Vec<u64> = (0..50_000).collect();
        let flags: Vec<bool> = data.iter().map(|&x| x % 3 == 0).collect();
        assert_eq!(par_pack(&data, &flags), pack(&data, &flags));
    }

    #[test]
    fn par_pack_all_false_large() {
        let data: Vec<u64> = (0..10_000).collect();
        let flags = vec![false; data.len()];
        assert!(par_pack(&data, &flags).is_empty());
    }

    #[test]
    fn par_pack_index_matches() {
        let flags: Vec<bool> = (0..30_000).map(|i| i % 7 == 0).collect();
        assert_eq!(par_pack_index(&flags), pack_index(&flags));
    }

    #[test]
    fn split_by_partitions_everything() {
        let data: Vec<u32> = (0..100).collect();
        let flags: Vec<bool> = data.iter().map(|&x| x % 2 == 0).collect();
        let (yes, no) = split_by(&data, &flags);
        assert_eq!(yes.len() + no.len(), data.len());
        assert!(yes.iter().all(|x| x % 2 == 0));
        assert!(no.iter().all(|x| x % 2 == 1));
    }

    #[test]
    fn par_filter_matches_std_filter() {
        let data: Vec<u64> = (0..20_000).map(|i| i * 17 % 1000).collect();
        let expected: Vec<u64> = data.iter().copied().filter(|&x| x < 500).collect();
        assert_eq!(par_filter(&data, |&x| x < 500), expected);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn pack_length_mismatch_panics() {
        pack(&[1, 2, 3], &[true]);
    }

    #[test]
    fn par_dedup_matches_vec_dedup_large() {
        // Duplicate-heavy sorted input well above the sequential cutoff.
        let v: Vec<u64> = (0..60_000u64).map(|i| i / 7).collect();
        let mut expected = v.clone();
        expected.dedup();
        assert_eq!(par_dedup_adjacent(v), expected);
    }

    #[test]
    fn par_dedup_unsorted_removes_only_adjacent_runs() {
        // Same contract as Vec::dedup: non-adjacent duplicates survive.
        let v: Vec<u32> = (0..30_000u32).map(|i| i % 3).collect();
        let mut expected = v.clone();
        expected.dedup();
        assert_eq!(par_dedup_adjacent(v), expected);
    }

    #[test]
    fn par_dedup_edge_cases() {
        assert_eq!(par_dedup_adjacent(Vec::<u32>::new()), Vec::<u32>::new());
        assert_eq!(par_dedup_adjacent(vec![5u32]), vec![5]);
        assert_eq!(par_dedup_adjacent(vec![9u32; 50_000]), vec![9]);
    }

    proptest! {
        #[test]
        fn prop_par_pack_equals_pack(
            data in proptest::collection::vec(any::<u32>(), 0..4000),
            seed in any::<u64>(),
        ) {
            let flags: Vec<bool> = data
                .iter()
                .enumerate()
                .map(|(i, _)| (seed.wrapping_mul(i as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15)) & 1 == 0)
                .collect();
            prop_assert_eq!(par_pack(&data, &flags), pack(&data, &flags));
        }

        #[test]
        fn prop_par_dedup_equals_vec_dedup(data in proptest::collection::vec(0u32..60, 0..4000)) {
            let mut sorted = data;
            sorted.sort_unstable();
            let mut expected = sorted.clone();
            expected.dedup();
            prop_assert_eq!(par_dedup_adjacent(sorted), expected);
        }

        #[test]
        fn prop_pack_index_count(flags in proptest::collection::vec(any::<bool>(), 0..4000)) {
            let idx = pack_index(&flags);
            prop_assert_eq!(idx.len(), flags.iter().filter(|&&b| b).count());
            for i in idx {
                prop_assert!(flags[i]);
            }
        }
    }
}
