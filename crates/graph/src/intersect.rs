//! Sorted-slice intersection.
//!
//! Local-candidate computation during enumeration is a multi-way intersection
//! of sorted vertex lists (label-restricted adjacencies and candidate sets).
//! A pairwise step against a vertex without an adjacency row is
//! [`retain_merge`]: a linear two-pointer merge, `O(|buf| + |other|)`, *in
//! place* over an accumulator so chained multi-way intersection never
//! allocates. Long lists are answered a word at a time by the adjacency rows
//! ([`crate::AdjacencyRows`]) instead.

use crate::vertex::VertexId;

/// Intersects `buf` with the sorted slice `other` in place via a linear
/// two-pointer merge. Both inputs must be strictly sorted.
pub fn retain_merge(buf: &mut Vec<VertexId>, other: &[VertexId]) {
    debug_assert!(buf.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(other.windows(2).all(|w| w[0] < w[1]));
    let mut w = 0;
    let mut i = 0;
    let mut j = 0;
    while i < buf.len() && j < other.len() {
        match buf[i].cmp(&other[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                buf[w] = buf[i];
                w += 1;
                i += 1;
                j += 1;
            }
        }
    }
    buf.truncate(w);
}

/// [`retain_merge`]; the third argument is ignored. Its only caller is the
/// benchmark ledger's intersection probe; ROADMAP item 1 removes it.
#[doc(hidden)]
pub fn retain_auto(buf: &mut Vec<VertexId>, other: &[VertexId], _scratch: &mut Vec<VertexId>) {
    retain_merge(buf, other);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(xs: &[u32]) -> Vec<VertexId> {
        xs.iter().copied().map(VertexId).collect()
    }

    /// `retain_merge` against the `filter`/`contains` reference.
    fn check(a: &[u32], b: &[u32]) {
        let expected: Vec<VertexId> = ids(a).into_iter().filter(|v| ids(b).contains(v)).collect();
        let mut buf = ids(a);
        retain_merge(&mut buf, &ids(b));
        assert_eq!(buf, expected);
    }

    #[test]
    fn basic_overlap() {
        check(&[1, 3, 5, 7, 9], &[2, 3, 4, 7, 10]);
    }

    #[test]
    fn disjoint_and_empty() {
        check(&[1, 2, 3], &[4, 5, 6]);
        check(&[], &[1, 2]);
        check(&[1, 2], &[]);
        check(&[], &[]);
    }

    #[test]
    fn identical_and_subset() {
        check(&[1, 2, 3], &[1, 2, 3]);
        check(&[2], &[1, 2, 3]);
        check(&[1, 2, 3], &[2]);
    }

    #[test]
    fn extreme_skew() {
        let big: Vec<u32> = (0..10_000).map(|i| i * 3).collect();
        check(&[3, 299, 29_997], &big);
        check(&big.clone(), &[3, 299, 29_997]);
    }

    #[test]
    fn boundaries() {
        // Elements beyond the end and before the start of `other`.
        check(&[100], &[1, 2, 3]);
        check(&[0], &[5, 6, 7]);
        check(&[0, 100], &[5, 6, 7]);
    }

    #[test]
    fn single_element_lists() {
        check(&[7], &[7]);
        check(&[7], &[8]);
        let big: Vec<u32> = (0..100).collect();
        check(&[42], &big);
        check(&big, &[42]);
    }

    #[test]
    fn randomized_agreement() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let n = rng.random_range(0u32..60);
            let m = rng.random_range(0u32..600);
            let mut a: Vec<u32> = (0..n).map(|_| rng.random_range(0u32..500)).collect();
            let mut b: Vec<u32> = (0..m).map(|_| rng.random_range(0u32..500)).collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            check(&a, &b);
            check(&b, &a);
        }
    }
}
