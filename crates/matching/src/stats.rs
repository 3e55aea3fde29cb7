//! Counters describing one matching run.

/// Counters accumulated by filters and enumerators.
///
/// These feed the paper's analysis quantities: candidate-set sizes explain
/// filtering precision; recursion counts explain why per-SI-test time differs
/// by orders of magnitude between VF2 and CFL/GraphQL-based verification; the
/// kernel counters explain where enumeration time goes once local-candidate
/// computation is intersection-driven.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MatchingStats {
    /// Total candidates across all `Φ(u)` after filtering.
    pub candidates: u64,
    /// Backtracking calls during enumeration.
    pub recursions: u64,
    /// Embeddings reported.
    pub embeddings: u64,
    /// Pairwise sorted-set intersections executed by the enumeration kernel.
    pub intersections: u64,
    /// Single-bit membership tests (candidate `Φ(u)` bitmap and hub
    /// adjacency bitmap probes).
    pub bitmap_probes: u64,
}

impl MatchingStats {
    /// Merges another run's counters into this one.
    pub fn merge(&mut self, other: &MatchingStats) {
        self.candidates += other.candidates;
        self.recursions += other.recursions;
        self.embeddings += other.embeddings;
        self.intersections += other.intersections;
        self.bitmap_probes += other.bitmap_probes;
    }

    /// The kernel-counter projection of these stats.
    pub fn kernel(&self) -> KernelStats {
        KernelStats {
            intersections: self.intersections,
            bitmap_probes: self.bitmap_probes,
            ..KernelStats::default()
        }
    }
}

/// The intersection-kernel counters of one or more enumeration runs.
///
/// Carried by `QueryOutcome`/`QueryRecord` in `sqp-core` and summed across
/// graphs and workers; collected via the [`ExecCtx`](crate::ExecCtx)
/// attached to the query's deadline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Pairwise sorted-set intersections executed.
    pub intersections: u64,
    /// Always 0: no galloping kernel exists. Kept, with its wire word and
    /// `/metrics` family, for the benchmark ledger, its only reader; ROADMAP
    /// item 1 removes it.
    pub gallop_hits: u64,
    /// Always 0: no vector kernel exists. Kept like `gallop_hits`.
    pub simd_hits: u64,
    /// Single-bit membership tests (`Φ(u)` and hub adjacency bitmaps).
    pub bitmap_probes: u64,
}

impl KernelStats {
    /// Adds another set of counters into this one.
    pub fn merge(&mut self, other: &KernelStats) {
        self.intersections += other.intersections;
        self.gallop_hits += other.gallop_hits;
        self.simd_hits += other.simd_hits;
        self.bitmap_probes += other.bitmap_probes;
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == KernelStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds() {
        let mut a = MatchingStats {
            candidates: 1,
            recursions: 2,
            embeddings: 3,
            intersections: 4,
            bitmap_probes: 6,
        };
        a.merge(&MatchingStats {
            candidates: 10,
            recursions: 20,
            embeddings: 30,
            intersections: 40,
            bitmap_probes: 60,
        });
        assert_eq!(
            a,
            MatchingStats {
                candidates: 11,
                recursions: 22,
                embeddings: 33,
                intersections: 44,
                bitmap_probes: 66,
            }
        );
        assert_eq!(
            a.kernel(),
            KernelStats { intersections: 44, gallop_hits: 0, simd_hits: 0, bitmap_probes: 66 }
        );
    }

    #[test]
    fn kernel_stats_merge_and_zero() {
        let mut k = KernelStats::default();
        assert!(k.is_zero());
        k.merge(&KernelStats { intersections: 1, gallop_hits: 2, simd_hits: 5, bitmap_probes: 3 });
        k.merge(&KernelStats { intersections: 1, gallop_hits: 0, simd_hits: 1, bitmap_probes: 1 });
        assert_eq!(
            k,
            KernelStats { intersections: 2, gallop_hits: 2, simd_hits: 6, bitmap_probes: 4 }
        );
        assert!(!k.is_zero());
    }
}
