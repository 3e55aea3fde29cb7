//! Subgraph matching algorithms.
//!
//! This crate implements both generations of subgraph-matching algorithms
//! that the paper compares:
//!
//! * **Direct enumeration** — [`vf2`] (the verifier inside every IFV
//!   subgraph-query algorithm), which maps query vertices to data vertices
//!   recursively with only local per-vertex filters.
//! * **Preprocessing enumeration** — [`graphql`] and [`cfl`], which first
//!   build a *complete candidate vertex set* `Φ(u)` for every query vertex
//!   (Definition III.1: every mapping that occurs in any subgraph isomorphism
//!   is inside `Φ`), then enumerate along an optimized matching order; and
//!   [`cfql`], the paper's combination of CFL's filter with GraphQL's
//!   join-based ordering.
//!
//! The preprocessing/enumeration split is surfaced directly in the
//! [`Matcher`] trait, because the paper's vcFV subgraph-query framework
//! (Algorithm 2) uses the preprocessing phase as its *filter* and a
//! first-match enumeration as its *verifier*.

// Library code avoids unwrap (CI denies it); tests may use it freely.
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod bipartite;
pub mod brute;
pub mod candidates;
pub mod cfl;
pub mod cfql;
pub mod deadline;
pub mod dynmatch;
pub mod embedding;
pub mod enumerate;
pub mod graphql;
pub mod obs;
pub mod stats;
pub mod vf2;

pub use candidates::{CandidateSpace, FilterResult};
pub use deadline::{Deadline, ExecCtx, Heartbeat, ResourceKind, ResourceLimits, Timeout};
pub use embedding::Embedding;
pub use enumerate::{enumerate_in_order, Enumerator};
pub use obs::{Phase, PhaseStats, Span, PHASE_COUNT};
pub use stats::{KernelStats, MatchingStats};

use sqp_graph::Graph;

/// A preprocessing-enumeration subgraph matching algorithm, split into the
/// two phases the vcFV framework repurposes (Algorithm 2).
///
/// # Examples
///
/// ```
/// use sqp_graph::{GraphBuilder, Label};
/// use sqp_matching::{Deadline, Matcher};
/// use sqp_matching::cfql::Cfql;
///
/// // Data: a labeled triangle; query: one of its edges.
/// let mut b = GraphBuilder::new();
/// let v0 = b.add_vertex(Label(0));
/// let v1 = b.add_vertex(Label(1));
/// let v2 = b.add_vertex(Label(2));
/// b.add_edge(v0, v1).unwrap();
/// b.add_edge(v1, v2).unwrap();
/// b.add_edge(v2, v0).unwrap();
/// let g = b.build();
///
/// let mut b = GraphBuilder::new();
/// let u0 = b.add_vertex(Label(0));
/// let u1 = b.add_vertex(Label(1));
/// b.add_edge(u0, u1).unwrap();
/// let q = b.build();
///
/// let cfql = Cfql::new();
/// assert!(cfql.is_subgraph(&q, &g, Deadline::none()).unwrap());
/// assert_eq!(cfql.count(&q, &g, u64::MAX, Deadline::none()).unwrap(), 1);
/// ```
pub trait Matcher: Send + Sync {
    /// Algorithm name as it appears in the paper's tables.
    fn name(&self) -> &'static str;

    /// The preprocessing phase: builds complete candidate vertex sets.
    ///
    /// Returns [`FilterResult::Pruned`] as soon as some `Φ(u)` is provably
    /// empty (Proposition III.1: the data graph cannot contain the query).
    fn filter(&self, q: &Graph, g: &Graph, deadline: Deadline) -> Result<FilterResult, Timeout>;

    /// Enumeration up to `limit` embeddings, invoking `on_match` for each;
    /// returns the number found (subgraph *matching*, Definition II.3).
    fn enumerate(
        &self,
        q: &Graph,
        g: &Graph,
        space: &CandidateSpace,
        limit: u64,
        deadline: Deadline,
        on_match: &mut dyn FnMut(&Embedding),
    ) -> Result<u64, Timeout>;

    /// The enumeration phase restricted to the first embedding (the paper's
    /// `Verify`): returns `Some(embedding)` iff `q ⊆ g`. This is
    /// [`enumerate`](Matcher::enumerate) with a limit of one; only wrappers
    /// that intercept the call itself (fault injection, probes) override it.
    fn find_first(
        &self,
        q: &Graph,
        g: &Graph,
        space: &CandidateSpace,
        deadline: Deadline,
    ) -> Result<Option<Embedding>, Timeout> {
        let mut first = None;
        self.enumerate(q, g, space, 1, deadline, &mut |e| first = Some(e.clone()))?;
        Ok(first)
    }

    /// Convenience: full filter + first-match verification.
    fn is_subgraph(&self, q: &Graph, g: &Graph, deadline: Deadline) -> Result<bool, Timeout> {
        match self.filter(q, g, deadline)? {
            FilterResult::Pruned => Ok(false),
            FilterResult::Space(space) => Ok(self.find_first(q, g, &space, deadline)?.is_some()),
        }
    }

    /// Convenience: count all embeddings (up to `limit`).
    fn count(&self, q: &Graph, g: &Graph, limit: u64, deadline: Deadline) -> Result<u64, Timeout> {
        match self.filter(q, g, deadline)? {
            FilterResult::Pruned => Ok(0),
            FilterResult::Space(space) => {
                self.enumerate(q, g, &space, limit, deadline, &mut |_| {})
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A deterministic span clock: every read advances one tick, so a span
    /// with no nested span lasts exactly one.
    fn tick() -> u64 {
        use std::cell::Cell;
        thread_local! { static T: Cell<u64> = const { Cell::new(0) }; }
        T.with(|t| {
            t.set(t.get() + 1);
            t.get()
        })
    }

    /// `find_first` is `enumerate` with a limit of one for every matcher:
    /// same embedding, same spans, and each enumerates through one
    /// `enumerate_in_order` call (one order, one enumeration). Guards the
    /// provided method against a later override drifting from it.
    #[test]
    fn find_first_is_enumerate_with_limit_one() {
        let matchers: [&dyn Matcher; 3] =
            [&cfl::Cfl::new(), &cfql::Cfql::new(), &graphql::GraphQl::new()];
        let sink = ExecCtx::with_clock(tick);
        let d = Deadline::none().with_ctx(sink);
        let mut rng = StdRng::seed_from_u64(77);
        let mut found = 0;
        for _ in 0..40 {
            let g = brute::random_graph(&mut rng, 10, 18, 2);
            let q = brute::random_connected_query(&mut rng, &g, 3);
            for m in matchers {
                let Some(space) = m.filter(&q, &g, Deadline::none()).unwrap().space() else {
                    continue;
                };
                sink.arm(ResourceLimits::unlimited());
                let first = m.find_first(&q, &g, &space, d).unwrap();
                let first_phases = sink.phase_snapshot();
                sink.arm(ResourceLimits::unlimited());
                let mut limited = None;
                let n =
                    m.enumerate(&q, &g, &space, 1, d, &mut |e| limited = Some(e.clone())).unwrap();
                let limited_phases = sink.phase_snapshot();
                assert_eq!(first, limited, "{}", m.name());
                assert_eq!(first_phases, limited_phases, "{}", m.name());
                assert_eq!(n, first.is_some() as u64, "{}", m.name());
                assert_eq!(first_phases.nanos_of(Phase::Order), 1, "{}: one order", m.name());
                assert_eq!(first_phases.nanos_of(Phase::Enumerate), 1, "{}", m.name());
                assert_eq!(first_phases.items_of(Phase::Enumerate), n, "{}", m.name());
                found += n;
            }
        }
        assert!(found > 0, "the fixture must contain matches");
    }
}
