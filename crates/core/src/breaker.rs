//! Per-graph circuit breakers for the serving layer.
//!
//! A data graph that keeps panicking or exhausting resource budgets hurts
//! every query that touches it: each pass pays the fault again (and, with
//! retries, several times). Serving-scale systems survive such *sick
//! shards* by tripping a breaker — after a threshold of consecutive faults
//! the graph is quarantined, subsequent queries short-circuit it to a
//! [`QueryStatus::Quarantined`](crate::engine::QueryStatus::Quarantined) record without consulting the matcher, and
//! after a cool-down a single *probe* query is let through to test whether
//! the fault was transient.
//!
//! The registry is deliberately clocked in **admitted queries** (logical
//! ticks), not wall time: the chaos suite asserts that trip/probe/close
//! transitions are byte-identical across 1/2/4/8 worker threads (invariant
//! I8 extended to the serving layer), which a wall-clock cool-down could
//! never guarantee.
//!
//! State machine per graph:
//!
//! ```text
//!            N consecutive faults
//!   Closed ─────────────────────────▶ Open
//!     ▲                                │ cool-down (admitted queries)
//!     │ probe succeeds                 ▼
//!     └───────────────────────────  HalfOpen
//!                                      │ probe faults
//!                                      └──────▶ Open (cool-down restarts)
//! ```
//!
//! Faults that count toward tripping are the ones a graph *causes* —
//! [`Panicked`](crate::engine::QueryStatus::Panicked) and
//! [`ResourceExhausted`](crate::engine::QueryStatus::ResourceExhausted) per-graph failure
//! records. A query-wide timeout interrupts the scan before every graph is
//! visited, so an interrupted query neither charges nor clears any breaker
//! it produced no record for.

use sqp_graph::database::GraphId;
use std::sync::Arc;

use crate::engine::QueryOutcome;
#[cfg(test)]
use crate::engine::QueryStatus;

/// Breaker position for one data graph.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BreakerState {
    /// Healthy: queries reach the matcher; consecutive faults are counted.
    #[default]
    Closed,
    /// Quarantined: queries short-circuit to a `Quarantined` record.
    Open,
    /// Cool-down elapsed: the next admitted query probes the graph.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BreakerState::Closed => write!(f, "closed"),
            BreakerState::Open => write!(f, "open"),
            BreakerState::HalfOpen => write!(f, "half-open"),
        }
    }
}

/// Tuning knobs for [`BreakerRegistry`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive breaker-relevant faults that trip a closed breaker.
    /// `0` disables breakers entirely (no masking, no bookkeeping).
    pub fault_threshold: u32,
    /// How many admitted queries an open breaker stays quarantined before
    /// moving to [`BreakerState::HalfOpen`] and letting a probe through.
    pub cooldown: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self { fault_threshold: 3, cooldown: 4 }
    }
}

impl BreakerConfig {
    /// A config with breakers switched off.
    pub fn disabled() -> Self {
        Self { fault_threshold: 0, cooldown: 0 }
    }

    /// Whether breakers are active.
    pub fn enabled(&self) -> bool {
        self.fault_threshold > 0
    }
}

/// One recorded breaker state change, for deterministic lifecycle asserts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerTransition {
    /// Logical time: the admitted-query count at which the change happened.
    pub tick: u64,
    /// Which graph's breaker moved.
    pub graph: GraphId,
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
}

#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    state: BreakerState,
    /// Consecutive faults observed while Closed.
    consecutive: u32,
    /// Tick at which an Open breaker moves to HalfOpen.
    reopen_at: u64,
    /// The [`observe`](BreakerRegistry::observe) call that last saw a
    /// failure record for this graph.
    seen: u64,
}

impl Slot {
    /// Closed with no fault streak: nothing for either hook to do.
    fn is_clean(&self) -> bool {
        self.state == BreakerState::Closed && self.consecutive == 0
    }
}

/// Tracks one circuit breaker per data graph.
///
/// Driven by the serving layer: [`begin_query`](BreakerRegistry::begin_query)
/// once per admitted query (advances the logical clock and yields the
/// quarantine mask), then [`observe`](BreakerRegistry::observe) with the
/// finalized outcome. Both cost O(failure records + breakers that are not
/// Closed-and-clean) and allocate nothing: the registry keeps the indices of
/// the unclean breakers, and the mask is rebuilt when a breaker opens or
/// stops being open, not per query.
#[derive(Debug)]
pub struct BreakerRegistry {
    config: BreakerConfig,
    slots: Vec<Slot>,
    /// Ascending indices of every slot that is not clean.
    unclean: Vec<u32>,
    /// `mask[i]` ⇔ slot `i` is Open.
    mask: Arc<[bool]>,
    /// Admitted-query count — the registry's logical clock.
    tick: u64,
    /// `observe` calls so far; stamps [`Slot::seen`].
    observations: u64,
    transitions: Vec<BreakerTransition>,
    trips: u64,
    short_circuits: u64,
}

impl BreakerRegistry {
    /// A registry for a database of `graphs` data graphs.
    pub fn new(config: BreakerConfig, graphs: usize) -> Self {
        let slots = if config.enabled() { vec![Slot::default(); graphs] } else { Vec::new() };
        Self {
            config,
            mask: vec![false; slots.len()].into(),
            slots,
            unclean: Vec::new(),
            tick: 0,
            observations: 0,
            transitions: Vec::new(),
            trips: 0,
            short_circuits: 0,
        }
    }

    fn transition(&mut self, idx: usize, to: BreakerState) {
        let from = self.slots[idx].state;
        self.slots[idx].state = to;
        if (from == BreakerState::Open) != (to == BreakerState::Open) {
            // A query in flight may still hold the old mask: replace it.
            self.mask = self.slots.iter().map(|s| s.state == BreakerState::Open).collect();
        }
        self.transitions.push(BreakerTransition {
            tick: self.tick,
            graph: GraphId(idx as u32),
            from,
            to,
        });
    }

    /// Opens breaker `idx` for a cool-down starting now.
    fn trip(&mut self, idx: usize) {
        self.slots[idx].consecutive = 0;
        self.slots[idx].reopen_at = self.tick + self.config.cooldown;
        self.trips += 1;
        self.transition(idx, BreakerState::Open);
    }

    /// Advances the logical clock for one admitted query: promotes open
    /// breakers whose cool-down elapsed to [`BreakerState::HalfOpen`]
    /// (probes pass through) and returns the quarantine mask for the graphs
    /// still open, or `None` when nothing is masked.
    pub fn begin_query(&mut self) -> Option<Arc<[bool]>> {
        self.tick += 1;
        let mut open = 0;
        for k in 0..self.unclean.len() {
            let i = self.unclean[k] as usize;
            if self.slots[i].state == BreakerState::Open && self.tick >= self.slots[i].reopen_at {
                self.transition(i, BreakerState::HalfOpen);
            }
            open += usize::from(self.slots[i].state == BreakerState::Open);
        }
        self.short_circuits += open as u64;
        (open > 0).then(|| Arc::clone(&self.mask))
    }

    /// Feeds one finalized outcome back: faulting graphs charge their
    /// breakers (tripping Closed ones at the threshold and re-opening
    /// half-open probes), while a *complete* scan clears the consecutive
    /// count of — and closes half-open breakers for — every graph it
    /// visited without fault. An interrupted scan (timeout / exhaustion)
    /// proves nothing about unvisited graphs, so absent records there are
    /// no observation.
    pub fn observe(&mut self, outcome: &QueryOutcome) {
        if self.slots.is_empty() {
            return;
        }
        self.observations += 1;
        // An interrupted scan stops claiming graphs early: only explicit
        // failure records carry information. (Panics and quarantine records
        // never interrupt the scan.)
        let interrupted = outcome.status.is_timed_out()
            || outcome.status.is_exhausted()
            || outcome.failures.iter().any(|f| f.status.is_timed_out() || f.status.is_exhausted());
        for f in &outcome.failures {
            let idx = f.graph.0 as usize;
            if idx >= self.slots.len() {
                continue;
            }
            self.slots[idx].seen = self.observations;
            // Quarantined: masked this query — no probe, nothing to learn.
            if f.status.is_quarantined() || !f.status.is_breaker_fault() {
                continue;
            }
            match self.slots[idx].state {
                BreakerState::HalfOpen => self.trip(idx),
                BreakerState::Closed => {
                    if self.slots[idx].consecutive == 0 {
                        if let Err(at) = self.unclean.binary_search(&f.graph.0) {
                            self.unclean.insert(at, f.graph.0);
                        }
                    }
                    self.slots[idx].consecutive += 1;
                    if self.slots[idx].consecutive >= self.config.fault_threshold {
                        self.trip(idx);
                    }
                }
                BreakerState::Open => {}
            }
        }
        if interrupted {
            return;
        }
        // Every graph without a record was visited without fault; only the
        // unclean ones have anything to clear.
        for k in 0..self.unclean.len() {
            let i = self.unclean[k] as usize;
            if self.slots[i].seen == self.observations {
                continue;
            }
            self.slots[i].consecutive = 0;
            if self.slots[i].state == BreakerState::HalfOpen {
                // The probe came back clean: the graph healed.
                self.transition(i, BreakerState::Closed);
            }
        }
        let slots = &self.slots;
        self.unclean.retain(|&i| !slots[i as usize].is_clean());
    }

    /// The registry's configuration.
    pub fn config(&self) -> BreakerConfig {
        self.config
    }

    /// Current state of one graph's breaker (Closed when disabled).
    pub fn state(&self, graph: GraphId) -> BreakerState {
        self.slots.get(graph.0 as usize).map_or(BreakerState::Closed, |s| s.state)
    }

    fn count_in(&self, state: BreakerState) -> usize {
        self.unclean.iter().filter(|&&i| self.slots[i as usize].state == state).count()
    }

    /// Number of breakers currently open (quarantining their graph).
    pub fn open_count(&self) -> usize {
        self.count_in(BreakerState::Open)
    }

    /// Number of breakers currently half-open (awaiting a probe result).
    pub fn half_open_count(&self) -> usize {
        self.count_in(BreakerState::HalfOpen)
    }

    /// Total Closed→Open and HalfOpen→Open transitions so far.
    pub fn trip_count(&self) -> u64 {
        self.trips
    }

    /// Total per-graph short-circuits served from open breakers.
    pub fn short_circuit_count(&self) -> u64 {
        self.short_circuits
    }

    /// Admitted-query count (logical clock).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Every state change so far, in order.
    pub fn transitions(&self) -> &[BreakerTransition] {
        &self.transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The pre-PR-14 registry: both hooks walk every slot and allocate a
    /// `db.len()` scratch per query. Kept as the reference the incremental
    /// registry is compared against.
    struct Reference {
        config: BreakerConfig,
        slots: Vec<Slot>,
        tick: u64,
        transitions: Vec<BreakerTransition>,
        trips: u64,
        short_circuits: u64,
    }

    impl Reference {
        fn new(config: BreakerConfig, graphs: usize) -> Self {
            let slots = if config.enabled() { vec![Slot::default(); graphs] } else { Vec::new() };
            Self { config, slots, tick: 0, transitions: Vec::new(), trips: 0, short_circuits: 0 }
        }

        fn transition(&mut self, idx: usize, to: BreakerState) {
            let from = self.slots[idx].state;
            self.slots[idx].state = to;
            let graph = GraphId(idx as u32);
            self.transitions.push(BreakerTransition { tick: self.tick, graph, from, to });
        }

        fn begin_query(&mut self) -> Option<Arc<[bool]>> {
            self.tick += 1;
            if self.slots.is_empty() {
                return None;
            }
            let mut mask = vec![false; self.slots.len()];
            let mut any = false;
            for (i, masked) in mask.iter_mut().enumerate() {
                if self.slots[i].state == BreakerState::Open && self.tick >= self.slots[i].reopen_at
                {
                    self.transition(i, BreakerState::HalfOpen);
                }
                if self.slots[i].state == BreakerState::Open {
                    *masked = true;
                    any = true;
                    self.short_circuits += 1;
                }
            }
            any.then(|| mask.into())
        }

        fn observe(&mut self, outcome: &QueryOutcome) {
            if self.slots.is_empty() {
                return;
            }
            let interrupted = outcome.status.is_timed_out()
                || outcome.status.is_exhausted()
                || outcome
                    .failures
                    .iter()
                    .any(|f| f.status.is_timed_out() || f.status.is_exhausted());
            let mut observed = vec![false; self.slots.len()];
            for f in &outcome.failures {
                let idx = f.graph.0 as usize;
                if idx >= self.slots.len() {
                    continue;
                }
                observed[idx] = true;
                if f.status.is_quarantined() || !f.status.is_breaker_fault() {
                    continue;
                }
                match self.slots[idx].state {
                    BreakerState::HalfOpen => {
                        self.slots[idx].reopen_at = self.tick + self.config.cooldown;
                        self.trips += 1;
                        self.transition(idx, BreakerState::Open);
                    }
                    BreakerState::Closed => {
                        self.slots[idx].consecutive += 1;
                        if self.slots[idx].consecutive >= self.config.fault_threshold {
                            self.slots[idx].consecutive = 0;
                            self.slots[idx].reopen_at = self.tick + self.config.cooldown;
                            self.trips += 1;
                            self.transition(idx, BreakerState::Open);
                        }
                    }
                    BreakerState::Open => {}
                }
            }
            if interrupted {
                return;
            }
            for (i, &seen) in observed.iter().enumerate() {
                if seen {
                    continue;
                }
                match self.slots[i].state {
                    BreakerState::HalfOpen => {
                        self.slots[i].consecutive = 0;
                        self.transition(i, BreakerState::Closed);
                    }
                    BreakerState::Closed => self.slots[i].consecutive = 0,
                    BreakerState::Open => {}
                }
            }
        }
    }

    /// One served query of a random fault sequence: per-graph records (kind
    /// 0 panic, 1 quarantined, 2 timed out, 3 unavailable; ids may repeat,
    /// arrive unsorted, or lie outside the database) and whether the scan
    /// as a whole was interrupted (one query in seven).
    fn outcome_of(records: &[(u32, u8)], interrupted: bool) -> QueryOutcome {
        let mut o = QueryOutcome::default();
        for &(g, kind) in records {
            match kind {
                0 => o.record_panic(GraphId(g), "injected".into()),
                1 => o.record_quarantined(GraphId(g)),
                2 => o.record_interrupt(GraphId(g), sqp_matching::Deadline::none()),
                _ => o.record_unavailable(GraphId(g)),
            }
        }
        if interrupted {
            o.status.absorb(QueryStatus::TimedOut);
        }
        o
    }

    proptest! {
        #[test]
        fn incremental_registry_matches_full_scan_reference(
            graphs in 0usize..12,
            fault_threshold in 0u32..4,
            cooldown in 0u64..5,
            queries in collection::vec(
                (collection::vec((0u32..14, 0u8..4), 0..6), 0u8..7),
                0..40,
            ),
        ) {
            let config = BreakerConfig { fault_threshold, cooldown };
            let mut new = BreakerRegistry::new(config, graphs);
            let mut old = Reference::new(config, graphs);
            // A query in flight may still hold the previous mask.
            let mut held = None;
            for (step, (records, interrupted)) in queries.iter().enumerate() {
                let (mask, expected) = (new.begin_query(), old.begin_query());
                prop_assert_eq!(&mask, &expected, "mask at query {}", step);
                if step % 3 == 0 {
                    held = mask;
                }
                let outcome = outcome_of(records, *interrupted == 0);
                new.observe(&outcome);
                old.observe(&outcome);
                prop_assert_eq!(new.transitions(), &old.transitions[..], "query {}", step);
                for (i, slot) in old.slots.iter().enumerate() {
                    prop_assert_eq!(new.slots[i].state, slot.state);
                    prop_assert_eq!(new.slots[i].consecutive, slot.consecutive);
                }
                let unclean: Vec<u32> =
                    (0..old.slots.len() as u32).filter(|&i| !old.slots[i as usize].is_clean()).collect();
                prop_assert_eq!(&new.unclean, &unclean);
                let open = old.slots.iter().filter(|s| s.state == BreakerState::Open).count();
                prop_assert_eq!(new.open_count(), open);
                let half = old.slots.iter().filter(|s| s.state == BreakerState::HalfOpen).count();
                prop_assert_eq!(new.half_open_count(), half);
                prop_assert_eq!((new.trip_count(), new.short_circuit_count(), new.tick()),
                    (old.trips, old.short_circuits, old.tick));
            }
            drop(held);
        }
    }

    fn fault_on(graphs: &[u32]) -> QueryOutcome {
        let mut o = QueryOutcome::default();
        for &g in graphs {
            o.record_panic(GraphId(g), "injected".into());
        }
        o.finalize();
        o
    }

    fn quarantined_on(graphs: &[u32]) -> QueryOutcome {
        let mut o = QueryOutcome::default();
        for &g in graphs {
            o.record_quarantined(GraphId(g));
        }
        o.finalize();
        o
    }

    #[test]
    fn trips_after_threshold_consecutive_faults() {
        let mut reg = BreakerRegistry::new(BreakerConfig { fault_threshold: 3, cooldown: 2 }, 4);
        for i in 0..2 {
            assert!(reg.begin_query().is_none());
            reg.observe(&fault_on(&[1]));
            assert_eq!(reg.state(GraphId(1)), BreakerState::Closed, "after fault {i}");
        }
        assert!(reg.begin_query().is_none());
        reg.observe(&fault_on(&[1]));
        assert_eq!(reg.state(GraphId(1)), BreakerState::Open);
        assert_eq!(reg.trip_count(), 1);
        // The next admitted query masks exactly graph 1.
        let mask = reg.begin_query().expect("graph 1 masked");
        assert_eq!(mask.iter().filter(|&&m| m).count(), 1);
        assert!(mask[1]);
    }

    #[test]
    fn success_resets_consecutive_count() {
        let mut reg = BreakerRegistry::new(BreakerConfig { fault_threshold: 2, cooldown: 2 }, 2);
        reg.begin_query();
        reg.observe(&fault_on(&[0]));
        // A clean complete scan clears the streak...
        reg.begin_query();
        reg.observe(&QueryOutcome::default());
        reg.begin_query();
        reg.observe(&fault_on(&[0]));
        assert_eq!(reg.state(GraphId(0)), BreakerState::Closed, "streak was reset");
        // ...but an interrupted scan does not.
        reg.begin_query();
        let interrupted = QueryOutcome { status: QueryStatus::TimedOut, ..Default::default() };
        reg.observe(&interrupted);
        reg.begin_query();
        reg.observe(&fault_on(&[0]));
        assert_eq!(reg.state(GraphId(0)), BreakerState::Open);
    }

    #[test]
    fn half_open_probe_closes_on_success_and_reopens_on_fault() {
        let mut reg = BreakerRegistry::new(BreakerConfig { fault_threshold: 1, cooldown: 2 }, 3);
        reg.begin_query(); // tick 1
        reg.observe(&fault_on(&[2]));
        assert_eq!(reg.state(GraphId(2)), BreakerState::Open);
        // Cool-down: reopen_at = 1 + 2 = 3, so tick 2 still masks.
        assert!(reg.begin_query().is_some()); // tick 2
        reg.observe(&quarantined_on(&[2]));
        assert_eq!(reg.state(GraphId(2)), BreakerState::Open);
        // Tick 3: half-open, probe passes through (no mask).
        assert!(reg.begin_query().is_none()); // tick 3
        assert_eq!(reg.state(GraphId(2)), BreakerState::HalfOpen);
        reg.observe(&fault_on(&[2]));
        assert_eq!(reg.state(GraphId(2)), BreakerState::Open, "probe fault reopens");
        assert_eq!(reg.trip_count(), 2);
        // Next cool-down: reopen_at = 3 + 2 = 5.
        assert!(reg.begin_query().is_some()); // tick 4
        reg.observe(&quarantined_on(&[2]));
        assert!(reg.begin_query().is_none()); // tick 5: probe again
        reg.observe(&QueryOutcome::default());
        assert_eq!(reg.state(GraphId(2)), BreakerState::Closed, "healed probe closes");
        // Transition log captures the full lifecycle deterministically.
        let kinds: Vec<(u64, BreakerState, BreakerState)> =
            reg.transitions().iter().map(|t| (t.tick, t.from, t.to)).collect();
        assert_eq!(
            kinds,
            vec![
                (1, BreakerState::Closed, BreakerState::Open),
                (3, BreakerState::Open, BreakerState::HalfOpen),
                (3, BreakerState::HalfOpen, BreakerState::Open),
                (5, BreakerState::Open, BreakerState::HalfOpen),
                (5, BreakerState::HalfOpen, BreakerState::Closed),
            ]
        );
    }

    #[test]
    fn interrupted_scan_leaves_half_open_pending() {
        let mut reg = BreakerRegistry::new(BreakerConfig { fault_threshold: 1, cooldown: 1 }, 2);
        reg.begin_query();
        reg.observe(&fault_on(&[0]));
        reg.begin_query(); // cool-down elapsed → half-open probe
        assert_eq!(reg.state(GraphId(0)), BreakerState::HalfOpen);
        let interrupted = QueryOutcome { status: QueryStatus::TimedOut, ..Default::default() };
        reg.observe(&interrupted);
        // No record for graph 0 on an interrupted scan: probe still pending.
        assert_eq!(reg.state(GraphId(0)), BreakerState::HalfOpen);
    }

    #[test]
    fn disabled_config_never_masks() {
        let mut reg = BreakerRegistry::new(BreakerConfig::disabled(), 8);
        for _ in 0..10 {
            assert!(reg.begin_query().is_none());
            reg.observe(&fault_on(&[0, 1, 2]));
        }
        assert_eq!(reg.trip_count(), 0);
        assert_eq!(reg.state(GraphId(0)), BreakerState::Closed);
    }
}
