//! Phase-level observability: allocation-free spans for per-phase timings.
//!
//! Matching a query decomposes into the paper's phases — *filter* (candidate
//! pruning), *build-candidates* (materializing the [`CandidateSpace`]/CPI),
//! *order* (computing the matching order), *enumerate* (backtracking
//! search), and *verify* (VF2 verification in the IFV engines). A [`Span`]
//! measures one phase of one `(query, graph)` pair and flushes its duration
//! and item count into the [`StatsSink`] riding on [`Deadline`] when it is
//! dropped, so parallel workers of the same query aggregate lock-free
//! through the sink's atomics.
//!
//! Spans are plain stack values: an *active* span reads its sink's clock
//! once on entry and once on drop, where it also makes two relaxed atomic
//! adds (the phase's nanoseconds and items); a span over an inert sink does
//! nothing at all — no allocation ever happens on the enumeration hot path.
//!
//! **The passive rule.** A span whose innermost open span on the same thread
//! (or [`Lap`]) has the same [`Phase`] *and* the same sink is *passive*: it
//! reads no clock, does not join the nesting stack and records no
//! nanoseconds; on drop it adds only its item count (nothing when that is
//! 0). Timing it could only move nanoseconds from the enclosing span's
//! bucket into the same bucket, so a harness stage around a matcher's own
//! span of that phase (the scan's lap ⊃ `filter`, `verify_each` ⊃
//! `Vf2Verifier::verify`) costs the pair the stage's reads only. A passive
//! span's children see the enclosing active span as their parent, so
//! self-time accounting — and Σ phase nanos = outermost wall — is the same
//! subtraction with one term fewer. [`Span::finish`] returns a wall reading
//! only from an active span (0 from a passive or inert one): a caller that
//! wants a wall clock out of a span must be the outermost span of its
//! phase, as the harness stages are.
//!
//! **Laps.** A [`Lap`] is a stage span that changes phase in place: the
//! vcFV scan opens one before its first graph and ends every (query, graph)
//! pair with one [`Lap::switch`] — one clock read that closes the running
//! phase (its self time into a lap-local [`PhaseStats`]), returns the full
//! elapsed time as the stage wall, and re-bases the lap on the next phase. A
//! lap sits on the same nesting stack as spans, so a matcher span of the
//! lap's current phase is passive under it and active spans of other phases
//! credit it as their parent. Its drop reads no clock: it pops its frame,
//! credits the enclosing frame with Σ walls (plus any children closed after
//! the last switch), and flushes the local totals into the sink — at most
//! one `record_phase` per phase per scan instead of two atomic adds per
//! pair. A pruned pair thus costs one clock read, an unpruned CFQL pair six
//! (two switches, the matcher's `BuildCandidates` and `Order` spans), plus
//! one per scan; what ran between the last switch and the drop is timed by
//! nobody (the scan loop's final flag check).
//!
//! The clock is injectable per sink ([`StatsSink::with_clock`]): production
//! sinks read a monotonic nanosecond counter, tests install a deterministic
//! fake so phase durations are byte-stable across runs and thread counts
//! (invariant I8 extended to phase timings).
//!
//! [`CandidateSpace`]: crate::candidates::CandidateSpace

use std::cell::Cell;

use crate::deadline::{Deadline, StatsSink};

/// Number of observable phases.
pub const PHASE_COUNT: usize = 5;

/// One phase of query processing, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Candidate pruning: label/degree/NLF/profile filters, refinement
    /// passes, region exploration, feature-index probes.
    Filter,
    /// Materializing the candidate space: CPI construction, membership
    /// bitmaps, region-union assembly.
    BuildCandidates,
    /// Computing the matching order (join order, path order, QI-sequence).
    Order,
    /// Backtracking enumeration over the candidate space.
    Enumerate,
    /// Subgraph-isomorphism verification (VF2) in the IFV engines.
    Verify,
}

impl Phase {
    /// All phases, in pipeline order.
    pub const ALL: [Phase; PHASE_COUNT] =
        [Phase::Filter, Phase::BuildCandidates, Phase::Order, Phase::Enumerate, Phase::Verify];

    /// This phase's index into [`PhaseStats`] arrays.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The snake_case name used in reports and the Prometheus exposition.
    pub const fn name(self) -> &'static str {
        match self {
            Phase::Filter => "filter",
            Phase::BuildCandidates => "build_candidates",
            Phase::Order => "order",
            Phase::Enumerate => "enumerate",
            Phase::Verify => "verify",
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Aggregated per-phase durations and item counts for one query.
///
/// `nanos[p]` is the summed wall time spent in phase `p` across every graph
/// and worker; `items[p]` is the summed item count the spans reported
/// (candidates surviving a filter, order length, embeddings enumerated,
/// graphs verified).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Summed span durations per phase, in clock units (nanoseconds under
    /// the production clock).
    pub nanos: [u64; PHASE_COUNT],
    /// Summed span item counts per phase.
    pub items: [u64; PHASE_COUNT],
}

impl PhaseStats {
    /// Adds `other` into `self`, saturating.
    pub fn merge(&mut self, other: &PhaseStats) {
        for p in 0..PHASE_COUNT {
            self.nanos[p] = self.nanos[p].saturating_add(other.nanos[p]);
            self.items[p] = self.items[p].saturating_add(other.items[p]);
        }
    }

    /// Summed duration across every phase.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().fold(0u64, |a, &n| a.saturating_add(n))
    }

    /// Duration recorded for `phase`.
    #[inline]
    pub fn nanos_of(&self, phase: Phase) -> u64 {
        self.nanos[phase.index()]
    }

    /// Item count recorded for `phase`.
    #[inline]
    pub fn items_of(&self, phase: Phase) -> u64 {
        self.items[phase.index()]
    }

    /// Whether nothing was recorded.
    pub fn is_zero(&self) -> bool {
        self.nanos.iter().all(|&n| n == 0) && self.items.iter().all(|&n| n == 0)
    }
}

/// Maximum tracked span nesting depth per thread. Deeper spans still record
/// their full elapsed time; they just stop participating in parent/child
/// self-time accounting, and — having no frame to be recognised by — never
/// make a child passive (real nesting of *active* spans in this codebase is
/// ≤ 2: harness stage or lap → matcher span of another phase; same-phase
/// matcher spans under a stage are passive and take no depth).
const MAX_SPAN_DEPTH: usize = 16;

/// What the thread remembers about one open active span or lap.
struct Frame {
    /// Elapsed time of the spans opened and closed inside this one, so it
    /// can record its *self* time (elapsed minus children) and nested spans
    /// never double-count a nanosecond.
    child_nanos: Cell<u64>,
    /// The span's (or the lap's current) phase and sink ([`StatsSink::id`]):
    /// a span entered under this one with the same two is passive.
    phase: Cell<Phase>,
    sink: Cell<usize>,
}

impl Frame {
    const fn empty() -> Self {
        Self { child_nanos: Cell::new(0), phase: Cell::new(Phase::Filter), sink: Cell::new(0) }
    }
}

thread_local! {
    /// Live active-span nesting depth on this thread (0 = no span open).
    static SPAN_DEPTH: Cell<usize> = const { Cell::new(0) };
    /// One frame per tracked depth; `FRAMES[d - 1]` is valid while a span of
    /// depth `d` is open.
    static FRAMES: [Frame; MAX_SPAN_DEPTH] =
        const { [const { Frame::empty() }; MAX_SPAN_DEPTH] };
}

// The nesting rules, shared by `Span` and `Lap`: a frame is pushed on entry
// of anything that reads the clock, its children credit it their elapsed
// time, and popping it credits the enclosing frame in turn.

/// Depth of the innermost open frame on this thread (0 = none).
#[inline]
fn open_depth() -> usize {
    SPAN_DEPTH.with(Cell::get)
}

/// Whether the frame at `depth` is tracked and open for `phase` over sink
/// `id` — what makes a span entered directly under it passive.
#[inline]
fn frame_is(depth: usize, phase: Phase, id: usize) -> bool {
    (1..=MAX_SPAN_DEPTH).contains(&depth)
        && FRAMES.with(|f| {
            let open = &f[depth - 1];
            open.phase.get() == phase && open.sink.get() == id
        })
}

/// Opens a frame for `phase` over sink `id` directly under the frame at
/// `parent`; returns its depth.
fn push_frame(parent: usize, phase: Phase, id: usize) -> usize {
    let depth = parent + 1;
    SPAN_DEPTH.with(|d| d.set(depth));
    if depth <= MAX_SPAN_DEPTH {
        FRAMES.with(|f| {
            let frame = &f[depth - 1];
            frame.child_nanos.set(0);
            frame.phase.set(phase);
            frame.sink.set(id);
        });
    }
    depth
}

/// Relabels the frame at `depth` to `phase` and returns the children it
/// accumulated since it was opened or last relabelled, clearing them.
fn rebase_frame(depth: usize, phase: Phase) -> u64 {
    if depth > MAX_SPAN_DEPTH {
        return 0;
    }
    FRAMES.with(|f| {
        let frame = &f[depth - 1];
        frame.phase.set(phase);
        frame.child_nanos.replace(0)
    })
}

/// Closes the frame at `depth`, crediting `elapsed` to the enclosing frame's
/// children; returns the closed frame's own children.
fn pop_frame(depth: usize, elapsed: u64) -> u64 {
    SPAN_DEPTH.with(|d| d.set(depth - 1));
    FRAMES.with(|f| {
        if depth >= 2 && depth - 1 <= MAX_SPAN_DEPTH {
            let parent = &f[depth - 2].child_nanos;
            parent.set(parent.get().saturating_add(elapsed));
        }
        if depth <= MAX_SPAN_DEPTH {
            f[depth - 1].child_nanos.get()
        } else {
            0
        }
    })
}

/// A stack guard measuring one phase; records into the deadline's sink on
/// drop.
///
/// Spans may nest (strictly LIFO, as stack values naturally are): an
/// enclosing span records only its self time — elapsed minus the elapsed
/// time of spans opened and closed inside it on the same thread. That lets
/// a harness wrap a whole stage (catching dispatch and panic-guard overhead)
/// while inner matcher spans keep exact per-phase attribution, and the sum
/// over phases still counts every nanosecond exactly once. An inner span of
/// the enclosing span's own phase and sink is passive (module docs): it
/// costs no clock read and contributes only its items.
///
/// ```
/// use sqp_matching::obs::{Phase, Span};
/// use sqp_matching::{Deadline, StatsSink};
///
/// let sink = StatsSink::new();
/// let deadline = Deadline::none().with_stats(sink);
/// {
///     let mut span = Span::enter(Phase::Filter, deadline);
///     span.add_items(42); // e.g. surviving candidates
/// } // recorded here
/// assert_eq!(sink.phase_snapshot().items_of(Phase::Filter), 42);
/// ```
#[derive(Debug)]
pub struct Span {
    sink: StatsSink,
    phase: Phase,
    start: u64,
    items: u64,
    /// 1-based nesting depth while this span is open and active; 0 for a
    /// passive span, a span over an inert sink, and a closed span.
    depth: usize,
}

impl Span {
    /// Starts a span for `phase` against `deadline`'s sink. Reads the clock
    /// only when the sink is live and the span is not passive (the innermost
    /// open span on this thread has another phase or another sink).
    #[inline]
    pub fn enter(phase: Phase, deadline: Deadline) -> Self {
        let sink = deadline.stats();
        if sink.is_some() {
            Self::enter_live(phase, sink)
        } else {
            Self { sink, phase, start: 0, items: 0, depth: 0 }
        }
    }

    /// Out of line and by value, so that over an inert sink `enter` inlines
    /// into a matcher as one branch and the span stays in registers (a bare
    /// matcher loop reads 38 vs 44 µs per 1 000 pairs either way round).
    fn enter_live(phase: Phase, sink: StatsSink) -> Self {
        let passive = Self { sink, phase, start: 0, items: 0, depth: 0 };
        let (parent, id) = (open_depth(), sink.id());
        if frame_is(parent, phase, id) {
            return passive;
        }
        let depth = push_frame(parent, phase, id);
        Self { start: sink.now(), depth, ..passive }
    }

    /// Adds `n` items (candidates, embeddings, …) to this span's count.
    #[inline]
    pub fn add_items(&mut self, n: u64) {
        self.items = self.items.saturating_add(n);
    }

    /// Ends the span now (recording it exactly as dropping would) and
    /// returns its full elapsed time in clock units — self time *plus*
    /// children, i.e. the span's wall clock. A wall reading comes only from
    /// an active span: a passive span and a span over an inert sink return
    /// 0. Lets a harness reuse the span's clock reads as its stage wall
    /// measurement instead of paying for a second timer.
    #[inline]
    pub fn finish(mut self) -> u64 {
        self.end()
    }

    /// Shared drop/finish path; idempotent (it leaves a closed span: depth
    /// 0, no items). Like `enter`, small where no clock is read.
    #[inline]
    fn end(&mut self) -> u64 {
        if self.depth != 0 {
            return self.end_active();
        }
        // Passive (or inert, where recording is a no-op): items only.
        let items = std::mem::take(&mut self.items);
        if items != 0 {
            self.sink.record_items(self.phase, items);
        }
        0
    }

    /// The active span's end: second clock read, self time to the sink, full
    /// elapsed time to the enclosing span's children.
    fn end_active(&mut self) -> u64 {
        let elapsed = self.sink.now().saturating_sub(self.start);
        // The full elapsed time (self + our own children) goes to the
        // enclosing frame's children.
        let children = pop_frame(self.depth, elapsed);
        let items = std::mem::take(&mut self.items);
        self.sink.record_phase(self.phase, elapsed.saturating_sub(children), items);
        self.depth = 0;
        elapsed
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        self.end();
    }
}

/// A stage span that changes phase in place: one clock read per
/// [`switch`](Lap::switch), none on drop (module docs, "Laps").
///
/// A lap is always active while its sink is live — even directly under an
/// open span of its own phase and sink, which it then credits like any
/// child — and over an inert sink it reads nothing and records nothing.
/// Like spans, laps nest strictly LIFO with everything on the same thread.
///
/// ```
/// use sqp_matching::obs::{Lap, Phase};
/// use sqp_matching::{Deadline, StatsSink};
///
/// let sink = StatsSink::new();
/// let deadline = Deadline::none().with_stats(sink);
/// let mut lap = Lap::enter(Phase::Filter, deadline);
/// let filter_wall = lap.switch(Phase::Enumerate); // filter ends, enumerate starts
/// let enumerate_wall = lap.switch(Phase::Filter);
/// drop(lap); // no clock read: the totals are flushed here
/// let snap = sink.phase_snapshot();
/// assert_eq!(snap.total_nanos(), filter_wall + enumerate_wall);
/// ```
#[derive(Debug)]
pub struct Lap {
    sink: StatsSink,
    /// The running phase.
    phase: Phase,
    /// Clock reading at entry or at the last switch.
    start: u64,
    /// 1-based nesting depth; 0 over an inert sink.
    depth: usize,
    /// Σ elapsed over the closed laps: what the enclosing frame is credited.
    walls: u64,
    /// Self time per phase, flushed into the sink on drop.
    nanos: [u64; PHASE_COUNT],
}

impl Lap {
    /// Opens a lap of `phase` against `deadline`'s sink: one clock read when
    /// the sink is live, none otherwise.
    pub fn enter(phase: Phase, deadline: Deadline) -> Self {
        let sink = deadline.stats();
        let mut lap = Self { sink, phase, start: 0, depth: 0, walls: 0, nanos: [0; PHASE_COUNT] };
        if sink.is_some() {
            lap.depth = push_frame(open_depth(), phase, sink.id());
            lap.start = sink.now();
        }
        lap
    }

    /// Closes the running phase and starts `next` (which may be the same
    /// phase) with one clock read. The closed phase's self time — elapsed
    /// minus the active spans opened inside it — is kept for the drop; the
    /// full elapsed time is returned, the stage's wall. Returns 0 and reads
    /// nothing over an inert sink.
    #[inline]
    pub fn switch(&mut self, next: Phase) -> u64 {
        if self.depth == 0 {
            return 0;
        }
        let now = self.sink.now();
        let elapsed = now.saturating_sub(self.start);
        let children = rebase_frame(self.depth, next);
        let closed = &mut self.nanos[self.phase.index()];
        *closed = closed.saturating_add(elapsed.saturating_sub(children));
        self.walls = self.walls.saturating_add(elapsed);
        self.phase = next;
        self.start = now;
        elapsed
    }
}

impl Drop for Lap {
    fn drop(&mut self) {
        if self.depth == 0 {
            return;
        }
        // Children closed after the last switch recorded themselves; the
        // enclosing frame must not count them as its own time either.
        let pending = rebase_frame(self.depth, self.phase);
        pop_frame(self.depth, self.walls.saturating_add(pending));
        for phase in Phase::ALL {
            let nanos = self.nanos[phase.index()];
            if nanos != 0 {
                self.sink.record_phase(phase, nanos, 0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::Rng;

    #[test]
    fn phase_names_and_indices_are_stable() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["filter", "build_candidates", "order", "enumerate", "verify"]);
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert_eq!(p.to_string(), p.name());
        }
    }

    #[test]
    fn span_records_on_drop() {
        let sink = StatsSink::new();
        let deadline = Deadline::none().with_stats(sink);
        {
            let mut s = Span::enter(Phase::Enumerate, deadline);
            s.add_items(3);
        }
        {
            let mut s = Span::enter(Phase::Enumerate, deadline);
            s.add_items(4);
        }
        let snap = sink.phase_snapshot();
        assert_eq!(snap.items_of(Phase::Enumerate), 7);
        assert_eq!(snap.items_of(Phase::Filter), 0);
    }

    #[test]
    fn span_over_inert_sink_is_noop() {
        let mut s = Span::enter(Phase::Filter, Deadline::none());
        s.add_items(10);
        drop(s);
        // Nothing to observe; the point is it neither panics nor allocates
        // sink state.
        assert!(Deadline::none().stats().phase_snapshot().is_zero());
    }

    #[test]
    fn merge_is_elementwise_saturating() {
        let mut a = PhaseStats::default();
        a.nanos[0] = u64::MAX - 1;
        a.items[3] = 5;
        let mut b = PhaseStats::default();
        b.nanos[0] = 10;
        b.items[3] = 7;
        a.merge(&b);
        assert_eq!(a.nanos[0], u64::MAX);
        assert_eq!(a.items[3], 12);
        assert_eq!(a.total_nanos(), u64::MAX);
        assert!(!a.is_zero());
        assert!(PhaseStats::default().is_zero());
    }

    #[test]
    fn fake_clock_yields_deterministic_durations() {
        fn fake() -> u64 {
            use std::cell::Cell;
            thread_local! { static T: Cell<u64> = const { Cell::new(0) }; }
            T.with(|t| {
                let v = t.get();
                t.set(v + 1);
                v
            })
        }
        let sink = StatsSink::with_clock(fake);
        let deadline = Deadline::none().with_stats(sink);
        for _ in 0..3 {
            let _s = Span::enter(Phase::Order, deadline);
        }
        // Each span makes exactly two clock calls, so each lasts exactly one
        // fake tick.
        assert_eq!(sink.phase_snapshot().nanos_of(Phase::Order), 3);
    }

    #[test]
    fn nested_spans_record_self_time_only() {
        fn fake() -> u64 {
            use std::cell::Cell;
            thread_local! { static T: Cell<u64> = const { Cell::new(0) }; }
            T.with(|t| {
                let v = t.get();
                t.set(v + 1);
                v
            })
        }
        let sink = StatsSink::with_clock(fake);
        let deadline = Deadline::none().with_stats(sink);
        {
            let _outer = Span::enter(Phase::Filter, deadline); // clock: start
            let _inner = Span::enter(Phase::BuildCandidates, deadline);
            // inner: start + stop = 1 tick; outer spans 3 ticks total.
        }
        let snap = sink.phase_snapshot();
        assert_eq!(snap.nanos_of(Phase::BuildCandidates), 1);
        // Outer elapsed 3 ticks minus the child's 1 → self time 2; the total
        // equals the outer wall of 3 with nothing double-counted.
        assert_eq!(snap.nanos_of(Phase::Filter), 2);
        assert_eq!(snap.total_nanos(), 3);
    }

    #[test]
    fn inert_spans_do_not_touch_the_depth_stack() {
        {
            let _s = Span::enter(Phase::Filter, Deadline::none());
            SPAN_DEPTH.with(|d| assert_eq!(d.get(), 0));
        }
        SPAN_DEPTH.with(|d| assert_eq!(d.get(), 0));
    }

    thread_local! { static TICKS: Cell<u64> = const { Cell::new(0) }; }

    /// The fake clock of the passive-rule tests: each read is one tick, per
    /// thread, so [`reads`] differences count clock calls exactly.
    fn tick() -> u64 {
        TICKS.with(|t| t.replace(t.get() + 1))
    }

    fn reads() -> u64 {
        TICKS.with(Cell::get)
    }

    fn depth() -> usize {
        SPAN_DEPTH.with(Cell::get)
    }

    #[test]
    fn same_phase_same_sink_child_is_passive() {
        let sink = StatsSink::with_clock(tick);
        let deadline = Deadline::none().with_stats(sink);
        let mut outer = Span::enter(Phase::Filter, deadline);
        outer.add_items(1);
        assert_eq!((reads(), depth()), (1, 1));
        {
            let mut inner = Span::enter(Phase::Filter, deadline);
            inner.add_items(5);
            assert_eq!(depth(), 1, "a passive span takes no depth");
            assert_eq!(inner.finish(), 0, "a wall reading comes only from an active span");
            let _empty = Span::enter(Phase::Filter, deadline); // no items: drops to nothing
        }
        assert_eq!(reads(), 1, "the passive children read no clock");
        assert_eq!(sink.phase_snapshot().items_of(Phase::Filter), 5);
        assert_eq!(outer.finish(), 1);
        let snap = sink.phase_snapshot();
        assert_eq!(snap.items_of(Phase::Filter), 6);
        assert_eq!((snap.nanos_of(Phase::Filter), snap.total_nanos()), (1, 1));
        assert_eq!((reads(), depth()), (2, 0));
    }

    #[test]
    fn other_sink_and_other_phase_children_stay_active() {
        let (a, b) = (StatsSink::with_clock(tick), StatsSink::with_clock(tick));
        let (da, db) = (Deadline::none().with_stats(a), Deadline::none().with_stats(b));
        {
            let _outer = Span::enter(Phase::Filter, da); // tick 0
            drop(Span::enter(Phase::Filter, db)); // ticks 1, 2: same phase, other sink
            drop(Span::enter(Phase::BuildCandidates, da)); // ticks 3, 4: same sink, other phase
        } // tick 5
        assert_eq!(reads(), 6, "two reads per active span");
        assert_eq!(b.phase_snapshot().nanos_of(Phase::Filter), 1);
        let snap = a.phase_snapshot();
        assert_eq!(snap.nanos_of(Phase::BuildCandidates), 1);
        // Outer wall 5 minus both children (the depth stack is per thread,
        // not per sink): every tick is counted once across the two sinks.
        assert_eq!(snap.nanos_of(Phase::Filter), 3);
        assert_eq!(snap.total_nanos() + b.phase_snapshot().total_nanos(), 5);
    }

    #[test]
    fn active_grandchild_of_a_passive_span_credits_the_grandparent() {
        let sink = StatsSink::with_clock(tick);
        let deadline = Deadline::none().with_stats(sink);
        let stage = Span::enter(Phase::Filter, deadline); // tick 0
        {
            let _matcher = Span::enter(Phase::Filter, deadline); // passive
            let _build = Span::enter(Phase::BuildCandidates, deadline); // ticks 1, 2
            assert_eq!(depth(), 2, "the grandchild nests directly under the stage");
            drop(Span::enter(Phase::BuildCandidates, deadline)); // passive under `_build`
        }
        assert_eq!(stage.finish(), 3); // tick 3
        let snap = sink.phase_snapshot();
        assert_eq!(snap.nanos_of(Phase::BuildCandidates), 1);
        assert_eq!(snap.nanos_of(Phase::Filter), 2, "stage wall 3 minus the grandchild's 1");
        assert_eq!(snap.total_nanos(), 3, "phase sum = outermost wall");
        assert_eq!(reads(), 4);
    }

    #[test]
    fn panic_through_stage_passive_active_unwinds_the_stack() {
        let sink = StatsSink::with_clock(tick);
        let deadline = Deadline::none().with_stats(sink);
        let stage = Span::enter(Phase::Filter, deadline); // tick 0
        let unwound = std::panic::catch_unwind(|| {
            let mut matcher = Span::enter(Phase::Filter, deadline); // passive
            matcher.add_items(2);
            let _build = Span::enter(Phase::BuildCandidates, deadline); // ticks 1, 2
            panic!("injected");
        });
        assert!(unwound.is_err());
        assert_eq!(depth(), 1, "only the stage is still open");
        assert_eq!(stage.finish(), 3); // tick 3
        assert_eq!(depth(), 0);
        let snap = sink.phase_snapshot();
        assert_eq!(snap.items_of(Phase::Filter), 2, "the passive span's items survive the unwind");
        assert_eq!(snap.total_nanos(), 3);
        // The next span on this thread has no stale parent to be passive under.
        sink.reset();
        drop(Span::enter(Phase::Filter, deadline)); // ticks 4, 5
        assert_eq!(sink.phase_snapshot().nanos_of(Phase::Filter), 1);
        assert_eq!(reads(), 6);
    }

    #[test]
    fn spans_beyond_the_tracked_depth_stay_active() {
        let sink = StatsSink::with_clock(tick);
        let deadline = Deadline::none().with_stats(sink);
        // Alternating phases keep every span active; the last one tracked
        // (depth 16) is a Filter span, the untracked depth 17 an Order span.
        let phase_at = |d: usize| [Phase::Order, Phase::Filter][(d + 1) % 2];
        let mut open: Vec<Span> =
            (1..=MAX_SPAN_DEPTH + 1).map(|d| Span::enter(phase_at(d), deadline)).collect();
        assert_eq!(depth(), MAX_SPAN_DEPTH + 1);
        // Innermost open is the untracked Order span: a Filter child must not
        // be taken for a child of the stale depth-16 Filter frame, and an
        // Order child has no frame to be recognised by.
        for phase in [Phase::Filter, Phase::Order] {
            let before = reads();
            let child = Span::enter(phase, deadline);
            assert_eq!(depth(), MAX_SPAN_DEPTH + 2);
            assert_eq!(child.finish(), 1);
            assert_eq!(reads() - before, 2, "{phase}: active");
        }
        while let Some(span) = open.pop() {
            drop(span); // LIFO, as stack values drop
        }
        assert_eq!(depth(), 0);
        assert_eq!(reads(), 2 * (MAX_SPAN_DEPTH as u64 + 1 + 2));
    }

    #[test]
    fn a_lap_reads_once_per_switch_and_never_on_drop() {
        let sink = StatsSink::with_clock(tick);
        let deadline = Deadline::none().with_stats(sink);
        let mut lap = Lap::enter(Phase::Filter, deadline); // tick 0
        assert_eq!((reads(), depth()), (1, 1));
        assert_eq!(lap.switch(Phase::Filter), 1); // tick 1
        assert_eq!(lap.switch(Phase::Enumerate), 1); // tick 2
        assert_eq!(lap.switch(Phase::Filter), 1); // tick 3
        assert!(sink.phase_snapshot().is_zero(), "nothing reaches the sink before the drop");
        drop(lap);
        assert_eq!((reads(), depth()), (4, 0), "the drop reads no clock");
        let snap = sink.phase_snapshot();
        assert_eq!((snap.nanos_of(Phase::Filter), snap.nanos_of(Phase::Enumerate)), (2, 1));
        assert_eq!(snap.total_nanos(), 3);
    }

    #[test]
    fn a_matcher_span_of_the_laps_phase_is_passive() {
        let sink = StatsSink::with_clock(tick);
        let deadline = Deadline::none().with_stats(sink);
        let mut lap = Lap::enter(Phase::Filter, deadline); // tick 0
        {
            let mut matcher = Span::enter(Phase::Filter, deadline);
            matcher.add_items(3);
            assert_eq!((reads(), depth()), (1, 1), "passive: no read, no depth");
        }
        assert_eq!(lap.switch(Phase::Enumerate), 1); // tick 1
        {
            // The relabelled frame makes the next phase's matcher span
            // passive.
            let _enumerate = Span::enter(Phase::Enumerate, deadline);
            assert_eq!((reads(), depth()), (2, 1));
        }
        assert_eq!(lap.switch(Phase::Filter), 1); // tick 2
        drop(lap);
        let snap = sink.phase_snapshot();
        assert_eq!(snap.items_of(Phase::Filter), 3);
        assert_eq!((snap.nanos_of(Phase::Filter), snap.nanos_of(Phase::Enumerate)), (1, 1));
        assert_eq!(reads(), 3);
    }

    #[test]
    fn an_active_child_credits_the_lap() {
        let sink = StatsSink::with_clock(tick);
        let deadline = Deadline::none().with_stats(sink);
        let mut lap = Lap::enter(Phase::Filter, deadline); // tick 0
        {
            let _matcher = Span::enter(Phase::Filter, deadline); // passive
            let _build = Span::enter(Phase::BuildCandidates, deadline); // ticks 1, 2
            assert_eq!(depth(), 2, "the child nests directly under the lap");
        }
        assert_eq!(lap.switch(Phase::Enumerate), 3, "the wall includes the child"); // tick 3
        drop(Span::enter(Phase::Order, deadline)); // ticks 4, 5
        assert_eq!(lap.switch(Phase::Filter), 3); // tick 6
        drop(lap);
        let snap = sink.phase_snapshot();
        assert_eq!(snap.nanos, [2, 1, 1, 2, 0], "each lap's wall minus its child");
        assert_eq!(snap.total_nanos(), 6, "phase sum = Σ walls");
        assert_eq!((reads(), depth()), (7, 0));
    }

    #[test]
    fn a_lap_credits_its_enclosing_span_with_its_walls() {
        let sink = StatsSink::with_clock(tick);
        let deadline = Deadline::none().with_stats(sink);
        let outer = Span::enter(Phase::Order, deadline); // tick 0
        {
            let mut lap = Lap::enter(Phase::Filter, deadline); // tick 1
            drop(Span::enter(Phase::BuildCandidates, deadline)); // ticks 2, 3
            assert_eq!(lap.switch(Phase::Enumerate), 3); // tick 4
            assert_eq!(lap.switch(Phase::Filter), 1); // tick 5
                                                      // Closed after the last switch: it credits the lap's frame, which
                                                      // passes it on at the drop.
            drop(Span::enter(Phase::Verify, deadline)); // ticks 6, 7
        }
        assert_eq!(outer.finish(), 8); // tick 8
        let snap = sink.phase_snapshot();
        assert_eq!(snap.nanos, [2, 1, 3, 1, 1]);
        // The outer span's self time is its wall minus the lap's walls (4)
        // and the late child (1): the ticks before the lap's entry read and
        // after its last switch, which nobody else timed.
        assert_eq!(snap.nanos_of(Phase::Order), 8 - 4 - 1);
        assert_eq!(snap.total_nanos(), 8, "phase sum = outermost wall");
        assert_eq!((reads(), depth()), (9, 0));
    }

    #[test]
    fn a_lap_over_an_inert_sink_reads_nothing() {
        let mut lap = Lap::enter(Phase::Filter, Deadline::none());
        assert_eq!(depth(), 0, "no frame");
        assert_eq!(lap.switch(Phase::Enumerate), 0);
        drop(Span::enter(Phase::Order, Deadline::none()));
        assert_eq!(lap.switch(Phase::Filter), 0);
        drop(lap);
        assert_eq!((reads(), depth()), (0, 0));
    }

    #[test]
    fn a_panic_inside_a_lap_leaves_the_stack_where_the_lap_left_it() {
        let sink = StatsSink::with_clock(tick);
        let deadline = Deadline::none().with_stats(sink);
        let mut lap = Lap::enter(Phase::Filter, deadline); // tick 0
        let unwound = std::panic::catch_unwind(|| {
            let mut matcher = Span::enter(Phase::Filter, deadline); // passive
            matcher.add_items(2);
            let _build = Span::enter(Phase::BuildCandidates, deadline); // tick 1, 4 on unwind
            let _order = Span::enter(Phase::Order, deadline); // tick 2, 3 on unwind
            panic!("injected");
        });
        assert!(unwound.is_err());
        assert_eq!(depth(), 1, "only the lap is still open");
        assert_eq!(lap.switch(Phase::Filter), 5); // tick 5
                                                  // Its frame survived the unwind: the next matcher span of its phase
                                                  // is passive again.
        drop(Span::enter(Phase::Filter, deadline));
        assert_eq!(reads(), 6);
        drop(lap);
        assert_eq!(depth(), 0);
        let snap = sink.phase_snapshot();
        assert_eq!(snap.items_of(Phase::Filter), 2);
        assert_eq!(snap.nanos, [2, 2, 1, 0, 0]);
    }

    /// One node of a random span tree.
    struct Node {
        phase: Phase,
        sink: usize,
        items: u64,
        children: Vec<Node>,
    }

    fn random_phase(rng: &mut StdRng) -> Phase {
        Phase::ALL[rng.random_range(0..PHASE_COUNT)]
    }

    fn random_tree(rng: &mut StdRng, levels_left: usize) -> Node {
        let fanout = if levels_left == 0 { 0 } else { rng.random_range(0..=3) };
        Node {
            phase: random_phase(rng),
            sink: rng.random_range(0..2),
            items: rng.random_range(0..3),
            children: (0..fanout).map(|_| random_tree(rng, levels_left - 1)).collect(),
        }
    }

    fn replay(node: &Node, deadlines: [Deadline; 2]) {
        let mut span = Span::enter(node.phase, deadlines[node.sink]);
        span.add_items(node.items);
        node.children.iter().for_each(|c| replay(c, deadlines));
    }

    /// One step of a lap root: a child span tree, or a switch.
    enum Step {
        Child(Node),
        Switch(Phase),
    }

    /// A lap over random children and switches, optionally inside one outer
    /// span `(phase, sink)`.
    struct LapTree {
        outer: Option<(Phase, usize)>,
        phase: Phase,
        sink: usize,
        steps: Vec<Step>,
    }

    fn random_lap_tree(rng: &mut StdRng) -> LapTree {
        let steps = (0..rng.random_range(0..=8))
            .map(|_| match rng.random_bool(0.5) {
                true => Step::Switch(random_phase(rng)),
                false => Step::Child(random_tree(rng, 4)),
            })
            .collect();
        let outer = rng.random_bool(0.5).then(|| (random_phase(rng), rng.random_range(0..2)));
        LapTree { outer, phase: random_phase(rng), sink: rng.random_range(0..2), steps }
    }

    fn replay_lap(tree: &LapTree, deadlines: [Deadline; 2]) {
        let _outer = tree.outer.map(|(phase, sink)| Span::enter(phase, deadlines[sink]));
        let mut lap = Lap::enter(tree.phase, deadlines[tree.sink]);
        for step in &tree.steps {
            match step {
                Step::Child(node) => replay(node, deadlines),
                Step::Switch(next) => {
                    lap.switch(*next);
                }
            }
        }
    }

    /// The reference model of one thread's spans and laps: what each sink
    /// must hold, how many spans were active, how often a lap switched, and
    /// the tick clock they read.
    #[derive(Default)]
    struct Model {
        sinks: [PhaseStats; 2],
        active: u64,
        switches: u64,
        clock: u64,
    }

    impl Model {
        fn read_clock(&mut self) -> u64 {
            self.clock += 1;
            self.clock
        }

        /// Interprets `node` under the innermost active `(phase, sink)`;
        /// returns the elapsed ticks it charges that parent.
        fn run(&mut self, node: &Node, parent: Option<(Phase, usize)>) -> u64 {
            let me = (node.phase, node.sink);
            self.sinks[node.sink].items[node.phase.index()] += node.items;
            if parent == Some(me) {
                return node.children.iter().map(|c| self.run(c, parent)).sum();
            }
            self.active += 1;
            let start = self.read_clock();
            let children: u64 = node.children.iter().map(|c| self.run(c, Some(me))).sum();
            let elapsed = self.read_clock() - start;
            self.sinks[node.sink].nanos[node.phase.index()] += elapsed - children;
            elapsed
        }

        /// Interprets a lap tree; returns the ticks its root charges a
        /// parent: the outer span's wall, or the lap's credit.
        fn run_lap_tree(&mut self, tree: &LapTree) -> u64 {
            let Some((phase, sink)) = tree.outer else { return self.run_lap(tree) };
            self.active += 1;
            let start = self.read_clock();
            let children = self.run_lap(tree);
            let elapsed = self.read_clock() - start;
            self.sinks[sink].nanos[phase.index()] += elapsed - children;
            elapsed
        }

        /// Interprets the lap itself — never passive; its children see its
        /// current phase — and returns its credit: Σ walls plus the children
        /// closed after the last switch.
        fn run_lap(&mut self, tree: &LapTree) -> u64 {
            let (mut phase, mut start) = (tree.phase, self.read_clock());
            let (mut children, mut walls) = (0, 0);
            for step in &tree.steps {
                match step {
                    Step::Child(node) => children += self.run(node, Some((phase, tree.sink))),
                    Step::Switch(next) => {
                        let now = self.read_clock();
                        self.sinks[tree.sink].nanos[phase.index()] += now - start - children;
                        self.switches += 1;
                        walls += now - start;
                        (phase, start, children) = (*next, now, 0);
                    }
                }
            }
            walls + children
        }
    }

    proptest! {
        /// Random span trees (5 phases, 2 sinks over one tick clock, depth
        /// ≤ 6) against the model: per sink the same ticks and items per
        /// phase, two clock reads per active span and none per passive one,
        /// and every tick of the root's wall in exactly one bucket.
        #[test]
        fn span_trees_match_the_reference_model(seed in any::<u64>()) {
            let tree = random_tree(&mut StdRng::seed_from_u64(seed), 5);
            let sinks = [StatsSink::with_clock(tick), StatsSink::with_clock(tick)];
            let before = reads();
            replay(&tree, sinks.map(|s| Deadline::none().with_stats(s)));
            let mut model = Model::default();
            let wall = model.run(&tree, None);
            prop_assert_eq!(depth(), 0);
            prop_assert_eq!(reads() - before, 2 * model.active);
            for (sink, expected) in sinks.iter().zip(model.sinks) {
                prop_assert_eq!(sink.phase_snapshot(), expected);
            }
            let summed: u64 = sinks.iter().map(|s| s.phase_snapshot().total_nanos()).sum();
            prop_assert_eq!(summed, wall);
        }

        /// The same with a lap at the root that switches at random points
        /// between its children (to any phase, its own included), half the
        /// time inside an outer span: per sink the same ticks and items,
        /// clock reads = 2 × active spans + 1 + switches, and the phase sum
        /// equals what the root charges its parent — no tick counted twice.
        #[test]
        fn lap_rooted_span_trees_match_the_reference_model(seed in any::<u64>()) {
            let tree = random_lap_tree(&mut StdRng::seed_from_u64(seed));
            let sinks = [StatsSink::with_clock(tick), StatsSink::with_clock(tick)];
            let before = reads();
            replay_lap(&tree, sinks.map(|s| Deadline::none().with_stats(s)));
            let mut model = Model::default();
            let charged = model.run_lap_tree(&tree);
            prop_assert_eq!(depth(), 0);
            prop_assert_eq!(reads() - before, 2 * model.active + 1 + model.switches);
            for (sink, expected) in sinks.iter().zip(model.sinks) {
                prop_assert_eq!(sink.phase_snapshot(), expected);
            }
            let summed: u64 = sinks.iter().map(|s| s.phase_snapshot().total_nanos()).sum();
            prop_assert_eq!(summed, charged);
        }
    }
}
