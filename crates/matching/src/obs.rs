//! Phase-level observability: allocation-free spans for per-phase timings.
//!
//! Matching a query decomposes into the paper's phases — *filter* (candidate
//! pruning), *build-candidates* (materializing the [`CandidateSpace`]/CPI),
//! *order* (computing the matching order), *enumerate* (backtracking
//! search), and *verify* (VF2 verification in the IFV engines). A [`Span`]
//! times one phase of one `(query, graph)` pair into the query's [`ExecCtx`]
//! riding on [`Deadline`], so parallel workers of the same query aggregate
//! lock-free through the block's atomics.
//!
//! **The phase cursor.** Each thread keeps one cursor: the block and phase
//! its clock is running for, the reading that started the running segment,
//! and the per-phase nanoseconds not yet flushed into that block.
//! Every clock read closes the running segment into the running phase and
//! starts the next one, so every tick lands in exactly one bucket and the
//! phases sum to the outermost wall without any subtraction. A span
//! switches the cursor to its phase on entry and back to the phase it
//! interrupted on drop, one read each. Entering the phase and block already
//! running changes nothing, so it reads no clock and only adds its items: a
//! harness stage around a matcher's own span of that phase (the scan's lap
//! ⊃ `filter`, `verify_each` ⊃ `Vf2Verifier::verify`) costs the pair the
//! stage's reads only. The nanoseconds reach the block when the cursor
//! leaves it — at the outermost span's drop, or on entering a span of
//! another block — and a span's items as it ends, when it has any: a pruned
//! pair makes no atomic add. A span over an inert block does nothing at all,
//! and nothing ever allocates.
//!
//! A *lap* ([`Span::lap`]) is the same guard for a loop whose stages follow
//! one another: the vcFV scan opens one before its first graph and ends
//! every pair with one [`Span::switch`], a read that closes the running
//! phase, returns the wall since the previous switch (the stage's wall) and
//! runs the next phase. A lap's drop reads no clock: what it interrupted
//! resumes from the last reading. A pruned pair thus costs one clock read,
//! an unpruned CFQL pair six (two switches, the matcher's `BuildCandidates`
//! and `Order` spans), plus one per scan.
//!
//! The clock is injectable per block ([`ExecCtx::with_clock`]): production
//! blocks read a monotonic nanosecond counter, tests install a deterministic
//! fake so phase durations are byte-stable across runs and thread counts
//! (invariant I8 extended to phase timings). One reading closes a segment of
//! one block and opens one of the next, so blocks nested on one thread must
//! share a clock.
//!
//! [`CandidateSpace`]: crate::candidates::CandidateSpace

use std::cell::Cell;
use std::marker::PhantomData;

use crate::deadline::{Deadline, ExecCtx};

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

/// The thread's one phase timer (module docs, "The phase cursor").
struct Cursor {
    /// The running block (the inert one while idle), the running phase, and
    /// the reading that started the running segment.
    run: Cell<(ExecCtx, Phase, u64)>,
    /// Per phase, the nanoseconds the running block is owed.
    owed: [Cell<u64>; PHASE_COUNT],
}

thread_local! {
    static CURSOR: Cursor = const {
        let run = Cell::new((ExecCtx::none(), Phase::Filter, 0));
        Cursor { run, owed: [const { Cell::new(0) }; PHASE_COUNT] }
    };
}

impl Cursor {
    /// Closes the running segment at reading `now` and runs `phase` of `ctx`
    /// from there. A change of block first pays the running one what it is
    /// owed (an idle cursor pays the inert block: nothing).
    fn switch(&self, now: u64, ctx: ExecCtx, phase: Phase) {
        let (running, closed, start) = self.run.replace((ctx, phase, now));
        let owed = &self.owed[closed.index()];
        owed.set(owed.get().saturating_add(now.saturating_sub(start)));
        if running.id() != ctx.id() {
            for (p, owed) in Phase::ALL.into_iter().zip(&self.owed).filter(|(_, n)| n.get() != 0) {
                running.record_phase(p, owed.take(), 0);
            }
        }
    }
}

/// A stack guard timing one phase on this thread's phase cursor (module
/// docs); what it times reaches the deadline's [`ExecCtx`].
///
/// Spans nest strictly LIFO, as stack values naturally do. That lets a
/// harness wrap a whole stage (catching dispatch and panic-guard overhead)
/// while inner matcher spans of other phases take their own ticks, and the
/// sum over phases still counts every tick exactly once.
///
/// ```
/// use sqp_matching::obs::{Phase, Span};
/// use sqp_matching::{Deadline, ExecCtx};
///
/// let ctx = ExecCtx::new();
/// let deadline = Deadline::none().with_ctx(ctx);
/// {
///     let mut span = Span::enter(Phase::Filter, deadline);
///     span.add_items(42); // e.g. surviving candidates
/// } // recorded here
/// assert_eq!(ctx.phase_snapshot().items_of(Phase::Filter), 42);
/// ```
///
/// Its drop restores the cursor of the thread that entered it, so a span
/// cannot move to another thread:
///
/// ```compile_fail
/// use sqp_matching::obs::{Phase, Span};
/// use sqp_matching::Deadline;
///
/// let span = Span::enter(Phase::Filter, Deadline::none());
/// std::thread::spawn(move || drop(span));
/// ```
#[must_use = "a span times its phase until it is dropped"]
#[derive(Debug)]
pub struct Span {
    ctx: ExecCtx,
    /// The running phase: the span's own, or the one a lap last switched to.
    phase: Phase,
    /// The block and phase this span interrupted, run again at its end;
    /// `None` when it did not move the cursor (an inert block, or its phase
    /// of its block was already running).
    outer: Option<(ExecCtx, Phase)>,
    /// A lap's end reads no clock.
    lap: bool,
    /// The reading at entry or at the last switch.
    start: u64,
    items: u64,
    _thread: PhantomData<*const ()>,
}

impl Span {
    /// Starts a span for `phase` against `deadline`'s block. Reads the clock
    /// only when the block is live and not already running `phase` on this
    /// thread.
    #[inline]
    pub fn enter(phase: Phase, deadline: Deadline) -> Self {
        Self::open(phase, deadline, false)
    }

    /// Starts a lap of `phase` against `deadline`'s block: one clock read when
    /// the block is live — even if `phase` is already running, since its
    /// first [`switch`](Span::switch) returns a wall from here — and none at
    /// its end, where what it interrupted runs again from the last reading.
    ///
    /// ```
    /// use sqp_matching::obs::{Phase, Span};
    /// use sqp_matching::{Deadline, ExecCtx};
    ///
    /// let ctx = ExecCtx::new();
    /// let mut lap = Span::lap(Phase::Filter, Deadline::none().with_ctx(ctx));
    /// let filter_wall = lap.switch(Phase::Enumerate); // filter ends, enumerate starts
    /// let enumerate_wall = lap.switch(Phase::Filter);
    /// drop(lap); // no clock read: the totals are flushed here
    /// assert_eq!(ctx.phase_snapshot().total_nanos(), filter_wall + enumerate_wall);
    /// ```
    pub fn lap(phase: Phase, deadline: Deadline) -> Self {
        Self::open(phase, deadline, true)
    }

    #[inline]
    fn open(phase: Phase, deadline: Deadline, lap: bool) -> Self {
        let ctx = deadline.ctx();
        let span = Self { ctx, phase, outer: None, lap, start: 0, items: 0, _thread: PhantomData };
        if !ctx.is_some() {
            return span;
        }
        span.move_cursor()
    }

    /// Out of line and by value, so that over an inert block `enter` inlines
    /// into a matcher as one branch and the span stays in registers (a bare
    /// matcher loop reads 38 vs 44 µs per 1 000 pairs either way round).
    fn move_cursor(mut self) -> Self {
        let (ctx, phase, _) = CURSOR.with(|c| c.run.get());
        if self.lap || ctx.id() != self.ctx.id() || phase != self.phase {
            self.start = self.ctx.now();
            CURSOR.with(|c| c.switch(self.start, self.ctx, self.phase));
            self.outer = Some((ctx, phase));
        }
        self
    }

    /// Adds `n` items (candidates, embeddings, …) to this span's count.
    #[inline]
    pub fn add_items(&mut self, n: u64) {
        self.items = self.items.saturating_add(n);
    }

    /// The phase this span is running.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Closes the running phase and runs `next` (which may be the same
    /// phase) with one clock read; returns the wall since entry or the last
    /// switch, the stage's wall. Reads nothing and returns 0 for a span that
    /// did not move the cursor. A span entered after this one must have
    /// ended first.
    #[inline]
    pub fn switch(&mut self, next: Phase) -> u64 {
        let Some(_) = self.outer else { return 0 };
        let now = self.ctx.now();
        CURSOR.with(|c| c.switch(now, self.ctx, next));
        self.phase = next;
        now.saturating_sub(std::mem::replace(&mut self.start, now))
    }

    /// Ends the span now (recording it exactly as dropping would) and
    /// returns its wall since entry in clock units, read by its closing
    /// read: 0 from a span that did not move the cursor, and from a lap only
    /// what the last reading saw. Lets a harness reuse the span's clock reads
    /// as its stage wall measurement instead of paying for a second timer.
    #[inline]
    pub fn finish(mut self) -> u64 {
        self.end()
    }

    /// Shared drop/finish path; idempotent. Like `enter`, small where no
    /// clock is read.
    #[inline]
    fn end(&mut self) -> u64 {
        let items = std::mem::take(&mut self.items);
        if items != 0 {
            self.ctx.record_items(self.phase, items);
        }
        self.outer.take().map_or(0, |outer| self.leave(outer))
    }

    /// Gives the cursor back to what this span interrupted: at a new
    /// reading, or — a lap — at the last one.
    fn leave(&self, (ctx, phase): (ExecCtx, Phase)) -> u64 {
        let now = if self.lap { CURSOR.with(|c| c.run.get().2) } else { self.ctx.now() };
        CURSOR.with(|c| c.switch(now, ctx, phase));
        now.saturating_sub(self.start)
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        self.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadline::ResourceLimits;
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
        let sink = ExecCtx::new();
        let deadline = Deadline::none().with_ctx(sink);
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
        assert!(Deadline::none().ctx().phase_snapshot().is_zero());
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
        let sink = ExecCtx::with_clock(fake);
        let deadline = Deadline::none().with_ctx(sink);
        for _ in 0..3 {
            let _s = Span::enter(Phase::Order, deadline);
        }
        // Each span makes exactly two clock calls, so each lasts exactly one
        // fake tick.
        assert_eq!(sink.phase_snapshot().nanos_of(Phase::Order), 3);
    }

    #[test]
    fn nested_spans_split_the_outer_wall() {
        fn fake() -> u64 {
            use std::cell::Cell;
            thread_local! { static T: Cell<u64> = const { Cell::new(0) }; }
            T.with(|t| {
                let v = t.get();
                t.set(v + 1);
                v
            })
        }
        let sink = ExecCtx::with_clock(fake);
        let deadline = Deadline::none().with_ctx(sink);
        {
            let _outer = Span::enter(Phase::Filter, deadline); // clock: start
            let _inner = Span::enter(Phase::BuildCandidates, deadline);
            // inner: start + stop = 1 tick; outer spans 3 ticks total.
        }
        let snap = sink.phase_snapshot();
        assert_eq!(snap.nanos_of(Phase::BuildCandidates), 1);
        // The ticks before and after the inner span are the outer's: the
        // total equals the outer wall of 3 with nothing double-counted.
        assert_eq!(snap.nanos_of(Phase::Filter), 2);
        assert_eq!(snap.total_nanos(), 3);
    }

    thread_local! { static TICKS: Cell<u64> = const { Cell::new(0) }; }

    /// The fake clock of the cursor tests: each read is one tick, per
    /// thread, so [`reads`] differences count clock calls exactly.
    fn tick() -> u64 {
        TICKS.with(|t| t.replace(t.get() + 1))
    }

    fn reads() -> u64 {
        TICKS.with(Cell::get)
    }

    /// The block and phase this thread's cursor runs; `None` when idle.
    fn running() -> Option<(usize, Phase)> {
        let (ctx, phase, _) = CURSOR.with(|c| c.run.get());
        ctx.is_some().then(|| (ctx.id(), phase))
    }

    #[test]
    fn inert_spans_leave_the_cursor_idle() {
        {
            let _s = Span::enter(Phase::Filter, Deadline::none());
            let _lap = Span::lap(Phase::Order, Deadline::none());
            assert_eq!(running(), None);
        }
        assert_eq!(running(), None);
    }

    #[test]
    fn entering_the_running_phase_reads_nothing() {
        let sink = ExecCtx::with_clock(tick);
        let deadline = Deadline::none().with_ctx(sink);
        let mut outer = Span::enter(Phase::Filter, deadline);
        outer.add_items(1);
        assert_eq!((reads(), running()), (1, Some((sink.id(), Phase::Filter))));
        {
            let mut inner = Span::enter(Phase::Filter, deadline);
            inner.add_items(5);
            assert_eq!(inner.finish(), 0, "a wall reading comes only from a span that moved");
            let _empty = Span::enter(Phase::Filter, deadline); // no items: drops to nothing
        }
        assert_eq!(reads(), 1, "the nested spans read no clock");
        let snap = sink.phase_snapshot();
        assert_eq!(snap.items_of(Phase::Filter), 5, "items are recorded at each span's end");
        assert_eq!(snap.total_nanos(), 0, "the block is paid when the cursor leaves it");
        assert_eq!(outer.finish(), 1);
        let snap = sink.phase_snapshot();
        assert_eq!(snap.items_of(Phase::Filter), 6);
        assert_eq!((snap.nanos_of(Phase::Filter), snap.total_nanos()), (1, 1));
        assert_eq!((reads(), running()), (2, None));
    }

    #[test]
    fn other_sink_and_other_phase_children_move_the_cursor() {
        let (a, b) = (ExecCtx::with_clock(tick), ExecCtx::with_clock(tick));
        let (da, db) = (Deadline::none().with_ctx(a), Deadline::none().with_ctx(b));
        {
            let _outer = Span::enter(Phase::Filter, da); // tick 0
            drop(Span::enter(Phase::Filter, db)); // ticks 1, 2: same phase, other sink
            drop(Span::enter(Phase::BuildCandidates, da)); // ticks 3, 4: same sink, other phase
        } // tick 5
        assert_eq!(reads(), 6, "two reads per span that moves the cursor");
        assert_eq!(b.phase_snapshot().nanos_of(Phase::Filter), 1);
        let snap = a.phase_snapshot();
        assert_eq!(snap.nanos_of(Phase::BuildCandidates), 1);
        // The outer's ticks are those around its children (the cursor is per
        // thread, not per sink): every tick is counted once across the two.
        assert_eq!(snap.nanos_of(Phase::Filter), 3);
        assert_eq!(snap.total_nanos() + b.phase_snapshot().total_nanos(), 5);
    }

    #[test]
    fn a_child_under_a_span_that_stayed_runs_under_the_stage() {
        let sink = ExecCtx::with_clock(tick);
        let deadline = Deadline::none().with_ctx(sink);
        let stage = Span::enter(Phase::Filter, deadline); // tick 0
        {
            let _matcher = Span::enter(Phase::Filter, deadline); // stays
            let _build = Span::enter(Phase::BuildCandidates, deadline); // ticks 1, 2
            assert_eq!(running(), Some((sink.id(), Phase::BuildCandidates)));
            drop(Span::enter(Phase::BuildCandidates, deadline)); // stays under `_build`
        }
        assert_eq!(running(), Some((sink.id(), Phase::Filter)), "the stage runs again");
        assert_eq!(stage.finish(), 3); // tick 3
        let snap = sink.phase_snapshot();
        assert_eq!(snap.nanos_of(Phase::BuildCandidates), 1);
        assert_eq!(snap.nanos_of(Phase::Filter), 2, "the stage's ticks around the child");
        assert_eq!(snap.total_nanos(), 3, "phase sum = outermost wall");
        assert_eq!(reads(), 4);
    }

    #[test]
    fn a_panic_through_nested_spans_restores_the_cursor() {
        let sink = ExecCtx::with_clock(tick);
        let deadline = Deadline::none().with_ctx(sink);
        let stage = Span::enter(Phase::Filter, deadline); // tick 0
        let unwound = std::panic::catch_unwind(|| {
            let mut matcher = Span::enter(Phase::Filter, deadline); // stays
            matcher.add_items(2);
            let _build = Span::enter(Phase::BuildCandidates, deadline); // ticks 1, 2
            panic!("injected");
        });
        assert!(unwound.is_err());
        assert_eq!(running(), Some((sink.id(), Phase::Filter)), "the stage runs again");
        assert_eq!(stage.finish(), 3); // tick 3
        assert_eq!(running(), None);
        let snap = sink.phase_snapshot();
        assert_eq!(snap.items_of(Phase::Filter), 2, "the nested span's items survive the unwind");
        assert_eq!(snap.total_nanos(), 3);
        // The next span on this thread has no stale phase to stay in.
        sink.arm(ResourceLimits::unlimited());
        drop(Span::enter(Phase::Filter, deadline)); // ticks 4, 5
        assert_eq!(sink.phase_snapshot().nanos_of(Phase::Filter), 1);
        assert_eq!(reads(), 6);
    }

    #[test]
    fn nesting_depth_is_unbounded() {
        let sink = ExecCtx::with_clock(tick);
        let deadline = Deadline::none().with_ctx(sink);
        let phase_at = |d: usize| [Phase::Order, Phase::Filter][d % 2];
        let mut open: Vec<Span> = (0..40).map(|d| Span::enter(phase_at(d), deadline)).collect();
        while let Some(span) = open.pop() {
            drop(span); // LIFO, as stack values drop
        }
        let snap = sink.phase_snapshot();
        assert_eq!((reads(), running()), (80, None), "every span read twice");
        assert_eq!(snap.total_nanos(), 79, "phase sum = outermost wall");
        assert_eq!(snap.nanos_of(Phase::Order), 40, "the even depths' ticks");
    }

    #[test]
    fn a_lap_reads_once_per_switch_and_never_on_drop() {
        let sink = ExecCtx::with_clock(tick);
        let deadline = Deadline::none().with_ctx(sink);
        let mut lap = Span::lap(Phase::Filter, deadline); // tick 0
        assert_eq!((reads(), running()), (1, Some((sink.id(), Phase::Filter))));
        assert_eq!(lap.switch(Phase::Filter), 1); // tick 1
        assert_eq!(lap.switch(Phase::Enumerate), 1); // tick 2
        assert_eq!(lap.phase(), Phase::Enumerate);
        assert_eq!(lap.switch(Phase::Filter), 1); // tick 3
        assert!(sink.phase_snapshot().is_zero(), "nothing reaches the sink before the drop");
        assert_eq!(lap.finish(), 0, "a lap's end reads no clock");
        assert_eq!((reads(), running()), (4, None));
        let snap = sink.phase_snapshot();
        assert_eq!((snap.nanos_of(Phase::Filter), snap.nanos_of(Phase::Enumerate)), (2, 1));
        assert_eq!(snap.total_nanos(), 3);
    }

    #[test]
    fn a_matcher_span_of_the_laps_phase_reads_nothing() {
        let sink = ExecCtx::with_clock(tick);
        let deadline = Deadline::none().with_ctx(sink);
        let mut lap = Span::lap(Phase::Filter, deadline); // tick 0
        {
            let mut matcher = Span::enter(Phase::Filter, deadline);
            matcher.add_items(3);
            assert_eq!(reads(), 1, "no read");
        }
        assert_eq!(lap.switch(Phase::Enumerate), 1); // tick 1
        {
            // The switched cursor makes the next phase's matcher span stay.
            let _enumerate = Span::enter(Phase::Enumerate, deadline);
            assert_eq!(reads(), 2);
        }
        assert_eq!(lap.switch(Phase::Filter), 1); // tick 2
        drop(lap);
        let snap = sink.phase_snapshot();
        assert_eq!(snap.items_of(Phase::Filter), 3);
        assert_eq!((snap.nanos_of(Phase::Filter), snap.nanos_of(Phase::Enumerate)), (1, 1));
        assert_eq!(reads(), 3);
    }

    #[test]
    fn a_child_of_another_phase_takes_its_ticks_out_of_the_lap() {
        let sink = ExecCtx::with_clock(tick);
        let deadline = Deadline::none().with_ctx(sink);
        let mut lap = Span::lap(Phase::Filter, deadline); // tick 0
        {
            let _matcher = Span::enter(Phase::Filter, deadline); // stays
            let _build = Span::enter(Phase::BuildCandidates, deadline); // ticks 1, 2
            assert_eq!(running(), Some((sink.id(), Phase::BuildCandidates)));
        }
        assert_eq!(lap.switch(Phase::Enumerate), 3, "the wall includes the child"); // tick 3
        drop(Span::enter(Phase::Order, deadline)); // ticks 4, 5
        assert_eq!(lap.switch(Phase::Filter), 3); // tick 6
        drop(lap);
        let snap = sink.phase_snapshot();
        assert_eq!(snap.nanos, [2, 1, 1, 2, 0], "each lap's wall minus its child");
        assert_eq!(snap.total_nanos(), 6, "phase sum = Σ walls");
        assert_eq!((reads(), running()), (7, None));
    }

    #[test]
    fn a_lap_resumes_its_enclosing_span_from_the_last_reading() {
        let sink = ExecCtx::with_clock(tick);
        let deadline = Deadline::none().with_ctx(sink);
        let outer = Span::enter(Phase::Order, deadline); // tick 0
        {
            let mut lap = Span::lap(Phase::Filter, deadline); // tick 1
            drop(Span::enter(Phase::BuildCandidates, deadline)); // ticks 2, 3
            assert_eq!(lap.switch(Phase::Enumerate), 3); // tick 4
            assert_eq!(lap.switch(Phase::Filter), 1); // tick 5
                                                      // Opened after the last switch: the tick before it is the lap's
                                                      // running phase, and the outer span runs again from its last read.
            drop(Span::enter(Phase::Verify, deadline)); // ticks 6, 7
        }
        assert_eq!(outer.finish(), 8); // tick 8
        let snap = sink.phase_snapshot();
        assert_eq!(snap.nanos, [3, 1, 2, 1, 1]);
        // The outer span's ticks: before the lap's entry read and after the
        // late child's last read, which nobody else timed.
        assert_eq!(snap.nanos_of(Phase::Order), 2);
        assert_eq!(snap.total_nanos(), 8, "phase sum = outermost wall");
        assert_eq!((reads(), running()), (9, None));
    }

    #[test]
    fn a_lap_over_an_inert_sink_reads_nothing() {
        let mut lap = Span::lap(Phase::Filter, Deadline::none());
        assert_eq!(lap.switch(Phase::Enumerate), 0);
        drop(Span::enter(Phase::Order, Deadline::none()));
        assert_eq!(lap.switch(Phase::Filter), 0);
        drop(lap);
        assert_eq!((reads(), running()), (0, None));
    }

    #[test]
    fn a_panic_inside_a_lap_leaves_the_cursor_where_the_lap_left_it() {
        let sink = ExecCtx::with_clock(tick);
        let deadline = Deadline::none().with_ctx(sink);
        let mut lap = Span::lap(Phase::Filter, deadline); // tick 0
        let unwound = std::panic::catch_unwind(|| {
            let mut matcher = Span::enter(Phase::Filter, deadline); // stays
            matcher.add_items(2);
            let _build = Span::enter(Phase::BuildCandidates, deadline); // tick 1, 4 on unwind
            let _order = Span::enter(Phase::Order, deadline); // tick 2, 3 on unwind
            panic!("injected");
        });
        assert!(unwound.is_err());
        assert_eq!(running(), Some((sink.id(), Phase::Filter)), "the lap runs again");
        assert_eq!(lap.switch(Phase::Filter), 5); // tick 5
        drop(Span::enter(Phase::Filter, deadline)); // stays again
        assert_eq!(reads(), 6);
        drop(lap);
        assert_eq!(running(), None);
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
        let mut lap = Span::lap(tree.phase, deadlines[tree.sink]);
        for step in &tree.steps {
            match step {
                Step::Child(node) => replay(node, deadlines),
                Step::Switch(next) => {
                    lap.switch(*next);
                }
            }
        }
    }

    /// The reference model of one thread's spans and laps, written as
    /// nested self-time accounting rather than as a cursor: what each sink
    /// must hold, how many spans moved the cursor, how often a lap switched,
    /// and the tick clock they read.
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

        /// Interprets `node` under the innermost running `(phase, sink)`;
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

        /// Interprets the lap itself — it reads on entry even in its own
        /// running phase; its children see its current phase — and returns
        /// its credit: Σ walls plus the ticks from its last switch to the
        /// last read before its drop, which stay in its last phase.
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
            self.sinks[tree.sink].nanos[phase.index()] += self.clock - start - children;
            walls + self.clock - start
        }
    }

    proptest! {
        /// Random span trees (5 phases, 2 sinks over one tick clock, depth
        /// ≤ 6) against the model: per sink the same ticks and items per
        /// phase, two clock reads per span that moves the cursor and none
        /// per span entered in the running phase, and every tick of the
        /// root's wall in exactly one bucket.
        #[test]
        fn span_trees_match_the_reference_model(seed in any::<u64>()) {
            let tree = random_tree(&mut StdRng::seed_from_u64(seed), 5);
            let sinks = [ExecCtx::with_clock(tick), ExecCtx::with_clock(tick)];
            let before = reads();
            replay(&tree, sinks.map(|s| Deadline::none().with_ctx(s)));
            let mut model = Model::default();
            let wall = model.run(&tree, None);
            prop_assert_eq!(running(), None);
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
        /// clock reads = 2 × moved spans + 1 + switches, and the phase sum
        /// equals what the root charges its parent — no tick counted twice.
        #[test]
        fn lap_rooted_span_trees_match_the_reference_model(seed in any::<u64>()) {
            let tree = random_lap_tree(&mut StdRng::seed_from_u64(seed));
            let sinks = [ExecCtx::with_clock(tick), ExecCtx::with_clock(tick)];
            let before = reads();
            replay_lap(&tree, sinks.map(|s| Deadline::none().with_ctx(s)));
            let mut model = Model::default();
            let charged = model.run_lap_tree(&tree);
            prop_assert_eq!(running(), None);
            prop_assert_eq!(reads() - before, 2 * model.active + 1 + model.switches);
            for (sink, expected) in sinks.iter().zip(model.sinks) {
                prop_assert_eq!(sink.phase_snapshot(), expected);
            }
            let summed: u64 = sinks.iter().map(|s| s.phase_snapshot().total_nanos()).sum();
            prop_assert_eq!(summed, charged);
        }
    }
}
