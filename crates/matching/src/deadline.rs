//! Per-query time budgets and the per-query control block.
//!
//! The paper gives every query a 10-minute limit and records timed-out
//! queries at the limit. A [`Deadline`] is threaded through every filter and
//! enumerator; deep recursions amortize the `Instant::now()` cost with
//! [`TickChecker`], and a scan over many cheap graphs amortizes it with
//! [`SCAN_CHECK_INTERVAL`]: flags before every graph, the clock every 16th.
//!
//! A deadline also carries the query's [`ExecCtx`]: one shared block holding
//! its cancel flag, its [`ResourceLimits`] on enumeration *work* (recursion
//! steps) and auxiliary *memory* (candidate-space bytes), its kernel
//! counters and its per-phase span totals. Whoever owns the query arms it
//! with one call ([`ExecCtx::arm`]). Cancel flag and trip kind share one
//! status word, so the flags check every scan makes before a graph is one
//! atomic load, and when one worker cancels or trips a budget every sibling
//! holding the same deadline stops within one tick interval instead of
//! burning CPU to its own expiry. Steps are charged on the same amortized
//! [`TickChecker`] path the clock uses, so a runaway enumeration stops as a
//! structured [`ResourceKind`] failure instead of grinding to OOM or to the
//! wall-clock limit.

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::obs::{Phase, PhaseStats, PHASE_COUNT};
use crate::stats::KernelStats;

/// Error signaling that the per-query time budget was exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Timeout;

impl std::fmt::Display for Timeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query time budget exhausted")
    }
}

impl std::error::Error for Timeout {}

/// Which per-query resource budget an [`ExecCtx`] tripped on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// The enumeration-step (recursion) budget was exhausted.
    Steps,
    /// The auxiliary-memory (candidate space bytes) budget was exhausted.
    Memory,
}

impl std::fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResourceKind::Steps => write!(f, "enumeration steps"),
            ResourceKind::Memory => write!(f, "auxiliary memory"),
        }
    }
}

/// Per-query resource budgets enforced by an [`ExecCtx`].
///
/// `None` means unlimited. Step budgets are enforced to within one
/// [`TickChecker`] interval per concurrent worker (steps are charged in
/// amortized batches, never per recursion call).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResourceLimits {
    /// Maximum enumeration (recursion) steps per query, summed over workers.
    pub max_steps: Option<u64>,
    /// Maximum auxiliary bytes (peak candidate-space size) per query.
    pub max_aux_bytes: Option<usize>,
}

impl ResourceLimits {
    /// No limits: the budgets never trip.
    pub const fn unlimited() -> Self {
        Self { max_steps: None, max_aux_bytes: None }
    }

    /// Limits with the given step budget.
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = Some(max_steps);
        self
    }

    /// Limits with the given auxiliary-memory budget.
    pub fn with_max_aux_bytes(mut self, max_aux_bytes: usize) -> Self {
        self.max_aux_bytes = Some(max_aux_bytes);
        self
    }

    /// Whether any budget is set.
    pub fn is_limited(&self) -> bool {
        self.max_steps.is_some() || self.max_aux_bytes.is_some()
    }
}

/// Monotonic nanoseconds since the first call in this process — the
/// production span clock.
fn monotonic_nanos() -> u64 {
    use std::sync::OnceLock;
    static BASE: OnceLock<Instant> = OnceLock::new();
    let base = *BASE.get_or_init(Instant::now);
    // ~584 years of u64 nanoseconds: the cast cannot truncate in practice.
    base.elapsed().as_nanos() as u64
}

/// The status word's cancel bit; the bits above it hold the trip kind.
const CANCELLED: u8 = 1;
const TRIP_SHIFT: u8 = 1;
const TRIP_STEPS: u8 = 1;
const TRIP_MEMORY: u8 = 2;

#[derive(Debug)]
struct CtxState {
    /// [`CANCELLED`] | trip kind << [`TRIP_SHIFT`]; nonzero interrupts
    /// every holder.
    status: AtomicU8,
    /// Budgets; 0 encodes "unlimited".
    max_steps: AtomicU64,
    max_aux_bytes: AtomicUsize,
    steps: AtomicU64,
    /// The [`KernelStats`] fields, in declaration order.
    kernel: [AtomicU64; 4],
    phase_nanos: [AtomicU64; PHASE_COUNT],
    phase_items: [AtomicU64; PHASE_COUNT],
    /// Span clock; part of the block's identity, so snapshots of one block
    /// are always in one unit.
    clock: fn() -> u64,
}

/// One query's shared control block, carried inside [`Deadline`]: its
/// cancel flag, resource budgets, kernel counters and phase totals.
///
/// The handle is `Copy` so it rides through every matcher signature
/// unchanged; [`new`](ExecCtx::new) leaks one state block for the `'static`
/// lifetime, so a block is created once per long-lived owner (an engine, a
/// pool, an executor) and re-armed per query with [`arm`](ExecCtx::arm).
/// Concurrent workers of one query record into it and sum naturally.
///
/// Once cancelled or tripped, every deadline carrying the block reports
/// expiry ([`Deadline::check`] returns [`Timeout`]); the owner classifies the
/// outcome afterwards via [`tripped`](ExecCtx::tripped), which reads the trip
/// kind only: a cancel never hides a trip, nor a trip a cancel.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecCtx {
    state: Option<&'static CtxState>,
}

impl ExecCtx {
    /// The inert block: never interrupted, recording is a no-op, snapshots
    /// are zero.
    pub const fn none() -> Self {
        Self { state: None }
    }

    /// A fresh, unlimited block whose spans read the monotonic clock.
    pub fn new() -> Self {
        Self::with_clock(monotonic_nanos)
    }

    /// A fresh, unlimited block whose spans read `clock`. Tests install a
    /// deterministic counter here so phase durations are byte-stable across
    /// runs and thread counts.
    pub fn with_clock(clock: fn() -> u64) -> Self {
        let state = CtxState {
            status: AtomicU8::new(0),
            max_steps: AtomicU64::new(0),
            max_aux_bytes: AtomicUsize::new(0),
            steps: AtomicU64::new(0),
            kernel: Default::default(),
            phase_nanos: Default::default(),
            phase_items: Default::default(),
            clock,
        };
        Self { state: Some(Box::leak(Box::new(state))) }
    }

    /// Re-arms the block for the next query: clears the status, the steps
    /// and every counter, installs `limits`, and returns the block. The
    /// clock survives.
    pub fn arm(self, limits: ResourceLimits) -> Self {
        if let Some(s) = self.state {
            s.max_steps.store(limits.max_steps.unwrap_or(0), Ordering::Release);
            s.max_aux_bytes.store(limits.max_aux_bytes.unwrap_or(0), Ordering::Release);
            s.steps.store(0, Ordering::Release);
            for counter in s.kernel.iter().chain(&s.phase_nanos).chain(&s.phase_items) {
                counter.store(0, Ordering::Release);
            }
            s.status.store(0, Ordering::Release);
        }
        self
    }

    /// Raises the cancel flag: every deadline carrying this block is now
    /// expired. The trip kind is kept.
    #[inline]
    pub fn cancel(&self) {
        if let Some(s) = self.state {
            s.status.fetch_or(CANCELLED, Ordering::AcqRel);
        }
    }

    /// Trips a budget directly (the budgets and fault injection call this).
    /// The first trip wins; the cancel flag is kept.
    pub fn trip(&self, kind: ResourceKind) {
        let Some(s) = self.state else { return };
        let code = match kind {
            ResourceKind::Steps => TRIP_STEPS,
            ResourceKind::Memory => TRIP_MEMORY,
        };
        let first = |status: u8| (status >> TRIP_SHIFT == 0).then_some(status | code << TRIP_SHIFT);
        s.status.fetch_update(Ordering::AcqRel, Ordering::Acquire, first).ok();
    }

    /// Which budget tripped, if any — whether or not the block was also
    /// cancelled.
    #[inline]
    pub fn tripped(&self) -> Option<ResourceKind> {
        match self.state?.status.load(Ordering::Acquire) >> TRIP_SHIFT {
            TRIP_STEPS => Some(ResourceKind::Steps),
            TRIP_MEMORY => Some(ResourceKind::Memory),
            _ => None,
        }
    }

    /// Charges `n` enumeration steps; trips when the budget is exceeded.
    /// Called by [`TickChecker`] in whole-interval batches.
    #[inline]
    pub fn charge_steps(&self, n: u64) {
        let Some(s) = self.state else { return };
        let max = s.max_steps.load(Ordering::Acquire);
        if max != 0 && s.steps.fetch_add(n, Ordering::AcqRel).saturating_add(n) > max {
            self.trip(ResourceKind::Steps);
        }
    }

    /// Notes a per-graph auxiliary allocation of `bytes`; trips when it
    /// exceeds the memory budget.
    #[inline]
    pub fn note_aux_bytes(&self, bytes: usize) {
        let Some(s) = self.state else { return };
        let max = s.max_aux_bytes.load(Ordering::Acquire);
        if max != 0 && bytes > max {
            self.trip(ResourceKind::Memory);
        }
    }

    /// Steps charged since the last arm (0 for the inert block).
    pub fn steps_used(&self) -> u64 {
        self.state.map_or(0, |s| s.steps.load(Ordering::Acquire))
    }

    /// The current reading of this block's span clock (0 for the inert
    /// block, without touching any clock).
    #[inline]
    pub fn now(&self) -> u64 {
        self.state.map_or(0, |s| (s.clock)())
    }

    /// Adds one span's duration and item count to `phase`'s accumulators.
    #[inline]
    pub fn record_phase(&self, phase: Phase, nanos: u64, items: u64) {
        if let Some(s) = self.state {
            s.phase_nanos[phase.index()].fetch_add(nanos, Ordering::Relaxed);
            s.phase_items[phase.index()].fetch_add(items, Ordering::Relaxed);
        }
    }

    /// Adds a span's item count to `phase` (its nanoseconds reach the block
    /// through the thread's phase cursor).
    #[inline]
    pub(crate) fn record_items(&self, phase: Phase, items: u64) {
        if let Some(s) = self.state {
            s.phase_items[phase.index()].fetch_add(items, Ordering::Relaxed);
        }
    }

    /// This block's identity: the address of its leaked state, 0 for the
    /// inert block. Two live blocks never share one.
    #[inline]
    pub(crate) fn id(&self) -> usize {
        self.state.map_or(0, |s| std::ptr::from_ref(s) as usize)
    }

    /// Adds one run's kernel counters.
    #[inline]
    pub fn record(&self, k: &KernelStats) {
        if let Some(s) = self.state {
            let runs = [k.intersections, k.gallop_hits, k.simd_hits, k.bitmap_probes];
            for (counter, n) in s.kernel.iter().zip(runs) {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// The kernel counters accumulated since the last arm.
    pub fn snapshot(&self) -> KernelStats {
        let Some(s) = self.state else { return KernelStats::default() };
        let [intersections, gallop_hits, simd_hits, bitmap_probes] =
            s.kernel.each_ref().map(|c| c.load(Ordering::Acquire));
        KernelStats { intersections, gallop_hits, simd_hits, bitmap_probes }
    }

    /// The per-phase accumulators since the last arm.
    pub fn phase_snapshot(&self) -> PhaseStats {
        let Some(s) = self.state else { return PhaseStats::default() };
        let load = |counters: &[AtomicU64; PHASE_COUNT]| {
            counters.each_ref().map(|c| c.load(Ordering::Acquire))
        };
        PhaseStats { nanos: load(&s.phase_nanos), items: load(&s.phase_items) }
    }

    /// Whether this handle carries a real block.
    pub fn is_some(&self) -> bool {
        self.state.is_some()
    }
}

#[derive(Debug, Default)]
struct BeatState {
    /// Progress counter, bumped by the worker; it never reads a clock.
    count: AtomicU64,
    /// Observer side: the count last seen, and when it was first seen.
    seen: AtomicU64,
    seen_at: AtomicU64,
}

/// A shared progress counter, carried inside [`Deadline`].
///
/// Every full [`Deadline::check`] bumps the counter with one relaxed add —
/// the worker never reads a clock for it. The *observer* keeps the time: a
/// supervisor's [`stale_for`](Heartbeat::stale_for) stamps the moment it
/// first saw the current count and reports how long it has stood still
/// since, which tells a worker that is *slow* (ticking, budget simply large)
/// from one that is *wedged* (looping without ever consulting its deadline)
/// with the observer's scan interval as granularity.
///
/// Unlike the [`ExecCtx`] every worker of a query shares, a heartbeat
/// belongs to one worker slot, so the supervisor can tell which worker is
/// wedged. Like it, the heartbeat is `Copy` and `new()` leaks one small
/// state block for the `'static` lifetime: create once per worker slot and
/// re-arm per job via [`reset`](Heartbeat::reset).
#[derive(Clone, Copy, Debug, Default)]
pub struct Heartbeat {
    state: Option<&'static BeatState>,
}
impl Heartbeat {
    /// The inert heartbeat: never beats, never reads as stale.
    pub const fn none() -> Self {
        Self { state: None }
    }

    /// A fresh heartbeat, armed now. Leaks its state for the `'static`
    /// lifetime — create once per worker slot.
    pub fn new() -> Self {
        let beat = Self { state: Some(Box::leak(Box::new(BeatState::default()))) };
        beat.reset();
        beat
    }

    /// Bumps the progress counter. Relaxed: the supervisor only needs an
    /// eventually-visible "still moving" signal, not an ordering edge.
    #[inline]
    pub fn beat(&self) {
        if let Some(s) = self.state {
            s.count.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Re-arms count and stamp at job start (the one clock read a job pays
    /// for its heartbeat): staleness is measured against this job.
    pub fn reset(&self) {
        if let Some(s) = self.state {
            s.count.store(0, Ordering::Relaxed);
            s.seen.store(0, Ordering::Relaxed);
            s.seen_at.store(monotonic_nanos(), Ordering::Relaxed);
        }
    }

    /// Observer side (one per heartbeat): how long the count has stood
    /// still, measured from the call that first saw it. [`Duration::ZERO`]
    /// for the inert heartbeat, which therefore never escalates.
    pub fn stale_for(&self) -> Duration {
        let Some(s) = self.state else { return Duration::ZERO };
        let now = monotonic_nanos();
        let count = s.count.load(Ordering::Relaxed);
        if s.seen.swap(count, Ordering::Relaxed) != count {
            s.seen_at.store(now, Ordering::Relaxed);
        }
        Duration::from_nanos(now.saturating_sub(s.seen_at.load(Ordering::Relaxed)))
    }

    /// Whether this heartbeat carries real state.
    pub fn is_some(&self) -> bool {
        self.state.is_some()
    }
}

/// An optional wall-clock deadline, carrying the query's [`ExecCtx`] and a
/// worker's [`Heartbeat`].
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use sqp_matching::Deadline;
///
/// let never = Deadline::none();
/// assert!(never.check().is_ok());
///
/// let soon = Deadline::after(Duration::from_secs(3600));
/// assert!(!soon.expired());
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Deadline {
    at: Option<Instant>,
    ctx: ExecCtx,
    beat: Heartbeat,
    /// Set by [`fresh`](Deadline::fresh): the holder was handed this copy by
    /// a scan that has just checked the clock.
    fresh: bool,
}

impl Deadline {
    /// No deadline: operations run to completion.
    pub const fn none() -> Self {
        Self { at: None, ctx: ExecCtx::none(), beat: Heartbeat::none(), fresh: false }
    }

    /// A deadline `budget` from now. A budget too large to represent as an
    /// instant (overflow) means "no deadline" rather than a panic.
    pub fn after(budget: Duration) -> Self {
        Self { at: Instant::now().checked_add(budget), ..Self::none() }
    }

    /// A deadline at the given instant.
    pub fn at(instant: Instant) -> Self {
        Self { at: Some(instant), ..Self::none() }
    }

    /// Attaches the query's control block: the deadline also expires as
    /// soon as the block is cancelled or trips a budget.
    pub fn with_ctx(mut self, ctx: ExecCtx) -> Self {
        self.ctx = ctx;
        self
    }

    /// The attached control block ([`ExecCtx::none`] if absent).
    pub fn ctx(&self) -> ExecCtx {
        self.ctx
    }

    /// Attaches a heartbeat: every [`check`](Deadline::check) bumps it, so
    /// a supervisor can tell ticking workers from wedged ones.
    pub fn with_beat(mut self, beat: Heartbeat) -> Self {
        self.beat = beat;
        self
    }

    /// The attached heartbeat ([`Heartbeat::none`] if absent).
    pub fn heartbeat(&self) -> Heartbeat {
        self.beat
    }

    /// The wall-clock instant at which the deadline expires, if one is set.
    /// Supervisors use this to compute "overdue past deadline + grace".
    pub fn instant(&self) -> Option<Instant> {
        self.at
    }

    /// Whether the deadline has passed, or the control block was cancelled
    /// or tripped a budget.
    #[inline]
    pub fn expired(&self) -> bool {
        if self.check_flags().is_err() {
            return true;
        }
        match self.at {
            Some(at) => Instant::now() >= at,
            None => false,
        }
    }

    /// Errors with [`Timeout`] if expired. Also bumps the attached
    /// heartbeat: a worker that never reaches this point reads as stale to
    /// the supervisor, which is exactly the wedge signal.
    #[inline]
    pub fn check(&self) -> Result<(), Timeout> {
        self.beat.beat();
        if self.expired() {
            Err(Timeout)
        } else {
            Ok(())
        }
    }

    /// The flags-only check: errors if the control block was cancelled or
    /// tripped — one atomic load of its status word, no heartbeat, no clock.
    #[inline]
    pub fn check_flags(&self) -> Result<(), Timeout> {
        match self.ctx.state {
            Some(s) if s.status.load(Ordering::Acquire) != 0 => Err(Timeout),
            _ => Ok(()),
        }
    }

    /// A copy a scan hands to the matcher calls of one graph, vouching that
    /// it has read the clock within the last [`SCAN_CHECK_INTERVAL`] graphs.
    /// Affects [`check_entry`](Deadline::check_entry) only.
    #[inline]
    pub fn fresh(mut self) -> Self {
        self.fresh = true;
        self
    }

    /// A matcher's entry check: flags only under a vouching scan
    /// ([`fresh`](Deadline::fresh)), the full [`check`](Deadline::check) for
    /// every direct caller.
    #[inline]
    pub fn check_entry(&self) -> Result<(), Timeout> {
        if self.fresh {
            self.check_flags()
        } else {
            self.check()
        }
    }

    /// Whether a wall-clock deadline is set at all.
    pub fn is_some(&self) -> bool {
        self.at.is_some()
    }
}

/// Amortized deadline checking: consults the clock once every
/// `2^LOG_INTERVAL` ticks.
#[derive(Debug)]
pub struct TickChecker {
    ticks: u32,
}

const LOG_INTERVAL: u32 = 12; // check every 4096 ticks

/// A database scan runs the full [`Deadline::check`] (heartbeat + wall
/// clock) before its first graph and then every this many graphs, and
/// [`Deadline::check_flags`] before the others: wall-clock expiry is noticed
/// within 16 pruned pairs or one [`TickChecker`] interval.
pub const SCAN_CHECK_INTERVAL: usize = 16;

impl TickChecker {
    /// A fresh checker.
    pub fn new() -> Self {
        Self { ticks: 0 }
    }

    /// Registers one tick; consults the deadline periodically. Each interval
    /// boundary also charges one whole interval of work to the attached
    /// [`ExecCtx`], so step budgets are accurate to within one interval per
    /// concurrent worker.
    #[inline]
    pub fn tick(&mut self, deadline: Deadline) -> Result<(), Timeout> {
        self.ticks = self.ticks.wrapping_add(1);
        if self.ticks & ((1 << LOG_INTERVAL) - 1) == 0 {
            deadline.ctx().charge_steps(1 << LOG_INTERVAL);
            deadline.check()
        } else {
            Ok(())
        }
    }
}

impl Default for TickChecker {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::Rng;

    #[test]
    fn none_never_expires() {
        let d = Deadline::none();
        assert!(!d.expired());
        assert!(d.check().is_ok());
        assert!(!d.is_some());
    }

    #[test]
    fn past_deadline_expires() {
        let d = Deadline::at(Instant::now() - Duration::from_millis(1));
        assert!(d.expired());
        assert_eq!(d.check(), Err(Timeout));
    }

    #[test]
    fn future_deadline_ok() {
        let d = Deadline::after(Duration::from_secs(60));
        assert!(d.check().is_ok());
        assert!(d.is_some());
    }

    #[test]
    fn huge_budget_means_no_deadline_not_panic() {
        // Instant::now() + Duration::MAX overflows; `after` must degrade to
        // "no deadline" instead of panicking.
        let d = Deadline::after(Duration::MAX);
        assert!(!d.expired());
        assert!(d.check().is_ok());
    }

    #[test]
    fn cancellation_expires_any_deadline() {
        let ctx = ExecCtx::new();
        let far = Deadline::after(Duration::from_secs(3600)).with_ctx(ctx);
        let never = Deadline::none().with_ctx(ctx);
        assert!(!far.expired());
        assert!(!never.expired());
        ctx.cancel();
        assert!(far.expired());
        assert!(never.expired());
        assert_eq!(far.check(), Err(Timeout));
        assert!(ctx.tripped().is_none(), "a cancel is not a trip");
        ctx.arm(ResourceLimits::unlimited());
        assert!(!far.expired());
        assert!(!never.expired());
    }

    #[test]
    fn none_ctx_is_inert() {
        let ctx = ExecCtx::none();
        assert!(!ctx.is_some());
        ctx.arm(ResourceLimits::unlimited().with_max_steps(1).with_max_aux_bytes(1));
        ctx.cancel();
        ctx.charge_steps(u64::MAX / 2);
        ctx.note_aux_bytes(usize::MAX);
        ctx.trip(ResourceKind::Steps);
        assert!(ctx.tripped().is_none());
        assert_eq!(ctx.steps_used(), 0);
        ctx.record(&KernelStats {
            intersections: 1,
            gallop_hits: 1,
            simd_hits: 1,
            bitmap_probes: 1,
        });
        assert!(ctx.snapshot().is_zero());
        ctx.record_phase(Phase::Filter, 10, 10);
        assert!(ctx.phase_snapshot().is_zero());
        assert_eq!(ctx.now(), 0);
        assert!(!Deadline::none().with_ctx(ctx).expired());
    }

    #[test]
    fn tick_checker_eventually_reports() {
        let d = Deadline::at(Instant::now() - Duration::from_millis(1));
        let mut t = TickChecker::new();
        let mut hit = false;
        for _ in 0..10_000 {
            if t.tick(d).is_err() {
                hit = true;
                break;
            }
        }
        assert!(hit);
    }

    #[test]
    fn tick_checker_observes_cancellation() {
        let ctx = ExecCtx::new();
        let d = Deadline::none().with_ctx(ctx);
        let mut t = TickChecker::new();
        for _ in 0..5000 {
            assert!(t.tick(d).is_ok());
        }
        ctx.cancel();
        let mut hit = false;
        for _ in 0..5000 {
            if t.tick(d).is_err() {
                hit = true;
                break;
            }
        }
        assert!(hit, "cancellation must surface within one tick interval");
    }

    #[test]
    fn ctx_trips_on_step_budget() {
        let ctx = ExecCtx::new().arm(ResourceLimits::unlimited().with_max_steps(100));
        let d = Deadline::none().with_ctx(ctx);
        assert!(!d.expired());
        ctx.charge_steps(50);
        assert!(d.ctx().tripped().is_none());
        ctx.charge_steps(51);
        assert_eq!(d.ctx().tripped(), Some(ResourceKind::Steps));
        assert!(d.expired());
        assert_eq!(d.check(), Err(Timeout));
        assert!(ctx.steps_used() >= 101);
    }

    #[test]
    fn ctx_trips_on_memory_budget() {
        let ctx = ExecCtx::new().arm(ResourceLimits::unlimited().with_max_aux_bytes(1 << 20));
        let d = Deadline::after(Duration::from_secs(3600)).with_ctx(ctx);
        ctx.note_aux_bytes(1 << 19);
        assert!(d.ctx().tripped().is_none());
        ctx.note_aux_bytes((1 << 20) + 1);
        assert_eq!(d.ctx().tripped(), Some(ResourceKind::Memory));
        assert!(d.expired());
    }

    #[test]
    fn arm_rearms() {
        let ctx = ExecCtx::new().arm(ResourceLimits::unlimited().with_max_steps(10));
        ctx.charge_steps(11);
        ctx.cancel();
        assert_eq!(ctx.tripped(), Some(ResourceKind::Steps));
        ctx.arm(ResourceLimits::unlimited().with_max_steps(10));
        assert!(ctx.tripped().is_none());
        assert!(Deadline::none().with_ctx(ctx).check_flags().is_ok(), "arm clears the cancel");
        assert_eq!(ctx.steps_used(), 0);
        // Armed unlimited: nothing trips no matter how much is charged.
        ctx.arm(ResourceLimits::unlimited());
        ctx.charge_steps(u64::MAX / 2);
        ctx.note_aux_bytes(usize::MAX);
        assert!(ctx.tripped().is_none());
    }

    #[test]
    fn first_trip_wins_and_cancel_keeps_it() {
        let ctx = ExecCtx::new();
        ctx.trip(ResourceKind::Memory);
        assert_eq!(ctx.tripped(), Some(ResourceKind::Memory));
        ctx.trip(ResourceKind::Steps);
        assert_eq!(ctx.tripped(), Some(ResourceKind::Memory));
        ctx.cancel();
        assert_eq!(ctx.tripped(), Some(ResourceKind::Memory), "a cancel never hides a trip");
        // Nor a trip a cancel: once cancelled, a trip sets the kind only.
        let ctx = ExecCtx::new();
        ctx.cancel();
        ctx.trip(ResourceKind::Steps);
        assert_eq!(ctx.tripped(), Some(ResourceKind::Steps));
        assert_eq!(ctx.state.map(|s| s.status.load(Ordering::Acquire) & CANCELLED), Some(1));
    }

    #[test]
    fn kernel_counters_accumulate_and_rearm() {
        let ctx = ExecCtx::new();
        let d = Deadline::none().with_ctx(ctx);
        assert!(d.ctx().snapshot().is_zero());
        d.ctx().record(&KernelStats {
            intersections: 3,
            gallop_hits: 1,
            simd_hits: 2,
            bitmap_probes: 7,
        });
        d.ctx().record(&KernelStats {
            intersections: 1,
            gallop_hits: 0,
            simd_hits: 1,
            bitmap_probes: 2,
        });
        assert_eq!(
            ctx.snapshot(),
            KernelStats { intersections: 4, gallop_hits: 1, simd_hits: 3, bitmap_probes: 9 }
        );
        ctx.arm(ResourceLimits::unlimited());
        assert!(ctx.snapshot().is_zero());
    }

    #[test]
    fn phase_counters_accumulate_and_rearm() {
        let ctx = ExecCtx::new();
        ctx.record_phase(Phase::Filter, 5, 2);
        ctx.record_phase(Phase::Filter, 7, 1);
        ctx.record_phase(Phase::Enumerate, 11, 4);
        let snap = ctx.phase_snapshot();
        assert_eq!(snap.nanos_of(Phase::Filter), 12);
        assert_eq!(snap.items_of(Phase::Filter), 3);
        assert_eq!(snap.nanos_of(Phase::Enumerate), 11);
        assert_eq!(snap.items_of(Phase::Enumerate), 4);
        ctx.arm(ResourceLimits::unlimited());
        assert!(ctx.phase_snapshot().is_zero());
        // The production clock is monotonic.
        let a = ctx.now();
        let b = ctx.now();
        assert!(b >= a);
    }

    const STALE: Duration = Duration::from_millis(5);

    #[test]
    fn heartbeat_count_change_reads_as_fresh() {
        let beat = Heartbeat::new();
        let d = Deadline::after(Duration::from_secs(3600)).with_beat(beat);
        std::thread::sleep(STALE);
        assert!(d.check().is_ok());
        // The count moved since the observer last looked: fresh, however
        // long ago the beat itself happened.
        std::thread::sleep(STALE);
        assert_eq!(beat.stale_for(), Duration::ZERO);
        // An expired check still beats: ticking-but-late is not wedged.
        let late = Deadline::at(Instant::now() - Duration::from_millis(1)).with_beat(beat);
        assert_eq!(late.check(), Err(Timeout));
        assert_eq!(beat.stale_for(), Duration::ZERO);
    }

    #[test]
    fn heartbeat_without_change_reads_as_stale() {
        let beat = Heartbeat::new();
        beat.beat();
        assert_eq!(beat.stale_for(), Duration::ZERO);
        std::thread::sleep(STALE);
        // Staleness runs from the observation that first saw the count.
        assert!(beat.stale_for() >= STALE);
        std::thread::sleep(STALE);
        assert!(beat.stale_for() >= 2 * STALE);
        // A heartbeat that never beat is stale from the moment it was armed.
        let silent = Heartbeat::new();
        std::thread::sleep(STALE);
        assert!(silent.stale_for() >= STALE);
    }

    #[test]
    fn heartbeat_reset_rearms_count_and_stamp() {
        let beat = Heartbeat::new();
        beat.beat();
        beat.stale_for();
        std::thread::sleep(10 * STALE);
        assert!(beat.stale_for() >= 10 * STALE);
        beat.reset();
        assert!(beat.stale_for() < 10 * STALE);
        // The next job's first beat reads as a change again.
        std::thread::sleep(STALE);
        beat.beat();
        assert_eq!(beat.stale_for(), Duration::ZERO);
    }

    #[test]
    fn none_heartbeat_never_stales() {
        let beat = Heartbeat::none();
        assert!(!beat.is_some());
        beat.beat();
        beat.reset();
        std::thread::sleep(STALE);
        assert_eq!(beat.stale_for(), Duration::ZERO);
        assert!(!Deadline::none().with_beat(beat).heartbeat().is_some());
    }

    #[test]
    fn flags_check_touches_neither_beat_nor_clock() {
        let beat = Heartbeat::new();
        let ctx = ExecCtx::new();
        // Already past its wall-clock instant: only a clock read could tell.
        let d =
            Deadline::at(Instant::now() - Duration::from_millis(1)).with_beat(beat).with_ctx(ctx);
        beat.stale_for();
        std::thread::sleep(STALE);
        assert!(d.check_flags().is_ok(), "the flags-only check must not read the clock");
        assert!(beat.stale_for() >= STALE, "the flags-only check must not beat");
        assert_eq!(d.check(), Err(Timeout));
        assert_eq!(beat.stale_for(), Duration::ZERO);
        // Both flags are seen.
        ctx.cancel();
        assert_eq!(d.check_flags(), Err(Timeout));
        ctx.arm(ResourceLimits::unlimited());
        assert!(d.check_flags().is_ok());
        ctx.trip(ResourceKind::Steps);
        assert_eq!(d.check_flags(), Err(Timeout));
    }

    #[test]
    fn fresh_affects_check_entry_only() {
        let beat = Heartbeat::new();
        let ctx = ExecCtx::new();
        let late =
            Deadline::at(Instant::now() - Duration::from_millis(1)).with_beat(beat).with_ctx(ctx);
        // A direct caller's entry check is the full check.
        assert_eq!(late.check_entry(), Err(Timeout));
        assert_eq!(beat.stale_for(), Duration::ZERO);
        // Under a vouching scan it is flags only...
        let vouched = late.fresh();
        std::thread::sleep(STALE);
        assert!(vouched.check_entry().is_ok());
        assert!(beat.stale_for() >= STALE);
        ctx.cancel();
        assert_eq!(vouched.check_entry(), Err(Timeout));
        ctx.arm(ResourceLimits::unlimited());
        // ...while every other check of the copy is unchanged.
        assert!(vouched.expired());
        assert_eq!(vouched.check(), Err(Timeout));
        assert_eq!(vouched.instant(), late.instant());
        let mut t = TickChecker::new();
        assert!((0..10_000).any(|_| t.tick(vouched).is_err()));
    }

    #[test]
    fn tick_checker_charges_ctx() {
        let ctx = ExecCtx::new().arm(ResourceLimits::unlimited().with_max_steps(5000));
        let d = Deadline::none().with_ctx(ctx);
        let mut t = TickChecker::new();
        let mut hit = false;
        for _ in 0..20_000 {
            if t.tick(d).is_err() {
                hit = true;
                break;
            }
        }
        assert!(hit, "step budget must surface through the tick path");
        assert_eq!(ctx.tripped(), Some(ResourceKind::Steps));
    }

    /// Four threads race two trips of different kinds and a stream of
    /// cancels over one armed block: the first trip is the only one any
    /// reader ever sees, the cancels never move it, and no trip loses the
    /// cancel bit.
    #[test]
    fn first_trip_wins_a_race_and_cancel_never_moves_it() {
        let ctx = ExecCtx::new();
        for _ in 0..200 {
            ctx.arm(ResourceLimits::unlimited());
            let start = &std::sync::Barrier::new(4);
            let seen = std::thread::scope(|s| {
                for kind in [ResourceKind::Steps, ResourceKind::Memory] {
                    s.spawn(move || {
                        start.wait();
                        ctx.trip(kind);
                    });
                }
                s.spawn(|| {
                    start.wait();
                    for _ in 0..64 {
                        ctx.cancel();
                    }
                });
                let reader = s.spawn(|| {
                    start.wait();
                    let mut seen = Vec::new();
                    while seen.len() < 64 {
                        if let Some(kind) = ctx.tripped() {
                            seen.push(kind);
                        }
                    }
                    seen
                });
                reader.join().unwrap()
            });
            let winner = ctx.tripped().unwrap();
            assert!(seen.iter().all(|&k| k == winner), "{seen:?} vs {winner:?}");
            assert_eq!(ctx.state.map(|s| s.status.load(Ordering::Acquire) & CANCELLED), Some(1));
        }
    }

    /// One operation on a block, as the reference model replays it.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Arm(ResourceLimits),
        Cancel,
        Trip(ResourceKind),
        Charge(u64),
        Aux(usize),
        Record(KernelStats),
        RecordPhase(Phase, u64, u64),
    }

    fn random_op(rng: &mut StdRng) -> Op {
        // Budgets as small as the charges so both sides of each are drawn;
        // 0 is drawn too, which the block reads as "unlimited".
        let limit = |rng: &mut StdRng| rng.random_bool(0.5).then(|| rng.random_range(0..40));
        let kind = |rng: &mut StdRng| {
            [ResourceKind::Steps, ResourceKind::Memory][rng.random_range(0..2usize)]
        };
        match rng.random_range(0..7) {
            0 => {
                let max_steps = limit(rng);
                let max_aux_bytes = limit(rng).map(|b| b as usize);
                Op::Arm(ResourceLimits { max_steps, max_aux_bytes })
            }
            1 => Op::Cancel,
            2 => Op::Trip(kind(rng)),
            3 => Op::Charge(rng.random_range(0..16)),
            4 => Op::Aux(rng.random_range(0..48)),
            5 => Op::Record(KernelStats {
                intersections: rng.random_range(0..5),
                gallop_hits: rng.random_range(0..5),
                simd_hits: rng.random_range(0..5),
                bitmap_probes: rng.random_range(0..5),
            }),
            _ => Op::RecordPhase(
                Phase::ALL[rng.random_range(0..PHASE_COUNT)],
                rng.random_range(0..100),
                rng.random_range(0..10),
            ),
        }
    }

    /// The plain-struct reference of one block.
    #[derive(Default)]
    struct Model {
        limits: ResourceLimits,
        cancelled: bool,
        trip: Option<ResourceKind>,
        steps: u64,
        kernel: KernelStats,
        phases: PhaseStats,
    }

    impl Model {
        fn apply(&mut self, op: Op) {
            match op {
                Op::Arm(limits) => *self = Model { limits, ..Model::default() },
                Op::Cancel => self.cancelled = true,
                Op::Trip(kind) => {
                    self.trip.get_or_insert(kind);
                }
                Op::Charge(n) => {
                    if let Some(max) = self.limits.max_steps.filter(|&m| m != 0) {
                        self.steps += n;
                        if self.steps > max {
                            self.trip.get_or_insert(ResourceKind::Steps);
                        }
                    }
                }
                Op::Aux(bytes) => {
                    if self.limits.max_aux_bytes.is_some_and(|m| m != 0 && bytes > m) {
                        self.trip.get_or_insert(ResourceKind::Memory);
                    }
                }
                Op::Record(k) => self.kernel.merge(&k),
                Op::RecordPhase(phase, nanos, items) => {
                    self.phases.nanos[phase.index()] += nanos;
                    self.phases.items[phase.index()] += items;
                }
            }
        }
    }

    fn apply(ctx: ExecCtx, op: Op) {
        match op {
            Op::Arm(limits) => {
                ctx.arm(limits);
            }
            Op::Cancel => ctx.cancel(),
            Op::Trip(kind) => ctx.trip(kind),
            Op::Charge(n) => ctx.charge_steps(n),
            Op::Aux(bytes) => ctx.note_aux_bytes(bytes),
            Op::Record(k) => ctx.record(&k),
            Op::RecordPhase(phase, nanos, items) => ctx.record_phase(phase, nanos, items),
        }
    }

    proptest! {
        /// Random operation sequences on one block against the model: after
        /// every step the same flags check, trip kind, steps, kernel
        /// counters and phase totals.
        #[test]
        fn exec_ctx_matches_the_reference_model(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let ctx = ExecCtx::new();
            let deadline = Deadline::none().with_ctx(ctx);
            let mut model = Model::default();
            for step in 0..rng.random_range(1..60) {
                let op = random_op(&mut rng);
                apply(ctx, op);
                model.apply(op);
                let flagged = model.cancelled || model.trip.is_some();
                prop_assert_eq!(deadline.check_flags().is_err(), flagged, "step {} {:?}", step, op);
                prop_assert_eq!(ctx.tripped(), model.trip, "step {} {:?}", step, op);
                prop_assert_eq!(ctx.steps_used(), model.steps, "step {} {:?}", step, op);
                prop_assert_eq!(ctx.snapshot(), model.kernel, "step {} {:?}", step, op);
                prop_assert_eq!(ctx.phase_snapshot(), model.phases, "step {} {:?}", step, op);
            }
        }
    }
}
