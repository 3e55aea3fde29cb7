//! Per-query time budgets, cooperative cancellation, and resource guards.
//!
//! The paper gives every query a 10-minute limit and records timed-out
//! queries at the limit. A [`Deadline`] is threaded through every filter and
//! enumerator; deep recursions amortize the `Instant::now()` cost with
//! [`TickChecker`], and a scan over many cheap graphs amortizes it with
//! [`SCAN_CHECK_INTERVAL`]: flags before every graph, the clock every 16th.
//!
//! A deadline can additionally carry a [`CancelToken`] — a shared flag that
//! makes *every* holder of the deadline observe expiry as soon as one of
//! them raises it. The parallel query layer uses this so that when one
//! worker exhausts the budget, sibling workers stop within one tick interval
//! instead of burning CPU to their own independent expiry.
//!
//! It can further carry a [`ResourceGuard`] — a per-query budget on
//! enumeration *work* (recursion steps) and auxiliary *memory* (candidate
//! space bytes). The guard is charged on the same amortized [`TickChecker`]
//! path the clock uses, so a runaway enumeration is stopped as a structured
//! [`ResourceKind`] failure instead of grinding to OOM or to the wall-clock
//! limit. Like the cancel token, a tripped guard expires the deadline for
//! every holder, so sibling workers of the same query stop promptly.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
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

/// A shared cooperative cancellation flag.
///
/// The token is `Copy` so it can ride inside [`Deadline`] through every
/// matcher signature unchanged. `new()` allocates the underlying flag with a
/// `'static` lifetime (one leaked `AtomicBool`); tokens are meant to be
/// created once per long-lived owner — e.g. a worker pool — and reused
/// across queries via [`reset`](CancelToken::reset), not created per query.
#[derive(Clone, Copy, Debug, Default)]
pub struct CancelToken {
    flag: Option<&'static AtomicBool>,
}

impl CancelToken {
    /// The inert token: never cancelled, `cancel()` is a no-op.
    pub const fn none() -> Self {
        Self { flag: None }
    }

    /// A fresh token. Allocates the flag for the `'static` lifetime — create
    /// once per pool/owner and [`reset`](CancelToken::reset) between uses.
    pub fn new() -> Self {
        Self { flag: Some(Box::leak(Box::new(AtomicBool::new(false)))) }
    }

    /// Raises the flag: every deadline carrying this token is now expired.
    #[inline]
    pub fn cancel(&self) {
        if let Some(f) = self.flag {
            f.store(true, Ordering::Release);
        }
    }

    /// Lowers the flag so the token can be reused for the next query.
    pub fn reset(&self) {
        if let Some(f) = self.flag {
            f.store(false, Ordering::Release);
        }
    }

    /// Whether the flag is raised.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        match self.flag {
            Some(f) => f.load(Ordering::Acquire),
            None => false,
        }
    }

    /// Whether this token carries a real flag.
    pub fn is_some(&self) -> bool {
        self.flag.is_some()
    }
}

/// Which per-query resource budget a [`ResourceGuard`] tripped on.
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

/// Per-query resource budgets enforced by a [`ResourceGuard`].
///
/// `None` means unlimited. Step budgets are enforced to within one
/// [`TickChecker`] interval per concurrent worker (the guard is charged in
/// amortized batches, never per recursion call).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResourceLimits {
    /// Maximum enumeration (recursion) steps per query, summed over workers.
    pub max_steps: Option<u64>,
    /// Maximum auxiliary bytes (peak candidate-space size) per query.
    pub max_aux_bytes: Option<usize>,
}

impl ResourceLimits {
    /// No limits: the guard never trips.
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

const TRIP_NONE: u8 = 0;
const TRIP_STEPS: u8 = 1;
const TRIP_MEMORY: u8 = 2;

#[derive(Debug, Default)]
struct GuardState {
    max_steps: AtomicU64,
    max_aux_bytes: AtomicUsize,
    steps: AtomicU64,
    /// Which [`ResourceKind`] tripped (`TRIP_*`); 0 when healthy.
    tripped: AtomicU8,
}

/// A shared per-query resource budget, carried inside [`Deadline`].
///
/// Like [`CancelToken`], the guard is `Copy` so it rides through every
/// matcher signature unchanged; `new()` leaks one small state block for the
/// `'static` lifetime, so guards are meant to be created once per long-lived
/// owner (an engine, a pool, a runner) and re-armed per query via
/// [`reset`](ResourceGuard::reset).
///
/// Once tripped, every deadline carrying the guard reports expiry
/// ([`Deadline::check`] returns [`Timeout`]); the owner classifies the
/// outcome afterwards via [`tripped`](ResourceGuard::tripped).
#[derive(Clone, Copy, Debug, Default)]
pub struct ResourceGuard {
    state: Option<&'static GuardState>,
}

impl ResourceGuard {
    /// The inert guard: never trips, charging is a no-op.
    pub const fn none() -> Self {
        Self { state: None }
    }

    /// A fresh, unlimited guard. Leaks its state block for the `'static`
    /// lifetime — create once per owner, [`reset`](ResourceGuard::reset)
    /// between queries.
    pub fn new() -> Self {
        Self { state: Some(Box::leak(Box::new(GuardState::default()))) }
    }

    /// Re-arms the guard for the next query: clears the counters and trip
    /// flag and installs `limits` (0 encodes "unlimited" internally).
    pub fn reset(&self, limits: ResourceLimits) {
        if let Some(s) = self.state {
            s.max_steps.store(limits.max_steps.unwrap_or(0), Ordering::Release);
            s.max_aux_bytes.store(limits.max_aux_bytes.unwrap_or(0), Ordering::Release);
            s.steps.store(0, Ordering::Release);
            s.tripped.store(TRIP_NONE, Ordering::Release);
        }
    }

    /// Charges `n` enumeration steps; trips the guard when the budget is
    /// exceeded. Called by [`TickChecker`] in whole-interval batches.
    #[inline]
    pub fn charge_steps(&self, n: u64) {
        if let Some(s) = self.state {
            let max = s.max_steps.load(Ordering::Acquire);
            if max == 0 {
                return;
            }
            let used = s.steps.fetch_add(n, Ordering::AcqRel).saturating_add(n);
            if used > max {
                s.tripped
                    .compare_exchange(TRIP_NONE, TRIP_STEPS, Ordering::AcqRel, Ordering::Relaxed)
                    .ok();
            }
        }
    }

    /// Notes a per-graph auxiliary allocation of `bytes`; trips the guard
    /// when it exceeds the memory budget.
    #[inline]
    pub fn note_aux_bytes(&self, bytes: usize) {
        if let Some(s) = self.state {
            let max = s.max_aux_bytes.load(Ordering::Acquire);
            if max != 0 && bytes > max {
                s.tripped
                    .compare_exchange(TRIP_NONE, TRIP_MEMORY, Ordering::AcqRel, Ordering::Relaxed)
                    .ok();
            }
        }
    }

    /// Trips the guard directly (used by fault injection).
    pub fn trip(&self, kind: ResourceKind) {
        if let Some(s) = self.state {
            let code = match kind {
                ResourceKind::Steps => TRIP_STEPS,
                ResourceKind::Memory => TRIP_MEMORY,
            };
            s.tripped.compare_exchange(TRIP_NONE, code, Ordering::AcqRel, Ordering::Relaxed).ok();
        }
    }

    /// Which budget tripped, if any.
    #[inline]
    pub fn tripped(&self) -> Option<ResourceKind> {
        match self.state {
            Some(s) => match s.tripped.load(Ordering::Acquire) {
                TRIP_STEPS => Some(ResourceKind::Steps),
                TRIP_MEMORY => Some(ResourceKind::Memory),
                _ => None,
            },
            None => None,
        }
    }

    /// Steps charged so far (0 for the inert guard).
    pub fn steps_used(&self) -> u64 {
        self.state.map_or(0, |s| s.steps.load(Ordering::Acquire))
    }

    /// Whether this guard carries real state.
    pub fn is_some(&self) -> bool {
        self.state.is_some()
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
/// Like [`CancelToken`], the heartbeat is `Copy` and `new()` leaks one small
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

#[derive(Debug)]
struct SinkState {
    intersections: AtomicU64,
    gallop_hits: AtomicU64,
    simd_hits: AtomicU64,
    bitmap_probes: AtomicU64,
    phase_nanos: [AtomicU64; PHASE_COUNT],
    phase_items: [AtomicU64; PHASE_COUNT],
    /// Span clock; immutable after construction so snapshots of the same
    /// sink are always in one unit.
    clock: fn() -> u64,
}

impl Default for SinkState {
    fn default() -> Self {
        Self::with_clock(monotonic_nanos)
    }
}

impl SinkState {
    fn with_clock(clock: fn() -> u64) -> Self {
        Self {
            intersections: AtomicU64::new(0),
            gallop_hits: AtomicU64::new(0),
            simd_hits: AtomicU64::new(0),
            bitmap_probes: AtomicU64::new(0),
            phase_nanos: Default::default(),
            phase_items: Default::default(),
            clock,
        }
    }
}

/// A shared accumulator for enumeration-kernel counters, carried inside
/// [`Deadline`].
///
/// Like [`CancelToken`] and [`ResourceGuard`], the sink is `Copy` so it rides
/// through every matcher signature unchanged; `new()` leaks one small state
/// block for the `'static` lifetime, so sinks are meant to be created once
/// per long-lived owner (an engine, a pool, a runner) and cleared per query
/// via [`reset`](StatsSink::reset). Enumerators flush their local counters
/// here once per run, so concurrent workers of the same query sum naturally.
#[derive(Clone, Copy, Debug, Default)]
pub struct StatsSink {
    state: Option<&'static SinkState>,
}

impl StatsSink {
    /// The inert sink: recording is a no-op, snapshots are zero.
    pub const fn none() -> Self {
        Self { state: None }
    }

    /// A fresh sink. Leaks its state block for the `'static` lifetime —
    /// create once per owner, [`reset`](StatsSink::reset) between queries.
    pub fn new() -> Self {
        Self { state: Some(Box::leak(Box::new(SinkState::default()))) }
    }

    /// A fresh sink whose spans read `clock` instead of the monotonic
    /// nanosecond counter. Tests install a deterministic counter here so
    /// phase durations are byte-stable across runs and thread counts.
    pub fn with_clock(clock: fn() -> u64) -> Self {
        Self { state: Some(Box::leak(Box::new(SinkState::with_clock(clock)))) }
    }

    /// Clears the counters for the next query. The clock is part of the
    /// sink's identity and survives resets.
    pub fn reset(&self) {
        if let Some(s) = self.state {
            s.intersections.store(0, Ordering::Release);
            s.gallop_hits.store(0, Ordering::Release);
            s.simd_hits.store(0, Ordering::Release);
            s.bitmap_probes.store(0, Ordering::Release);
            for p in 0..PHASE_COUNT {
                s.phase_nanos[p].store(0, Ordering::Release);
                s.phase_items[p].store(0, Ordering::Release);
            }
        }
    }

    /// The current reading of this sink's span clock (0 for the inert sink,
    /// without touching any clock).
    #[inline]
    pub fn now(&self) -> u64 {
        match self.state {
            Some(s) => (s.clock)(),
            None => 0,
        }
    }

    /// Adds one span's duration and item count to `phase`'s accumulators.
    #[inline]
    pub fn record_phase(&self, phase: Phase, nanos: u64, items: u64) {
        if let Some(s) = self.state {
            s.phase_nanos[phase.index()].fetch_add(nanos, Ordering::Relaxed);
            s.phase_items[phase.index()].fetch_add(items, Ordering::Relaxed);
        }
    }

    /// Adds a passive span's item count to `phase` (no duration: the
    /// enclosing span of the same phase is timing it).
    #[inline]
    pub(crate) fn record_items(&self, phase: Phase, items: u64) {
        if let Some(s) = self.state {
            s.phase_items[phase.index()].fetch_add(items, Ordering::Relaxed);
        }
    }

    /// This sink's identity: the address of its leaked state, 0 for the
    /// inert sink. Two live sinks never share one.
    #[inline]
    pub(crate) fn id(&self) -> usize {
        self.state.map_or(0, |s| std::ptr::from_ref(s) as usize)
    }

    /// The per-phase accumulators since the last reset.
    pub fn phase_snapshot(&self) -> PhaseStats {
        match self.state {
            Some(s) => {
                let mut out = PhaseStats::default();
                for p in 0..PHASE_COUNT {
                    out.nanos[p] = s.phase_nanos[p].load(Ordering::Acquire);
                    out.items[p] = s.phase_items[p].load(Ordering::Acquire);
                }
                out
            }
            None => PhaseStats::default(),
        }
    }

    /// Adds one run's kernel counters.
    #[inline]
    pub fn record(&self, k: &KernelStats) {
        if let Some(s) = self.state {
            s.intersections.fetch_add(k.intersections, Ordering::Relaxed);
            s.gallop_hits.fetch_add(k.gallop_hits, Ordering::Relaxed);
            s.simd_hits.fetch_add(k.simd_hits, Ordering::Relaxed);
            s.bitmap_probes.fetch_add(k.bitmap_probes, Ordering::Relaxed);
        }
    }

    /// The counters accumulated since the last reset.
    pub fn snapshot(&self) -> KernelStats {
        match self.state {
            Some(s) => KernelStats {
                intersections: s.intersections.load(Ordering::Acquire),
                gallop_hits: s.gallop_hits.load(Ordering::Acquire),
                simd_hits: s.simd_hits.load(Ordering::Acquire),
                bitmap_probes: s.bitmap_probes.load(Ordering::Acquire),
            },
            None => KernelStats::default(),
        }
    }

    /// Whether this sink carries real state.
    pub fn is_some(&self) -> bool {
        self.state.is_some()
    }
}

/// An optional wall-clock deadline, optionally paired with a [`CancelToken`].
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
    cancel: CancelToken,
    guard: ResourceGuard,
    stats: StatsSink,
    beat: Heartbeat,
    /// Set by [`fresh`](Deadline::fresh): the holder was handed this copy by
    /// a scan that has just checked the clock.
    fresh: bool,
}

impl Deadline {
    /// No deadline: operations run to completion.
    pub const fn none() -> Self {
        Self {
            at: None,
            cancel: CancelToken::none(),
            guard: ResourceGuard::none(),
            stats: StatsSink::none(),
            beat: Heartbeat::none(),
            fresh: false,
        }
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

    /// Attaches a cancellation token: the deadline also expires as soon as
    /// the token is cancelled.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// The attached cancellation token ([`CancelToken::none`] if absent).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel
    }

    /// Attaches a resource guard: the deadline also expires as soon as the
    /// guard trips a budget.
    pub fn with_guard(mut self, guard: ResourceGuard) -> Self {
        self.guard = guard;
        self
    }

    /// The attached resource guard ([`ResourceGuard::none`] if absent).
    pub fn guard(&self) -> ResourceGuard {
        self.guard
    }

    /// Attaches a kernel-counter sink: enumerators flush their intersection
    /// counters into it.
    pub fn with_stats(mut self, stats: StatsSink) -> Self {
        self.stats = stats;
        self
    }

    /// The attached stats sink ([`StatsSink::none`] if absent).
    pub fn stats(&self) -> StatsSink {
        self.stats
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

    /// Whether the deadline has passed, the token was cancelled, or the
    /// resource guard tripped.
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

    /// The flags-only check: errors if the token was cancelled or the guard
    /// tripped — two atomic loads, no heartbeat, no clock.
    #[inline]
    pub fn check_flags(&self) -> Result<(), Timeout> {
        if self.cancel.is_cancelled() || self.guard.tripped().is_some() {
            Err(Timeout)
        } else {
            Ok(())
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
    /// [`ResourceGuard`], so step budgets are accurate to within one interval
    /// per concurrent worker.
    #[inline]
    pub fn tick(&mut self, deadline: Deadline) -> Result<(), Timeout> {
        self.ticks = self.ticks.wrapping_add(1);
        if self.ticks & ((1 << LOG_INTERVAL) - 1) == 0 {
            deadline.guard().charge_steps(1 << LOG_INTERVAL);
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
        let token = CancelToken::new();
        let far = Deadline::after(Duration::from_secs(3600)).with_cancel(token);
        let never = Deadline::none().with_cancel(token);
        assert!(!far.expired());
        assert!(!never.expired());
        token.cancel();
        assert!(far.expired());
        assert!(never.expired());
        assert_eq!(far.check(), Err(Timeout));
        token.reset();
        assert!(!far.expired());
        assert!(!never.expired());
    }

    #[test]
    fn none_token_is_inert() {
        let t = CancelToken::none();
        t.cancel();
        assert!(!t.is_cancelled());
        assert!(!t.is_some());
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
        let token = CancelToken::new();
        let d = Deadline::none().with_cancel(token);
        let mut t = TickChecker::new();
        for _ in 0..5000 {
            assert!(t.tick(d).is_ok());
        }
        token.cancel();
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
    fn guard_trips_on_step_budget() {
        let guard = ResourceGuard::new();
        guard.reset(ResourceLimits::unlimited().with_max_steps(100));
        let d = Deadline::none().with_guard(guard);
        assert!(!d.expired());
        guard.charge_steps(50);
        assert!(d.guard().tripped().is_none());
        guard.charge_steps(51);
        assert_eq!(d.guard().tripped(), Some(ResourceKind::Steps));
        assert!(d.expired());
        assert_eq!(d.check(), Err(Timeout));
        assert!(guard.steps_used() >= 101);
    }

    #[test]
    fn guard_trips_on_memory_budget() {
        let guard = ResourceGuard::new();
        guard.reset(ResourceLimits::unlimited().with_max_aux_bytes(1 << 20));
        let d = Deadline::after(Duration::from_secs(3600)).with_guard(guard);
        guard.note_aux_bytes(1 << 19);
        assert!(d.guard().tripped().is_none());
        guard.note_aux_bytes((1 << 20) + 1);
        assert_eq!(d.guard().tripped(), Some(ResourceKind::Memory));
        assert!(d.expired());
    }

    #[test]
    fn guard_reset_rearms() {
        let guard = ResourceGuard::new();
        guard.reset(ResourceLimits::unlimited().with_max_steps(10));
        guard.charge_steps(11);
        assert_eq!(guard.tripped(), Some(ResourceKind::Steps));
        guard.reset(ResourceLimits::unlimited().with_max_steps(10));
        assert!(guard.tripped().is_none());
        assert_eq!(guard.steps_used(), 0);
        // Reset to unlimited: nothing trips no matter how much is charged.
        guard.reset(ResourceLimits::unlimited());
        guard.charge_steps(u64::MAX / 2);
        guard.note_aux_bytes(usize::MAX);
        assert!(guard.tripped().is_none());
    }

    #[test]
    fn none_guard_is_inert() {
        let guard = ResourceGuard::none();
        assert!(!guard.is_some());
        guard.charge_steps(u64::MAX / 2);
        guard.note_aux_bytes(usize::MAX);
        guard.trip(ResourceKind::Steps);
        assert!(guard.tripped().is_none());
        assert_eq!(guard.steps_used(), 0);
        assert!(!Deadline::none().with_guard(guard).expired());
    }

    #[test]
    fn explicit_trip_is_observable() {
        let guard = ResourceGuard::new();
        guard.reset(ResourceLimits::unlimited());
        guard.trip(ResourceKind::Memory);
        assert_eq!(guard.tripped(), Some(ResourceKind::Memory));
        // First trip wins.
        guard.trip(ResourceKind::Steps);
        assert_eq!(guard.tripped(), Some(ResourceKind::Memory));
    }

    #[test]
    fn stats_sink_accumulates_and_resets() {
        let sink = StatsSink::new();
        let d = Deadline::none().with_stats(sink);
        assert!(d.stats().snapshot().is_zero());
        d.stats().record(&KernelStats {
            intersections: 3,
            gallop_hits: 1,
            simd_hits: 2,
            bitmap_probes: 7,
        });
        d.stats().record(&KernelStats {
            intersections: 1,
            gallop_hits: 0,
            simd_hits: 1,
            bitmap_probes: 2,
        });
        assert_eq!(
            sink.snapshot(),
            KernelStats { intersections: 4, gallop_hits: 1, simd_hits: 3, bitmap_probes: 9 }
        );
        sink.reset();
        assert!(sink.snapshot().is_zero());
    }

    #[test]
    fn none_sink_is_inert() {
        let sink = StatsSink::none();
        assert!(!sink.is_some());
        sink.record(&KernelStats {
            intersections: 1,
            gallop_hits: 1,
            simd_hits: 1,
            bitmap_probes: 1,
        });
        assert!(sink.snapshot().is_zero());
        sink.record_phase(Phase::Filter, 10, 10);
        assert!(sink.phase_snapshot().is_zero());
        assert_eq!(sink.now(), 0);
    }

    #[test]
    fn phase_counters_accumulate_and_reset() {
        let sink = StatsSink::new();
        sink.record_phase(Phase::Filter, 5, 2);
        sink.record_phase(Phase::Filter, 7, 1);
        sink.record_phase(Phase::Enumerate, 11, 4);
        let snap = sink.phase_snapshot();
        assert_eq!(snap.nanos_of(Phase::Filter), 12);
        assert_eq!(snap.items_of(Phase::Filter), 3);
        assert_eq!(snap.nanos_of(Phase::Enumerate), 11);
        assert_eq!(snap.items_of(Phase::Enumerate), 4);
        sink.reset();
        assert!(sink.phase_snapshot().is_zero());
        // The production clock is monotonic.
        let a = sink.now();
        let b = sink.now();
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
        let token = CancelToken::new();
        let guard = ResourceGuard::new();
        guard.reset(ResourceLimits::unlimited());
        // Already past its wall-clock instant: only a clock read could tell.
        let d = Deadline::at(Instant::now() - Duration::from_millis(1))
            .with_beat(beat)
            .with_cancel(token)
            .with_guard(guard);
        beat.stale_for();
        std::thread::sleep(STALE);
        assert!(d.check_flags().is_ok(), "the flags-only check must not read the clock");
        assert!(beat.stale_for() >= STALE, "the flags-only check must not beat");
        assert_eq!(d.check(), Err(Timeout));
        assert_eq!(beat.stale_for(), Duration::ZERO);
        // Both flags are seen.
        token.cancel();
        assert_eq!(d.check_flags(), Err(Timeout));
        token.reset();
        assert!(d.check_flags().is_ok());
        guard.trip(ResourceKind::Steps);
        assert_eq!(d.check_flags(), Err(Timeout));
    }

    #[test]
    fn fresh_affects_check_entry_only() {
        let beat = Heartbeat::new();
        let token = CancelToken::new();
        let late = Deadline::at(Instant::now() - Duration::from_millis(1))
            .with_beat(beat)
            .with_cancel(token);
        // A direct caller's entry check is the full check.
        assert_eq!(late.check_entry(), Err(Timeout));
        assert_eq!(beat.stale_for(), Duration::ZERO);
        // Under a vouching scan it is flags only...
        let vouched = late.fresh();
        std::thread::sleep(STALE);
        assert!(vouched.check_entry().is_ok());
        assert!(beat.stale_for() >= STALE);
        token.cancel();
        assert_eq!(vouched.check_entry(), Err(Timeout));
        token.reset();
        // ...while every other check of the copy is unchanged.
        assert!(vouched.expired());
        assert_eq!(vouched.check(), Err(Timeout));
        assert_eq!(vouched.instant(), late.instant());
        let mut t = TickChecker::new();
        assert!((0..10_000).any(|_| t.tick(vouched).is_err()));
    }

    #[test]
    fn tick_checker_charges_guard() {
        let guard = ResourceGuard::new();
        guard.reset(ResourceLimits::unlimited().with_max_steps(5000));
        let d = Deadline::none().with_guard(guard);
        let mut t = TickChecker::new();
        let mut hit = false;
        for _ in 0..20_000 {
            if t.tick(d).is_err() {
                hit = true;
                break;
            }
        }
        assert!(hit, "step budget must surface through the tick path");
        assert_eq!(guard.tripped(), Some(ResourceKind::Steps));
    }
}
