//! The watchdog over query execution: heartbeat scanning, wedged-worker
//! escalation, and worker replacement.
//!
//! Cooperative cancellation (PR 2) only works when the matcher cooperates:
//! a matcher that loops without ever ticking its [`Deadline`] wedges a
//! [`QueryPool`] worker forever, which blocks the submitting thread, the
//! serving executor above it, and ultimately [`QueryService::shutdown`]'s
//! drain guarantee. The per-engine cost spread documented in *Deep Analysis
//! on Subgraph Isomorphism* (PAPERS.md) makes such pathological queries the
//! norm at scale, not the exception — so the pool needs a non-cooperative
//! escape hatch.
//!
//! # Heartbeat protocol
//!
//! The worker never reads a clock for its heartbeat: every *full*
//! [`Deadline::check`] — the scan loop's before a worker's first graph and
//! every 16th after ([`SCAN_CHECK_INTERVAL`]), and every `TickChecker`
//! interval (4 096 ticks) inside a long matcher call — bumps a per-slot
//! [`Heartbeat`] counter with one relaxed add. The supervisor thread spawned
//! by [`QueryPool::supervised`] keeps the time: every
//! [`scan_interval`](SupervisorConfig::scan_interval) it stamps the moment
//! it first saw a slot's current count; staleness is now minus that stamp.
//! It escalates a worker only when **all** of the following hold:
//!
//! 1. a job is in flight and the worker's slot is busy on it,
//! 2. the job has a wall deadline and it is overdue by at least
//!    [`grace`](SupervisorConfig::grace) (unbudgeted queries are never
//!    escalated — without a budget there is no "overdue"),
//! 3. the slot's count has stood still for at least
//!    [`stale_after`](SupervisorConfig::stale_after) (a ticking-but-late
//!    worker is merely slow; cancellation will stop it cooperatively).
//!
//! Detection bound: a count is stamped up to one `scan_interval` after the
//! worker's last beat at `T` and found `stale_after` old up to one interval
//! after that, so the worker is escalated at the first scan past
//! `max(deadline + grace, T + stale_after + scan_interval)` — for a wedge
//! before the deadline, within `grace + stale_after + scan_interval` of it.
//! Hence `scan_interval ≤ stale_after`; `supervised` clamps a larger one.
//!
//! # Escalation ladder
//!
//! Escalation, performed atomically under the pool's state lock: fire the
//! job's cancel token (a revived worker self-terminates at its next check),
//! record a [`QueryStatus::Wedged`] failure for the graph the worker was
//! grinding on, bump the slot's generation so a late commit from the
//! abandoned thread is ignored, detach its `JoinHandle` (a truly wedged
//! thread can never be joined), spawn a replacement worker into the same
//! slot so the pool keeps full capacity, and finish the abandoned worker's
//! shard accounting so the submitter — and therefore any drain — always
//! terminates. A wedged query resolves like a timeout: partial answers plus
//! an attributed per-graph failure, with outcome-level status `Wedged`.
//!
//! [`Deadline`]: sqp_matching::Deadline
//! [`Deadline::check`]: sqp_matching::Deadline::check
//! [`Heartbeat`]: sqp_matching::Heartbeat
//! [`SCAN_CHECK_INTERVAL`]: sqp_matching::deadline::SCAN_CHECK_INTERVAL
//! [`QueryPool`]: crate::parallel::QueryPool
//! [`QueryPool::supervised`]: crate::parallel::QueryPool::supervised
//! [`QueryService::shutdown`]: crate::service::QueryService::shutdown
//! [`QueryStatus::Wedged`]: crate::engine::QueryStatus::Wedged

use std::sync::Arc;
use std::time::Duration;

use crate::parallel::PoolShared;

/// Watchdog policy for a supervised [`QueryPool`](crate::parallel::QueryPool).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Extra time past the query's wall deadline before escalation is even
    /// considered. Keeps the watchdog out of the way of ordinary
    /// cooperative-cancellation latency (one `TickChecker` interval).
    pub grace: Duration,
    /// How often the supervisor thread scans the worker slots — and the
    /// granularity of staleness, so values above `stale_after` are clamped.
    pub scan_interval: Duration,
    /// A busy worker whose heartbeat count has not moved for this long is
    /// considered stuck. Must comfortably exceed the longest legitimate gap
    /// between full `Deadline::check` calls (16 graphs of a scan, or one
    /// `TickChecker` interval inside a matcher).
    pub stale_after: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            grace: Duration::from_millis(200),
            scan_interval: Duration::from_millis(20),
            stale_after: Duration::from_millis(200),
        }
    }
}

/// Body of the supervisor thread: scan, sleep, repeat until pool shutdown.
pub(crate) fn supervisor_loop(shared: Arc<PoolShared>, config: SupervisorConfig) {
    shared.run_supervisor(&config);
}
