//! The single-threaded load generator for the serving workloads.
//!
//! Phase A is an **open loop**: op `i` is due at `i × interval` whatever the
//! system is doing, its latency counts from that *due* time (so a stall is
//! charged to every request it delays), and how late the generator itself
//! ran is reported beside it. Phase B is a **saturation** loop: one driver
//! keeps a fixed number of tickets outstanding.
//!
//! Both are written against [`Backend`], which owns the clock, so the unit
//! tests drive them with a virtual clock and a modelled server.

use std::collections::VecDeque;

/// The system under load plus the clock the generator reads.
pub trait Backend {
    type Ticket;

    fn now_ns(&self) -> u64;

    /// Blocks until the clock reads at least `deadline_ns`.
    fn sleep_until(&mut self, deadline_ns: u64);

    /// Submits op number `op`; must not wait for its completion.
    fn submit(&mut self, op: usize) -> Self::Ticket;

    /// Waits for `ticket` until `deadline_ns` (without limit when `None`).
    /// `Some(ok)` once it has completed, `None` on reaching the deadline.
    fn wait(&mut self, ticket: &Self::Ticket, deadline_ns: Option<u64>) -> Option<bool>;
}

/// Timestamps of one open-loop op, all on the backend's clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpRecord {
    pub op: usize,
    pub due_ns: u64,
    /// Clock before the `submit` call.
    pub submit_ns: u64,
    /// Clock after the `submit` call returned.
    pub submitted_ns: u64,
    /// Clock when the generator observed completion.
    pub done_ns: u64,
    pub ok: bool,
}

impl OpRecord {
    /// Latency from the due time.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    /// How late the generator issued the op.
    pub fn lateness_ns(&self) -> u64 {
        self.submit_ns.saturating_sub(self.due_ns)
    }
}

/// Runs `ops` ops on a fixed schedule, `interval_ns` apart, starting now.
///
/// Completions are collected oldest-first, which observes every completion
/// the moment it happens as long as the backend finishes ops in submission
/// order (both serving layers dispatch from one FIFO queue).
pub fn run_open_loop<B: Backend>(backend: &mut B, ops: usize, interval_ns: u64) -> Vec<OpRecord> {
    let start = backend.now_ns();
    let due = |i: usize| start + i as u64 * interval_ns;
    let mut records: Vec<OpRecord> = Vec::with_capacity(ops);
    let mut outstanding: VecDeque<(usize, B::Ticket)> = VecDeque::new();
    let mut next = 0;
    while next < ops || !outstanding.is_empty() {
        if next < ops && backend.now_ns() >= due(next) {
            let submit_ns = backend.now_ns();
            let ticket = backend.submit(next);
            records.push(OpRecord {
                op: next,
                due_ns: due(next),
                submit_ns,
                submitted_ns: backend.now_ns(),
                done_ns: 0,
                ok: false,
            });
            outstanding.push_back((next, ticket));
            next += 1;
            continue;
        }
        let next_due = (next < ops).then(|| due(next));
        match outstanding.front() {
            Some((op, ticket)) => {
                if let Some(ok) = backend.wait(ticket, next_due) {
                    records[*op].done_ns = backend.now_ns();
                    records[*op].ok = ok;
                    outstanding.pop_front();
                }
            }
            None => backend.sleep_until(next_due.expect("loop invariant: ops remain")),
        }
    }
    records
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Saturation {
    pub completed: u64,
    pub failed: u64,
    pub wall_ns: u64,
    /// When each successful completion was observed, from the start of the
    /// window.
    pub done_ns: Vec<u64>,
}

impl Saturation {
    /// Completions per second within each consecutive window of
    /// `window_ops` successful completions (window `k` runs from the last
    /// completion of window `k - 1`, or the start, to its own last one); an
    /// incomplete last window is dropped.
    pub fn window_rates(&self, window_ops: usize) -> Vec<f64> {
        let ends = self.done_ns.chunks_exact(window_ops.max(1)).map(|w| w[w.len() - 1]);
        let mut start_ns = 0;
        ends.map(|end_ns| {
            let rate = window_ops as f64 * 1e9 / (end_ns - start_ns) as f64;
            start_ns = end_ns;
            rate
        })
        .collect()
    }
}

/// Keeps `outstanding` tickets in flight for `duration_ns`, then drains.
/// Ops are numbered from `first_op` upward. Only completions observed
/// inside the window count; the drain after it is not measured.
pub fn run_saturation<B: Backend>(
    backend: &mut B,
    outstanding: usize,
    duration_ns: u64,
    first_op: usize,
) -> Saturation {
    let start = backend.now_ns();
    let end = start + duration_ns;
    let mut inflight: VecDeque<B::Ticket> = VecDeque::new();
    let mut next = first_op;
    let (mut completed, mut failed) = (0u64, 0u64);
    let mut done_ns = Vec::new();
    let mut wall_ns = 0;
    while backend.now_ns() < end {
        while inflight.len() < outstanding {
            inflight.push_back(backend.submit(next));
            next += 1;
        }
        let ticket = inflight.pop_front().expect("outstanding >= 1");
        let outcome = backend.wait(&ticket, Some(end));
        wall_ns = backend.now_ns() - start;
        match outcome {
            Some(true) => {
                completed += 1;
                done_ns.push(wall_ns);
            }
            Some(false) => failed += 1,
            None => inflight.push_front(ticket),
        }
    }
    for ticket in inflight {
        backend.wait(&ticket, None);
    }
    Saturation { completed, failed, wall_ns, done_ns }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A virtual clock in front of a single FIFO server: op `i` takes
    /// `service_ns(i)`, and the `submit` call itself costs `submit_cost_ns`
    /// of the generator's time.
    struct Model {
        clock: u64,
        free_at: u64,
        submit_cost_ns: u64,
        service_ns: Box<dyn Fn(usize) -> u64>,
    }

    impl Backend for Model {
        type Ticket = u64; // completion time

        fn now_ns(&self) -> u64 {
            self.clock
        }

        fn sleep_until(&mut self, deadline_ns: u64) {
            self.clock = self.clock.max(deadline_ns);
        }

        fn submit(&mut self, op: usize) -> u64 {
            let begin = self.free_at.max(self.clock);
            self.free_at = begin + (self.service_ns)(op);
            self.clock += self.submit_cost_ns;
            self.free_at
        }

        fn wait(&mut self, done_at: &u64, deadline_ns: Option<u64>) -> Option<bool> {
            match deadline_ns {
                Some(d) if *done_at > d => {
                    self.clock = self.clock.max(d);
                    None
                }
                _ => {
                    self.clock = self.clock.max(*done_at);
                    Some(true)
                }
            }
        }
    }

    const MS: u64 = 1_000_000;

    fn model(submit_cost_ns: u64, service_ns: impl Fn(usize) -> u64 + 'static) -> Model {
        Model { clock: 5 * MS, free_at: 0, submit_cost_ns, service_ns: Box::new(service_ns) }
    }

    #[test]
    fn idle_system_latency_is_service_time() {
        let mut m = model(0, |_| MS);
        let recs = run_open_loop(&mut m, 20, 10 * MS);
        assert_eq!(recs.len(), 20);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.due_ns, 5 * MS + i as u64 * 10 * MS);
            assert_eq!(r.lateness_ns(), 0);
            assert_eq!(r.latency_ns(), MS);
            assert!(r.ok);
        }
    }

    #[test]
    fn a_stall_is_charged_to_every_request_it_delays() {
        // Op 2 takes 35 ms; ops stay on the 10 ms schedule regardless, so
        // ops 3..5 queue behind it and their latency counts from due time.
        let mut m = model(0, |i| if i == 2 { 35 * MS } else { MS });
        let recs = run_open_loop(&mut m, 8, 10 * MS);
        assert!(recs.iter().all(|r| r.lateness_ns() == 0), "open loop never waits to submit");
        let lat: Vec<u64> = recs.iter().map(|r| r.latency_ns() / MS).collect();
        assert_eq!(lat, vec![1, 1, 35, 26, 17, 8, 1, 1]);
    }

    #[test]
    fn generator_lag_is_reported_and_included_in_latency() {
        // Each submit call costs 15 ms against a 10 ms schedule: the
        // generator falls 5 ms further behind per op.
        let mut m = model(15 * MS, |_| MS);
        let recs = run_open_loop(&mut m, 5, 10 * MS);
        let late: Vec<u64> = recs.iter().map(|r| r.lateness_ns() / MS).collect();
        assert_eq!(late, vec![0, 5, 10, 15, 20]);
        for r in &recs {
            assert!(r.latency_ns() >= r.lateness_ns() + MS, "latency counts from due time");
            assert_eq!(r.submitted_ns - r.submit_ns, 15 * MS);
        }
    }

    #[test]
    fn saturation_counts_only_completions_inside_the_window() {
        // 4 outstanding against a 10 ms server for 100 ms: 10 completions;
        // the three still in flight at the end are drained, not counted.
        let mut m = model(0, |_| 10 * MS);
        let s = run_saturation(&mut m, 4, 100 * MS, 0);
        assert_eq!(s.completed, 10);
        assert_eq!(s.failed, 0);
        assert_eq!(s.wall_ns, 100 * MS);
        assert_eq!(s.done_ns, (1..=10).map(|i| i * 10 * MS).collect::<Vec<_>>());
        assert_eq!(m.now_ns(), 5 * MS + 130 * MS, "drained the three in flight");
        // Windows of four completions: 40 ms each, the last two dropped.
        assert_eq!(s.window_rates(4), vec![100.0, 100.0]);
        assert_eq!(s.window_rates(11), Vec::<f64>::new());
    }

    #[test]
    fn window_rates_show_a_slow_spell_in_its_own_window() {
        // The server takes 30 ms instead of 10 for ops 4..8.
        let mut m = model(0, |i| if (4..8).contains(&i) { 30 * MS } else { 10 * MS });
        let s = run_saturation(&mut m, 2, 200 * MS, 0);
        assert_eq!(s.window_rates(4), vec![100.0, 100.0 / 3.0, 100.0]);
    }
}
