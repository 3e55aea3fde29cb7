//! What every workload shares: run parameters, the report it hands back,
//! repeated set-up, the time-bounded closed loop and answer checksums.

use std::time::Instant;

use sqp_graph::database::GraphId;

use crate::json::Json;
use crate::spec::RUN_SECONDS;
use crate::stats;

/// Parameters of one workload run. The system under test never sees these:
/// it receives only the inputs generated from them.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the measured region.
    pub seconds: f64,
    pub trace: bool,
    /// Shrink every input about tenfold and set up once: a correctness-only
    /// pass that finishes in about a second.
    pub smoke: bool,
}

impl RunConfig {
    /// A workload-size constant, shrunk under `--smoke` but never below
    /// `floor`.
    pub fn sized(&self, n: usize, floor: usize) -> usize {
        if self.smoke {
            (n / 10).max(floor)
        } else {
            n
        }
    }

    /// Whether set-up is repeated after the measured region (see
    /// [`SetupTimer`]); traced and smoke runs set up once.
    pub fn repeats_setup(&self) -> bool {
        !(self.smoke || self.trace)
    }

    /// An independent sub-seed for input stream `k`.
    pub fn sub_seed(&self, k: u64) -> u64 {
        let mut z = self.seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// What one workload run hands back.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// `(metric name, value)`; units come from `spec`.
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample counts, checksums and secondary figures for the result file.
    pub detail: Vec<(&'static str, Json)>,
    /// Correctness findings, one line each; every one also counted in
    /// `failed`.
    pub findings: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn detail(&mut self, name: &'static str, value: Json) {
        self.detail.push((name, value));
    }

    /// Records `n` failed checks under one finding.
    pub fn fail(&mut self, n: u64, what: impl Into<String>) {
        if n > 0 {
            self.failed += n;
            self.findings.push(format!("{} (x{n})", what.into()));
        }
    }

    /// Each window's own figures, in the order run: where the host's slow
    /// spells fell can be read off them.
    pub fn window_detail(&mut self, per_window: &[Summary]) {
        let column = |f: fn(&Summary) -> f64| {
            Json::Arr(per_window.iter().map(|s| Json::Num(f(s))).collect())
        };
        self.detail("window_qps", column(|s| s.qps));
        self.detail("window_p50_ms", column(|s| s.p50_ms));
        self.detail("window_p95_ms", column(|s| s.p95_ms));
    }

    /// The five end-to-end metrics, in one place so no workload omits one.
    pub fn end_to_end(&mut self, cfg: &RunConfig, setups: &SetupTimer, lat: &Summary, rss_mb: f64) {
        self.metric("qps", lat.qps);
        self.metric("query_p50_ms", lat.p50_ms);
        self.metric("query_p95_ms", lat.p95_ms);
        self.metric("peak_rss_mb", rss_mb);
        self.metric("setup_s", setups.median_s());
        self.detail("setups", Json::Num(setups.reps() as f64));
        self.detail("windows", Json::Num(lat.windows as f64));
        self.detail("ops_per_window", Json::Num(lat.samples as f64));
        self.detail("query_p99_ms", Json::Num(lat.p99_ms));
        // A full-length run must report medians over complete windows, each
        // leaving ten samples beyond its p95.
        if !cfg.smoke && cfg.seconds >= RUN_SECONDS as f64 {
            if lat.windows == 0 {
                self.fail(1, "the measured region did not fill one window");
            }
            if stats::samples_beyond(lat.samples, 0.95) < 10 {
                let n = lat.samples;
                self.fail(1, format!("p95 rests on {n} samples: fewer than ten beyond it"));
            }
        }
    }
}

/// Times a workload's set-up: everything before the first timed op, that
/// is generating the inputs, constructing the engine, index, service or
/// cluster over them, computing the reference answers where the workload
/// has them, and the warm-up ops. The first set-up happens before the
/// measured region and its product is used; the others are repeated after
/// the region and dropped, and the median is reported (the driver's
/// contract: "set up several times in a run and report the median"), so one
/// slow spell of the host does not decide the figure.
#[derive(Debug, Default)]
pub struct SetupTimer {
    secs: Vec<f64>,
}

/// Set-ups per run at least, and at most; between the two, repetition stops
/// once the repetitions have taken `SETUP_REPEAT_S`, so a set-up of a tenth
/// of a second is timed seven times and one of a second three times.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 7;
const SETUP_REPEAT_S: f64 = 1.2;

impl SetupTimer {
    pub fn time<T>(&mut self, build: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let built = build();
        self.secs.push(t.elapsed().as_secs_f64());
        built
    }

    /// The repetitions after the first, each product dropped at once.
    pub fn repeat<T>(&mut self, cfg: &RunConfig, mut build: impl FnMut() -> T) {
        if !cfg.repeats_setup() {
            return;
        }
        let more = |secs: &[f64]| {
            secs.len() < SETUP_MIN_REPS
                || (secs.len() < SETUP_MAX_REPS && secs[1..].iter().sum::<f64>() < SETUP_REPEAT_S)
        };
        while more(&self.secs) {
            drop(self.time(&mut build));
        }
    }

    pub fn reps(&self) -> usize {
        self.secs.len()
    }

    pub fn median_s(&self) -> f64 {
        stats::median(&self.secs).unwrap_or(f64::NAN)
    }
}

/// CPU affinity of the calling thread, which the threads it spawns inherit.
///
/// Every workload process runs on **one** CPU (the highest it is allowed):
/// the load generator, and the service's executor and single worker where
/// there is a service. On the 2-vCPU reference box a query handed between
/// threads on different vCPUs pays an inter-processor interrupt and often a
/// halted vCPU's wake-up, or not, depending on where the scheduler happened
/// to put the threads of that run: `serve_open`'s saturated throughput read
/// 1 000 to 1 440 q/s over nine runs of two seeds unpinned, and 1 290 to
/// 1 380 on one CPU (with one outlier, 1 150).
pub struct Affinity {
    original: CpuSet,
    pub cpu: usize,
}

/// The kernel's `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

fn set_affinity(set: &CpuSet) -> bool {
    // SAFETY: `set` is a live 128-byte buffer, the size passed; pid 0 is
    // the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
}

impl Affinity {
    /// Pins the calling thread to the highest CPU it may run on; `None`
    /// (and nothing changed) if the kernel refuses.
    pub fn pin_to_one_cpu() -> Option<Self> {
        let mut original: CpuSet = [0; 16];
        // SAFETY: as in `set_affinity`, with a buffer the kernel writes to.
        let got = unsafe {
            sched_getaffinity(0, std::mem::size_of::<CpuSet>(), original.as_mut_ptr()) == 0
        };
        let word = original.iter().rposition(|w| *w != 0)?;
        let cpu = word * 64 + 63 - original[word].leading_zeros() as usize;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        (got && set_affinity(&one)).then_some(Self { original, cpu })
    }

    /// Runs `f` with the original affinity (threads `f` spawns may use every
    /// CPU), then pins again.
    pub fn with_all_cpus<T>(&self, f: impl FnOnce() -> T) -> T {
        set_affinity(&self.original);
        let out = f();
        let mut one: CpuSet = [0; 16];
        one[self.cpu / 64] = 1 << (self.cpu % 64);
        set_affinity(&one);
        out
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u32(&mut self, x: u32) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV checksum of an answer set's ids in ascending order.
pub fn answers_checksum(answers: &[GraphId]) -> u64 {
    let mut ids: Vec<u32> = answers.iter().map(|g| g.id()).collect();
    ids.sort_unstable();
    let mut h = Fnv::default();
    h.u64(ids.len() as u64);
    for id in ids {
        h.u32(id);
    }
    h.finish()
}

/// Folds per-query checksums `0..upto` into one value for goldens and the
/// cross-engine gate.
pub fn fold_checksums(per_query: &[u64]) -> u64 {
    let mut h = Fnv::default();
    for &c in per_query {
        h.u64(c);
    }
    h.finish()
}

pub fn hex(x: u64) -> Json {
    Json::Str(format!("{x:016x}"))
}

/// What a latency sample reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    /// Ops per second of time spent inside ops.
    pub qps: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    /// Ops behind each figure: one window's, or the whole sample's when it
    /// was not cut into windows.
    pub samples: usize,
    /// Complete windows the figures are medians over; 0 for a whole sample.
    pub windows: usize,
}

impl Summary {
    /// Over every op of one sample.
    pub fn of(latencies_ms: &[f64]) -> Self {
        let mut ms = latencies_ms.to_vec();
        stats::sort(&mut ms);
        let busy_s = ms.iter().sum::<f64>() / 1e3;
        let q = |p| stats::quantile_sorted(&ms, p).unwrap_or(f64::NAN);
        Summary {
            qps: ms.len() as f64 / busy_s,
            p50_ms: q(0.5),
            p95_ms: q(0.95),
            p99_ms: q(0.99),
            samples: ms.len(),
            windows: 0,
        }
    }

    /// The region cut into consecutive windows of `window_ops` ops, in the
    /// order run (an incomplete last window is dropped), each summarised on
    /// its own with every one of its ops, then [`Summary::quiet_quartile`]
    /// over the windows. A region shorter than one window is summarised
    /// whole.
    pub fn over_windows(latencies_ms: &[f64], window_ops: usize) -> (Self, Vec<Summary>) {
        let per_window: Vec<Summary> =
            latencies_ms.chunks_exact(window_ops.max(1)).map(Summary::of).collect();
        let summary =
            Summary::quiet_quartile(&per_window).unwrap_or_else(|| Summary::of(latencies_ms));
        (summary, per_window)
    }

    /// Field by field, the **favourable quartile** over windows that all
    /// hold the same work: the first quartile of the latencies, the third of
    /// `qps` (nearest rank). `None` if there is no window.
    ///
    /// What disturbs a window on this host (a neighbour on the same core's
    /// caches, for seconds to minutes) only ever slows it, so the quiet
    /// host's figure is at the favourable end of the windows; the quartile
    /// rather than the extreme, so that no single window decides it. Since
    /// the windows hold identical work, which of them are fast says nothing
    /// about the queries, and anything the program does in every window (a
    /// slow class of queries, a stall that recurs within a window's length)
    /// is in every window's figure and so in the quartile. Over ten runs
    /// the quartile spread about half as much as the median over windows
    /// (README, "Measured steadiness").
    pub fn quiet_quartile(per_window: &[Summary]) -> Option<Self> {
        let first = per_window.first()?;
        let quartile = |f: fn(&Summary) -> f64, p: f64| {
            let mut column: Vec<f64> = per_window.iter().map(f).collect();
            stats::sort(&mut column);
            stats::quantile_sorted(&column, p).unwrap_or(f64::NAN)
        };
        Some(Summary {
            qps: quartile(|s| s.qps, 0.75),
            p50_ms: quartile(|s| s.p50_ms, 0.25),
            p95_ms: quartile(|s| s.p95_ms, 0.25),
            p99_ms: quartile(|s| s.p99_ms, 0.25),
            samples: first.samples,
            windows: per_window.len(),
        })
    }
}

#[derive(Debug)]
pub struct ClosedLoop {
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Latency of every op, in the order run.
    pub latencies_ms: Vec<f64>,
    /// First measured latency of each query, if it ran.
    pub first_ms: Vec<Option<f64>>,
}

impl ClosedLoop {
    /// Ops per second of wall time over the whole region.
    pub fn ops_per_s(&self) -> f64 {
        self.attempted as f64 / self.wall_s
    }
}

/// One client, closed loop: runs `op(i)` for `i` cycling over `0..queries`
/// until `seconds` have passed, timing each call; `check(i, result)` runs
/// after the timer has stopped and says whether the op succeeded.
pub fn closed_loop<R>(
    seconds: f64,
    queries: usize,
    mut op: impl FnMut(usize) -> R,
    mut check: impl FnMut(usize, R) -> bool,
) -> ClosedLoop {
    let mut latencies_ms = Vec::new();
    let mut first_ms = vec![None; queries];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let result = op(i);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        latencies_ms.push(ms);
        first_ms[i].get_or_insert(ms);
        attempted += 1;
        if !check(i, result) {
            failed += 1;
        }
        i = (i + 1) % queries;
    }
    ClosedLoop { wall_s: start.elapsed().as_secs_f64(), attempted, failed, latencies_ms, first_ms }
}

/// Draws `k` distinct indices from `0..n` (all of them when `k >= n`),
/// ascending, from a seeded generator.
pub fn sample_indices(n: usize, k: usize, seed: u64) -> Vec<usize> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut all: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = rng.random_range(i..n);
        all.swap(i, j);
    }
    all.truncate(k);
    all.sort_unstable();
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_covers_every_op() {
        // 99 ops of 10 ms and one 510 ms stall: the stall is a hundredth of
        // the ops and a third of the time.
        let mut ms = vec![10.0; 99];
        ms.insert(40, 510.0);
        let s = Summary::of(&ms);
        assert_eq!(s.samples, 100);
        assert_eq!((s.p50_ms, s.p95_ms, s.p99_ms), (10.0, 10.0, 10.0));
        assert!((s.qps - 100.0 / 1.5).abs() < 1e-9, "qps counts the stall's time: {}", s.qps);
        let slow_tail: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&slow_tail);
        assert_eq!((s.p50_ms, s.p95_ms, s.p99_ms), (50.0, 95.0, 99.0));
    }

    #[test]
    fn window_quartiles_keep_what_recurs_and_drop_slow_spells() {
        // Eight windows of 200 ops: 10 ms ops, a 60 ms stall every 10th op
        // (recurs in every window), and the host at half speed through the
        // whole of windows 1..6 (five of the eight).
        let window: Vec<f64> = (0..200).map(|i| if i % 10 == 9 { 60.0 } else { 10.0 }).collect();
        let mut ms = Vec::new();
        for w in 0..8 {
            let slow = (1..6).contains(&w);
            ms.extend(window.iter().map(|x| if slow { x * 2.0 } else { *x }));
        }
        ms.extend([10.0; 150]); // an incomplete ninth window is dropped
        let (s, per_window) = Summary::over_windows(&ms, 200);
        assert_eq!((s.windows, s.samples, per_window.len()), (8, 200, 8));
        assert_eq!((s.p50_ms, s.p95_ms), (10.0, 60.0), "the recurring stall is in the p95");
        assert!((s.qps - 200.0 / 3.0).abs() < 1e-9, "and its time in qps: {}", s.qps);
        assert_eq!(per_window[2].p50_ms, 20.0, "a slow spell is in its window's own figures");
        let whole = Summary::of(&ms[..1600]);
        assert!(whole.qps < s.qps && whole.p50_ms == 20.0, "the whole region is mostly slow");
        // With seven of eight windows slow the quartile is a slow window's.
        let mostly: Vec<Summary> =
            (0..8).map(|w| Summary::of(&[if w == 0 { 1.0 } else { 2.0 }; 200])).collect();
        assert_eq!(Summary::quiet_quartile(&mostly).unwrap().p50_ms, 2.0);
        // Shorter than one window: summarised whole.
        let (s, per_window) = Summary::over_windows(&ms[..150], 200);
        assert_eq!((s.windows, s.samples, per_window.len()), (0, 150, 0));
        assert_eq!(Summary::quiet_quartile(&[]).map(|s| s.windows), None);
    }

    #[test]
    fn a_full_length_run_must_fill_windows_that_support_p95() {
        let cfg = RunConfig { seed: 1, seconds: RUN_SECONDS as f64, trace: false, smoke: false };
        let once = SetupTimer { secs: vec![1.0] };
        let report = |ops: usize, window: usize| {
            let mut r = Report::default();
            r.end_to_end(&cfg, &once, &Summary::over_windows(&vec![1.0; ops], window).0, 1.0);
            r.failed
        };
        assert_eq!(report(400, 200), 0);
        assert_eq!(report(400, 199), 1, "nine samples beyond the p95 of a window");
        assert_eq!(report(150, 200), 2, "no complete window, and too few samples");
        let mut short = Report::default();
        let thin = Summary::of(&[1.0; 20]);
        short.end_to_end(&RunConfig { seconds: 1.0, ..cfg }, &once, &thin, 1.0);
        assert_eq!(short.failed, 0, "a shortened run is not held to it");
    }

    #[test]
    fn checksum_is_order_independent_and_length_aware() {
        let a = [GraphId(3), GraphId(1), GraphId(2)];
        let b = [GraphId(1), GraphId(2), GraphId(3)];
        assert_eq!(answers_checksum(&a), answers_checksum(&b));
        assert_ne!(answers_checksum(&b), answers_checksum(&b[..2]));
        assert_ne!(answers_checksum(&[]), answers_checksum(&[GraphId(0)]));
    }

    #[test]
    fn closed_loop_cycles_and_counts_failures() {
        let mut seen = Vec::new();
        let run = closed_loop(
            0.02,
            3,
            |i| {
                seen.push(i);
                i
            },
            |_, r| r != 1,
        );
        assert!(run.attempted >= 3);
        assert_eq!(run.latencies_ms.len() as u64, run.attempted);
        assert!(run.first_ms.iter().all(Option::is_some));
        assert_eq!(seen[..4.min(seen.len())], [0, 1, 2, 0][..4.min(seen.len())]);
        assert_eq!(run.failed, seen.iter().filter(|&&i| i == 1).count() as u64);
        assert!(run.wall_s >= 0.02);
    }

    #[test]
    fn setup_timer_repeats_and_reports_the_median() {
        let cfg = RunConfig { seed: 1, seconds: 1.0, trace: false, smoke: false };
        // An instant set-up is repeated up to the cap, a slow one the
        // minimum number of times.
        let mut quick = SetupTimer::default();
        quick.time(|| ());
        quick.repeat(&cfg, || ());
        assert_eq!(quick.reps(), SETUP_MAX_REPS);
        let mut slow = SetupTimer { secs: vec![0.7, 0.7, 0.7] };
        slow.repeat(&cfg, || ());
        assert_eq!(slow.reps(), SETUP_MIN_REPS, "1.4 s of repetitions: enough");
        let mut middling = SetupTimer { secs: vec![0.4, 0.4, 0.4] };
        middling.repeat(&cfg, || ());
        assert!(middling.reps() > 3, "0.8 s of repetitions so far: more");
        slow.secs = vec![0.5, 0.1, 0.2];
        assert_eq!(slow.median_s(), 0.2);
        // Traced and smoke runs set up once.
        let mut once = SetupTimer::default();
        once.time(|| ());
        once.repeat(&RunConfig { trace: true, ..cfg }, || ());
        once.repeat(&RunConfig { smoke: true, ..cfg }, || ());
        assert_eq!(once.reps(), 1);
    }

    #[test]
    fn sampled_indices_are_distinct_sorted_and_seeded() {
        let s = sample_indices(100, 10, 1);
        assert_eq!(s.len(), 10);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(s, sample_indices(100, 10, 1));
        assert_ne!(s, sample_indices(100, 10, 2));
        assert_eq!(sample_indices(3, 10, 1), vec![0, 1, 2]);
    }
}
