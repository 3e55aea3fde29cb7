//! Kernel-crossover calibration: the measurements behind
//! `sqp_graph::intersect::{GALLOP_RATIO, SIMD_MIN_LEN}`.
//!
//! Two sweeps over synthetic sorted id lists:
//!
//! * **gallop sweep** — accumulator of `m` ids against a haystack of
//!   `m × ratio` ids, for several `m` and length ratios. Reports the
//!   gallop/merge time ratio per cell; the crossover (where galloping first
//!   beats the linear merge) picks `GALLOP_RATIO`.
//! * **SIMD sweep** — balanced lists of equal length `m`. Reports the
//!   simd/merge time ratio per length; the smallest length where the block
//!   kernel reliably wins picks `SIMD_MIN_LEN`.
//!
//! Each timed step restores the accumulator with `clone_from` (a memcpy both
//! kernels of a cell pay identically), so reported *ratios* compare kernels
//! fairly even though absolute cell times include the restore.
//!
//! A third sweep is the measurement behind `sqp_matching::cfl::PULL_RATIO`:
//!
//! * **direction sweep** — the CFL filter's top-down generation of one
//!   candidate set, pushed from the parent's candidates and pulled from the
//!   label class, over `|V_L(G)| ÷ |Φ(parent)|` at two densities. Pushing
//!   costs what the parent candidates' neighborhoods hold, so its crossover
//!   sits at a larger ratio the denser the graph; the constant has to lie
//!   between the two crossovers, which the smoke run asserts.
//!
//! A fourth is the measurement behind the two constants of
//! `sqp_graph::AdjacencyRows::qualifies` (a row iff `deg > 4·⌈n/64⌉` and
//! `deg ≥ 8`):
//!
//! * **row sweep** — the two loops that take an adjacency row when the data
//!   vertex has one, written out over the list and over the row for the same
//!   vertices: the CFL filter's neighbor test `N(v) ∩ Φ(w) ≠ ∅` and one
//!   local-candidate step of the enumerator (`Φ(u)` against the adjacencies
//!   of two mapped neighbors), over `deg ÷ ⌈n/64⌉` at four graph sizes. The
//!   smoke run asserts that the row path wins every cell the rule gives a
//!   row in.
//!
//! Results land in `results/BENCH_calibration.json` (hand-rolled JSON — the
//! vendored criterion stub has no reporter); `SQP_BENCH_SMOKE=1` shrinks the
//! repetitions and discards the report.

mod common;

use common::smoke;

use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqp_graph::{intersect, simd, AdjacencyRows, Graph, GraphBuilder, Label, VertexId};
use sqp_matching::cfl::{generation_probe, PULL_RATIO};

/// A sorted, strictly-increasing random id list of `len` ids drawn from
/// `0..universe`.
fn random_sorted(rng: &mut StdRng, len: usize, universe: u32) -> Vec<VertexId> {
    let mut set = std::collections::BTreeSet::new();
    while set.len() < len {
        set.insert(rng.random_range(0..universe));
    }
    set.into_iter().map(VertexId).collect()
}

/// Median nanoseconds per operation of `op`, each prefixed by restoring the
/// accumulator from `proto` (both kernels of a comparison pay the restore).
fn time_op(
    proto: &[VertexId],
    reps: usize,
    inner: usize,
    mut op: impl FnMut(&mut Vec<VertexId>),
) -> f64 {
    let mut buf: Vec<VertexId> = Vec::with_capacity(proto.len());
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..inner {
            buf.clear();
            buf.extend_from_slice(proto);
            op(black_box(&mut buf));
            black_box(&buf);
        }
        times.push(t0.elapsed());
    }
    times.sort();
    times[times.len() / 2].as_secs_f64() * 1e9 / inner as f64
}

struct GallopCell {
    m: usize,
    ratio: usize,
    merge_ns: f64,
    gallop_ns: f64,
}

struct SimdCell {
    len: usize,
    merge_ns: f64,
    simd_ns: f64,
}

/// Gallop-vs-merge sweep: accumulator `m` against haystack `m × ratio`.
fn gallop_sweep() -> Vec<GallopCell> {
    let mut rng = StdRng::seed_from_u64(4242);
    let (reps, inner) = if smoke() { (5, 200) } else { (15, 2_000) };
    let mut cells = Vec::new();
    for &m in &[16usize, 64, 256] {
        for &ratio in &[2usize, 4, 8, 16, 32, 64] {
            let hay_len = m * ratio;
            // Universe 4× the haystack: ~25% haystack density, ~a quarter of
            // the accumulator surviving — the enumeration regime (candidate
            // lists over a shared label-restricted id space).
            let universe = (hay_len * 4) as u32;
            let proto = random_sorted(&mut rng, m, universe);
            let hay = random_sorted(&mut rng, hay_len, universe);
            let merge_ns = time_op(&proto, reps, inner, |buf| intersect::retain_merge(buf, &hay));
            let gallop_ns = time_op(&proto, reps, inner, |buf| intersect::retain_gallop(buf, &hay));
            cells.push(GallopCell { m, ratio, merge_ns, gallop_ns });
        }
    }
    cells
}

/// SIMD-vs-merge sweep on balanced equal-length lists.
fn simd_sweep() -> Vec<SimdCell> {
    let mut rng = StdRng::seed_from_u64(2424);
    let (reps, inner) = if smoke() { (5, 200) } else { (15, 2_000) };
    let mut cells = Vec::new();
    let mut scratch = Vec::new();
    for &len in &[4usize, 8, 16, 32, 64, 128, 256, 512] {
        let universe = (len * 4) as u32;
        let proto = random_sorted(&mut rng, len, universe);
        let other = random_sorted(&mut rng, len, universe);
        let merge_ns = time_op(&proto, reps, inner, |buf| intersect::retain_merge(buf, &other));
        let simd_ns = time_op(&proto, reps, inner, |buf| {
            intersect::retain_simd(buf, &other, &mut scratch);
        });
        cells.push(SimdCell { len, merge_ns, simd_ns });
    }
    cells
}

/// Average degrees of the direction sweep's data graphs: molecule-sparse and
/// the dense end of the paper's degree sweep.
const DIRECTION_DEGREES: [usize; 2] = [2, 16];

struct DirectionCell {
    degree: usize,
    /// `|V_L(G)| ÷ |Φ(parent)|` as generated.
    ratio: f64,
    push_ns: f64,
    pull_ns: f64,
}

/// Push-vs-pull sweep. The query is one edge `A - B`; the data graph has
/// `DIRECTION_PARENTS` vertices labeled `A`, `ratio` times as many labeled
/// `B`, and uniformly random edges. `A` is the rarer label, so it is the
/// root and (nearly) every `A` vertex its candidate: generating `Φ(B)` walks
/// either their neighborhoods or the `B` class.
fn direction_sweep() -> Vec<DirectionCell> {
    const DIRECTION_PARENTS: usize = 64;
    let mut rng = StdRng::seed_from_u64(1919);
    let (reps, inner) = if smoke() { (7, 300) } else { (15, 1_000) };
    let mut query = GraphBuilder::new();
    let (a, b) = (query.add_vertex(Label(0)), query.add_vertex(Label(1)));
    query.add_edge(a, b).expect("two fresh vertices");
    let query = query.build();
    let mut cells = Vec::new();
    for degree in DIRECTION_DEGREES {
        for &ratio in &[1usize, 2, 3, 4, 6, 8, 16] {
            let n = DIRECTION_PARENTS * (1 + ratio);
            let mut data = GraphBuilder::with_capacity(n);
            for v in 0..n {
                data.add_vertex(Label((v >= DIRECTION_PARENTS) as u32));
            }
            for _ in 0..n * degree / 2 {
                let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
                if u != v {
                    let _ = data.add_edge(VertexId::from(u), VertexId::from(v));
                }
            }
            let data = data.build();
            let parents = data
                .vertices_with_label(Label(0))
                .iter()
                .filter(|&&v| !data.neighbors_with_label(v, Label(1)).is_empty())
                .count();
            let time = |pull: bool| time_generation(&query, &data, pull, reps, inner);
            cells.push(DirectionCell {
                degree,
                ratio: (n - DIRECTION_PARENTS) as f64 / parents.max(1) as f64,
                push_ns: time(false),
                pull_ns: time(true),
            });
        }
    }
    cells
}

/// Nanoseconds per generation of `q`'s candidate sets over `g` in one forced
/// direction (scratch reset, root set and BFS tree included: both directions
/// pay them identically). The fastest of `reps` batches: the smoke run
/// compares cells a few percent apart on a shared host, where a neighbor's
/// burst moves a median but not a minimum.
fn time_generation(q: &Graph, g: &Graph, pull: bool, reps: usize, inner: usize) -> f64 {
    time_items(reps, inner, 1, |_| {
        black_box(generation_probe(black_box(q), black_box(g), pull));
    })
}

/// The largest swept ratio up to which pulling beats pushing at `degree`, by
/// more than the 5 % two runs of one cell differ by (0 when it does not even
/// at the first cell).
fn pull_wins_through(cells: &[DirectionCell], degree: usize) -> f64 {
    cells
        .iter()
        .filter(|c| c.degree == degree)
        .take_while(|c| c.pull_ns < 0.95 * c.push_ns)
        .last()
        .map_or(0.0, |c| c.ratio)
}

struct RowCell {
    n: usize,
    /// `deg ÷ ⌈n/64⌉`.
    ratio: usize,
    degree: usize,
    /// Whether `AdjacencyRows::qualifies` gives a vertex of this degree a row.
    has_row: bool,
    test_list_ns: f64,
    test_row_ns: f64,
    step_list_ns: f64,
    step_row_ns: f64,
}

/// Nanoseconds per call of `op` over `0..items`: the fastest of `reps`
/// batches of `inner` passes.
fn time_items(reps: usize, inner: usize, items: usize, mut op: impl FnMut(usize)) -> f64 {
    let fastest = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..inner {
                (0..items).for_each(&mut op);
            }
            t0.elapsed()
        })
        .min()
        .expect("at least one batch");
    fastest.as_secs_f64() * 1e9 / (inner * items) as f64
}

/// List-vs-row sweep. The data graph has `n` vertices over three labels (the
/// dense workload's) and uniformly random edges to an average degree of
/// `ratio·⌈n/64⌉`; the candidate set is a random half of one label class,
/// held as a bitmap as the filter and the candidate space hold theirs. Every
/// vertex gets a row here, whatever the rule says, so that both paths run on
/// the same vertices.
fn row_sweep() -> Vec<RowCell> {
    let mut rng = StdRng::seed_from_u64(2222);
    let (reps, inner) = if smoke() { (7, 40) } else { (15, 200) };
    let label = Label(1);
    let mut cells = Vec::new();
    for n in [64usize, 128, 512, 2_048] {
        let words = n.div_ceil(64);
        for ratio in [1usize, 2, 4, 8, 16] {
            let degree = ratio * words;
            let mut data = GraphBuilder::with_capacity(n);
            for _ in 0..n {
                data.add_vertex(Label(rng.random_range(0..3)));
            }
            let mut edges = 0;
            while edges < n * degree / 2 {
                let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
                edges += usize::from(u != v && data.add_edge(u.into(), v.into()).is_ok());
            }
            let g = data.build();
            let rows: Vec<Vec<u64>> = g
                .vertices()
                .map(|v| {
                    let mut row = vec![0u64; words];
                    for w in g.neighbors(v) {
                        row[w.index() / 64] |= 1 << (w.index() % 64);
                    }
                    row
                })
                .collect();
            let mut phi = vec![0u64; words];
            for v in g.vertices_with_label(label).iter().filter(|_| rng.random_bool(0.5)) {
                phi[v.index() / 64] |= 1 << (v.index() % 64);
            }
            let member = |v: VertexId| phi[v.index() / 64] & (1 << (v.index() % 64)) != 0;

            // The neighbor test of every vertex against the candidate set.
            let test_list_ns = time_items(reps, inner, n, |v| {
                let run = g.neighbors_with_label(VertexId::from(v), label);
                black_box(run.iter().any(|&w| member(w)));
            });
            let test_row_ns = time_items(reps, inner, n, |v| {
                black_box(rows[v].iter().zip(&phi).any(|(a, p)| a & p != 0));
            });

            // One local-candidate step per vertex v and its first neighbor
            // w: the candidates adjacent to both mapped vertices.
            let pairs: Vec<(usize, usize)> = g
                .vertices()
                .map(|v| (v.index(), g.neighbors(v).first().unwrap_or(&v).index()))
                .collect();
            let (mut buf, mut scratch) = (Vec::new(), Vec::new());
            let step_list_ns = time_items(reps, inner, n, |i| {
                let (v, w) = pairs[i];
                let lists = [v, w].map(|x| g.neighbors_with_label(VertexId::from(x), label));
                let (seed, other) = if lists[0].len() <= lists[1].len() {
                    (lists[0], lists[1])
                } else {
                    (lists[1], lists[0])
                };
                buf.clear();
                buf.extend(seed.iter().copied().filter(|&x| member(x)));
                intersect::retain_auto(&mut buf, other, &mut scratch);
                black_box(&buf);
            });
            let step_row_ns = time_items(reps, inner, n, |i| {
                let (v, w) = pairs[i];
                buf.clear();
                for (k, &members) in phi.iter().enumerate() {
                    let mut word = members & rows[v][k] & rows[w][k];
                    while word != 0 {
                        buf.push(VertexId((k * 64) as u32 + word.trailing_zeros()));
                        word &= word - 1;
                    }
                }
                black_box(&buf);
            });
            cells.push(RowCell {
                n,
                ratio,
                degree,
                has_row: AdjacencyRows::qualifies(degree, n),
                test_list_ns,
                test_row_ns,
                step_list_ns,
                step_row_ns,
            });
        }
    }
    cells
}

/// Per graph size, the smallest swept `deg ÷ ⌈n/64⌉` from which the row path
/// wins both loops in every larger cell, outside the 5 % two runs of one cell
/// differ by (`None` when it does not even at the last cell).
fn row_wins_from(cells: &[RowCell], n: usize) -> Option<usize> {
    let wins = |c: &&RowCell| {
        c.test_row_ns < 0.95 * c.test_list_ns && c.step_row_ns < 0.95 * c.step_list_ns
    };
    let of_n: Vec<&RowCell> = cells.iter().filter(|c| c.n == n).collect();
    let losing = of_n.iter().rposition(|c| !wins(c));
    of_n.get(losing.map_or(0, |i| i + 1)).map(|c| c.ratio)
}

fn write_json(
    gallop: &[GallopCell],
    simd_cells: &[SimdCell],
    direction: &[DirectionCell],
    rows: &[RowCell],
) {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"kernel_calibration\",\n");
    out.push_str(&format!("  \"simd_implementation\": \"{}\",\n", simd::implementation_name()));
    out.push_str(&format!("  \"gallop_ratio_constant\": {},\n", intersect::GALLOP_RATIO));
    out.push_str(&format!("  \"simd_min_len_constant\": {},\n", intersect::SIMD_MIN_LEN));
    out.push_str("  \"gallop_sweep\": [\n");
    for (i, c) in gallop.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"m\": {}, \"ratio\": {}, \"merge_ns\": {:.1}, \"gallop_ns\": {:.1}, \
             \"gallop_over_merge\": {:.3} }}{}\n",
            c.m,
            c.ratio,
            c.merge_ns,
            c.gallop_ns,
            c.gallop_ns / c.merge_ns.max(1e-9),
            if i + 1 < gallop.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"simd_sweep\": [\n");
    for (i, c) in simd_cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"len\": {}, \"merge_ns\": {:.1}, \"simd_ns\": {:.1}, \
             \"simd_over_merge\": {:.3} }}{}\n",
            c.len,
            c.merge_ns,
            c.simd_ns,
            c.simd_ns / c.merge_ns.max(1e-9),
            if i + 1 < simd_cells.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"pull_ratio_constant\": {PULL_RATIO},\n"));
    let [sparse, dense] = DIRECTION_DEGREES;
    out.push_str(&format!(
        "  \"pull_wins_through_ratio\": {{ \"degree_{sparse}\": {:.2}, \"degree_{dense}\": {:.2} }},\n",
        pull_wins_through(direction, sparse),
        pull_wins_through(direction, dense),
    ));
    out.push_str("  \"direction_sweep\": [\n");
    for (i, c) in direction.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"degree\": {}, \"label_mates_over_parent_candidates\": {:.2}, \
             \"push_ns\": {:.1}, \"pull_ns\": {:.1}, \"pull_over_push\": {:.3} }}{}\n",
            c.degree,
            c.ratio,
            c.push_ns,
            c.pull_ns,
            c.pull_ns / c.push_ns.max(1e-9),
            if i + 1 < direction.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"row_rule\": \"deg > 4 * ceil(n / 64) and deg >= 8\",\n");
    let crossovers: Vec<String> = [64usize, 128, 512, 2_048]
        .iter()
        .map(|&n| match row_wins_from(rows, n) {
            Some(ratio) => format!("\"n_{n}\": {ratio}"),
            None => format!("\"n_{n}\": null"),
        })
        .collect();
    out.push_str(&format!("  \"row_wins_from_ratio\": {{ {} }},\n", crossovers.join(", ")));
    out.push_str("  \"row_sweep\": [\n");
    for (i, c) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"n\": {}, \"degree_over_words\": {}, \"degree\": {}, \"has_row\": {}, \
             \"test_list_ns\": {:.1}, \"test_row_ns\": {:.1}, \"test_row_over_list\": {:.3}, \
             \"step_list_ns\": {:.1}, \"step_row_ns\": {:.1}, \"step_row_over_list\": {:.3} }}{}\n",
            c.n,
            c.ratio,
            c.degree,
            c.has_row,
            c.test_list_ns,
            c.test_row_ns,
            c.test_row_ns / c.test_list_ns.max(1e-9),
            c.step_list_ns,
            c.step_row_ns,
            c.step_row_ns / c.step_list_ns.max(1e-9),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    common::write_report("BENCH_calibration.json", &out);
}

fn bench_calibration(c: &mut Criterion) {
    let gallop = gallop_sweep();
    println!("\ngallop/merge time ratio (<1 means galloping wins)");
    println!(
        "{:<8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "m", "2x", "4x", "8x", "16x", "32x", "64x"
    );
    for m in [16usize, 64, 256] {
        let row: Vec<String> = gallop
            .iter()
            .filter(|c| c.m == m)
            .map(|c| format!("{:>8.2}", c.gallop_ns / c.merge_ns.max(1e-9)))
            .collect();
        println!("{:<8} {}", m, row.join(" "));
    }

    let simd_cells = simd_sweep();
    println!(
        "\nsimd/merge time ratio (<1 means the block kernel wins; impl: {})",
        simd::implementation_name()
    );
    for c in &simd_cells {
        println!("  len {:>4}: {:>6.2}", c.len, c.simd_ns / c.merge_ns.max(1e-9));
    }

    let direction = direction_sweep();
    println!(
        "\npull/push generation time ratio (<1 means pulling wins; PULL_RATIO = {PULL_RATIO})"
    );
    for c in &direction {
        println!(
            "  degree {:>2}, |V_L|/|Φ(parent)| {:>5.2}: {:>6.2}",
            c.degree,
            c.ratio,
            c.pull_ns / c.push_ns.max(1e-9)
        );
    }
    let [sparse, dense] = DIRECTION_DEGREES.map(|degree| pull_wins_through(&direction, degree));
    assert!(
        sparse <= PULL_RATIO as f64 && PULL_RATIO as f64 <= dense,
        "PULL_RATIO = {PULL_RATIO} must lie between the crossovers: pulling wins through \
         ratio {sparse:.2} on the sparse graphs and through {dense:.2} on the dense ones"
    );

    let rows = row_sweep();
    println!("\nrow/list time ratio: neighbor test, local-candidate step (<1 means the row wins)");
    for c in &rows {
        println!(
            "  n {:>4}, deg/words {:>2} (deg {:>3}, {}): {:>6.2} {:>6.2}",
            c.n,
            c.ratio,
            c.degree,
            if c.has_row { "row" } else { "list" },
            c.test_row_ns / c.test_list_ns.max(1e-9),
            c.step_row_ns / c.step_list_ns.max(1e-9),
        );
    }
    for c in rows.iter().filter(|c| c.has_row) {
        assert!(
            c.test_row_ns <= 1.05 * c.test_list_ns && c.step_row_ns <= 1.05 * c.step_list_ns,
            "the rule gives degree {} of {} vertices a row, and the row path loses: neighbor \
             test {:.1} vs {:.1} ns, local-candidate step {:.1} vs {:.1} ns",
            c.degree,
            c.n,
            c.test_row_ns,
            c.test_list_ns,
            c.step_row_ns,
            c.step_list_ns,
        );
    }
    write_json(&gallop, &simd_cells, &direction, &rows);

    // Criterion view of two representative cells.
    let mut rng = StdRng::seed_from_u64(7);
    let proto = random_sorted(&mut rng, 64, 4096);
    let hay = random_sorted(&mut rng, 1024, 4096);
    let balanced = random_sorted(&mut rng, 64, 256);
    let mut grp = c.benchmark_group("calibration");
    let mut buf = Vec::new();
    grp.bench_function("merge_64_vs_1024", |b| {
        b.iter(|| {
            buf.clear();
            buf.extend_from_slice(&proto);
            intersect::retain_merge(black_box(&mut buf), &hay);
        })
    });
    grp.bench_function("gallop_64_vs_1024", |b| {
        b.iter(|| {
            buf.clear();
            buf.extend_from_slice(&proto);
            intersect::retain_gallop(black_box(&mut buf), &hay);
        })
    });
    let mut scratch = Vec::new();
    grp.bench_function("simd_64_vs_64", |b| {
        b.iter(|| {
            buf.clear();
            buf.extend_from_slice(&proto);
            intersect::retain_simd(black_box(&mut buf), &balanced, &mut scratch);
        })
    });
    grp.finish();
}

criterion_group! {
    name = benches;
    config = common::fast_criterion();
    targets = bench_calibration
}
criterion_main!(benches);
