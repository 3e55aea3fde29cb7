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
use sqp_graph::{intersect, simd, VertexId};

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

fn write_json(gallop: &[GallopCell], simd_cells: &[SimdCell]) {
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
    write_json(&gallop, &simd_cells);

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
