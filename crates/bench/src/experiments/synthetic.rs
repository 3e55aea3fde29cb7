//! Synthetic-dataset scalability experiments: Tables VIII–IX, Figures 8–9.
//!
//! Four parameter sweeps around the defaults `|D| = 1000`, `|Σ| = 20`,
//! `|V(G)| = 200`, `d(G) = 8` (§IV-A; smaller scales shrink the defaults but
//! keep the sweep structure). Figures 8 and 9 evaluate *filters only* on
//! `Q8S`, as the paper does, with reference answers computed once per query.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sqp_datagen::graphgen::GraphGenConfig;
use sqp_datagen::query::{generate_query_set, QueryGenMethod, QuerySetSpec};
use sqp_datagen::GraphGen;
use sqp_graph::heap_size::format_mb;
use sqp_graph::{Graph, HeapSize};
use sqp_index::{
    BuildBudget, BuildError, CtIndexConfig, FingerprintIndex, GgsxIndex, GrapesConfig, GraphIndex,
    PathTrieIndex,
};
use sqp_matching::cfl::Cfl;
use sqp_matching::{Deadline, FilterResult, Matcher};

use crate::scale::ScaleParams;
use crate::table::{fmt_ms, TextTable};

use super::{reference_answers, Db};

/// One point of a parameter sweep.
pub struct SweepPoint {
    /// The varied parameter's value (e.g. `"20"` for `|Σ| = 20`).
    pub value: String,
    /// The generated database.
    pub db: Db,
    /// The `Q8S` query set on this database.
    pub queries: Vec<Graph>,
}

/// One sweep: the varied parameter's name and its points.
pub struct Sweep {
    /// Parameter name (`|Σ|`, `d(G)`, `|V(G)|`, `|D|`).
    pub param: String,
    /// The points, in ascending parameter order.
    pub points: Vec<SweepPoint>,
}

/// Generates all four sweeps for `params`.
pub fn prepare(params: &ScaleParams) -> Vec<Sweep> {
    let base = GraphGenConfig {
        graphs: params.syn_graphs,
        vertices: params.syn_vertices,
        labels: params.syn_labels,
        degree: params.syn_degree,
        seed: 0,
    };
    let mut sweeps = Vec::new();

    let make = |cfg: GraphGenConfig, value: String, qseed: u64| {
        let db = Arc::new(GraphGen::new(cfg).generate());
        let spec = QuerySetSpec {
            edges: 8,
            method: QueryGenMethod::RandomWalk,
            count: params.queries_per_set,
        };
        let queries = generate_query_set(&db, spec, qseed);
        SweepPoint { value, db, queries }
    };

    let mut seed = 11_000u64;
    let mut next_seed = || {
        seed += 1;
        seed
    };

    sweeps.push(Sweep {
        param: "|Σ|".into(),
        points: params
            .sweep_labels
            .iter()
            .map(|&l| {
                make(
                    GraphGenConfig { labels: l, seed: l as u64, ..base },
                    l.to_string(),
                    next_seed(),
                )
            })
            .collect(),
    });
    sweeps.push(Sweep {
        param: "d(G)".into(),
        points: params
            .sweep_degree
            .iter()
            .map(|&d| {
                make(
                    GraphGenConfig { degree: d as f64, seed: 100 + d as u64, ..base },
                    d.to_string(),
                    next_seed(),
                )
            })
            .collect(),
    });
    sweeps.push(Sweep {
        param: "|V(G)|".into(),
        points: params
            .sweep_vertices
            .iter()
            .map(|&v| {
                make(
                    GraphGenConfig { vertices: v, seed: 200 + v as u64, ..base },
                    v.to_string(),
                    next_seed(),
                )
            })
            .collect(),
    });
    sweeps.push(Sweep {
        param: "|D|".into(),
        points: params
            .sweep_graphs
            .iter()
            .map(|&n| {
                make(
                    GraphGenConfig { graphs: n, seed: 300 + n as u64, ..base },
                    n.to_string(),
                    next_seed(),
                )
            })
            .collect(),
    });
    sweeps
}

/// A built index or its failure mode, with timing.
enum IndexOutcome {
    Built { index: Box<dyn GraphIndex>, build_time: Duration },
    Failed(BuildError),
}

fn build_index(name: &str, db: &Db, budget: &BuildBudget) -> IndexOutcome {
    let t0 = Instant::now();
    let built: Result<Box<dyn GraphIndex>, BuildError> = match name {
        "CT-Index" => FingerprintIndex::build(db, CtIndexConfig::default(), budget)
            .map(|i| Box::new(i) as Box<dyn GraphIndex>),
        "GGSX" => GgsxIndex::build(db, 4, budget).map(|i| Box::new(i) as Box<dyn GraphIndex>),
        "Grapes" => PathTrieIndex::build(db, GrapesConfig::default(), budget)
            .map(|i| Box::new(i) as Box<dyn GraphIndex>),
        other => unreachable!("unknown index {other}"),
    };
    match built {
        Ok(index) => IndexOutcome::Built { index, build_time: t0.elapsed() },
        Err(e) => IndexOutcome::Failed(e),
    }
}

fn budget_of(params: &ScaleParams) -> BuildBudget {
    BuildBudget::unlimited()
        .with_time(params.index_time_budget)
        .with_memory(params.index_mem_budget)
}

/// Table VIII: indexing time on the synthetic sweeps (seconds).
pub fn table8(params: &ScaleParams, sweeps: &[Sweep]) -> Vec<TextTable> {
    let mut out = Vec::new();
    for sweep in sweeps {
        let mut header: Vec<&str> = vec![""];
        let values: Vec<String> = sweep.points.iter().map(|p| p.value.clone()).collect();
        header.extend(values.iter().map(String::as_str));
        let mut t = TextTable::new(
            format!("Table VIII: Indexing time (seconds), vary {}", sweep.param),
            &header,
        );
        for name in ["CT-Index", "GGSX", "Grapes"] {
            eprintln!("[repro] table8: {name} over {}", sweep.param);
            let mut cells = vec![name.to_string()];
            // CT-Index's feature enumeration cost is monotone in every swept
            // parameter (and constant in |Σ|), so once it times out at one
            // point, larger points are marked OOT without burning the budget
            // again.
            let mut short_circuit_oot = false;
            for p in &sweep.points {
                if short_circuit_oot {
                    cells.push("OOT".into());
                    continue;
                }
                cells.push(match build_index(name, &p.db, &budget_of(params)) {
                    IndexOutcome::Built { build_time, .. } => {
                        format!("{:.1}", build_time.as_secs_f64())
                    }
                    IndexOutcome::Failed(BuildError::OutOfTime) => {
                        if name == "CT-Index" {
                            short_circuit_oot = true;
                        }
                        "OOT".into()
                    }
                    IndexOutcome::Failed(BuildError::OutOfMemory) => "OOM".into(),
                });
            }
            t.row(cells);
        }
        out.push(t);
    }
    out
}

/// Table IX: memory cost on the synthetic sweeps (MB).
pub fn table9(params: &ScaleParams, sweeps: &[Sweep]) -> Vec<TextTable> {
    let mut out = Vec::new();
    for sweep in sweeps {
        let mut header: Vec<&str> = vec![""];
        let values: Vec<String> = sweep.points.iter().map(|p| p.value.clone()).collect();
        header.extend(values.iter().map(String::as_str));
        eprintln!("[repro] table9: vary {}", sweep.param);
        let mut t =
            TextTable::new(format!("Table IX: Memory cost (MB), vary {}", sweep.param), &header);

        let mut cells = vec!["Datasets".to_string()];
        cells.extend(sweep.points.iter().map(|p| format_mb(p.db.heap_size())));
        t.row(cells);

        // CFQL: peak candidate-space bytes over the query set.
        let cfl = Cfl::new();
        let mut cells = vec!["CFQL".to_string()];
        for p in &sweep.points {
            let mut peak = 0usize;
            for q in &p.queries {
                // Fresh per-query budget, as in the paper's metric.
                let deadline = Deadline::after(params.query_budget);
                for g in p.db.graphs() {
                    if let Ok(FilterResult::Space(s)) = cfl.filter(q, g, deadline) {
                        peak = peak.max(s.heap_size());
                    }
                }
            }
            cells.push(format_mb(peak));
        }
        t.row(cells);

        for name in ["GGSX", "Grapes"] {
            let mut cells = vec![name.to_string()];
            for p in &sweep.points {
                cells.push(match build_index(name, &p.db, &budget_of(params)) {
                    IndexOutcome::Built { index, .. } => format_mb(index.heap_bytes()),
                    IndexOutcome::Failed(BuildError::OutOfTime) => "OOT".into(),
                    IndexOutcome::Failed(BuildError::OutOfMemory) => "OOM".into(),
                });
            }
            t.row(cells);
        }
        out.push(t);
    }
    out
}

/// Per-engine filter measurements on one sweep point.
struct FilterStats {
    precision: f64,
    avg_filter_ms: f64,
}

/// Measures the filters of Grapes, GGSX, CFQL and vcGrapes on `Q8S`
/// (Figures 8 and 9 share this computation).
fn filter_sweep(params: &ScaleParams, p: &SweepPoint) -> Vec<(&'static str, Option<FilterStats>)> {
    // Per-query budget, refreshed at each use (a single deadline for the
    // whole sweep point would expire and silently void later measurements).
    let per_query = params.query_budget.max(Duration::from_secs(1));
    let budget = budget_of(params);
    let grapes = PathTrieIndex::build(&p.db, GrapesConfig::default(), &budget).ok();
    let ggsx = GgsxIndex::build(&p.db, 4, &budget).ok();
    let cfl = Cfl::new();

    // Reference answers, once per query.
    let answers: Vec<usize> = p
        .queries
        .iter()
        .map(|q| reference_answers(&p.db, q, Deadline::after(per_query * 4)).len())
        .collect();

    let precision_of = |cands: &[usize]| -> f64 {
        let mut sum = 0.0;
        for (&c, &a) in cands.iter().zip(&answers) {
            sum += if c == 0 { 1.0 } else { a as f64 / c as f64 };
        }
        sum / cands.len().max(1) as f64
    };

    let mut results: Vec<(&'static str, Option<FilterStats>)> = Vec::new();

    // Index-only filters.
    for (name, index) in [
        ("Grapes", grapes.as_ref().map(|i| i as &dyn GraphIndex)),
        ("GGSX", ggsx.as_ref().map(|i| i as &dyn GraphIndex)),
    ] {
        let stats = index.map(|idx| {
            let mut cands = Vec::with_capacity(p.queries.len());
            let t0 = Instant::now();
            for q in &p.queries {
                cands.push(idx.candidates(q).len(p.db.len()));
            }
            FilterStats {
                precision: precision_of(&cands),
                avg_filter_ms: t0.elapsed().as_secs_f64() * 1e3 / p.queries.len().max(1) as f64,
            }
        });
        results.push((name, stats));
    }

    // CFQL: CFL filter over all graphs.
    {
        let mut cands = Vec::with_capacity(p.queries.len());
        let t0 = Instant::now();
        for q in &p.queries {
            let deadline = Deadline::after(per_query);
            let mut c = 0usize;
            for g in p.db.graphs() {
                if let Ok(FilterResult::Space(_)) = cfl.filter(q, g, deadline) {
                    c += 1;
                }
            }
            cands.push(c);
        }
        results.push((
            "CFQL",
            Some(FilterStats {
                precision: precision_of(&cands),
                avg_filter_ms: t0.elapsed().as_secs_f64() * 1e3 / p.queries.len().max(1) as f64,
            }),
        ));
    }

    // vcGrapes: Grapes index then CFL filter on survivors.
    {
        let stats = grapes.as_ref().map(|idx| {
            let mut cands = Vec::with_capacity(p.queries.len());
            let t0 = Instant::now();
            for q in &p.queries {
                let deadline = Deadline::after(per_query);
                let level1 = idx.candidates(q).into_ids(p.db.len());
                let mut c = 0usize;
                for gid in level1 {
                    if let Ok(FilterResult::Space(_)) = cfl.filter(q, p.db.graph(gid), deadline) {
                        c += 1;
                    }
                }
                cands.push(c);
            }
            FilterStats {
                precision: precision_of(&cands),
                avg_filter_ms: t0.elapsed().as_secs_f64() * 1e3 / p.queries.len().max(1) as f64,
            }
        });
        results.push(("vcGrapes", stats));
    }

    results
}

/// Computes Figures 8 and 9 in one pass (they share every measurement).
/// Returns `(fig8 tables, fig9 tables)`.
pub fn figs8_and_9(params: &ScaleParams, sweeps: &[Sweep]) -> (Vec<TextTable>, Vec<TextTable>) {
    const ENGINES: [&str; 4] = ["CFQL", "Grapes", "GGSX", "vcGrapes"];
    let mut out8 = Vec::new();
    let mut out9 = Vec::new();
    for sweep in sweeps {
        let mut header: Vec<&str> = vec![""];
        let values: Vec<String> = sweep.points.iter().map(|p| p.value.clone()).collect();
        header.extend(values.iter().map(String::as_str));
        let mut t8 =
            TextTable::new(format!("Figure 8: Filtering precision, vary {}", sweep.param), &header);
        let mut t9 =
            TextTable::new(format!("Figure 9: Filtering time (ms), vary {}", sweep.param), &header);
        let mut rows8: Vec<Vec<String>> = ENGINES.iter().map(|e| vec![e.to_string()]).collect();
        let mut rows9 = rows8.clone();
        for p in &sweep.points {
            eprintln!("[repro] figs 8/9: {} = {}", sweep.param, p.value);
            let stats = filter_sweep(params, p);
            for (r8, r9) in rows8.iter_mut().zip(rows9.iter_mut()) {
                let engine = r8[0].clone();
                let s = stats.iter().find(|(n, _)| *n == engine).and_then(|(_, s)| s.as_ref());
                r8.push(s.map_or("N/A".into(), |s| format!("{:.3}", s.precision)));
                r9.push(s.map_or("N/A".into(), |s| fmt_ms(s.avg_filter_ms)));
            }
        }
        for row in rows8 {
            t8.row(row);
        }
        for row in rows9 {
            t9.row(row);
        }
        out8.push(t8);
        out9.push(t9);
    }
    (out8, out9)
}

/// Figure 8: filtering precision on the synthetic sweeps (`Q8S`).
pub fn fig8(params: &ScaleParams, sweeps: &[Sweep]) -> Vec<TextTable> {
    figs8_and_9(params, sweeps).0
}

/// Figure 9: filtering time on the synthetic sweeps (`Q8S`, ms).
pub fn fig9(params: &ScaleParams, sweeps: &[Sweep]) -> Vec<TextTable> {
    figs8_and_9(params, sweeps).1
}
