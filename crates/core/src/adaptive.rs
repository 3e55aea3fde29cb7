//! Self-tuning adaptive engine routing from phase telemetry.
//!
//! No single engine dominates: the paper's own comparison has CFQL and the
//! index-based engines diverging by an order of magnitude depending on the
//! workload regime, and `BENCH_phases.json` shows distinct filter-dominated
//! vs verify-dominated regimes on our reproduction. This module closes the
//! loop that PR 5's observability layer opened: instead of a caller
//! hand-picking one of the 13 engines, [`AdaptiveEngine`] extracts a cheap
//! per-query feature vector ([`sqp_matching::features`]), predicts each
//! candidate engine's cost with a per-engine linear model over log-cost
//! space ([`CostModel`]), routes the query to the predicted-fastest engine,
//! and updates the model online from the outcome it actually observed.
//!
//! # Cost model
//!
//! One weight vector per candidate engine over the [`FEATURE_DIM`]-dim
//! feature vector; the prediction is `w · x` in **ln(nanoseconds)** — costs
//! span six orders of magnitude, so the model regresses log cost, and the
//! argmin over predictions picks the route (ties break to the lowest
//! candidate index, keeping routing deterministic).
//!
//! # Online updates and censoring
//!
//! Completed queries apply a clipped SGD step toward the observed log cost.
//! Timed-out and resource-exhausted routes are **censored**: the true cost
//! is only known to be *at least* the budget, so the update pushes the
//! prediction *up* toward `ln(budget)` when it was below the bound and is a
//! no-op when the model already predicted at or above it — a censored
//! observation can never make an engine look cheaper. Panicked/wedged
//! routes carry no usable cost at all and only count as mispredictions.
//!
//! # Determinism
//!
//! Cold-start weights are derived from the database fingerprint (pure
//! splitmix64), offline fitting is a closed-form ridge solve, and a
//! **frozen** model (loaded via `--model-in` or [`AdaptiveEngine::set_model`])
//! performs no updates at all — so routing decisions for a fixed model and
//! workload are byte-identical across runs and thread counts, which
//! `tests/oracle_equivalence.rs` asserts.

use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sqp_graph::{Graph, GraphDb};
use sqp_index::{BuildBudget, BuildError};
use sqp_matching::features::{extract, LabelHistogram, FEATURE_DIM};
use sqp_matching::{Matcher, ResourceLimits};

use crate::engine::{BuildReport, EngineCategory, QueryEngine, QueryOutcome, QueryStatus};
use crate::journal::db_fingerprint;
use crate::parallel::lock;

/// Default candidate engines: matcher-backed (vcFV) engines spanning the
/// filter-heavy / enumeration-heavy spectrum, so the same model file routes
/// both the sequential engine path and the pool/service matcher path.
pub const DEFAULT_CANDIDATES: [&str; 4] = ["CFQL", "GraphQL", "QuickSI", "Ullmann"];

/// SGD learning rate for online updates.
const LEARNING_RATE: f64 = 0.05;
/// Per-step clip on the prediction error (log-space), for stability.
const ERROR_CLIP: f64 = 4.0;
/// A completed route whose observed cost exceeds `MISPREDICT_FACTOR` × the
/// prediction counts as a misprediction (when above the noise floor).
const MISPREDICT_FACTOR: f64 = 4.0;
/// Observed costs below this (nanoseconds) never count as mispredictions —
/// sub-millisecond queries are routing-indifferent.
const MISPREDICT_FLOOR_NANOS: f64 = 1e6;
/// Ridge regularization for the offline fit.
const RIDGE_LAMBDA: f64 = 1e-3;

/// splitmix64: the deterministic cold-start weight source.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One observation for the offline fit: feature vector, observed cost in
/// ln(nanoseconds), and whether the observation is censored (the query hit
/// a budget, so the true cost is only bounded below by `ln_nanos`).
#[derive(Clone, Copy, Debug)]
pub struct FitSample {
    /// Feature vector ([`sqp_matching::QueryFeatures::to_vector`]).
    pub x: [f64; FEATURE_DIM],
    /// Observed (or censoring-bound) cost, ln(nanoseconds).
    pub ln_nanos: f64,
    /// Whether `ln_nanos` is a lower bound rather than an observation.
    pub censored: bool,
}

/// Per-engine linear cost models over the query feature vector.
#[derive(Clone, Debug, PartialEq)]
pub struct CostModel {
    seed: u64,
    names: Vec<String>,
    weights: Vec<[f64; FEATURE_DIM]>,
}

impl CostModel {
    /// A deterministic cold-start model: near-zero weights derived from
    /// `seed` (typically the database fingerprint), so untrained candidates
    /// tie-break reproducibly instead of by declaration order alone.
    pub fn cold_start(names: &[&str], seed: u64) -> Self {
        let mut weights = Vec::with_capacity(names.len());
        for (i, _) in names.iter().enumerate() {
            let mut w = [0.0; FEATURE_DIM];
            for (j, wj) in w.iter_mut().enumerate() {
                let r = splitmix64(seed ^ ((i * FEATURE_DIM + j) as u64).wrapping_mul(0x9e3b));
                // Uniform in [0, 1e-3): big enough to order ties, far too
                // small to survive a single real observation.
                *wj = (r >> 11) as f64 / (1u64 << 53) as f64 * 1e-3;
            }
            weights.push(w);
        }
        Self { seed, names: names.iter().map(|s| s.to_string()).collect(), weights }
    }

    /// Candidate engine names, in routing order.
    pub fn engine_names(&self) -> &[String] {
        &self.names
    }

    /// Number of candidate engines.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the model has no candidates.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The seed the model was cold-started from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Predicted cost of candidate `idx` on features `x`, ln(nanoseconds).
    pub fn predict(&self, idx: usize, x: &[f64; FEATURE_DIM]) -> f64 {
        self.weights[idx].iter().zip(x.iter()).map(|(w, v)| w * v).sum()
    }

    /// The candidate with the lowest predicted cost (ties and non-finite
    /// predictions resolve to the lowest index — deterministic).
    pub fn route(&self, x: &[f64; FEATURE_DIM]) -> usize {
        let mut best = 0usize;
        let mut best_cost = f64::INFINITY;
        for idx in 0..self.weights.len() {
            let c = self.predict(idx, x);
            if c.is_finite() && c < best_cost {
                best_cost = c;
                best = idx;
            }
        }
        best
    }

    /// One censored-aware SGD step on candidate `idx`: moves the prediction
    /// toward `observed_ln_nanos`. For a censored observation (timeout —
    /// the true cost is only known to be ≥ the bound) the step only ever
    /// *raises* the prediction: if the model already predicts at or above
    /// the bound, nothing is learned and nothing changes.
    pub fn update(
        &mut self,
        idx: usize,
        x: &[f64; FEATURE_DIM],
        observed_ln_nanos: f64,
        censored: bool,
    ) {
        if !observed_ln_nanos.is_finite() {
            return;
        }
        let err = self.predict(idx, x) - observed_ln_nanos;
        if censored && err >= 0.0 {
            return; // prediction already at/above the censoring bound
        }
        let step = LEARNING_RATE * err.clamp(-ERROR_CLIP, ERROR_CLIP);
        let w = &mut self.weights[idx];
        for (wj, xj) in w.iter_mut().zip(x.iter()) {
            *wj -= step * xj;
            if !wj.is_finite() {
                *wj = 0.0;
            }
        }
    }

    /// Offline fit of candidate `idx` from recorded phase-stat samples: a
    /// closed-form ridge least-squares solve (deterministic — no iteration
    /// order or randomness). Censored samples participate at their bound,
    /// which keeps budget-hitting engines expensive in the model; the
    /// online [`update`](CostModel::update) rule handles censoring exactly.
    pub fn fit(&mut self, idx: usize, samples: &[FitSample]) {
        if samples.is_empty() {
            return;
        }
        // Normal equations: (XᵀX + λI) w = Xᵀy.
        let mut a = [[0.0f64; FEATURE_DIM]; FEATURE_DIM];
        let mut b = [0.0f64; FEATURE_DIM];
        for s in samples {
            if !s.ln_nanos.is_finite() {
                continue;
            }
            for ((&xi, bi), row) in s.x.iter().zip(b.iter_mut()).zip(a.iter_mut()) {
                *bi += xi * s.ln_nanos;
                for (aij, &xj) in row.iter_mut().zip(&s.x) {
                    *aij += xi * xj;
                }
            }
        }
        for (i, row) in a.iter_mut().enumerate() {
            row[i] += RIDGE_LAMBDA;
        }
        if let Some(w) = solve(a, b) {
            self.weights[idx] = w;
        }
    }

    /// Serializes the model as JSON (hand-rolled; Rust's shortest
    /// round-trip float formatting makes [`from_json`](CostModel::from_json)
    /// reproduce the weights bit-exactly).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"version\": 1,\n");
        out.push_str(&format!("  \"seed\": \"{:016x}\",\n", self.seed));
        out.push_str(&format!("  \"dim\": {FEATURE_DIM},\n"));
        out.push_str("  \"engines\": [\n");
        for (i, (name, w)) in self.names.iter().zip(self.weights.iter()).enumerate() {
            let ws: Vec<String> =
                w.iter().map(|v| if v.is_finite() { format!("{v}") } else { "0".into() }).collect();
            out.push_str(&format!(
                "    {{ \"name\": \"{name}\", \"weights\": [{}] }}{}\n",
                ws.join(", "),
                if i + 1 < self.names.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a model file written by [`to_json`](CostModel::to_json). This
    /// is a strict reader of the model file format, not a general JSON
    /// parser (the same stance the run journal takes on its line format).
    pub fn from_json(text: &str) -> Result<Self, String> {
        // Engine names never contain whitespace, so the file can be
        // canonicalized by dropping all of it.
        let compact: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        let s = compact.as_str();
        let version = field(s, "\"version\":")?;
        if !version.starts_with("1,") && !version.starts_with("1}") {
            return Err("unsupported adaptive model version (want 1)".into());
        }
        let seed_hex = field(s, "\"seed\":\"")?;
        let seed_hex = seed_hex.split('"').next().unwrap_or("");
        let seed = u64::from_str_radix(seed_hex, 16)
            .map_err(|_| format!("bad model seed {seed_hex:?}"))?;
        let dim = field(s, "\"dim\":")?;
        let dim: usize = dim
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .map_err(|_| "bad model dim".to_string())?;
        if dim != FEATURE_DIM {
            return Err(format!("model dim {dim} != feature dim {FEATURE_DIM}"));
        }
        let mut names = Vec::new();
        let mut weights = Vec::new();
        for chunk in s.split("\"name\":\"").skip(1) {
            let name = chunk.split('"').next().unwrap_or("");
            if name.is_empty() {
                return Err("empty engine name in model".into());
            }
            let wtext = field(chunk, "\"weights\":[")?;
            let wtext = wtext.split(']').next().ok_or("unterminated weights array")?;
            let mut w = [0.0f64; FEATURE_DIM];
            let parsed: Vec<f64> = wtext
                .split(',')
                .map(|t| t.parse::<f64>().map_err(|_| format!("bad weight {t:?} for {name}")))
                .collect::<Result<_, _>>()?;
            if parsed.len() != FEATURE_DIM {
                return Err(format!(
                    "engine {name} has {} weights, want {FEATURE_DIM}",
                    parsed.len()
                ));
            }
            w.copy_from_slice(&parsed);
            names.push(name.to_string());
            weights.push(w);
        }
        if names.is_empty() {
            return Err("model has no engines".into());
        }
        Ok(Self { seed, names, weights })
    }
}

/// The text after the first occurrence of `key`.
fn field<'a>(s: &'a str, key: &str) -> Result<&'a str, String> {
    s.find(key).map(|i| &s[i + key.len()..]).ok_or_else(|| format!("model JSON missing {key}"))
}

/// Solves `A w = b` by Gaussian elimination with partial pivoting.
fn solve(
    mut a: [[f64; FEATURE_DIM]; FEATURE_DIM],
    mut b: [f64; FEATURE_DIM],
) -> Option<[f64; FEATURE_DIM]> {
    let n = FEATURE_DIM;
    for col in 0..n {
        let mut pivot = col;
        for row in col + 1..n {
            if a[row][col].abs() > a[pivot][col].abs() {
                pivot = row;
            }
        }
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        let (pivot_rows, rows) = a.split_at_mut(col + 1);
        let pivot_row = &pivot_rows[col];
        let (b_pivot, b_rows) = b.split_at_mut(col + 1);
        for (row, b_row) in rows.iter_mut().zip(b_rows.iter_mut()) {
            let f = row[col] / pivot_row[col];
            for (rk, &pk) in row[col..].iter_mut().zip(&pivot_row[col..]) {
                *rk -= f * pk;
            }
            *b_row -= f * b_pivot[col];
        }
    }
    let mut w = [0.0f64; FEATURE_DIM];
    for col in (0..n).rev() {
        let mut acc = b[col];
        for k in col + 1..n {
            acc -= a[col][k] * w[k];
        }
        w[col] = acc / a[col][col];
        if !w[col].is_finite() {
            return None;
        }
    }
    Some(w)
}

/// Routing telemetry, surfaced as the `sqp_adaptive_*` exposition families.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoutingStats {
    /// Queries routed to each candidate engine, in model order.
    pub routed: Vec<(String, u64)>,
    /// Routes that went wrong: censored/failed outcomes, plus completed
    /// routes whose observed cost exceeded the prediction by more than
    /// 4× (above a 1 ms noise floor).
    pub mispredicts: u64,
    /// Sum of predicted costs of the routed engines, nanoseconds.
    pub predicted_nanos: f64,
    /// Sum of observed costs of the routed engines, nanoseconds (censored
    /// routes contribute their budget — the known lower bound).
    pub actual_nanos: f64,
}

impl RoutingStats {
    fn for_names(names: &[String]) -> Self {
        Self { routed: names.iter().map(|n| (n.clone(), 0)).collect(), ..Default::default() }
    }

    /// Total routed queries.
    pub fn total_routed(&self) -> u64 {
        self.routed.iter().map(|(_, n)| n).sum()
    }

    /// Observed regret proxy: measured ÷ predicted wall time of the routed
    /// engines. 1.0 = perfectly calibrated, > 1 = the router is optimistic.
    /// 0.0 when nothing has been routed yet.
    pub fn observed_regret(&self) -> f64 {
        if self.predicted_nanos <= 0.0 || self.actual_nanos <= 0.0 {
            return 0.0;
        }
        self.actual_nanos / self.predicted_nanos
    }
}

/// Classifies an outcome for the model update.
enum Observation {
    /// Completed: a real cost observation.
    Exact(f64),
    /// Budget-censored (timeout / resource exhaustion): cost ≥ bound.
    Censored(f64),
    /// No usable cost signal (panic, wedge, shed, ...).
    None,
}

fn observe(outcome: &QueryOutcome, budget: Option<Duration>) -> Observation {
    let measured = outcome.query_time().as_nanos().max(1) as f64;
    match outcome.status {
        QueryStatus::Completed | QueryStatus::Quarantined => Observation::Exact(measured),
        QueryStatus::TimedOut | QueryStatus::ResourceExhausted { .. } => {
            let bound = budget.map_or(measured, |b| b.as_nanos().max(1) as f64);
            Observation::Censored(bound.max(measured.min(bound)))
        }
        _ => Observation::None,
    }
}

/// Checks a candidate list: non-empty, no self-reference, and every name a
/// matcher-backed (vcFV) engine — the only candidates that can serve both
/// the sequential engine path and the pool/service matcher path, keeping
/// model files portable between `sqp query` and `sqp serve`.
fn validate_candidates<S: AsRef<str>>(names: &[S]) -> Result<(), String> {
    if names.is_empty() {
        return Err("adaptive routing needs at least one candidate engine".into());
    }
    for n in names {
        let n = n.as_ref();
        if n.eq_ignore_ascii_case("adaptive") {
            return Err("adaptive cannot route to itself".into());
        }
        if crate::engines::matcher_by_name(n).is_none() {
            let matchers: Vec<&str> = crate::engines::engine_names()
                .filter(|name| crate::engines::matcher_by_name(name).is_some())
                .collect();
            return Err(format!(
                "adaptive candidate {n:?} is not a matcher-backed engine (choose from: {})",
                matchers.join(", ")
            ));
        }
    }
    Ok(())
}

struct AdaptiveState {
    model: CostModel,
    stats: RoutingStats,
    /// Queries served so far (drives the learning-mode warmup rotation).
    served: u64,
    /// Fingerprint-seeded rotation offset for the warmup round.
    warmup_offset: u64,
}

/// A meta-engine that routes each query to the candidate engine its cost
/// model predicts fastest. See the module docs for the model, the online
/// update rule, and the determinism contract.
///
/// Two modes:
/// * **learning** (cold start, the default): the first round of queries is
///   routed round-robin (each candidate observed once, rotation seeded by
///   the database fingerprint), then argmin-routing with online updates;
/// * **frozen** (after [`load_model`](AdaptiveEngine::load_model) /
///   [`set_model`](AdaptiveEngine::set_model)): pure argmin-routing, no
///   warmup, no updates — deterministic for a fixed model and workload.
pub struct AdaptiveEngine {
    names: Vec<String>,
    engines: Vec<Box<dyn QueryEngine>>,
    hist: Option<LabelHistogram>,
    budget: Option<Duration>,
    frozen: bool,
    preset: Option<CostModel>,
    state: Mutex<AdaptiveState>,
}

impl Default for AdaptiveEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl AdaptiveEngine {
    /// An adaptive engine over [`DEFAULT_CANDIDATES`] in learning mode.
    pub fn new() -> Self {
        match Self::with_candidates(&DEFAULT_CANDIDATES) {
            Ok(e) => e,
            // DEFAULT_CANDIDATES are registry names; this cannot fail.
            Err(e) => panic!("default adaptive candidates invalid: {e}"),
        }
    }

    /// An adaptive engine over an explicit candidate list (validated: every
    /// name must be a matcher-backed engine).
    pub fn with_candidates<S: AsRef<str>>(candidates: &[S]) -> Result<Self, String> {
        validate_candidates(candidates)?;
        let names: Vec<String> = candidates.iter().map(|s| s.as_ref().to_string()).collect();
        let placeholder =
            CostModel::cold_start(&names.iter().map(String::as_str).collect::<Vec<_>>(), 0);
        let stats = RoutingStats::for_names(&names);
        Ok(Self {
            names,
            engines: Vec::new(),
            hist: None,
            budget: None,
            frozen: false,
            preset: None,
            state: Mutex::new(AdaptiveState {
                model: placeholder,
                stats,
                served: 0,
                warmup_offset: 0,
            }),
        })
    }

    /// Installs a trained model and freezes routing: the candidate set
    /// becomes the model's engine list, no warmup runs, and no online
    /// updates are applied — routing is a pure function of (model, query).
    pub fn set_model(&mut self, model: CostModel) -> Result<(), String> {
        validate_candidates(model.engine_names())?;
        self.names = model.engine_names().to_vec();
        self.engines.clear(); // rebuilt against the new candidate set
        self.frozen = true;
        let stats = RoutingStats::for_names(&self.names);
        let mut st = lock(&self.state);
        st.stats = stats;
        st.served = 0;
        st.model = model.clone();
        drop(st);
        self.preset = Some(model);
        Ok(())
    }

    /// [`set_model`](AdaptiveEngine::set_model) from a `--model-in` JSON
    /// file written by [`model_json`](AdaptiveEngine::model_json).
    pub fn load_model(&mut self, json: &str) -> Result<(), String> {
        self.set_model(CostModel::from_json(json)?)
    }

    /// The current model (a snapshot — online updates do not track it).
    pub fn model(&self) -> CostModel {
        lock(&self.state).model.clone()
    }

    /// The current model serialized for `--model-out`.
    pub fn model_json(&self) -> String {
        lock(&self.state).model.to_json()
    }

    /// Whether the engine is in frozen (pure-routing) mode.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Candidate engine names, in routing order.
    pub fn candidate_names(&self) -> &[String] {
        &self.names
    }

    /// Routing telemetry since construction (or the last model install).
    pub fn routing_stats(&self) -> RoutingStats {
        lock(&self.state).stats.clone()
    }

    /// The pure routing decision for `q` under the current model — no
    /// warmup, no stats, no updates. This is what a frozen engine executes;
    /// tests and the overhead bench call it directly.
    ///
    /// # Panics
    /// Panics if called before a successful [`build`](QueryEngine::build).
    pub fn route_index(&self, q: &Graph) -> usize {
        let hist = match &self.hist {
            Some(h) => h,
            None => panic!("route before build"),
        };
        let x = extract(q, hist).to_vector();
        lock(&self.state).model.route(&x)
    }
}

impl QueryEngine for AdaptiveEngine {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn category(&self) -> EngineCategory {
        // Candidates are all matcher-backed vcFV engines.
        EngineCategory::VcFv
    }

    fn build(&mut self, db: &Arc<GraphDb>) -> Result<BuildReport, BuildError> {
        let mut report = BuildReport::default();
        self.engines.clear();
        for name in &self.names {
            let mut engine = match crate::engines::engine_by_name(name) {
                Some(e) => e,
                // Candidate lists are validated at construction.
                None => panic!("validated candidate {name} missing from registry"),
            };
            let r = engine.build(db)?;
            report.build_time += r.build_time;
            report.index_bytes += r.index_bytes;
            if let Some(b) = self.budget {
                engine.set_query_budget(Some(b));
            }
            self.engines.push(engine);
        }
        self.hist = Some(LabelHistogram::from_db(db));
        let fp = db_fingerprint(db);
        let mut st = lock(&self.state);
        st.warmup_offset = fp % self.names.len().max(1) as u64;
        if let Some(preset) = &self.preset {
            st.model = preset.clone();
        } else {
            let names: Vec<&str> = self.names.iter().map(String::as_str).collect();
            st.model = CostModel::cold_start(&names, fp);
        }
        Ok(report)
    }

    fn query(&self, q: &Graph) -> QueryOutcome {
        let hist = match &self.hist {
            Some(h) => h,
            // Documented precondition (QueryEngine::query): build first.
            None => panic!("query before build"),
        };
        let x = extract(q, hist).to_vector();
        let (idx, predicted_ln) = {
            let mut st = lock(&self.state);
            let n = st.model.len() as u64;
            let idx = if !self.frozen && st.served < n {
                // Learning-mode warmup: observe each candidate once, in a
                // fingerprint-seeded rotation.
                ((st.served + st.warmup_offset) % n) as usize
            } else {
                st.model.route(&x)
            };
            st.served += 1;
            (idx, st.model.predict(idx, &x))
        };
        let mut outcome = self.engines[idx].query(q);
        {
            let mut st = lock(&self.state);
            st.stats.routed[idx].1 += 1;
            let predicted_nanos = predicted_ln.clamp(0.0, 50.0).exp();
            match observe(&outcome, self.budget) {
                Observation::Exact(nanos) => {
                    st.stats.predicted_nanos += predicted_nanos;
                    st.stats.actual_nanos += nanos;
                    if nanos > MISPREDICT_FLOOR_NANOS && nanos > MISPREDICT_FACTOR * predicted_nanos
                    {
                        st.stats.mispredicts += 1;
                    }
                    if !self.frozen {
                        st.model.update(idx, &x, nanos.ln(), false);
                    }
                }
                Observation::Censored(bound) => {
                    st.stats.predicted_nanos += predicted_nanos;
                    st.stats.actual_nanos += bound;
                    st.stats.mispredicts += 1;
                    if !self.frozen {
                        st.model.update(idx, &x, bound.ln(), true);
                    }
                }
                Observation::None => {
                    st.stats.mispredicts += 1;
                }
            }
        }
        if outcome.engine.is_empty() {
            outcome.engine = self.names[idx].clone();
        }
        outcome
    }

    fn set_query_budget(&mut self, budget: Option<Duration>) {
        self.budget = budget;
        for e in &mut self.engines {
            e.set_query_budget(budget);
        }
    }

    fn set_resource_limits(&mut self, limits: ResourceLimits) {
        for e in &mut self.engines {
            e.set_resource_limits(limits);
        }
    }

    fn set_build_budget(&mut self, budget: BuildBudget) {
        for e in &mut self.engines {
            e.set_build_budget(budget);
        }
    }

    fn index_bytes(&self) -> usize {
        self.engines.iter().map(|e| e.index_bytes()).sum()
    }
}

/// The service-side face of adaptive routing: a frozen model plus the
/// candidate *matchers*, so `LocalExecutor` can pick a matcher per query
/// for the pool without touching engine objects. Always frozen — serving
/// determinism across thread counts requires routing to be a pure function
/// of (model, query).
pub struct MatcherRouter {
    names: Vec<String>,
    matchers: Vec<Arc<dyn Matcher>>,
    model: CostModel,
    hist: LabelHistogram,
    stats: Mutex<RoutingStats>,
}

impl fmt::Debug for MatcherRouter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MatcherRouter").field("candidates", &self.names).finish()
    }
}

impl MatcherRouter {
    /// A router over a trained (frozen) model for `db`. Every engine named
    /// by the model must resolve to a matcher.
    pub fn new(model: CostModel, db: &GraphDb) -> Result<Self, String> {
        validate_candidates(model.engine_names())?;
        let names = model.engine_names().to_vec();
        let matchers: Vec<Arc<dyn Matcher>> = names
            .iter()
            .map(|n| {
                crate::engines::matcher_by_name(n).ok_or_else(|| format!("no matcher named {n:?}"))
            })
            .collect::<Result<_, _>>()?;
        let stats = RoutingStats::for_names(&names);
        Ok(Self {
            names,
            matchers,
            model,
            hist: LabelHistogram::from_db(db),
            stats: Mutex::new(stats),
        })
    }

    /// A router with a fingerprint-seeded cold-start model (for `sqp serve`
    /// without `--model-in`).
    pub fn cold_start<S: AsRef<str>>(db: &GraphDb, candidates: &[S]) -> Result<Self, String> {
        validate_candidates(candidates)?;
        let names: Vec<&str> = candidates.iter().map(AsRef::as_ref).collect();
        let model = CostModel::cold_start(&names, db_fingerprint(db));
        Self::new(model, db)
    }

    /// Routes `q`: returns the candidate index and the predicted cost in
    /// ln(nanoseconds). Pure — stats are only touched by
    /// [`note`](MatcherRouter::note).
    pub fn route(&self, q: &Graph) -> (usize, f64) {
        let x = extract(q, &self.hist).to_vector();
        let idx = self.model.route(&x);
        (idx, self.model.predict(idx, &x))
    }

    /// The matcher for candidate `idx`.
    pub fn matcher(&self, idx: usize) -> Arc<dyn Matcher> {
        Arc::clone(&self.matchers[idx])
    }

    /// The engine name for candidate `idx`.
    pub fn name(&self, idx: usize) -> &str {
        &self.names[idx]
    }

    /// Records the observed outcome of a routed query into the stats (the
    /// model itself stays frozen).
    pub fn note(
        &self,
        idx: usize,
        predicted_ln: f64,
        outcome: &QueryOutcome,
        budget: Option<Duration>,
    ) {
        let mut stats = lock(&self.stats);
        stats.routed[idx].1 += 1;
        let predicted_nanos = predicted_ln.clamp(0.0, 50.0).exp();
        match observe(outcome, budget) {
            Observation::Exact(nanos) => {
                stats.predicted_nanos += predicted_nanos;
                stats.actual_nanos += nanos;
                if nanos > MISPREDICT_FLOOR_NANOS && nanos > MISPREDICT_FACTOR * predicted_nanos {
                    stats.mispredicts += 1;
                }
            }
            Observation::Censored(bound) => {
                stats.predicted_nanos += predicted_nanos;
                stats.actual_nanos += bound;
                stats.mispredicts += 1;
            }
            Observation::None => {
                stats.mispredicts += 1;
            }
        }
    }

    /// Routing telemetry snapshot.
    pub fn stats(&self) -> RoutingStats {
        lock(&self.stats).clone()
    }

    /// The frozen model.
    pub fn model(&self) -> &CostModel {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::CfqlEngine;
    use sqp_graph::{GraphBuilder, Label, VertexId};

    fn labeled(labels: &[u32], edges: &[(u32, u32)]) -> Graph {
        let mut b = GraphBuilder::new();
        for &l in labels {
            b.add_vertex(Label(l));
        }
        for &(u, v) in edges {
            b.add_edge(VertexId(u), VertexId(v)).unwrap();
        }
        b.build()
    }

    fn small_db() -> Arc<GraphDb> {
        Arc::new(GraphDb::from_graphs(vec![
            labeled(&[0, 1, 2], &[(0, 1), (1, 2), (2, 0)]),
            labeled(&[0, 1, 2], &[(0, 1), (1, 2)]),
            labeled(&[3, 3], &[(0, 1)]),
        ]))
    }

    fn x_of(v: f64) -> [f64; FEATURE_DIM] {
        let mut x = [0.0; FEATURE_DIM];
        x[0] = 1.0;
        x[1] = v;
        x
    }

    #[test]
    fn cold_start_is_deterministic_and_tiny() {
        let a = CostModel::cold_start(&["A", "B"], 42);
        let b = CostModel::cold_start(&["A", "B"], 42);
        let c = CostModel::cold_start(&["A", "B"], 43);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds must give different tie-breaks");
        for idx in 0..2 {
            let p = a.predict(idx, &x_of(1.0));
            assert!(p.abs() < 0.1, "cold-start predictions must be near zero, got {p}");
        }
    }

    #[test]
    fn route_is_argmin_with_low_index_ties() {
        let mut m = CostModel::cold_start(&["A", "B", "C"], 0);
        m.weights[0] = [0.0; FEATURE_DIM];
        m.weights[1] = [0.0; FEATURE_DIM];
        m.weights[2] = [0.0; FEATURE_DIM];
        assert_eq!(m.route(&x_of(1.0)), 0, "exact ties resolve to the lowest index");
        m.weights[2][0] = -5.0;
        assert_eq!(m.route(&x_of(1.0)), 2);
    }

    #[test]
    fn update_moves_prediction_toward_observation() {
        let mut m = CostModel::cold_start(&["A"], 7);
        let x = x_of(2.0);
        let target = 14.0; // ln(~1.2ms)
        for _ in 0..500 {
            m.update(0, &x, target, false);
        }
        assert!((m.predict(0, &x) - target).abs() < 0.5);
    }

    #[test]
    fn censored_update_never_lowers_the_prediction() {
        let mut m = CostModel::cold_start(&["A"], 7);
        let x = x_of(1.0);
        // Drive the prediction well above the censoring bound...
        for _ in 0..500 {
            m.update(0, &x, 20.0, false);
        }
        let before = m.predict(0, &x);
        // ...then a censored observation at a lower bound must be a no-op.
        m.update(0, &x, 10.0, true);
        assert_eq!(m.predict(0, &x), before);
        // But a censored bound *above* the prediction pushes it up.
        m.update(0, &x, 30.0, true);
        assert!(m.predict(0, &x) > before);
    }

    #[test]
    fn fit_recovers_a_linear_cost_surface() {
        let mut m = CostModel::cold_start(&["A"], 1);
        // True model: cost = 3 + 2·x1.
        let samples: Vec<FitSample> = (0..20)
            .map(|i| {
                let v = i as f64 / 4.0;
                FitSample { x: x_of(v), ln_nanos: 3.0 + 2.0 * v, censored: false }
            })
            .collect();
        m.fit(0, &samples);
        for i in 0..6 {
            let v = i as f64 / 2.0;
            // Ridge shrinkage (λ = 1e-3) biases the exact solution slightly.
            assert!((m.predict(0, &x_of(v)) - (3.0 + 2.0 * v)).abs() < 1e-2);
        }
    }

    #[test]
    fn json_round_trips_bit_exactly() {
        let mut m = CostModel::cold_start(&["CFQL", "GraphQL"], 0xdead_beef);
        m.update(0, &x_of(1.5), 13.7, false);
        m.update(1, &x_of(0.5), 9.1, true);
        let text = m.to_json();
        let back = CostModel::from_json(&text).unwrap();
        assert_eq!(m, back);
        assert_eq!(text, back.to_json());
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(CostModel::from_json("").is_err());
        assert!(CostModel::from_json("{}").is_err());
        assert!(CostModel::from_json("{\"version\": 2}").is_err());
        let wrong_dim = "{\"version\": 1, \"seed\": \"0\", \"dim\": 3, \"engines\": []}";
        assert!(CostModel::from_json(wrong_dim).is_err());
        let no_engines =
            format!("{{\"version\": 1, \"seed\": \"0\", \"dim\": {FEATURE_DIM}, \"engines\": []}}");
        assert!(CostModel::from_json(&no_engines).is_err());
    }

    #[test]
    fn candidate_validation() {
        assert!(validate_candidates::<&str>(&[]).is_err());
        assert!(validate_candidates(&["adaptive"]).is_err());
        assert!(validate_candidates(&["Grapes"]).is_err(), "IFV engines are not routable");
        assert!(validate_candidates(&["no-such-engine"]).is_err());
        assert!(validate_candidates(&DEFAULT_CANDIDATES).is_ok());
    }

    #[test]
    fn adaptive_answers_match_a_fixed_engine() {
        let db = small_db();
        let queries = [labeled(&[0, 1], &[(0, 1)]), labeled(&[0, 1, 2], &[(0, 1), (1, 2), (2, 0)])];
        let mut adaptive = AdaptiveEngine::new();
        adaptive.build(&db).unwrap();
        let mut cfql = CfqlEngine::new();
        cfql.build(&db).unwrap();
        for q in &queries {
            let a = adaptive.query(q);
            let c = cfql.query(q);
            assert_eq!(a.answers, c.answers);
            assert!(a.status.is_completed());
            assert!(
                DEFAULT_CANDIDATES.contains(&a.engine.as_str()),
                "outcome must name the routed engine, got {:?}",
                a.engine
            );
        }
        let stats = adaptive.routing_stats();
        assert_eq!(stats.total_routed(), 2);
    }

    #[test]
    fn learning_warmup_observes_each_candidate_once() {
        let db = small_db();
        let q = labeled(&[0, 1], &[(0, 1)]);
        let mut adaptive = AdaptiveEngine::new();
        adaptive.build(&db).unwrap();
        for _ in 0..DEFAULT_CANDIDATES.len() {
            adaptive.query(&q);
        }
        let stats = adaptive.routing_stats();
        for (name, n) in &stats.routed {
            assert_eq!(*n, 1, "warmup must route {name} exactly once: {stats:?}");
        }
    }

    #[test]
    fn frozen_engine_routes_purely_and_never_updates() {
        let db = small_db();
        let q = labeled(&[0, 1], &[(0, 1)]);
        let mut adaptive = AdaptiveEngine::new();
        let model = CostModel::cold_start(&["CFQL", "GraphQL"], 99);
        adaptive.set_model(model.clone()).unwrap();
        adaptive.build(&db).unwrap();
        assert!(adaptive.is_frozen());
        let expected = adaptive.route_index(&q);
        for _ in 0..5 {
            let out = adaptive.query(&q);
            assert_eq!(out.engine, adaptive.candidate_names()[expected]);
        }
        assert_eq!(adaptive.model(), model, "frozen mode must not update the model");
        assert_eq!(adaptive.routing_stats().routed[expected].1, 5);
    }

    #[test]
    fn model_persistence_reproduces_routing() {
        let db = small_db();
        let queries: Vec<Graph> = (0..6)
            .map(|i| {
                if i % 2 == 0 {
                    labeled(&[0, 1], &[(0, 1)])
                } else {
                    labeled(&[0, 1, 2], &[(0, 1), (1, 2), (2, 0)])
                }
            })
            .collect();
        // Learn on the workload, export, re-import: identical decisions.
        let mut learner = AdaptiveEngine::new();
        learner.build(&db).unwrap();
        for q in &queries {
            learner.query(q);
        }
        let json = learner.model_json();

        let mut a = AdaptiveEngine::new();
        a.load_model(&json).unwrap();
        a.build(&db).unwrap();
        let mut b = AdaptiveEngine::new();
        b.load_model(&json).unwrap();
        b.build(&db).unwrap();
        for q in &queries {
            assert_eq!(a.route_index(q), b.route_index(q));
        }
    }

    #[test]
    fn matcher_router_routes_and_notes() {
        let db = small_db();
        let q = labeled(&[0, 1], &[(0, 1)]);
        let router = MatcherRouter::cold_start(&db, &DEFAULT_CANDIDATES).unwrap();
        let (idx, predicted) = router.route(&q);
        assert!(idx < DEFAULT_CANDIDATES.len());
        let (idx2, _) = router.route(&q);
        assert_eq!(idx, idx2, "frozen routing is deterministic");
        let outcome = QueryOutcome { filter_time: Duration::from_micros(10), ..Default::default() };
        router.note(idx, predicted, &outcome, None);
        let stats = router.stats();
        assert_eq!(stats.routed[idx].1, 1);
        assert_eq!(stats.total_routed(), 1);
    }

    #[test]
    fn router_requires_matcher_backed_candidates() {
        let db = small_db();
        assert!(MatcherRouter::cold_start(&db, &["Grapes"]).is_err());
    }
}
