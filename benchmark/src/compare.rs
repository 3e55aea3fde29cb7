//! `compare <a.json> <b.json>`: per (end-to-end metric, workload) row, is
//! `b` better, the same, worse or unresolved against `a`, by the bound
//! `BENCHMARK.json` fixes for that metric.

use crate::json::Json;
use crate::spec::Better;
use crate::stats;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// A side's own run-to-run spread exceeds the bound, so a difference of
    /// that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub base: f64,
    pub new: f64,
    /// `new / base`.
    pub ratio: f64,
    pub bound: f64,
    /// Interquartile spread ÷ median of each side (`None` with one run).
    pub spread: (Option<f64>, Option<f64>),
    pub verdict: Verdict,
}

/// Judges one row from each side's per-run values.
pub fn judge(base: &[f64], new: &[f64], better: Better, bound: f64) -> Option<(f64, f64, Verdict)> {
    let (a, b) = (stats::median(base)?, stats::median(new)?);
    // How much worse `b` is than `a`, as a share of `a`; negative = better.
    let worse_by = match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    };
    let noisy =
        [base, new].iter().any(|side| stats::quartile_spread(side).is_some_and(|s| s > bound));
    let verdict = if noisy {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    Some((a, b, verdict))
}

/// `result["workloads"][workload]["runs"][*]["metrics"][metric]["value"]`.
fn run_values(result: &Json, workload: &str, metric: &str) -> Vec<f64> {
    result
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("runs"))
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Every (workload, end-to-end metric) row both files hold, in the order
/// `manifest` (the parsed `BENCHMARK.json`) lists them.
pub fn compare(manifest: &Json, base: &Json, new: &Json) -> Result<Vec<Row>, String> {
    let list = |key: &str| {
        manifest.get(key).and_then(Json::as_arr).ok_or_else(|| format!("BENCHMARK.json: no {key}"))
    };
    let mut rows = Vec::new();
    for w in list("workloads")? {
        let workload = w.get("name").and_then(Json::as_str).ok_or("workload without a name")?;
        for m in list("end_to_end")? {
            let field = |key: &str| {
                m.get(key).and_then(Json::as_str).ok_or_else(|| format!("metric without {key}"))
            };
            let (metric, unit) = (field("name")?, field("unit")?);
            let better = match field("better")? {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("{metric}: better = {other:?}")),
            };
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{metric}: no bound"))?;
            let (a, b) = (run_values(base, workload, metric), run_values(new, workload, metric));
            if let Some((base_med, new_med, verdict)) = judge(&a, &b, better, bound) {
                rows.push(Row {
                    workload: workload.to_string(),
                    metric: metric.to_string(),
                    unit: unit.to_string(),
                    base: base_med,
                    new: new_med,
                    ratio: new_med / base_med,
                    bound,
                    spread: (stats::quartile_spread(&a), stats::quartile_spread(&b)),
                    verdict,
                });
            }
        }
    }
    if rows.is_empty() {
        return Err("the two files share no (workload, metric) row".into());
    }
    Ok(rows)
}

pub fn render(rows: &[Row]) -> String {
    let pct = |s: Option<f64>| s.map_or("    -".to_string(), |s| format!("{:5.1}", s * 100.0));
    let mut out = format!(
        "{:<14} {:<14} {:>12} {:>12} {:>7} {:>6} {:>6} {:>6}  verdict\n",
        "workload", "metric", "base", "new", "ratio", "bound%", "iqr_a%", "iqr_b%"
    );
    for r in rows {
        out += &format!(
            "{:<14} {:<14} {:>12.4} {:>12.4} {:>7.3} {:>6.1} {:>6} {:>6}  {} [{}]\n",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.ratio,
            r.bound * 100.0,
            pct(r.spread.0),
            pct(r.spread.1),
            r.verdict.label(),
            r.unit,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let v = |base: &[f64], new: &[f64], better| judge(base, new, better, 0.10).unwrap().2;
        // Lower is better: +5 % same, +15 % worse, -15 % better.
        assert_eq!(v(&[100.0], &[105.0], Better::Lower), Verdict::Same);
        assert_eq!(v(&[100.0], &[115.0], Better::Lower), Verdict::Worse);
        assert_eq!(v(&[100.0], &[85.0], Better::Lower), Verdict::Better);
        // Higher is better: the same numbers flip.
        assert_eq!(v(&[100.0], &[115.0], Better::Higher), Verdict::Better);
        assert_eq!(v(&[100.0], &[85.0], Better::Higher), Verdict::Worse);
        // Exactly on the bound is not beyond it.
        assert_eq!(v(&[100.0], &[110.0], Better::Lower), Verdict::Same);
        assert!(judge(&[], &[1.0], Better::Lower, 0.1).is_none());
    }

    #[test]
    fn noisy_sides_are_unresolved_not_unchanged() {
        let tight = [100.0, 101.0, 99.0, 100.5, 99.5];
        let loose = [100.0, 130.0, 70.0, 120.0, 80.0];
        let v = |a: &[f64], b: &[f64]| judge(a, b, Better::Lower, 0.10).unwrap().2;
        assert_eq!(v(&tight, &tight), Verdict::Same);
        assert_eq!(v(&tight, &loose), Verdict::Unresolved);
        assert_eq!(v(&loose, &tight), Verdict::Unresolved);
        let worse: Vec<f64> = tight.iter().map(|x| x * 1.2).collect();
        assert_eq!(v(&tight, &worse), Verdict::Worse);
    }

    #[test]
    fn compares_result_files_row_by_row() {
        let manifest = json::parse(
            r#"{"workloads": [{"name": "w1", "why": ""}, {"name": "w2", "why": ""}],
                "end_to_end": [
                  {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.1},
                  {"name": "p50", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let file = |qps: f64, p50: f64| {
            json::parse(&format!(
                r#"{{"workloads": {{"w1": {{"runs": [
                    {{"metrics": {{"qps": {{"value": {qps}, "unit": "1/s"}},
                                   "p50": {{"value": {p50}, "unit": "ms"}}}}}}]}}}}}}"#
            ))
            .unwrap()
        };
        let rows = compare(&manifest, &file(100.0, 10.0), &file(80.0, 10.2)).unwrap();
        // w2 is in neither file and yields no row.
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].metric.as_str(), rows[0].verdict), ("qps", Verdict::Worse));
        assert!((rows[0].ratio - 0.8).abs() < 1e-12);
        assert_eq!((rows[1].metric.as_str(), rows[1].verdict), ("p50", Verdict::Same));
        assert!(render(&rows).contains("worse"));
        assert!(compare(&manifest, &Json::obj::<&str>([]), &file(1.0, 1.0)).is_err());
    }
}
