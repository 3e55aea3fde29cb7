//! Committed default-seed checksums (`goldens.json`).
//!
//! A golden pins *answers for given inputs*. If the inputs' own fingerprint
//! no longer matches (a data generator changed), the golden cannot judge the
//! answers and says so instead of failing; the oracle gates still apply.

use crate::harness::{Report, RunConfig};
use crate::json::{self, Json};
use crate::spec::DEFAULT_SEED;

const GOLDENS: &str = include_str!("../goldens.json");

fn lookup(workload: &str) -> Option<(u64, u64)> {
    let doc = json::parse(GOLDENS).ok()?;
    let entry = doc.get("workloads")?.get(workload)?;
    let hex = |key| u64::from_str_radix(entry.get(key)?.as_str()?, 16).ok();
    Some((hex("inputs")?, hex("answers")?))
}

/// Compares a full-size default-seed run against its golden.
pub fn gate(report: &mut Report, cfg: &RunConfig, workload: &str, inputs_fp: u64, answers_fp: u64) {
    if cfg.seed != DEFAULT_SEED || cfg.smoke {
        return;
    }
    let verdict = match lookup(workload) {
        None => {
            report.fail(1, format!("no golden committed for {workload}"));
            "missing"
        }
        Some((inputs, _)) if inputs != inputs_fp => "inputs changed; golden not applicable",
        Some((_, answers)) if answers != answers_fp => {
            report.fail(
                1,
                format!("answers checksum {answers_fp:016x} differs from golden {answers:016x}"),
            );
            "mismatch"
        }
        Some(_) => "match",
    };
    report.detail("golden", Json::str(verdict));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn every_workload_has_a_golden() {
        for (name, _) in WORKLOADS {
            assert!(lookup(name).is_some(), "goldens.json lacks {name}");
        }
    }

    #[test]
    fn gate_only_judges_full_default_seed_runs() {
        let cfg = RunConfig { seed: DEFAULT_SEED, seconds: 1.0, trace: false, smoke: false };
        let (inputs, answers) = lookup("aids_cfql").unwrap();

        let mut ok = Report::default();
        gate(&mut ok, &cfg, "aids_cfql", inputs, answers);
        assert_eq!(ok.failed, 0);

        let mut wrong = Report::default();
        gate(&mut wrong, &cfg, "aids_cfql", inputs, answers ^ 1);
        assert_eq!(wrong.failed, 1);

        let mut moved = Report::default();
        gate(&mut moved, &cfg, "aids_cfql", inputs ^ 1, answers ^ 1);
        assert_eq!(moved.failed, 0, "changed inputs make the golden inapplicable, not wrong");

        let mut other_seed = Report::default();
        gate(&mut other_seed, &RunConfig { seed: 7, ..cfg }, "aids_cfql", 0, 0);
        assert_eq!(other_seed.failed, 0);
        assert!(other_seed.detail.is_empty());
    }
}
