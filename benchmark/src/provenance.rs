//! The stamp on every result file: enough about the machine and the build to
//! explain a number after the fact (a flat thread matrix on a one-core
//! container, a SIMD kernel that never dispatched, a dirty tree).

use std::path::Path;
use std::process::Command;

use crate::json::Json;

/// Trimmed stdout of a command, or `None` if it is missing or fails.
fn stdout_of(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program).args(args).current_dir(dir).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

fn simd_features() -> Vec<Json> {
    let mut found: Vec<&str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, present) in [
            ("sse2", std::is_x86_feature_detected!("sse2")),
            ("ssse3", std::is_x86_feature_detected!("ssse3")),
            ("sse4.2", std::is_x86_feature_detected!("sse4.2")),
            ("avx2", std::is_x86_feature_detected!("avx2")),
            ("avx512f", std::is_x86_feature_detected!("avx512f")),
        ] {
            if present {
                found.push(name);
            }
        }
    }
    found.into_iter().map(Json::str).collect()
}

pub fn stamp() -> Json {
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = |s: Option<String>| s.map_or(Json::Null, Json::Str);
    let git_rev = stdout_of("git", &["rev-parse", "HEAD"], crate_dir);
    let dirty = stdout_of("git", &["status", "--porcelain"], crate_dir).map(|s| !s.is_empty());
    let unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    Json::obj([
        ("nproc", Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64)),
        ("cpu_model", text(cpu_model())),
        ("simd_detected", Json::Arr(simd_features())),
        // What the intersection kernels will actually dispatch to.
        ("simd_kernel_available", Json::Bool(sqp_graph::simd::available())),
        ("rustc", text(stdout_of("rustc", &["-V"], crate_dir))),
        ("git_rev", text(git_rev)),
        ("git_dirty", dirty.map_or(Json::Null, Json::Bool)),
        ("os", Json::str(std::env::consts::OS)),
        ("arch", Json::str(std::env::consts::ARCH)),
        ("unix_time_s", Json::Num(unix_s as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_names_the_machine_and_the_build() {
        let s = stamp();
        assert!(s.get("nproc").and_then(Json::as_f64).is_some_and(|n| n >= 1.0));
        for key in ["cpu_model", "simd_detected", "rustc", "git_rev", "git_dirty"] {
            assert!(s.get(key).is_some(), "stamp lacks {key}");
        }
        // A missing tool degrades to null, never to a failure.
        assert_eq!(stdout_of("definitely-not-a-program", &[], Path::new(".")), None);
    }
}
