//! Host metadata printed with the repo benchmark's results.
//!
//! Throughput numbers from a 1-core CI container and an 8-core
//! workstation are not comparable; a run carries the logical core
//! count, the compiler that built the binary, the commit, and an
//! ISO-8601 timestamp when the harness passes one (the benchmark itself
//! should not trust the container clock), so every number is
//! attributable to the machine that produced it. `benchmark/` is the
//! only caller.

use serde::{Deserialize, Serialize};

/// Where a benchmark artifact was produced.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostMeta {
    /// Logical cores the host exposes (bounds any parallel speedup).
    pub cores: usize,
    /// `rustc --version` of the toolchain on the host, or `"unknown"`
    /// when the compiler is not on the bench host's PATH.
    pub rustc: String,
    /// ISO-8601 timestamp passed in by the harness; `None` when the run
    /// was not stamped.
    pub stamped_at: Option<String>,
    /// Abbreviated git commit the benched tree was at, with a `-dirty`
    /// suffix when the working tree had local changes; `"unknown"` when
    /// neither git nor the `BENCH_COMMIT` variable can say.
    pub commit: String,
}

fn unknown_commit() -> String {
    "unknown".into()
}

impl HostMeta {
    /// Capture the current host, stamped with `stamp` when given (the
    /// harness passes an ISO-8601 timestamp; `BENCH_STAMP` in the
    /// environment is the fallback).
    pub fn capture(stamp: Option<String>) -> Self {
        HostMeta {
            cores: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            rustc: rustc_version().unwrap_or_else(|| "unknown".into()),
            stamped_at: stamp.or_else(|| std::env::var("BENCH_STAMP").ok()),
            commit: std::env::var("BENCH_COMMIT")
                .ok()
                .filter(|c| !c.is_empty())
                .or_else(git_commit)
                .unwrap_or_else(unknown_commit),
        }
    }

    /// Render as a one-line table footer.
    pub fn render(&self) -> String {
        format!(
            "host: {} cores, {}, commit {}{}",
            self.cores,
            self.rustc,
            self.commit,
            match &self.stamped_at {
                Some(stamp) => format!(", {stamp}"),
                None => String::new(),
            }
        )
    }
}

/// `git rev-parse --short=12 HEAD`, suffixed `-dirty` when the working
/// tree differs from HEAD. `None` when git is absent or this is not a
/// repository.
fn git_commit() -> Option<String> {
    let head = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()?;
    if !head.status.success() {
        return None;
    }
    let mut commit = String::from_utf8(head.stdout).ok()?.trim().to_string();
    if commit.is_empty() {
        return None;
    }
    let dirty = std::process::Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| !out.stdout.is_empty())
        .unwrap_or(false);
    if dirty {
        commit.push_str("-dirty");
    }
    Some(commit)
}

fn rustc_version() -> Option<String> {
    let out = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let version = String::from_utf8(out.stdout).ok()?;
    let version = version.trim();
    (!version.is_empty()).then(|| version.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_reports_at_least_one_core() {
        let meta = HostMeta::capture(Some("2026-08-07T00:00:00Z".into()));
        assert!(meta.cores >= 1);
        assert!(!meta.rustc.is_empty());
        assert_eq!(meta.stamped_at.as_deref(), Some("2026-08-07T00:00:00Z"));
        assert!(!meta.commit.is_empty());
    }

    #[test]
    fn roundtrips_through_serde() {
        let meta = HostMeta {
            cores: 4,
            rustc: "rustc 1.95.0".into(),
            stamped_at: None,
            commit: "abc123def456-dirty".into(),
        };
        let json = serde_json::to_string(&meta).unwrap();
        let back: HostMeta = serde_json::from_str(&json).unwrap();
        assert_eq!(back, meta);
    }

    #[test]
    fn render_mentions_cores_and_compiler() {
        let meta = HostMeta {
            cores: 2,
            rustc: "rustc 1.95.0".into(),
            stamped_at: Some("2026-08-07T12:00:00Z".into()),
            commit: "abc123def456".into(),
        };
        let line = meta.render();
        assert!(line.contains("2 cores"));
        assert!(line.contains("commit abc123def456"));
        assert!(line.contains("1.95.0"));
        assert!(line.contains("2026-08-07"));
    }
}
