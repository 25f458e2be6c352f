//! What the benchmark reads from the host: peak RSS, the file system
//! under the data directory, and scratch directories that remove
//! themselves.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// `VmHWM` of this process in MiB (Linux; 0 where `/proc` is absent).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

/// File-system type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`); `"unknown"` when it cannot be told.
pub fn fs_kind(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_dev, mount, kind) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then_some((mount.len(), kind))
        })
        .max_by_key(|&(len, _)| len)
        .map(|(_, kind)| kind.to_string())
        .unwrap_or_else(|| "unknown".into())
}

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

/// A fresh directory under the data dir, removed (with everything in
/// it) on drop — so WAL and tenant directories disappear on every exit
/// path that unwinds, errors included.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(base: &Path, label: &str) -> Result<Self, String> {
        let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
        let path = base.join(format!("{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
