//! Host facts recorded with every result, peak memory, and the
//! benchmark's own scratch space inside the checkout.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// `nproc`, cgroup CPU quota, rustc version, commit and the
/// filesystem type of `dir`, as one `key=value` line.
pub fn facts(dir: &Path) -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let quota = cpu_quota().unwrap_or_else(|| "unknown".into());
    format!(
        "host nproc={nproc} cpu_quota={quota} rustc=\"{}\" commit={} scratch_fs={}",
        rustc_version(),
        git_commit(),
        fs_type(dir).unwrap_or_else(|| "unknown".into())
    )
}

/// The cgroup CPU quota as `quota/period` microseconds (`max` = no
/// quota), from cgroup v2 or, failing that, v1.
fn cpu_quota() -> Option<String> {
    if let Ok(s) = std::fs::read_to_string("/sys/fs/cgroup/cpu.max") {
        return Some(s.trim().replace(' ', "/"));
    }
    let read = |f: &str| std::fs::read_to_string(format!("/sys/fs/cgroup/cpu/{f}")).ok();
    let quota = read("cpu.cfs_quota_us")?;
    let period = read("cpu.cfs_period_us")?;
    let quota = quota.trim();
    Some(if quota == "-1" {
        format!("max/{}", period.trim())
    } else {
        format!("{quota}/{}", period.trim())
    })
}

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of a `.git` directory in the working directory, read
/// from its files (no `git` process, which would search parent
/// directories). Checkouts without `.git` report `unknown`.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .ok()
            .or_else(|| packed_ref(r))
            .unwrap_or_else(|| "unknown".into()),
    }
}

fn packed_ref(name: &str) -> Option<String> {
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (sha, r) = l.split_once(' ')?;
        (r == name).then(|| sha.to_string())
    })
}

/// Filesystem type of the mount holding `dir` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
pub fn fs_type(dir: &Path) -> Option<String> {
    let dir = dir.canonicalize().ok()?;
    let info = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    info.lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split(' ').collect();
            let mount = fields.get(4)?;
            let sep = fields.iter().position(|&f| f == "-")?;
            let fstype = fields.get(sep + 1)?;
            dir.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, t)| t)
}

/// A directory the benchmark creates inside its build output space
/// (`$CARGO_TARGET_DIR`, else `target/`) and removes when dropped.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates a fresh, empty directory tagged `tag`.
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let root = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target"));
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        let path = root
            .join("perfsuite-scratch")
            .join(format!("{tag}-{}-{nanos}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            // Only succeeds once the last concurrent run is gone.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dir_is_created_and_removed() {
        let path = {
            let d = ScratchDir::new("unit").unwrap();
            assert!(d.path().is_dir());
            std::fs::write(d.path().join("f"), b"x").unwrap();
            d.path().to_path_buf()
        };
        assert!(!path.exists());
    }

    #[test]
    fn facts_name_every_field() {
        let d = ScratchDir::new("facts").unwrap();
        let line = facts(d.path());
        for key in ["nproc=", "cpu_quota=", "rustc=", "commit=", "scratch_fs="] {
            assert!(line.contains(key), "{line}");
        }
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
