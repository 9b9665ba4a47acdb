//! What produced a number: resolved when the benchmark runs, not when it
//! was compiled, so a result can never claim an older commit.

use std::path::Path;
use std::process::Command;

pub struct Provenance {
    /// `None` when the working directory is not a git checkout.
    pub git_sha: Option<String>,
    pub git_dirty: Option<bool>,
    pub nproc: usize,
    pub rustc: String,
    pub seed: u64,
    pub jobs: usize,
    pub workload: String,
}

/// Run git against `./.git` only: never a repository above the working
/// directory.
fn git(args: &[&str]) -> Option<String> {
    if !Path::new(".git").exists() {
        return None;
    }
    let out = Command::new("git")
        .args(["--git-dir=.git", "--work-tree=."])
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Provenance {
    pub fn collect(workload: &str, seed: u64, jobs: usize) -> Provenance {
        let git_sha = git(&["rev-parse", "HEAD"]);
        let git_dirty = git_sha
            .as_ref()
            .and_then(|_| git(&["status", "--porcelain", "--untracked-files=no"]))
            .map(|s| !s.is_empty());
        let rustc = Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Provenance {
            git_sha,
            git_dirty,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc,
            seed,
            jobs,
            workload: workload.to_string(),
        }
    }

    pub fn to_json(&self) -> String {
        let opt = |v: Option<String>| v.unwrap_or_else(|| "null".to_string());
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"jobs\":{},\"nproc\":{},\"rustc\":\"{}\",\
             \"git_sha\":{},\"git_dirty\":{}}}",
            self.workload,
            self.seed,
            self.jobs,
            self.nproc,
            self.rustc.replace('"', "'"),
            opt(self.git_sha.as_ref().map(|s| format!("\"{s}\""))),
            opt(self.git_dirty.map(|d| d.to_string())),
        )
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
