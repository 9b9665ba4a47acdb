//! Capture build provenance at compile time so every artifact the
//! pipeline writes (metrics reports, trace files, bench JSONs) can say
//! exactly which source revision and toolchain produced it. Both values
//! degrade to `"unknown"` rather than failing the build: the crate must
//! compile from a source tarball with no `.git` and under a toolchain
//! that hides `rustc` from the environment.

use std::path::Path;
use std::process::Command;

fn capture(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim();
    if line.is_empty() {
        None
    } else {
        Some(line.to_string())
    }
}

fn main() {
    let sha = capture("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "unknown".to_string());
    // A dirty tree is marked so a bench number can never silently claim to
    // come from a clean commit.
    let dirty = capture("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    let sha = match dirty {
        Some(true) => format!("{sha}-dirty"),
        _ => sha,
    };
    println!("cargo:rustc-env=XDATA_GIT_SHA={sha}");

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version =
        capture(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=XDATA_RUSTC_VERSION={version}");

    // Re-capture when the checked-out commit moves: HEAD changes on a
    // checkout, the branch ref it names on a commit, and packed-refs when
    // git packs that ref. A stale sha on pure source edits is acceptable
    // (the -dirty marker covers those).
    println!("cargo:rerun-if-changed=../../.git/HEAD");
    if let Some(git_dir) = capture("git", &["rev-parse", "--absolute-git-dir"]) {
        let git_dir = Path::new(&git_dir);
        let mut watch = vec![git_dir.join("packed-refs")];
        if let Some(branch) = capture("git", &["symbolic-ref", "-q", "HEAD"]) {
            // A packed ref has no loose file until the next commit writes
            // one into its directory.
            let loose = git_dir.join(branch);
            match loose.parent() {
                Some(dir) if !loose.exists() => watch.push(dir.to_path_buf()),
                _ => watch.push(loose),
            }
        }
        // Cargo reruns a build script on every build while a watched path
        // is missing, so watch only what exists.
        for path in watch.iter().filter(|p| p.exists()) {
            println!("cargo:rerun-if-changed={}", path.display());
        }
    }
}
