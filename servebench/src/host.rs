//! The host record every result carries: core count, CPU model, kernel,
//! git commit, and a digest of the sources that were built.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::quote;

pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub git_commit: String,
    pub source_digest: String,
}

impl Host {
    pub fn probe() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, m)| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        // A benchmark checkout need not be a git repository; the source
        // digest identifies the build either way.
        let git_commit = Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "none".into());
        Host {
            nproc,
            cpu_model,
            kernel,
            git_commit,
            source_digest: source_digest(Path::new(".")),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":{},\"kernel\":{},\"git_commit\":{},\"source_digest\":{}}}",
            self.nproc,
            quote(&self.cpu_model),
            quote(&self.kernel),
            quote(&self.git_commit),
            quote(&self.source_digest)
        )
    }
}

/// `(steal, total)` CPU ticks since boot, summed over CPUs, from
/// `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// FNV-1a over the manifests and Rust sources of the repository's crates
/// and of this benchmark, in path order.
fn source_digest(root: &Path) -> String {
    let mut files = vec![root.join("Cargo.lock"), root.join("Cargo.toml")];
    for dir in ["crates", "servebench"] {
        collect(&root.join(dir), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let Ok(bytes) = std::fs::read(f) else {
            continue;
        };
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("fnv1a64:{h:016x}")
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if p.is_dir() {
            if name != "target" && !name.starts_with('.') {
                collect(&p, out);
            }
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            out.push(p);
        }
    }
}
