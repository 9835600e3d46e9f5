//! A `hubserve serve` daemon run as a child process on an ephemeral
//! loopback port.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use hl_net::{ClientConfig, NetClient};

/// glibc's allocator, left to itself, raises its mmap threshold as large
/// blocks are freed, so whether a reload's new arena lands on fresh pages
/// (page faults on every one) or on heap memory freed by the last reload
/// depends on the daemon's history: over 40 reloads of a `gnm-routed`
/// shard the round trip alternated between ~17 and ~39 ms in patterns
/// that changed from run to run. A fixed threshold of 1 MiB maps every
/// arena lane above it fresh and frees it back, the same way every time,
/// while request and response buffers stay below it. Fixing the threshold
/// would also pin the trim threshold at 128 KiB, handing the heap top
/// back to the kernel to be faulted in again between large responses;
/// it is raised to 32 MiB.
const MALLOC_TUNABLES: &str =
    "glibc.malloc.mmap_threshold=1048576:glibc.malloc.trim_threshold=33554432";

pub struct Daemon {
    child: Option<Child>,
    stdout: Option<BufReader<ChildStdout>>,
    pub addr: String,
}

impl Daemon {
    /// Starts `hubserve serve <store>` with `workers` engine workers and
    /// returns once it has mounted the store and announced its address.
    pub fn spawn(hubserve: &Path, store: &Path, workers: usize) -> Result<Daemon, String> {
        let mut child = Command::new(hubserve)
            .arg("serve")
            .arg(store)
            .args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            .env("GLIBC_TUNABLES", MALLOC_TUNABLES)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", hubserve.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child: Some(child),
            stdout: None,
            addr: String::new(),
        };
        let mut line = String::new();
        loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    return Err(format!(
                        "daemon for {} exited before announcing its address",
                        store.display()
                    ))
                }
                Ok(_) => {
                    if let Some(addr) = line.trim().strip_prefix("listening on ") {
                        daemon.addr = addr.to_string();
                        break;
                    }
                }
            }
        }
        // Keep the pipe open: the daemon prints its final metrics on exit.
        daemon.stdout = Some(stdout);
        Ok(daemon)
    }

    pub fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// Peak resident set (VmHWM) of the daemon so far, in KiB.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let pid = self.pid().ok_or("daemon already stopped")?;
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("cannot read status of daemon {pid}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("no VmHWM for daemon {pid}"))
    }

    /// Asks the daemon to drain and exit, and waits for exit code 0.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = NetClient::connect(self.addr.as_str(), client_config())
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("shutdown request to {} failed: {e}", self.addr));
        // The final metrics fit in the pipe buffer, so the daemon can exit
        // without anyone reading them; the pipe closes after it has.
        let mut child = self.child.take().expect("daemon not yet stopped");
        let deadline = Instant::now() + Duration::from_secs(20);
        let result = loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => break asked,
                Ok(Some(status)) => break Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline && asked.is_ok() => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break Err(format!("daemon {} did not drain; killed", self.addr));
                }
            }
        };
        self.stdout = None;
        result
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Client settings for every connection the benchmark opens: no retries,
/// so a failed request is counted instead of silently repeated.
pub fn client_config() -> ClientConfig {
    ClientConfig {
        max_retries: 0,
        ..ClientConfig::default()
    }
}
