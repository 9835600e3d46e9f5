//! Puts the benchmark and its daemons on one CPU.
//!
//! Every workload's load is a chain of thread hand-offs: load thread,
//! daemon event loop, engine worker, event loop, client reader. Spread
//! over the CPUs of a virtual machine, each hand-off that finds the other
//! CPU idle has to wake it through the hypervisor, and what that costs
//! depends on what the neighbours are running. On a 2-vCPU guest,
//! `rmat-zipf` with 16 requests in flight served 12k-24k queries/s with
//! the guest's CPU steal at 23-26% during the load (three seeds), and
//! `gnm-batch` 131k-225k pairs/s with steal at 6-18% (five seeds). With everything on one CPU
//! the same hand-offs are ordinary context switches: steal stayed under
//! 7%, `rmat-zipf` served 47k-49k queries/s (five seeds) and `gnm-batch`
//! 139k-154k pairs/s (three seeds). The daemons keep their `--workers`;
//! only where their threads may run changes.
//!
//! Linux only: `sched_getaffinity(2)` and `sched_setaffinity(2)` from the
//! C library, applied to every thread listed under `/proc/<pid>/task`.

use std::io;

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

/// "No such process".
const ESRCH: i32 = 3;

#[allow(unsafe_code)]
mod ffi {
    use super::CpuSet;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    pub fn get(tid: i32) -> std::io::Result<CpuSet> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: the kernel writes at most `size` bytes into `set`.
        let r = unsafe { sched_getaffinity(tid, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
        if r == 0 {
            Ok(set)
        } else {
            Err(std::io::Error::last_os_error())
        }
    }

    pub fn set(tid: i32, set: &CpuSet) -> std::io::Result<()> {
        // SAFETY: the kernel reads at most `size` bytes from `set`.
        let r = unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
        if r == 0 {
            Ok(())
        } else {
            Err(std::io::Error::last_os_error())
        }
    }
}

/// Restricts every thread of this process and of each process in `pids`
/// to the lowest CPU this process may run on, and returns that CPU.
/// Threads started later inherit the restriction from their parent.
pub fn one_cpu(pids: &[u32]) -> Result<usize, String> {
    let allowed = ffi::get(0).map_err(|e| format!("sched_getaffinity: {e}"))?;
    let cpu = (0..allowed.len() * 64)
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("no CPU in this process's affinity mask")?;
    let mut only: CpuSet = [0; 16];
    only[cpu / 64] = 1 << (cpu % 64);
    let procs = std::iter::once("self".to_string()).chain(pids.iter().map(u32::to_string));
    for p in procs {
        for tid in tasks(&p).map_err(|e| format!("cannot list threads of {p}: {e}"))? {
            match ffi::set(tid, &only) {
                // The thread ended after it was listed.
                Err(e) if e.raw_os_error() == Some(ESRCH) => {}
                r => r.map_err(|e| format!("sched_setaffinity({tid}): {e}"))?,
            }
        }
    }
    Ok(cpu)
}

fn tasks(pid: &str) -> io::Result<Vec<i32>> {
    let mut tids = Vec::new();
    for e in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        if let Some(tid) = e?.file_name().to_str().and_then(|s| s.parse().ok()) {
            tids.push(tid);
        }
    }
    Ok(tids)
}
