//! Operating-system state that one run could otherwise inherit from the
//! machine or from an earlier run (Linux; elsewhere these do nothing).
//! The measurements behind both are in `DESIGN.md`, under Steadiness.
//!
//! **Affinity.** On a shared 2-vCPU VM each vCPU slows for seconds to
//! minutes at a time, independently of the other, as neighbours contend
//! for its core. A single-threaded loop left to the scheduler tends to
//! stay on one vCPU and measures whichever it landed on. Pinning
//! successive operations to alternate CPUs makes every run sample each
//! CPU equally. The operations themselves are unchanged (each starts
//! cold).
//!
//! **TIME_WAIT.** The service closes each HTTP connection first, so every
//! request leaves a TIME_WAIT socket for 60 s, and the kernel's
//! per-connection cost grows with their number. Within a run that cost is
//! the service's own; a run started right after another would also pay
//! for the earlier run's sockets, so a run first waits until they have
//! expired.

/// glibc's `cpu_set_t`: 1024 bits.
#[cfg(target_os = "linux")]
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on; empty when unknown.
#[cfg(target_os = "linux")]
pub fn allowed() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable `cpu_set_t`-sized buffer that outlives
    // the call and whose size is passed alongside; pid 0 is this thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restrict the calling thread to `cpus` (best effort: a refusal leaves
/// the affinity unchanged).
#[cfg(target_os = "linux")]
pub fn pin(cpus: &[usize]) {
    let mut set: CpuSet = [0; 16];
    for &c in cpus.iter().filter(|&&c| c < 1024) {
        set[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `set` is a `cpu_set_t`-sized buffer that outlives the call
    // and whose size is passed alongside; pid 0 is this thread.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
}

/// Sockets in TIME_WAIT in this network namespace (`/proc/net/tcp*`
/// rows in state `06`); 0 where that is unknown.
pub fn time_wait_sockets() -> usize {
    ["/proc/net/tcp", "/proc/net/tcp6"]
        .iter()
        .filter_map(|path| std::fs::read_to_string(path).ok())
        .map(|table| {
            table
                .lines()
                .skip(1)
                .filter(|row| row.split_whitespace().nth(3) == Some("06"))
                .count()
        })
        .sum()
}

#[cfg(not(target_os = "linux"))]
pub fn allowed() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
pub fn pin(_cpus: &[usize]) {}
