//! Pins the process to one CPU.
//!
//! The cluster is ~30 threads playing ping-pong. Spread over the two
//! virtual CPUs of the sizing box, every hop is a cross-CPU wake-up (an
//! inter-processor interrupt and, in a VM, an exit to the host), which
//! tripled CPU per operation (138 → 400+ µs for `warm_open`) and moved by
//! ±10 % between runs and ±20 % over minutes with the host's mood. On one
//! CPU a hop is a context switch: the run measures the work the code
//! does per operation — which is what a change to the code can move —
//! and repeats to a few per cent. The price is stated in the README: no
//! parallel speed-up is measured, and none may be claimed from these
//! numbers.

/// The highest-numbered CPU in a `Cpus_allowed_list` value such as
/// `0-1` or `0,2-3` (CPU 0 takes most device interrupts; avoid it when
/// there is a choice).
pub fn last_cpu(list: &str) -> Option<usize> {
    list.trim().rsplit([',', '-']).next()?.parse().ok()
}

fn allowed_list() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Cpus_allowed_list:"))?;
    Some(line.split_once(':')?.1.to_string())
}

extern "C" {
    /// glibc's wrapper of the Linux system call; `pid` 0 is the caller.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread — and every thread it spawns afterwards —
/// to the last CPU it is allowed on. Call before spawning anything.
/// Returns the CPU, or why the process stays unpinned.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let cpu = allowed_list().as_deref().and_then(last_cpu).ok_or("no Cpus_allowed_list")?;
    let mut mask = [0u64; 16]; // 1024 CPUs, the kernel's default cpu_set_t
    let word = mask.get_mut(cpu / 64).ok_or(format!("cpu {cpu} beyond the mask"))?;
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of exactly the
    // `cpusetsize` bytes passed, and the call only reads it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(cpu)
    } else {
        Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_the_last_allowed_cpu() {
        assert_eq!(last_cpu("0-1\n"), Some(1));
        assert_eq!(last_cpu("\t0"), Some(0));
        assert_eq!(last_cpu("0,2-3"), Some(3));
        assert_eq!(last_cpu("0-3,8"), Some(8));
        assert_eq!(last_cpu(""), None);
    }
}
