//! Pins the benchmark — and every thread the program under test starts,
//! since affinity is inherited — to one CPU.
//!
//! Every workload has one request in flight, so at most one thread is ever
//! runnable and one CPU loses no parallelism. What it removes is the
//! cross-vCPU wake-up: a depth-1 round trip is a chain of thread wake-ups,
//! and on a virtual machine waking a thread on the *other*, halted vCPU
//! costs 30-40 us of hypervisor time that varies with the host's load
//! (`net_rtt` p50 71 us unpinned, 15 us pinned; run-to-run spread of the
//! unpinned p50 up to 28 % on the acceptance box). On one CPU a wake-up is
//! a context switch, the CPU never halts inside the measured loop, and the
//! number is the program's own syscalls, codec, routing and index work.

#[cfg(target_os = "linux")]
mod ffi {
    // glibc / musl signatures, for the C library std already links.
    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
}

/// Words of the CPU mask: 1024 CPUs, the size of glibc's `cpu_set_t`.
#[cfg(target_os = "linux")]
const WORDS: usize = 16;

/// Restricts the calling thread (and the threads it will spawn) to the
/// highest-numbered CPU it is allowed on. Returns that CPU, or `None` where
/// the platform cannot pin; the run then goes on unpinned and says so.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is `bytes` long and the kernel writes within that.
    if unsafe { ffi::sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = highest_set(&mask)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is `bytes` long and only read.
    (unsafe { ffi::sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

#[cfg(any(target_os = "linux", test))]
fn highest_set(mask: &[u64]) -> Option<usize> {
    mask.iter()
        .enumerate()
        .rev()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + 63 - w.leading_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_highest_allowed_cpu_is_chosen() {
        assert_eq!(highest_set(&[0, 0]), None);
        assert_eq!(highest_set(&[0b11, 0]), Some(1));
        assert_eq!(highest_set(&[1, 0b100]), Some(66));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn spawned_threads_inherit_the_pin() {
        // In a thread of its own, so the test harness's other threads keep
        // their CPUs.
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("linux can pin");
            let seen = std::thread::spawn(|| {
                let mut mask = [0u64; WORDS];
                // SAFETY: as in `pin_to_one_cpu`.
                let rc = unsafe {
                    ffi::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr())
                };
                (
                    rc,
                    mask.iter().map(|w| w.count_ones()).sum::<u32>(),
                    highest_set(&mask),
                )
            })
            .join()
            .unwrap();
            assert_eq!(seen, (0, 1, Some(cpu)));
        })
        .join()
        .unwrap();
    }
}
