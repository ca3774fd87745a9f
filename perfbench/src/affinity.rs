//! Thread placement.  With two busy threads on a two-CPU machine the
//! scheduler otherwise moves them between sharing one CPU and running on
//! both, and a cross-thread wake costs several times more in one placement
//! than in the other; pinning each busy thread to its own CPU keeps every
//! run in the same placement.  Linux only; elsewhere pinning is a no-op.
//! Every pin is counted, and [`summary`] reports whether they took effect.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A CPU mask of 1024 CPUs, the size glibc's `cpu_set_t` has.
type Mask = [u64; 16];

static PINNED: AtomicUsize = AtomicUsize::new(0);
static NOT_PINNED: AtomicUsize = AtomicUsize::new(0);

/// The CPUs the process may run on, read once before the first pin
/// narrows the calling thread's mask.
fn allowed() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        let mut mask: Mask = [0; 16];
        #[cfg(target_os = "linux")]
        {
            // SAFETY: `mask` is a live, writable buffer of exactly the byte
            // length passed, and pid 0 names the calling thread.
            if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0
            {
                return Vec::new();
            }
        }
        (0..64 * mask.len())
            .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect()
    })
}

/// Pins the calling thread (and threads it creates later) to the `n`-th
/// CPU, modulo their number, of the set the process may run on.  Returns
/// whether the placement took effect.
pub fn pin_current_thread(n: usize) -> bool {
    let cpus = allowed();
    let pinned = cpus.len() >= 2 && {
        let cpu = cpus[n % cpus.len()];
        let mut mask: Mask = [0; 16];
        mask[cpu / 64] |= 1 << (cpu % 64);
        #[cfg(target_os = "linux")]
        {
            // SAFETY: `mask` is a live, initialised buffer of exactly the
            // byte length passed, and pid 0 names the calling thread.
            unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
        }
        #[cfg(not(target_os = "linux"))]
        false
    };
    let counter = if pinned { &PINNED } else { &NOT_PINNED };
    counter.fetch_add(1, Ordering::Relaxed);
    pinned
}

/// One line on whether the run's threads were pinned.
pub fn summary() -> String {
    format!(
        "pinning: allowed CPUs {:?}; {} pins took effect, {} did not",
        allowed(),
        PINNED.load(Ordering::Relaxed),
        NOT_PINNED.load(Ordering::Relaxed)
    )
}
