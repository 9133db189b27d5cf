//! CPU placement of the threads the benchmark starts.
//!
//! A thread inherits the affinity mask of the thread that spawns it, so
//! narrowing the calling thread's mask around a `spawn` places the spawned
//! threads without touching the library that spawns them. Left to the
//! scheduler, the reactor and the pool worker land together or apart by
//! chance and stay there for the life of the process; on this
//! two-vCPU host a hand-off to a halted vCPU costs ~60 µs more than one to a
//! thread on the same CPU, so every latency came out bimodal across runs.

/// Where the reactor, the load generator and everything else runs.
const FRONT_CPU: usize = 0;

// std already links libc; this is the one call the benchmark needs from it.
extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread — and every thread it spawns from now on —
/// to `cpu`. A refusal (fewer CPUs, a narrower cpuset) leaves the mask as it
/// was: placement is for steadiness, not correctness.
fn pin_current_thread(cpu: usize) {
    assert!(cpu < 64, "one-word CPU mask");
    let mask: u64 = 1 << cpu;
    // SAFETY: `mask` is a live, aligned u64 and `cpusetsize` is its exact
    // size, which is all sched_setaffinity(2) requires of the pointer; pid 0
    // names the calling thread. The call only reads the mask.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
}

/// Runs `spawn` with the calling thread on `cpu`, so the threads it starts
/// live there, then moves the caller to [`FRONT_CPU`].
pub fn spawning_on<T>(cpu: usize, spawn: impl FnOnce() -> T) -> T {
    pin_current_thread(cpu);
    let out = spawn();
    pin_current_thread(FRONT_CPU);
    out
}
