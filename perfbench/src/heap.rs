//! Allocator policy of the benchmark process.

/// Keeps memory the program frees inside the process instead of handing it
/// back to the kernel (glibc's `malloc` only; a no-op elsewhere).
///
/// By default glibc serves blocks of 128 KiB and more with their own
/// `mmap` and trims the top of the heap on `free`, so a workload that
/// builds and drops hundreds of MB per round faults every page in afresh
/// each round. That kernel time is most of the round's variance on a
/// shared host. With a fixed 32 MiB `mmap` threshold and no trimming, the
/// warm-up round leaves the heap faulted in and the timed rounds reuse it.
pub fn retain_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: mallopt only changes glibc's allocation thresholds; it
        // is safe to call at any time, from any thread.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
        }
    }
}
