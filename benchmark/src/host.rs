//! What the benchmark asks of the host: memory and I/O counters from
//! `/proc`, a fixed integer kernel that shows when the host is busy
//! with someone else's work, and the counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Threads the host offers this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A `kB` field of `/proc/self/status`, in MB. `None` off Linux.
fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix(field))?;
    let kb: f64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    status_mb("VmHWM:")
}

/// Resident set of this process now, in MB.
pub fn rss_mb() -> Option<f64> {
    status_mb("VmRSS:")
}

/// Bytes this process has passed to `write`-like system calls so far
/// (`wchar` of `/proc/self/io`).
pub fn write_bytes() -> Option<u64> {
    let io = std::fs::read_to_string("/proc/self/io").ok()?;
    io.lines().find_map(|l| l.strip_prefix("wchar:"))?.trim().parse().ok()
}

/// Time a fixed integer kernel (a xorshift chain, nothing the memory
/// system or the allocator can speed up or slow down), in ms. The same
/// instructions every time: a reading well off the others means the
/// host was doing something else.
pub fn spin_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for _ in 0..30_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// The system allocator, counting the calls and bytes of the thread
/// that switched counting on (so a workload's reader thread does not
/// count into its writer's ops). Off — the default, and always in timed
/// passes — it costs one thread-local read per allocation.
pub struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System`'s guarantees carry over; the
// counters are plain statistics and publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn count(bytes: usize) {
    // `try_with`: a thread that is tearing down its locals may still
    // allocate.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Run `f` with allocation counting on for this thread; returns its
/// result with the allocator calls and bytes it requested meanwhile.
pub fn count_allocations<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (calls, bytes) = (ALLOC_CALLS.load(Ordering::Relaxed), ALLOC_BYTES.load(Ordering::Relaxed));
    COUNTING.with(|c| c.set(true));
    let result = f();
    COUNTING.with(|c| c.set(false));
    (
        result,
        ALLOC_CALLS.load(Ordering::Relaxed) - calls,
        ALLOC_BYTES.load(Ordering::Relaxed) - bytes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_counters_read_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().unwrap() > 0.0);
            assert!(rss_mb().unwrap() > 0.0);
            assert!(write_bytes().is_some());
        }
    }

    #[test]
    fn allocations_are_counted_only_while_asked_for() {
        let ((), calls, bytes) = count_allocations(|| drop(std::hint::black_box(vec![0u8; 64])));
        assert!(calls >= 1 && bytes >= 64);
        assert!(!COUNTING.with(Cell::get), "counting is switched off again");
    }

    #[test]
    fn spin_kernel_takes_measurable_time() {
        assert!(spin_ms() > 0.0);
    }
}
