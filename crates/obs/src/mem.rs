//! A tracking global allocator: per-thread and global allocation counters.
//!
//! Incognito's efficiency argument is as much about bounded *state* as
//! bounded work — frequency-set caches, rollup reuse, and the zero-cube all
//! trade memory for scans — so peak memory is a first-class signal next to
//! `nodes_checked`. This module wraps [`std::alloc::System`] in a
//! zero-dependency [`TrackingAlloc`] installed as the workspace's
//! `#[global_allocator]`, maintaining:
//!
//! * **global** counters — bytes allocated / freed, live bytes, allocation
//!   and free counts, and a peak-live high-water mark (`fetch_max`), read
//!   via [`stats`];
//! * **per-thread** counters — allocated bytes and allocation count in
//!   const-initialised `thread_local!` cells, read via
//!   [`thread_allocated_bytes`] / [`thread_alloc_count`]. These are what
//!   a traced [`crate::Span`] samples at open and close to attribute an
//!   allocation delta to each span; because a work-stealing pool's
//!   `exec.task` spans open and close on the worker that actually ran the
//!   task, per-worker attribution survives stealing for free.
//!
//! # Always-on counting, opt-in attribution
//!
//! Raw counting is **always on**: every path is a handful of relaxed
//! atomic adds plus two plain thread-local `Cell` bumps — cheaper than the
//! `malloc` call it decorates, and always-on counting means every `dealloc`
//! subtracts an allocation that was previously added, so `live` can never
//! underflow. What *is* gated (by [`set_enabled`], off by default) is
//! attribution: trace spans only snapshot the thread-local counters and
//! attach `alloc_bytes` / `peak_live` args — and only emit `mem.live_bytes`
//! Perfetto counter samples — while memory observation is enabled.
//!
//! # Reentrancy
//!
//! Allocator code must never allocate. The counters here are plain atomics
//! and const-initialised `Cell<u64>` thread-locals: no `Drop` impl, no lazy
//! initialiser, no destructor registration, hence no recursion into the
//! allocator and no TLS-destruction panics (`try_with` guards the
//! teardown window regardless).

#![allow(unsafe_code)] // GlobalAlloc is an unsafe trait; the only unsafe here
                       // is delegating verbatim to `System`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::json::Json;

/// Gates *attribution* (span args + Perfetto counter samples), not the raw
/// counting, which is always on. Off by default.
static MEM_ENABLED: AtomicBool = AtomicBool::new(false);

static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TL_ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
    static TL_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Turn memory *attribution* on or off (span `alloc_bytes`/`peak_live`
/// args and `mem.live_bytes` trace counter samples). The underlying
/// counters run unconditionally either way.
pub fn set_enabled(on: bool) {
    MEM_ENABLED.store(on, Ordering::Relaxed);
}

/// Is memory attribution currently enabled?
#[inline]
pub fn enabled() -> bool {
    MEM_ENABLED.load(Ordering::Relaxed)
}

#[inline]
fn on_alloc(size: u64) {
    ALLOCATED_BYTES.fetch_add(size, Ordering::Relaxed);
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
    let _ = TL_ALLOCATED_BYTES.try_with(|c| c.set(c.get() + size));
    let _ = TL_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

#[inline]
fn on_dealloc(size: u64) {
    FREED_BYTES.fetch_add(size, Ordering::Relaxed);
    FREES.fetch_add(1, Ordering::Relaxed);
    LIVE_BYTES.fetch_sub(size, Ordering::Relaxed);
}

/// The tracking allocator. Installed once, in this crate, as
/// `#[global_allocator]`; every workspace binary that links
/// `incognito-obs` (all of them) gets it.
pub struct TrackingAlloc;

// SAFETY: every method delegates verbatim to `System` and only touches
// atomics / non-Drop thread-locals on the side, so the GlobalAlloc
// contract (layout fidelity, no recursion, no unwinding) is System's own.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            on_dealloc(layout.size() as u64);
            on_alloc(new_size as u64);
        }
        p
    }
}

#[global_allocator]
static GLOBAL_ALLOCATOR: TrackingAlloc = TrackingAlloc;

/// A point-in-time copy of the global allocation counters.
///
/// `allocated_bytes`/`freed_bytes`/`allocs`/`frees` are monotone totals
/// since process start; `live_bytes` is their running difference and
/// `peak_live_bytes` its high-water mark (resettable via [`reset_peak`]
/// for per-phase peaks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemStats {
    /// Total bytes handed out by the allocator since process start.
    pub allocated_bytes: u64,
    /// Total bytes returned to the allocator since process start.
    pub freed_bytes: u64,
    /// Bytes currently live (`allocated - freed`).
    pub live_bytes: u64,
    /// High-water mark of `live_bytes` since start (or the last
    /// [`reset_peak`]).
    pub peak_live_bytes: u64,
    /// Number of allocations (reallocs count once more).
    pub allocs: u64,
    /// Number of frees.
    pub frees: u64,
}

impl MemStats {
    /// `self - earlier` for the monotone totals (saturating); `live_bytes`
    /// and `peak_live_bytes` keep `self`'s point-in-time values, which is
    /// what a per-run record wants: *flow* as a delta, *occupancy* as-is.
    pub fn delta(&self, earlier: &MemStats) -> MemStats {
        MemStats {
            allocated_bytes: self.allocated_bytes.saturating_sub(earlier.allocated_bytes),
            freed_bytes: self.freed_bytes.saturating_sub(earlier.freed_bytes),
            live_bytes: self.live_bytes,
            peak_live_bytes: self.peak_live_bytes,
            allocs: self.allocs.saturating_sub(earlier.allocs),
            frees: self.frees.saturating_sub(earlier.frees),
        }
    }

    /// Render as the `memory` JSON object used in run reports.
    pub fn to_json(&self) -> Json {
        let mut m = Json::obj();
        m.set("peak_live_bytes", self.peak_live_bytes);
        m.set("live_bytes", self.live_bytes);
        m.set("allocated_bytes", self.allocated_bytes);
        m.set("freed_bytes", self.freed_bytes);
        m.set("allocs", self.allocs);
        m.set("frees", self.frees);
        m
    }
}

/// Snapshot the global counters.
///
/// The fields are read individually (relaxed) while other threads may be
/// allocating, so they are not a single consistent cut — good enough for
/// reporting, never for invariants.
pub fn stats() -> MemStats {
    MemStats {
        allocated_bytes: ALLOCATED_BYTES.load(Ordering::Relaxed),
        freed_bytes: FREED_BYTES.load(Ordering::Relaxed),
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed),
        peak_live_bytes: PEAK_LIVE_BYTES.load(Ordering::Relaxed),
        allocs: ALLOCS.load(Ordering::Relaxed),
        frees: FREES.load(Ordering::Relaxed),
    }
}

/// Restart the peak-live high-water mark from the current live level, so
/// the next [`stats`] reports the peak *since this call*. Benchmarks call
/// this at the start of each run to get per-run peaks.
pub fn reset_peak() {
    PEAK_LIVE_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// This thread's total allocated bytes. Monotone; spans subtract an
/// open-time sample from a close-time sample to get their `alloc_bytes`.
#[inline]
pub fn thread_allocated_bytes() -> u64 {
    TL_ALLOCATED_BYTES.with(|c| c.get())
}

/// This thread's total allocation count (see [`thread_allocated_bytes`]).
#[inline]
pub fn thread_alloc_count() -> u64 {
    TL_ALLOCS.with(|c| c.get())
}

/// Current live bytes (cheap single load, for counter-track sampling).
#[inline]
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Current peak-live bytes since start or the last [`reset_peak`].
#[inline]
pub fn peak_live_bytes() -> u64 {
    PEAK_LIVE_BYTES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_a_known_allocation() {
        let before = stats();
        let tl_bytes = thread_allocated_bytes();
        let tl_count = thread_alloc_count();
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        let mid = stats();
        assert!(mid.allocated_bytes >= before.allocated_bytes + (1 << 20));
        assert!(mid.live_bytes >= 1 << 20);
        assert!(mid.peak_live_bytes >= mid.live_bytes.saturating_sub(1024));
        assert!(thread_allocated_bytes() >= tl_bytes + (1 << 20));
        assert!(thread_alloc_count() > tl_count);
        drop(v);
        let after = stats();
        assert!(after.freed_bytes >= before.freed_bytes + (1 << 20));
        assert!(after.frees > before.frees);
    }

    #[test]
    fn realloc_accounts_growth_against_live() {
        let before = stats();
        let mut v: Vec<u8> = vec![0; 4096];
        v.reserve_exact(1 << 16); // forces realloc of the 4 KiB block
        let after = stats();
        assert!(after.allocated_bytes - before.allocated_bytes >= 4096 + (1 << 16));
        assert!(after.live_bytes > before.live_bytes);
        drop(v);
    }

    #[test]
    fn delta_subtracts_flows_and_keeps_occupancy() {
        let a = MemStats {
            allocated_bytes: 100,
            freed_bytes: 40,
            live_bytes: 60,
            peak_live_bytes: 80,
            allocs: 10,
            frees: 4,
        };
        let b = MemStats {
            allocated_bytes: 300,
            freed_bytes: 140,
            live_bytes: 160,
            peak_live_bytes: 200,
            allocs: 25,
            frees: 11,
        };
        let d = b.delta(&a);
        assert_eq!(d.allocated_bytes, 200);
        assert_eq!(d.freed_bytes, 100);
        assert_eq!(d.allocs, 15);
        assert_eq!(d.frees, 7);
        assert_eq!(d.live_bytes, 160);
        assert_eq!(d.peak_live_bytes, 200);
    }

    #[test]
    fn reset_peak_rebases_to_current_live() {
        let spike: Vec<u8> = vec![0; 1 << 21];
        drop(spike);
        reset_peak();
        let s = stats();
        // Other test threads may allocate concurrently, but the rebased
        // peak cannot still sit a whole spike above live.
        assert!(s.peak_live_bytes < s.live_bytes + (1 << 21));
    }

    #[test]
    fn json_shape_matches_report_schema() {
        let s = stats();
        let j = s.to_json();
        for key in
            ["peak_live_bytes", "live_bytes", "allocated_bytes", "freed_bytes", "allocs", "frees"]
        {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        assert_eq!(j.get("allocs").and_then(Json::as_int), Some(s.allocs as i64));
    }
}
