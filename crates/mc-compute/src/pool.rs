//! Buffer pool: recycled `Vec`s for the GEMM hot path and the solver.
//!
//! The blocked and SIMD backends pack operand panels into scratch
//! buffers on every call. Before this pool existed each call
//! round-tripped the allocator — tolerable for one large GEMM, a real
//! toll for the repeated mid-size calls the batched BLAS entry points
//! and the solver's BLAS-3 blocks issue. [`acquire`] hands out a
//! cleared buffer whose capacity is at least the requested element
//! count, rounded up to a power-of-two *size class*; dropping the
//! returned [`PooledVec`] recycles the buffer instead of freeing it.
//!
//! Its users:
//!
//! * the packed GEMM tiers' operand panels and accumulators;
//! * `mc-solver`'s panel scratches and substitution transposes;
//! * `mc-solver`'s large matrices, the factors `potrf` and `getrf`
//!   return among them. A `Matrix` keeps the buffer with
//!   [`PooledVec::into_inner`] and hands it back with [`recycle`] when
//!   it drops, so a caller that factors, drops the factors and factors
//!   again writes into pages that are already mapped, however the
//!   allocator would have handled the free.
//!
//! One freelist backs the pool: for each element type and size class a
//! mutex-guarded LIFO stack of up to `SHELF_CAP` (64) buffers, shared by
//! every thread. A buffer recycled on one thread serves the next
//! acquisition of its class on any thread, the rayon workers, the
//! threads that issue GEMMs and the ones that exit alike. The traffic
//! is a few hundred acquisitions per 768² solver op and six per 1024³
//! GEMM on two workers, too little to pay for a per-thread tier (the
//! measurements are in `docs/PERFORMANCE.md`, "One shared freelist").
//!
//! Accounting is global and lock-free: [`pool_stats`] exposes hit /
//! miss / recycle / discard counters plus the bytes freshly allocated,
//! and `mc-obs` re-exports them as `compute.pool.*` metrics. Nothing
//! resets them: a window's traffic is a delta of two snapshots
//! ([`PoolStats::since`]), so windows that overlap on different threads
//! (a profiled region beside the `perf` experiment) each read their
//! own. A *miss* is exactly one allocator round-trip, so the
//! batched-GEMM reuse test asserts the miss delta over a steady-state
//! window is zero.
//!
//! The pool is deliberately indifferent to contents: buffers come back
//! cleared (`len == 0`) and are never shrunk, so recycling can only
//! change *time*, never results — the bitwise-parity contract of the
//! compute backends is untouched.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use mc_types::{Bf16, F16};

/// Buffers kept per size class on the freelist.
const SHELF_CAP: usize = 64;

/// Number of power-of-two size classes (class `i` holds buffers of
/// capacity `2^i` elements); covers everything up to 2^40 elements.
const CLASSES: usize = 41;

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static RECYCLED: AtomicU64 = AtomicU64::new(0);
static DISCARDED: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the pool's global counters, or the traffic between
/// two snapshots ([`PoolStats::since`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquisitions served from the freelist.
    pub hits: u64,
    /// Acquisitions that had to allocate — each miss is one allocator
    /// round-trip.
    pub misses: u64,
    /// Buffers returned to the freelist.
    pub recycled: u64,
    /// Buffers dropped for real because the freelist of their class
    /// was full (or the buffer was over the largest size class).
    pub discarded: u64,
    /// Bytes of fresh allocation performed by misses.
    pub allocated_bytes: u64,
}

impl PoolStats {
    /// Hit rate in `[0, 1]`; `1.0` when no acquisitions happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The traffic since `earlier`, a snapshot this thread took before
    /// this one. Nothing resets the counters and each is one atomic, so
    /// every field of a later [`pool_stats`] read is at least the
    /// earlier one's and the subtraction is exact.
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            recycled: self.recycled - earlier.recycled,
            discarded: self.discarded - earlier.discarded,
            allocated_bytes: self.allocated_bytes - earlier.allocated_bytes,
        }
    }
}

/// Reads the global pool counters. They only grow; take the traffic of
/// a window as `pool_stats().since(&before)`.
pub fn pool_stats() -> PoolStats {
    PoolStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        recycled: RECYCLED.load(Ordering::Relaxed),
        discarded: DISCARDED.load(Ordering::Relaxed),
        allocated_bytes: ALLOCATED_BYTES.load(Ordering::Relaxed),
    }
}

/// Element types the pool maintains freelists for. Implemented for the
/// packing and accumulator scalars (`f32`, `f64`, and the half types
/// the scalar chain accumulates in); each implementation owns one
/// freelist per size class.
pub trait PoolElem: Sized + Send + 'static {
    /// The freelists shared by all threads, indexed by size class.
    #[doc(hidden)]
    fn freelists() -> &'static [Mutex<Vec<Vec<Self>>>];
}

macro_rules! impl_pool_elem {
    ($($t:ty),*) => {$(
        impl PoolElem for $t {
            fn freelists() -> &'static [Mutex<Vec<Vec<Self>>>] {
                static LISTS: [Mutex<Vec<Vec<$t>>>; CLASSES] =
                    [const { Mutex::new(Vec::new()) }; CLASSES];
                &LISTS
            }
        }
    )*};
}

impl_pool_elem!(F16, Bf16, f32, f64);

/// Locks the freelist of one size class. A panic never leaves a list
/// half-updated (a push or a pop is the whole critical section), so a
/// poisoned lock is taken as is.
fn freelist<T: PoolElem>(class: usize) -> MutexGuard<'static, Vec<Vec<T>>> {
    T::freelists()[class]
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// The size class for a requested capacity: buffers are rounded up to
/// the next power of two so near-miss requests still reuse each other.
fn size_class(min_capacity: usize) -> Option<usize> {
    let cap = min_capacity.max(1).next_power_of_two();
    let class = cap.trailing_zeros() as usize;
    (class < CLASSES).then_some(class)
}

/// A pooled scratch buffer. Dereferences to its inner `Vec<T>`; comes
/// back empty (`len == 0`) with at least the requested capacity, and
/// returns to the pool when dropped.
pub struct PooledVec<T: PoolElem> {
    buf: Vec<T>,
}

impl<T: PoolElem> PooledVec<T> {
    /// Takes the buffer out of its guard: it no longer returns to the
    /// pool on its own, so its owner hands it back with [`recycle`].
    pub fn into_inner(mut self) -> Vec<T> {
        std::mem::take(&mut self.buf)
    }
}

impl<T: PoolElem> std::ops::Deref for PooledVec<T> {
    type Target = Vec<T>;

    fn deref(&self) -> &Vec<T> {
        &self.buf
    }
}

impl<T: PoolElem> std::ops::DerefMut for PooledVec<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.buf
    }
}

impl<T: PoolElem> Drop for PooledVec<T> {
    fn drop(&mut self) {
        recycle(std::mem::take(&mut self.buf));
    }
}

/// Returns `buf` to the pool: the counterpart of [`acquire`] for a
/// buffer taken out of its [`PooledVec`] with [`PooledVec::into_inner`].
/// It is filed under the largest size class its capacity covers, so
/// any `Vec` may come back, and an empty one is ignored.
pub fn recycle<T: PoolElem>(mut buf: Vec<T>) {
    let cap = buf.capacity();
    if cap == 0 {
        return;
    }
    let class = cap.ilog2() as usize;
    if class >= CLASSES {
        DISCARDED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    buf.clear();
    let mut list = freelist::<T>(class);
    if list.len() < SHELF_CAP {
        list.push(buf);
        RECYCLED.fetch_add(1, Ordering::Relaxed);
    } else {
        // `buf` is freed after the guard drops, outside the lock.
        DISCARDED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Hands out a cleared buffer with capacity for at least `min_capacity`
/// elements, reusing a freelisted buffer when one of the right size
/// class is available.
pub fn acquire<T: PoolElem>(min_capacity: usize) -> PooledVec<T> {
    let (cap, reused) = match size_class(min_capacity) {
        Some(class) => (1usize << class, freelist::<T>(class).pop()),
        // Absurdly large request: serve it unpooled.
        None => (min_capacity, None),
    };
    let buf = match reused {
        Some(buf) => {
            HITS.fetch_add(1, Ordering::Relaxed);
            buf
        }
        None => {
            MISSES.fetch_add(1, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add((cap * std::mem::size_of::<T>()) as u64, Ordering::Relaxed);
            Vec::with_capacity(cap)
        }
    };
    PooledVec { buf }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The counters are process-global, so these tests assert deltas on
    // buffers large enough that no other concurrently-running test's
    // pool traffic shares the size class.
    const ODD_CAP: usize = 1 << 19;

    #[test]
    fn acquire_rounds_up_to_the_size_class() {
        let v: PooledVec<f64> = acquire(ODD_CAP - 3);
        assert!(v.capacity() >= ODD_CAP - 3);
        assert_eq!(v.len(), 0);
    }

    #[test]
    fn drop_then_acquire_reuses_the_buffer() {
        let mut v: PooledVec<f64> = acquire(ODD_CAP + 1);
        v.push(42.0);
        let ptr = v.as_ptr();
        drop(v);
        let before = pool_stats();
        let again: PooledVec<f64> = acquire(ODD_CAP + 1);
        let after = pool_stats();
        assert_eq!(again.as_ptr(), ptr, "same buffer must come back");
        assert_eq!(again.len(), 0, "recycled buffers come back cleared");
        assert_eq!(after.hits - before.hits, 1);
        assert_eq!(after.misses, before.misses);
    }

    #[test]
    fn cross_thread_buffers_land_on_the_shelf() {
        // A class no other test uses, so the same address means this
        // acquisition was a hit on that buffer, not an allocation.
        let cap = 1 << 20;
        // The buffer drops onto the shared freelist before the thread exits.
        let ptr = std::thread::spawn(move || acquire::<f32>(cap).as_ptr() as usize)
            .join()
            .unwrap();
        let before = pool_stats();
        let v: PooledVec<f32> = acquire(cap);
        let hits = pool_stats().since(&before).hits;
        assert_eq!(v.as_ptr() as usize, ptr, "the exited thread's buffer");
        assert_eq!(hits, 1, "the freelist must serve the hit");
    }

    #[test]
    fn a_live_threads_buffer_serves_another_threads_acquire() {
        use std::sync::mpsc;
        // A class no other test uses, so the same address means this
        // acquisition was a hit on that buffer, not an allocation.
        let cap = 1 << 22;
        let (recycled_tx, recycled_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let owner = std::thread::spawn(move || {
            let buf: PooledVec<f32> = acquire(cap);
            let ptr = buf.as_ptr() as usize;
            drop(buf);
            recycled_tx.send(ptr).unwrap();
            // Stay alive until the other thread has acquired.
            done_rx.recv().unwrap();
        });
        let ptr = recycled_rx.recv().unwrap();
        let v: PooledVec<f32> = acquire(cap);
        done_tx.send(()).unwrap();
        owner.join().unwrap();
        assert_eq!(
            v.as_ptr() as usize,
            ptr,
            "the live thread's buffer was not reused"
        );
    }

    #[test]
    fn since_subtracts_every_counter() {
        let stats = |base: u64| PoolStats {
            hits: base,
            misses: 2 * base,
            recycled: 3 * base,
            discarded: 4 * base,
            allocated_bytes: 5 * base,
        };
        assert_eq!(stats(7).since(&stats(3)), stats(4));
        assert_eq!(stats(7).since(&stats(7)), PoolStats::default());
    }

    #[test]
    fn a_detached_buffer_comes_back_through_recycle() {
        let cap = 1 << 21; // distinct class from the other tests
        let mut v = acquire::<f64>(cap).into_inner();
        v.push(7.0);
        let ptr = v.as_ptr();
        recycle(v);
        let again: PooledVec<f64> = acquire(cap);
        assert_eq!(again.as_ptr(), ptr, "the recycled buffer must come back");
        assert_eq!(again.len(), 0);
    }

    #[test]
    fn a_foreign_buffer_serves_the_classes_its_capacity_covers() {
        // Capacity 3·2^20 covers class 2^21's requests but not 2^22's,
        // so it is filed under 2^21 (a class no other test uses in f32).
        let cap = 3 << 20;
        let v: Vec<f32> = Vec::with_capacity(cap);
        let ptr = v.as_ptr();
        recycle(v);
        let got: PooledVec<f32> = acquire(1 << 21);
        assert_eq!(got.as_ptr(), ptr);
        assert!(got.capacity() >= cap);
        recycle(Vec::<f32>::new()); // an empty buffer is ignored
    }

    #[test]
    fn hit_rate_reads_one_when_idle_and_tracks_traffic() {
        assert_eq!(PoolStats::default().hit_rate(), 1.0);
        let s = PoolStats {
            hits: 3,
            misses: 1,
            ..PoolStats::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }
}
