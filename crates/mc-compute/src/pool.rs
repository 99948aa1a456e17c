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
//! Two tiers back the freelist:
//!
//! * a **thread-local** freelist (no synchronization on the fast path),
//!   holding up to [`LOCAL_CAP`] buffers per size class;
//! * a global **shelf** (a mutex-guarded freelist, up to [`SHELF_CAP`]
//!   buffers per class) that catches buffers from threads that exit:
//!   test threads, or user threads that issue GEMMs and end. The
//!   vendored rayon workers persist, so their thread-local freelists
//!   stay warm between regions; the shelf hands an exited thread's
//!   buffers to the next thread that asks for that size class.
//!
//! Accounting is global and lock-free: [`pool_stats`] exposes hit /
//! miss / recycle / discard counters plus the bytes freshly allocated,
//! and `mc-obs` re-exports them as `compute.pool.*` metrics. A *miss*
//! is exactly one allocator round-trip, so the batched-GEMM reuse test
//! asserts the miss delta over a steady-state window is zero.
//!
//! The pool is deliberately indifferent to contents: buffers come back
//! cleared (`len == 0`) and are never shrunk, so recycling can only
//! change *time*, never results — the bitwise-parity contract of the
//! compute backends is untouched.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use mc_types::{Bf16, F16};

/// Buffers kept per size class in each thread-local freelist.
pub const LOCAL_CAP: usize = 8;

/// Buffers kept per size class on the global shelf.
pub const SHELF_CAP: usize = 64;

/// Number of power-of-two size classes (class `i` holds buffers of
/// capacity `2^i` elements); covers everything up to 2^40 elements.
const CLASSES: usize = 41;

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static RECYCLED: AtomicU64 = AtomicU64::new(0);
static DISCARDED: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the pool's global counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquisitions served from a freelist (thread-local or shelf).
    pub hits: u64,
    /// Acquisitions that had to allocate — each miss is one allocator
    /// round-trip.
    pub misses: u64,
    /// Buffers returned to a freelist at drop.
    pub recycled: u64,
    /// Buffers dropped for real because both freelists were full (or
    /// the buffer was over the largest size class).
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
}

/// Reads the global pool counters.
pub fn pool_stats() -> PoolStats {
    PoolStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        recycled: RECYCLED.load(Ordering::Relaxed),
        discarded: DISCARDED.load(Ordering::Relaxed),
        allocated_bytes: ALLOCATED_BYTES.load(Ordering::Relaxed),
    }
}

/// Resets the global pool counters to zero (the freelists themselves
/// are left warm). Intended for tests and for experiment runs that
/// want a per-phase delta.
pub fn reset_pool_stats() {
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    RECYCLED.store(0, Ordering::Relaxed);
    DISCARDED.store(0, Ordering::Relaxed);
    ALLOCATED_BYTES.store(0, Ordering::Relaxed);
}

/// The per-thread freelist: one stack of spare buffers per size class.
/// On thread exit the [`Drop`] impl moves everything to the global
/// shelf so the buffers an exiting thread packed outlive it.
pub struct LocalLists<T: PoolElem> {
    classes: Vec<Vec<Vec<T>>>,
}

impl<T: PoolElem> LocalLists<T> {
    fn new() -> Self {
        LocalLists {
            classes: Vec::new(),
        }
    }

    fn take(&mut self, class: usize) -> Option<Vec<T>> {
        self.classes.get_mut(class).and_then(|c| c.pop())
    }

    fn put(&mut self, class: usize, buf: Vec<T>) -> Result<(), Vec<T>> {
        if self.classes.len() <= class {
            self.classes.resize_with(class + 1, Vec::new);
        }
        let slot = &mut self.classes[class];
        if slot.len() < LOCAL_CAP {
            slot.push(buf);
            Ok(())
        } else {
            Err(buf)
        }
    }
}

impl<T: PoolElem> Drop for LocalLists<T> {
    fn drop(&mut self) {
        let mut shelf = match T::shelf().lock() {
            Ok(s) => s,
            Err(poisoned) => poisoned.into_inner(),
        };
        for (class, bufs) in self.classes.drain(..).enumerate() {
            for buf in bufs {
                shelf_put(&mut shelf, class, buf);
            }
        }
    }
}

type Shelf<T> = Vec<Vec<Vec<T>>>;

fn shelf_put<T>(shelf: &mut Shelf<T>, class: usize, buf: Vec<T>) {
    if shelf.len() <= class {
        shelf.resize_with(class + 1, Vec::new);
    }
    let slot = &mut shelf[class];
    if slot.len() < SHELF_CAP {
        slot.push(buf);
    } else {
        DISCARDED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Element types the pool maintains freelists for. Implemented for the
/// packing and accumulator scalars (`f32`, `f64`, and the half types
/// the scalar chain accumulates in); each implementation owns one
/// thread-local freelist and one global shelf.
pub trait PoolElem: Sized + Send + 'static {
    /// Runs `f` with this thread's freelist.
    #[doc(hidden)]
    fn with_local<R>(f: impl FnOnce(&mut LocalLists<Self>) -> R) -> R;

    /// The global shelf shared by all threads.
    #[doc(hidden)]
    fn shelf() -> &'static Mutex<Shelf<Self>>;
}

macro_rules! impl_pool_elem {
    ($t:ty, $local:ident, $shelf:ident) => {
        thread_local! {
            static $local: RefCell<LocalLists<$t>> = RefCell::new(LocalLists::new());
        }
        static $shelf: Mutex<Shelf<$t>> = Mutex::new(Vec::new());

        impl PoolElem for $t {
            fn with_local<R>(f: impl FnOnce(&mut LocalLists<Self>) -> R) -> R {
                $local.with(|l| f(&mut l.borrow_mut()))
            }

            fn shelf() -> &'static Mutex<Shelf<Self>> {
                &$shelf
            }
        }
    };
}

impl_pool_elem!(F16, LOCAL_F16, SHELF_F16);
impl_pool_elem!(Bf16, LOCAL_BF16, SHELF_BF16);
impl_pool_elem!(f32, LOCAL_F32, SHELF_F32);
impl_pool_elem!(f64, LOCAL_F64, SHELF_F64);

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
    let overflow = T::with_local(|local| local.put(class, buf).err());
    if let Some(buf) = overflow {
        let mut shelf = match T::shelf().lock() {
            Ok(s) => s,
            Err(poisoned) => poisoned.into_inner(),
        };
        shelf_put(&mut shelf, class, buf);
    }
    RECYCLED.fetch_add(1, Ordering::Relaxed);
}

/// Hands out a cleared buffer with capacity for at least `min_capacity`
/// elements, reusing a freelisted buffer when one of the right size
/// class is available (thread-local first, then the global shelf).
pub fn acquire<T: PoolElem>(min_capacity: usize) -> PooledVec<T> {
    let Some(class) = size_class(min_capacity) else {
        // Absurdly large request: serve it unpooled.
        MISSES.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(
            (min_capacity * std::mem::size_of::<T>()) as u64,
            Ordering::Relaxed,
        );
        return PooledVec {
            buf: Vec::with_capacity(min_capacity),
        };
    };
    if let Some(buf) = T::with_local(|local| local.take(class)) {
        HITS.fetch_add(1, Ordering::Relaxed);
        return PooledVec { buf };
    }
    let shelved = {
        let mut shelf = match T::shelf().lock() {
            Ok(s) => s,
            Err(poisoned) => poisoned.into_inner(),
        };
        shelf.get_mut(class).and_then(|c| c.pop())
    };
    if let Some(buf) = shelved {
        HITS.fetch_add(1, Ordering::Relaxed);
        return PooledVec { buf };
    }
    let cap = 1usize << class;
    MISSES.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add((cap * std::mem::size_of::<T>()) as u64, Ordering::Relaxed);
    PooledVec {
        buf: Vec::with_capacity(cap),
    }
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
        let cap = 1 << 20; // distinct class from the other tests
        std::thread::spawn(move || {
            let _warm: PooledVec<f32> = acquire(cap);
            // Dropped at thread exit: local list drains to the shelf.
        })
        .join()
        .unwrap();
        let before = pool_stats();
        let v: PooledVec<f32> = acquire(cap);
        let after = pool_stats();
        assert!(v.capacity() >= cap);
        assert_eq!(after.hits - before.hits, 1, "shelf must serve the hit");
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
