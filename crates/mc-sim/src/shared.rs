//! Thread-safe device sharing.
//!
//! The paper's measurement setup is inherently multi-process: a
//! benchmark drives the GPU while a *separate* background tool polls
//! SMI (§IV-C). [`SharedGpu`] reproduces that topology in-process: a
//! mutex-guarded device handle that a workload thread and
//! observer threads (counters, telemetry) can use concurrently.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use mc_isa::KernelDesc;

use crate::counters::HwCounters;
use crate::device::{Gpu, PackageResult};
use crate::engine::LaunchError;

/// A cloneable, thread-safe handle to one simulated GPU.
#[derive(Clone, Debug)]
pub struct SharedGpu {
    inner: Arc<Mutex<Gpu>>,
}

impl SharedGpu {
    /// Wraps a GPU for shared use.
    pub fn new(gpu: Gpu) -> Self {
        SharedGpu {
            inner: Arc::new(Mutex::new(gpu)),
        }
    }

    /// A shared MI250X.
    pub fn mi250x() -> Self {
        SharedGpu::new(Gpu::mi250x())
    }

    /// Launches a kernel (serializing with other users of the handle).
    pub fn launch(&self, die: usize, kernel: &KernelDesc) -> Result<PackageResult, LaunchError> {
        self.lock().launch(die, kernel)
    }

    /// Reads one die's cumulative counters — safe to call from an
    /// observer thread while another thread launches.
    pub fn counters(&self, die: usize) -> Result<HwCounters, LaunchError> {
        self.lock().counters(die)
    }

    /// Runs a closure with exclusive access to the device (for anything
    /// not covered by the convenience methods).
    pub fn with<R>(&self, f: impl FnOnce(&mut Gpu) -> R) -> R {
        f(&mut self.lock())
    }

    fn lock(&self) -> MutexGuard<'_, Gpu> {
        // A user that panicked does not lock the others out of the
        // device; its counters keep whatever that launch recorded.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_isa::{cdna2_catalog, SlotOp, WaveProgram};
    use mc_types::DType;

    fn kernel(iters: u64) -> KernelDesc {
        let i = *cdna2_catalog()
            .find(DType::F32, DType::F16, 16, 16, 16)
            .unwrap();
        KernelDesc {
            workgroups: 64,
            waves_per_workgroup: 1,
            ..KernelDesc::new("shared", WaveProgram::looped(vec![SlotOp::Mfma(i)], iters))
        }
    }

    #[test]
    fn workload_and_observer_threads_share_one_device() {
        let gpu = SharedGpu::mi250x();
        let observer = {
            let gpu = gpu.clone();
            std::thread::spawn(move || {
                // Poll counters until the workload's MFMA traffic appears
                // (bounded; the workload thread runs concurrently).
                for _ in 0..10_000 {
                    let c = gpu.counters(0).expect("die 0");
                    if c.mfma_mops_f16 > 0 {
                        return c.mfma_mops_f16;
                    }
                    std::thread::yield_now();
                }
                0
            })
        };
        let workload = {
            let gpu = gpu.clone();
            std::thread::spawn(move || {
                for _ in 0..50 {
                    gpu.launch(0, &kernel(1000)).expect("launch");
                }
            })
        };
        workload.join().unwrap();
        let seen = observer.join().unwrap();
        assert!(seen > 0, "observer must see live counters");
        // Final totals reflect all 50 launches.
        let total = gpu.counters(0).unwrap();
        assert_eq!(total.mfma_mops_f16, 50 * 64 * 1000 * 8192 / 512);
    }

    #[test]
    fn with_gives_exclusive_access() {
        let gpu = SharedGpu::mi250x();
        let name = gpu.with(|g| g.spec().name.clone());
        assert!(name.contains("MI250X"));
    }

    #[test]
    fn clones_share_state() {
        let a = SharedGpu::mi250x();
        let b = a.clone();
        a.launch(0, &kernel(10)).unwrap();
        assert!(b.counters(0).unwrap().mfma_mops_f16 > 0);
    }
}
