//! Kernel / wavefront instruction-stream representation.
//!
//! The WMMA layer and the BLAS library "compile" their computations into a
//! [`KernelDesc`]: a per-wavefront program (prologue, a loop body with an
//! iteration count, epilogue) plus a launch geometry. The simulator
//! executes these programs. Keeping the representation at wavefront
//! granularity — one [`SlotOp`] is one instruction issued by a whole
//! wavefront — is what lets the 40-million-iteration microbenchmark loops
//! of the paper (§IV-A) and 65000³ GEMMs run in closed form.

use serde::{Deserialize, Serialize};

use crate::instr::MatrixInstruction;
use crate::valu::ValuOp;

/// The hardware counter an outstanding memory operation retires on.
///
/// CDNA2 tracks memory completion with two saturating counters: `vmcnt`
/// for vector-memory (global/HBM) operations and `lgkmcnt` for
/// LDS/GDS/scalar/message operations. A `S_WAITCNT` argument names the
/// counter it bounds, so the dataflow verifier (`mc_lint::flow`) must know
/// which counter each load or store increments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CounterClass {
    /// Vector-memory counter (`vmcnt`): global loads and stores.
    #[default]
    Vm,
    /// LDS/scalar counter (`lgkmcnt`): flat/scalar traffic routed
    /// through the LDS-group counter.
    Lgkm,
}

/// Which pipeline stage of a multi-buffered LDS allocation an access
/// touches, possibly as a function of the loop iteration.
///
/// A double-buffered GEMM body writes stage `(i+1) % 2` while reading
/// stage `i % 2`; encoding that rotation symbolically lets the race
/// detector *prove* the ping-pong never collides instead of assuming it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StageTag {
    /// The access always touches the same stage (prologue fills,
    /// single-buffered bodies).
    Fixed(u8),
    /// The access touches stage `(iteration + offset) % period`.
    Rotating {
        /// Stage offset at iteration 0.
        offset: u8,
        /// Rotation period — the number of stages (2 for double
        /// buffering).
        period: u8,
    },
}

impl StageTag {
    /// The concrete stage this tag touches on the given loop iteration.
    /// `Fixed` tags ignore the iteration; a degenerate rotation period
    /// of 0 is treated as 1.
    pub fn resolve(&self, iteration: u64) -> u8 {
        match *self {
            StageTag::Fixed(stage) => stage,
            StageTag::Rotating { offset, period } => {
                let period = u64::from(period.max(1));
                ((iteration + u64::from(offset)) % period) as u8
            }
        }
    }

    /// Every stage this tag can touch over a full steady-state rotation.
    pub fn stage_set(&self) -> impl Iterator<Item = u8> {
        let (first, count) = match *self {
            StageTag::Fixed(stage) => (stage, 1),
            StageTag::Rotating { period, .. } => (0, period.max(1)),
        };
        (0..count).map(move |i| match count {
            1 => first,
            _ => i,
        })
    }
}

/// Symbolic description of which LDS resource an access touches: a
/// buffer identity (distinct planner allocations) plus a [`StageTag`]
/// selecting the pipeline stage within that buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LdsAccess {
    /// Planner-assigned buffer id; accesses to different buffers never
    /// alias.
    pub buffer: u8,
    /// Pipeline stage within the buffer.
    pub stage: StageTag,
}

impl LdsAccess {
    /// An access that always touches stage 0 of `buffer`.
    pub fn fixed(buffer: u8) -> Self {
        LdsAccess {
            buffer,
            stage: StageTag::Fixed(0),
        }
    }

    /// An access that touches stage `(iteration + offset) % period` of
    /// `buffer` — the double-buffer ping-pong when `period == 2`.
    pub fn rotating(buffer: u8, offset: u8, period: u8) -> Self {
        LdsAccess {
            buffer,
            stage: StageTag::Rotating { offset, period },
        }
    }
}

/// The argument of an `S_WAITCNT`: upper bounds on the two outstanding
/// counters the instruction waits for. [`WaitSpec::IGNORE`] in a field
/// means that counter is not waited on (the hardware encodes this as
/// the counter's maximum value).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WaitSpec {
    /// Wait until at most this many vector-memory ops are outstanding.
    pub vmcnt: u8,
    /// Wait until at most this many LDS-group ops are outstanding.
    pub lgkmcnt: u8,
}

impl WaitSpec {
    /// Sentinel meaning "do not wait on this counter".
    pub const IGNORE: u8 = u8::MAX;

    /// `s_waitcnt vmcnt(n)` — bounds vector-memory ops only.
    pub fn vm(n: u8) -> Self {
        WaitSpec {
            vmcnt: n,
            lgkmcnt: Self::IGNORE,
        }
    }

    /// `s_waitcnt lgkmcnt(n)` — bounds LDS-group ops only.
    pub fn lgkm(n: u8) -> Self {
        WaitSpec {
            vmcnt: Self::IGNORE,
            lgkmcnt: n,
        }
    }

    /// `s_waitcnt 0` — drains both counters.
    pub fn zero() -> Self {
        WaitSpec {
            vmcnt: 0,
            lgkmcnt: 0,
        }
    }

    /// Whether this wait bounds the given counter class at all.
    pub fn bounds(&self, class: CounterClass) -> bool {
        self.bound(class) != Self::IGNORE
    }

    /// The bound this wait imposes on the given counter class
    /// ([`WaitSpec::IGNORE`] when unbounded).
    pub fn bound(&self, class: CounterClass) -> u8 {
        match class {
            CounterClass::Vm => self.vmcnt,
            CounterClass::Lgkm => self.lgkmcnt,
        }
    }
}

/// One instruction slot issued by a wavefront.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SlotOp {
    /// A matrix fused multiply-add on the CU's Matrix Core (or SM tensor
    /// core).
    Mfma(MatrixInstruction),
    /// A vector-ALU instruction on the CU's SIMD units.
    Valu(ValuOp),
    /// A global-memory (HBM via L2) load; `bytes_per_lane` bytes per lane.
    GlobalLoad {
        /// Bytes fetched per lane (wavefront traffic = 64×this on CDNA2).
        bytes_per_lane: u32,
        /// Outstanding counter the load retires on (`vmcnt` for global).
        counter: CounterClass,
    },
    /// A global-memory store.
    GlobalStore {
        /// Bytes written per lane.
        bytes_per_lane: u32,
        /// Outstanding counter the store retires on.
        counter: CounterClass,
    },
    /// A read from the CU's local data share (shared memory). Retires on
    /// `lgkmcnt`.
    LdsRead {
        /// Bytes read per lane.
        bytes_per_lane: u32,
        /// Which buffer/stage the read touches.
        access: LdsAccess,
    },
    /// A write to the local data share. Retires on `lgkmcnt`.
    LdsWrite {
        /// Bytes written per lane.
        bytes_per_lane: u32,
        /// Which buffer/stage the write touches.
        access: LdsAccess,
    },
    /// `S_NOP n` — the hardware-mandated independent cycles before MFMA
    /// results may be read (paper §III "several no-op instructions might
    /// be required").
    SNop(u8),
    /// Scalar-ALU work: loop counters, branches, address set-up. Free on
    /// the vector pipelines but occupies an issue slot.
    Scalar,
    /// `S_WAITCNT` — wait until outstanding memory operations drain to
    /// the bounds in the [`WaitSpec`].
    Waitcnt(WaitSpec),
    /// Workgroup barrier (`s_barrier`). Synchronizes execution only; it
    /// does *not* wait for memory — pair it with a preceding
    /// `s_waitcnt lgkmcnt(0)` to publish LDS data (the verifier checks
    /// this).
    Barrier,
}

impl SlotOp {
    /// A global load on the vector-memory counter.
    pub fn global_load(bytes_per_lane: u32) -> Self {
        SlotOp::GlobalLoad {
            bytes_per_lane,
            counter: CounterClass::Vm,
        }
    }

    /// A global store on the vector-memory counter.
    pub fn global_store(bytes_per_lane: u32) -> Self {
        SlotOp::GlobalStore {
            bytes_per_lane,
            counter: CounterClass::Vm,
        }
    }

    /// An LDS read from the given buffer/stage.
    pub fn lds_read(bytes_per_lane: u32, access: LdsAccess) -> Self {
        SlotOp::LdsRead {
            bytes_per_lane,
            access,
        }
    }

    /// An LDS write to the given buffer/stage.
    pub fn lds_write(bytes_per_lane: u32, access: LdsAccess) -> Self {
        SlotOp::LdsWrite {
            bytes_per_lane,
            access,
        }
    }
    /// FLOPs this slot contributes when executed once by a wavefront.
    pub fn flops(&self) -> u64 {
        match self {
            SlotOp::Mfma(i) => i.flops(),
            SlotOp::Valu(v) => v.flops_per_wavefront(),
            _ => 0,
        }
    }

    /// Global-memory bytes moved (load + store) by one execution.
    pub fn global_bytes(&self, lanes: u64) -> u64 {
        match self {
            SlotOp::GlobalLoad { bytes_per_lane, .. }
            | SlotOp::GlobalStore { bytes_per_lane, .. } => u64::from(*bytes_per_lane) * lanes,
            _ => 0,
        }
    }

    /// `true` if this is a Matrix-Core (tensor-core) instruction.
    pub fn is_mfma(&self) -> bool {
        matches!(self, SlotOp::Mfma(_))
    }
}

/// One section of a [`WaveProgram`] (its prologue, loop body or
/// epilogue), stored as run-length `(op, count)` runs.
///
/// Planner bodies are long runs of one MFMA or VALU op, so a section
/// holds far fewer runs than slots. Code that only sums over a program
/// (FLOPs, bytes, the engine's pipeline demand, hardware counters) reads
/// [`SlotRuns::runs`] and prices each run as one `count × times` term.
/// Every per-slot term is an integer-valued `f64` or a `u64`, so that
/// product equals the per-slot sum exactly.
///
/// The runs are canonical: none is empty, and adjacent runs hold
/// different ops unless the first is full at `u32::MAX` slots. Two
/// sections are therefore equal exactly when their slot sequences are,
/// however they were built. Code that reads single slots (the
/// verifiers' walks, the disassembler, spans such as `body[580]`) uses
/// the per-slot view: [`SlotRuns::iter`], [`SlotRuns::len`],
/// [`SlotRuns::get`], indexing, and the [`SlotRuns::insert`],
/// [`SlotRuns::remove`] and [`SlotRuns::set`] edits.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct SlotRuns {
    runs: Vec<(SlotOp, u32)>,
}

impl SlotRuns {
    /// An empty section.
    pub fn new() -> Self {
        SlotRuns::default()
    }

    /// The canonical `(op, count)` runs, in program order.
    pub fn runs(&self) -> &[(SlotOp, u32)] {
        &self.runs
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|&(_, n)| n as usize).sum()
    }

    /// Whether the section holds no slot.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Iterates the slots one by one, in program order.
    pub fn iter(&self) -> impl Iterator<Item = &SlotOp> + Clone + '_ {
        self.runs
            .iter()
            .flat_map(|(op, n)| std::iter::repeat_n(op, *n as usize))
    }

    /// The slot at `index`, or `None` past the end.
    pub fn get(&self, index: usize) -> Option<&SlotOp> {
        self.locate(index).map(|(run, _)| &self.runs[run].0)
    }

    /// Appends one slot.
    pub fn push(&mut self, op: SlotOp) {
        self.push_n(op, 1);
    }

    /// Appends `n` copies of `op`: one run, or one more slot count on
    /// the last run when it holds `op` already.
    pub fn push_n(&mut self, op: SlotOp, mut n: usize) {
        if let Some((last, count)) = self.runs.last_mut() {
            if *last == op {
                let add = n.min((u32::MAX - *count) as usize);
                *count += add as u32;
                n -= add;
            }
        }
        while n > 0 {
            let add = n.min(u32::MAX as usize);
            self.runs.push((op, add as u32));
            n -= add;
        }
    }

    /// Inserts `op` so that it becomes slot `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index > len`.
    pub fn insert(&mut self, index: usize, op: SlotOp) {
        let tail = self.split_off(index);
        self.push(op);
        self.append(tail);
    }

    /// Removes and returns slot `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn remove(&mut self, index: usize) -> SlotOp {
        let len = self.len();
        assert!(
            index < len,
            "removal index (is {index}) should be < len (is {len})"
        );
        let mut tail = self.split_off(index);
        let (op, n) = &mut tail.runs[0];
        let op = *op;
        *n -= 1;
        if *n == 0 {
            tail.runs.remove(0);
        }
        self.append(tail);
        op
    }

    /// Replaces slot `index` with `op`, returning the slot it held.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn set(&mut self, index: usize, op: SlotOp) -> SlotOp {
        let old = self.remove(index);
        self.insert(index, op);
        old
    }

    /// Removes every slot.
    pub fn clear(&mut self) {
        self.runs.clear();
    }

    /// The run holding slot `index` and the slot's offset within it.
    fn locate(&self, index: usize) -> Option<(usize, u32)> {
        let mut rest = index;
        for (run, &(_, n)) in self.runs.iter().enumerate() {
            if rest < n as usize {
                return Some((run, rest as u32));
            }
            rest -= n as usize;
        }
        None
    }

    /// Splits the section before slot `index`, returning the slots from
    /// `index` on. The tail's first run may be a partial one; it is
    /// canonical again once [`SlotRuns::append`]ed.
    fn split_off(&mut self, index: usize) -> SlotRuns {
        let runs = match self.locate(index) {
            Some((run, 0)) => self.runs.split_off(run),
            Some((run, at)) => {
                let mut tail = self.runs.split_off(run + 1);
                let (op, n) = &mut self.runs[run];
                tail.insert(0, (*op, *n - at));
                *n = at;
                tail
            }
            None => {
                let len = self.len();
                assert!(
                    index == len,
                    "insertion index (is {index}) should be <= len (is {len})"
                );
                Vec::new()
            }
        };
        SlotRuns { runs }
    }

    /// Appends every run of `tail`, merging across the seam.
    fn append(&mut self, tail: SlotRuns) {
        for (op, n) in tail.runs {
            self.push_n(op, n as usize);
        }
    }
}

impl std::ops::Index<usize> for SlotRuns {
    type Output = SlotOp;

    fn index(&self, index: usize) -> &SlotOp {
        self.get(index).unwrap_or_else(|| {
            panic!(
                "index out of bounds: the len is {} but the index is {index}",
                self.len()
            )
        })
    }
}

impl Extend<SlotOp> for SlotRuns {
    fn extend<I: IntoIterator<Item = SlotOp>>(&mut self, ops: I) {
        for op in ops {
            self.push(op);
        }
    }
}

impl FromIterator<SlotOp> for SlotRuns {
    fn from_iter<I: IntoIterator<Item = SlotOp>>(ops: I) -> Self {
        let mut runs = SlotRuns::new();
        runs.extend(ops);
        runs
    }
}

impl From<Vec<SlotOp>> for SlotRuns {
    fn from(ops: Vec<SlotOp>) -> Self {
        ops.into_iter().collect()
    }
}

impl<const N: usize> From<[SlotOp; N]> for SlotRuns {
    fn from(ops: [SlotOp; N]) -> Self {
        ops.into_iter().collect()
    }
}

// Serialized as its runs; a deserialized list is re-canonicalized.
impl Serialize for SlotRuns {
    fn to_value(&self) -> serde::Value {
        self.runs.to_value()
    }
}

impl Deserialize for SlotRuns {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let mut runs = SlotRuns::new();
        for (op, n) in Vec::<(SlotOp, u32)>::from_value(value)? {
            runs.push_n(op, n as usize);
        }
        Ok(runs)
    }
}

/// A per-wavefront program: straight-line prologue, a loop body executed
/// `body_iterations` times, and an epilogue, each stored as [`SlotRuns`].
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct WaveProgram {
    /// Instructions executed once before the loop.
    pub prologue: SlotRuns,
    /// The loop body.
    pub body: SlotRuns,
    /// Number of loop iterations.
    pub body_iterations: u64,
    /// Instructions executed once after the loop.
    pub epilogue: SlotRuns,
}

impl WaveProgram {
    /// A program that is only a loop body.
    pub fn looped(body: impl Into<SlotRuns>, iterations: u64) -> Self {
        WaveProgram {
            prologue: SlotRuns::new(),
            body: body.into(),
            body_iterations: iterations,
            epilogue: SlotRuns::new(),
        }
    }

    /// Iterates the program's runs with their dynamic execution counts,
    /// as `(op, count × times)`: `times` is 1 for the prologue and the
    /// epilogue and `body_iterations` for the body. The product
    /// saturates at `u64::MAX`. Summing a per-slot quantity over these
    /// pairs gives the same total as summing it slot by slot.
    pub fn dynamic_slots(&self) -> impl Iterator<Item = (&SlotOp, u64)> {
        fn priced(section: &SlotRuns, times: u64) -> impl Iterator<Item = (&SlotOp, u64)> {
            section
                .runs()
                .iter()
                .map(move |(op, n)| (op, u64::from(*n).saturating_mul(times)))
        }
        priced(&self.prologue, 1)
            .chain(priced(&self.body, self.body_iterations))
            .chain(priced(&self.epilogue, 1))
    }

    /// Total FLOPs one wavefront performs executing this program.
    pub fn flops(&self) -> u64 {
        self.dynamic_slots().map(|(op, n)| op.flops() * n).sum()
    }

    /// FLOPs delivered by Matrix-Core instructions only.
    pub fn mfma_flops(&self) -> u64 {
        self.dynamic_slots()
            .filter(|(op, _)| op.is_mfma())
            .map(|(op, n)| op.flops() * n)
            .sum()
    }

    /// Total global-memory traffic in bytes for one wavefront.
    pub fn global_bytes(&self, lanes: u64) -> u64 {
        self.dynamic_slots()
            .map(|(op, n)| op.global_bytes(lanes) * n)
            .sum()
    }
}

/// Global-load staging discipline of a kernel's inner loop: whether the
/// planner emitted a pipelined (double-buffered) panel stage whose DRAM
/// latency hides behind compute, or a single-buffered stage that
/// serializes memory behind the compute phases.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Buffering {
    /// One panel stage in LDS: each iteration waits for its global
    /// loads before computing, so DRAM time adds to compute time. Costs
    /// half the LDS/fragment registers of [`Buffering::Double`].
    Single,
    /// Two panel stages in LDS: iteration `i+1`'s loads issue while
    /// iteration `i` computes, so DRAM time overlaps compute (the
    /// rocBLAS-style pipelined GEMM the paper's kernels use).
    #[default]
    Double,
}

/// Memory-system hints the planner attaches to a kernel so the simulator
/// can model DRAM behaviour without re-deriving the blocking structure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MemHints {
    /// Estimated DRAM (HBM) traffic in bytes after L2 filtering — the
    /// planner owns the tiling knowledge needed to estimate reuse.
    pub hbm_bytes: u64,
    /// Total working set touched by the kernel, in bytes.
    pub working_set_bytes: u64,
    /// `true` when row strides are large powers of two, which causes
    /// channel/bank camping and degrades effective DRAM bandwidth (the
    /// mechanism behind the paper's Fig. 6/7 dips at N = 2^k).
    pub pow2_stride: bool,
    /// Whether the kernel's global loads are double-buffered (DRAM time
    /// overlaps compute) or single-buffered (it serializes).
    pub buffering: Buffering,
}

/// A complete kernel launch: program + geometry + resource usage.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct KernelDesc {
    /// Human-readable kernel name (appears in profiler output).
    pub name: String,
    /// The per-wavefront program (all waves execute the same program; a
    /// tail-workgroup correction can be expressed via `workgroups`
    /// fractions at the caller's accounting level).
    pub program: WaveProgram,
    /// Wavefronts per workgroup.
    pub waves_per_workgroup: u32,
    /// Number of workgroups launched.
    pub workgroups: u64,
    /// Local-data-share bytes allocated per workgroup (occupancy limiter).
    pub lds_bytes_per_workgroup: u32,
    /// Architectural VGPRs per lane used by the kernel.
    pub arch_vgprs: u32,
    /// Accumulation VGPRs per lane used by the kernel.
    pub acc_vgprs: u32,
    /// Memory-system hints (see [`MemHints`]).
    pub mem_hints: MemHints,
}

impl KernelDesc {
    /// Creates a kernel with no LDS use and a default register footprint.
    pub fn new(name: impl Into<String>, program: WaveProgram) -> Self {
        KernelDesc {
            name: name.into(),
            program,
            waves_per_workgroup: 1,
            workgroups: 1,
            lds_bytes_per_workgroup: 0,
            arch_vgprs: 32,
            acc_vgprs: 0,
            mem_hints: MemHints::default(),
        }
    }

    /// Total wavefronts in the launch, saturating at `u64::MAX`.
    pub fn total_waves(&self) -> u64 {
        u64::from(self.waves_per_workgroup).saturating_mul(self.workgroups)
    }

    /// Total FLOPs across the launch.
    pub fn total_flops(&self) -> u64 {
        self.program.flops() * self.total_waves()
    }

    /// Total Matrix-Core FLOPs across the launch.
    pub fn total_mfma_flops(&self) -> u64 {
        self.program.mfma_flops() * self.total_waves()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::cdna2_catalog;
    use crate::valu::{ValuOp, ValuOpKind};
    use mc_types::DType;

    fn mixed_mfma() -> SlotOp {
        SlotOp::Mfma(
            *cdna2_catalog()
                .find(DType::F32, DType::F16, 16, 16, 16)
                .unwrap(),
        )
    }

    #[test]
    fn microbenchmark_loop_flops() {
        // Paper §V-A: 2mnk · N_iter FLOPs per wavefront, N_iter = 1e7.
        let program = WaveProgram::looped(vec![mixed_mfma()], 10_000_000);
        assert_eq!(program.flops(), 8192 * 10_000_000);
        assert_eq!(program.mfma_flops(), program.flops());
    }

    #[test]
    fn prologue_epilogue_counted_once() {
        let p = WaveProgram {
            prologue: [SlotOp::global_load(16)].into(),
            body: [mixed_mfma(), SlotOp::Scalar].into(),
            body_iterations: 100,
            epilogue: [SlotOp::global_store(16)].into(),
        };
        assert_eq!(p.global_bytes(64), 2 * 16 * 64);
        assert_eq!(p.mfma_flops(), 8192 * 100);
    }

    #[test]
    fn valu_and_mixed_flops() {
        let p = WaveProgram::looped(
            vec![
                SlotOp::Valu(ValuOp::new(ValuOpKind::Fma, DType::F32)),
                mixed_mfma(),
                SlotOp::SNop(2),
            ],
            10,
        );
        assert_eq!(p.flops(), (128 + 8192) * 10);
        assert_eq!(p.mfma_flops(), 8192 * 10);
    }

    #[test]
    fn runs_merge_equal_neighbours_and_stay_canonical() {
        let mfma = mixed_mfma();
        let mut body = SlotRuns::from([SlotOp::Scalar, mfma, mfma]);
        body.push_n(mfma, 5);
        body.push(SlotOp::Barrier);
        assert_eq!(
            body.runs(),
            [(SlotOp::Scalar, 1), (mfma, 7), (SlotOp::Barrier, 1)]
        );
        assert_eq!(body.len(), 9);
        assert_eq!(body[0], SlotOp::Scalar);
        assert_eq!(body[7], mfma);
        assert_eq!(body.get(9), None);
        // Splitting a run and joining it again restores one run.
        body.insert(3, SlotOp::SNop(1));
        assert_eq!(body.runs().len(), 5);
        assert_eq!(body.remove(3), SlotOp::SNop(1));
        assert_eq!(body.runs().len(), 3);
        // Removing the only slot between two equal runs merges them.
        let mut split = SlotRuns::from([mfma, SlotOp::Scalar, mfma]);
        assert_eq!(split.remove(1), SlotOp::Scalar);
        assert_eq!(split.runs(), [(mfma, 2)]);
        assert_eq!(split.set(0, SlotOp::Scalar), mfma);
        assert_eq!(split.runs(), [(SlotOp::Scalar, 1), (mfma, 1)]);
        // However a section is built, equal slots give equal runs.
        let slots: Vec<SlotOp> = body.iter().copied().collect();
        assert_eq!(SlotRuns::from(slots), body);
        body.clear();
        assert!(body.is_empty());
    }

    #[test]
    fn full_runs_spill_into_a_second_run() {
        let mut runs = SlotRuns::new();
        runs.push_n(SlotOp::Scalar, u32::MAX as usize);
        runs.push_n(SlotOp::Scalar, 3);
        assert_eq!(
            runs.runs(),
            [(SlotOp::Scalar, u32::MAX), (SlotOp::Scalar, 3)]
        );
        assert_eq!(runs.len(), u32::MAX as usize + 3);
        assert_eq!(runs.remove(0), SlotOp::Scalar);
        assert_eq!(
            runs.runs(),
            [(SlotOp::Scalar, u32::MAX), (SlotOp::Scalar, 2)]
        );
    }

    #[test]
    #[should_panic(expected = "insertion index (is 2) should be <= len (is 1)")]
    fn insert_past_the_end_panics() {
        SlotRuns::from([SlotOp::Scalar]).insert(2, SlotOp::Barrier);
    }

    #[test]
    fn runs_round_trip_through_serde() {
        let p = WaveProgram::looped([SlotOp::Scalar, mixed_mfma(), mixed_mfma()], 4);
        let back = WaveProgram::from_value(&p.to_value()).unwrap();
        assert_eq!(back, p);
        // A list with split or empty runs is read back canonical.
        let raw = vec![
            (SlotOp::Scalar, 1u32),
            (SlotOp::Scalar, 2),
            (SlotOp::Barrier, 0),
        ];
        let runs = SlotRuns::from_value(&raw.to_value()).unwrap();
        assert_eq!(runs.runs(), [(SlotOp::Scalar, 3)]);
    }

    #[test]
    fn dynamic_counts_price_each_run_once_and_saturate() {
        let mut body = SlotRuns::new();
        body.push_n(mixed_mfma(), 16);
        let p = WaveProgram::looped(body, 1000);
        assert_eq!(p.dynamic_slots().count(), 1);
        assert_eq!(p.mfma_flops(), 8192 * 16_000);
        let huge = WaveProgram::looped([SlotOp::Scalar, SlotOp::Barrier], u64::MAX);
        assert!(huge.dynamic_slots().all(|(_, n)| n == u64::MAX));
    }

    #[test]
    fn stage_tags_resolve_the_ping_pong() {
        let read = LdsAccess::rotating(0, 0, 2);
        let write = LdsAccess::rotating(0, 1, 2);
        for i in 0..8u64 {
            assert_eq!(u64::from(read.stage.resolve(i)), i % 2);
            assert_eq!(u64::from(write.stage.resolve(i)), (i + 1) % 2);
            assert_ne!(read.stage.resolve(i), write.stage.resolve(i));
        }
        assert_eq!(LdsAccess::fixed(3).stage.resolve(17), 0);
        assert_eq!(StageTag::Fixed(2).stage_set().collect::<Vec<_>>(), [2]);
        assert_eq!(
            StageTag::Rotating {
                offset: 1,
                period: 2
            }
            .stage_set()
            .collect::<Vec<_>>(),
            [0, 1]
        );
    }

    #[test]
    fn wait_specs_bound_the_right_counters() {
        let vm = WaitSpec::vm(0);
        assert!(vm.bounds(CounterClass::Vm));
        assert!(!vm.bounds(CounterClass::Lgkm));
        assert_eq!(vm.bound(CounterClass::Vm), 0);
        let lgkm = WaitSpec::lgkm(2);
        assert!(!lgkm.bounds(CounterClass::Vm));
        assert_eq!(lgkm.bound(CounterClass::Lgkm), 2);
        let zero = WaitSpec::zero();
        assert!(zero.bounds(CounterClass::Vm) && zero.bounds(CounterClass::Lgkm));
    }

    #[test]
    fn kernel_totals() {
        let program = WaveProgram::looped(vec![mixed_mfma()], 1000);
        let k = KernelDesc {
            waves_per_workgroup: 4,
            workgroups: 110,
            ..KernelDesc::new("test", program)
        };
        assert_eq!(k.total_waves(), 440);
        assert_eq!(k.total_flops(), 8192 * 1000 * 440);
        assert_eq!(k.total_mfma_flops(), k.total_flops());
    }
}
