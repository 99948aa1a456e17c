//! The verification memo: each distinct kernel *shape* is verified once.
//!
//! Both verifiers read a kernel's die, its three slot lists,
//! `min(body_iterations, FLOW_UNROLL)` (the walk unrolls no more body
//! passes than that), its waves per workgroup, its LDS bytes and its two
//! VGPR counts — nothing else. The launch size (`workgroups`) and the
//! memory hints never reach a finding, and the kernel name only labels
//! the report. rocBLAS picks a kernel the same way (paper §III): the tile
//! configuration fixes the code, the problem size only the launch. A
//! plan search or a size sweep therefore compiles many kernels of one
//! shape, and a [`VerifyMemo`] verifies each shape once and replays its
//! verdict for the rest.
//!
//! The one finding that prints launch counts is `empty-kernel`, and it
//! fires only for a kernel with zero waves or zero dynamic slots; such
//! a kernel bypasses the memo.
//!
//! A memo belongs to whoever owns the sweep, such as an experiment run
//! or a [`crate::verify_kernel`] call. It is shared by reference across
//! threads: the key is built and hashed and the verifier runs outside
//! the lock, so two workers never wait on each other's verification,
//! and a lookup holds the lock for one key comparison.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use mc_isa::specs::DieSpec;
use mc_isa::{KernelDesc, SlotOp};

use crate::flow::FLOW_UNROLL;
use crate::{Rejection, Verified};

/// What verifying one kernel yields.
type Verdict = Result<Verified, Rejection>;

/// Everything the two verifiers read of a kernel. Slot lists are kept as
/// run-length `(op, count)` runs: planner bodies are long runs of one
/// MFMA or VALU op, so a run list is a small fraction of the slots.
#[derive(Debug)]
struct ShapeKey {
    /// The hash of every other field, computed once when the key is
    /// built: hashing a key's runs costs about a microsecond, too long
    /// to spend inside the lock on every lookup.
    hash: u64,
    die: DieSpec,
    /// The runs of the prologue, the body and the epilogue, in order.
    runs: Box<[(SlotOp, u32)]>,
    /// How many runs the prologue and the body hold; the epilogue holds
    /// the rest.
    sections: [usize; 2],
    /// The body passes the verifiers walk.
    body_passes: u64,
    waves_per_workgroup: u32,
    lds_bytes_per_workgroup: u32,
    arch_vgprs: u32,
    acc_vgprs: u32,
}

impl ShapeKey {
    /// The key of `k` on `die`, or `None` when `k` launches no wave or
    /// executes no slot (its `empty-kernel` finding prints those counts).
    fn of(die: &DieSpec, k: &KernelDesc) -> Option<Self> {
        let p = &k.program;
        let executes = !p.prologue.is_empty()
            || !p.epilogue.is_empty()
            || (!p.body.is_empty() && p.body_iterations > 0);
        if k.total_waves() == 0 || !executes {
            return None;
        }
        let mut runs = Vec::new();
        push_runs(&mut runs, &p.prologue);
        let prologue = runs.len();
        push_runs(&mut runs, &p.body);
        let body = runs.len() - prologue;
        push_runs(&mut runs, &p.epilogue);
        let mut key = ShapeKey {
            hash: 0,
            die: die.clone(),
            runs: runs.into_boxed_slice(),
            sections: [prologue, body],
            body_passes: p.body_iterations.min(FLOW_UNROLL),
            waves_per_workgroup: k.waves_per_workgroup,
            lds_bytes_per_workgroup: k.lds_bytes_per_workgroup,
            arch_vgprs: k.arch_vgprs,
            acc_vgprs: k.acc_vgprs,
        };
        key.hash = key.fields_hash();
        Some(key)
    }

    /// Hashes every field but `hash`. `DieSpec` holds an `f64` (HBM
    /// bandwidth), so the hash skips that field: equal keys still hash
    /// equally, and a die is one of a handful per memo anyway.
    fn fields_hash(&self) -> u64 {
        let mut state = FxHasher::default();
        self.die.arch.hash(&mut state);
        self.die.compute_units.hash(&mut state);
        self.runs.hash(&mut state);
        self.sections.hash(&mut state);
        self.body_passes.hash(&mut state);
        self.waves_per_workgroup.hash(&mut state);
        self.lds_bytes_per_workgroup.hash(&mut state);
        self.arch_vgprs.hash(&mut state);
        self.acc_vgprs.hash(&mut state);
        state.finish()
    }
}

/// Appends `ops` to `runs` run-length encoded, starting a fresh run at
/// the section boundary.
fn push_runs(runs: &mut Vec<(SlotOp, u32)>, ops: &[SlotOp]) {
    let start = runs.len();
    for op in ops {
        match runs[start..].last_mut() {
            Some((last, n)) if last == op && *n < u32::MAX => *n += 1,
            _ => runs.push((*op, 1)),
        }
    }
}

/// The multiply-rotate hash of the Rust compiler's `FxHasher`: a key is
/// a few dozen small words, which SipHash spends most of a lookup on.
/// The memo's keys are built from the program's own kernels, so a hash
/// without flooding resistance is fine.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(i.into());
    }

    fn write_u16(&mut self, i: u16) {
        self.add(i.into());
    }

    fn write_u32(&mut self, i: u32) {
        self.add(i.into());
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

// `DieSpec` holds an `f64`, so equality goes through its `PartialEq`.
impl PartialEq for ShapeKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash
            && self.runs == other.runs
            && self.sections == other.sections
            && self.body_passes == other.body_passes
            && self.waves_per_workgroup == other.waves_per_workgroup
            && self.lds_bytes_per_workgroup == other.lds_bytes_per_workgroup
            && self.arch_vgprs == other.arch_vgprs
            && self.acc_vgprs == other.acc_vgprs
            && self.die == other.die
    }
}

impl Eq for ShapeKey {}

impl Hash for ShapeKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// How a memo's lookups went.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from a recorded verdict.
    pub hits: u64,
    /// Lookups that ran the verifiers and recorded a verdict.
    pub misses: u64,
}

/// Verdicts of [`crate::verify_kernel`] keyed on kernel shape (see the
/// module docs). Results equal the verifiers run on each kernel, report
/// subjects included.
#[derive(Debug, Default)]
pub struct VerifyMemo {
    verdicts: Mutex<HashMap<ShapeKey, Verdict>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl VerifyMemo {
    /// An empty memo.
    pub fn new() -> Self {
        VerifyMemo::default()
    }

    /// Verifies `k` on `die` with both verifiers, or replays the verdict
    /// recorded for its shape with the report relabelled to `k.name`.
    pub fn verify(&self, die: &DieSpec, k: &KernelDesc) -> Result<Verified, Rejection> {
        let Some(key) = ShapeKey::of(die, k) else {
            return crate::verify_walk(die, k);
        };
        let recorded = self.lock().get(&key).cloned();
        if let Some(verdict) = recorded {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return relabel(verdict, &k.name);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let verdict = crate::verify_walk(die, k);
        self.lock().entry(key).or_insert_with(|| verdict.clone());
        verdict
    }

    /// Hit and miss counts so far.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Distinct shapes recorded.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no shape is recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<ShapeKey, Verdict>> {
        // A verdict is inserted whole, so a worker that panicked while
        // holding the lock left the map consistent.
        self.verdicts.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A recorded verdict as verifying a kernel named `name` reports it.
fn relabel(verdict: Verdict, name: &str) -> Verdict {
    verdict.map_err(|rejection| match rejection {
        Rejection::Lint(mut r) => {
            r.subject = name.to_owned();
            Rejection::Lint(r)
        }
        Rejection::Flow(mut r) => {
            r.subject = name.to_owned();
            Rejection::Flow(r)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_isa::{cdna2_catalog, LdsAccess, WaitSpec, WaveProgram};
    use mc_types::DType;

    fn die() -> DieSpec {
        mc_isa::specs::mi250x().die
    }

    fn kernel(name: &str, iterations: u64, workgroups: u64) -> KernelDesc {
        let mfma = SlotOp::Mfma(
            *cdna2_catalog()
                .find(DType::F32, DType::F16, 16, 16, 16)
                .unwrap(),
        );
        let mut body = vec![
            SlotOp::global_load(16),
            SlotOp::Waitcnt(WaitSpec::vm(0)),
            SlotOp::lds_write(16, LdsAccess::fixed(0)),
            SlotOp::Waitcnt(WaitSpec::lgkm(0)),
            SlotOp::Barrier,
            SlotOp::lds_read(16, LdsAccess::fixed(0)),
            SlotOp::Waitcnt(WaitSpec::lgkm(0)),
        ];
        body.extend(std::iter::repeat_n(mfma, 16));
        body.extend([SlotOp::Scalar, SlotOp::Barrier]);
        KernelDesc {
            waves_per_workgroup: 4,
            workgroups,
            lds_bytes_per_workgroup: 4096,
            arch_vgprs: 64,
            acc_vgprs: 64,
            ..KernelDesc::new(name, WaveProgram::looped(body, iterations))
        }
    }

    #[test]
    fn runs_compress_repeats_and_keep_section_boundaries() {
        let k = kernel("k", 8, 1);
        let key = ShapeKey::of(&die(), &k).unwrap();
        // 7 distinct slots, one 16-MFMA run, Scalar, Barrier.
        assert_eq!(key.runs.len(), 10);
        assert_eq!(key.sections, [0, 10]);
        assert_eq!(key.runs[7], (k.program.body[7], 16));
        // The same ops split across prologue and body stay two runs.
        let mut split = k.clone();
        split.program.prologue = vec![SlotOp::Scalar];
        split.program.body = vec![SlotOp::Scalar, SlotOp::Barrier];
        let key = ShapeKey::of(&die(), &split).unwrap();
        assert_eq!(key.sections, [1, 2]);
        assert_eq!(key.runs.len(), 3);
    }

    #[test]
    fn launch_size_and_long_loops_share_a_shape() {
        let memo = VerifyMemo::new();
        let first = memo.verify(&die(), &kernel("a", 3, 1));
        for (iterations, workgroups) in [(4, 1), (1 << 40, 110), (u64::MAX, u64::MAX)] {
            let k = kernel("b", iterations, workgroups);
            assert_eq!(memo.verify(&die(), &k), first);
            assert_eq!(memo.verify(&die(), &k), crate::verify_walk(&die(), &k));
        }
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.stats(), MemoStats { hits: 6, misses: 1 });
        // Fewer passes than the unroll are distinct shapes.
        for iterations in [1, 2] {
            memo.verify(&die(), &kernel("c", iterations, 1)).ok();
        }
        assert_eq!(memo.len(), 3);
    }

    #[test]
    fn empty_kernels_bypass_the_memo() {
        let memo = VerifyMemo::new();
        for (iterations, workgroups) in [(0, 1), (8, 0)] {
            let k = kernel("empty", iterations, workgroups);
            assert_eq!(memo.verify(&die(), &k), crate::verify_walk(&die(), &k));
        }
        assert!(memo.is_empty());
        assert_eq!(memo.stats(), MemoStats::default());
    }

    #[test]
    fn a_replayed_rejection_names_the_kernel_it_was_asked_about() {
        let memo = VerifyMemo::new();
        let mut bad = kernel("first", 8, 1);
        bad.lds_bytes_per_workgroup = u32::MAX;
        let Err(Rejection::Lint(first)) = memo.verify(&die(), &bad) else {
            panic!("an over-allocated kernel is rejected");
        };
        bad.name = "second".into();
        let Err(Rejection::Lint(second)) = memo.verify(&die(), &bad) else {
            panic!("the replayed verdict is the rejection");
        };
        assert_eq!(first.subject, "first");
        assert_eq!(second.subject, "second");
        assert_eq!(first.diagnostics, second.diagnostics);
    }

    #[test]
    fn dies_do_not_share_verdicts() {
        let memo = VerifyMemo::new();
        let k = kernel("k", 8, 1);
        let mi100 = mc_isa::specs::mi100().die;
        assert_eq!(memo.verify(&mi100, &k), crate::verify_walk(&mi100, &k));
        assert_eq!(memo.verify(&die(), &k), crate::verify_walk(&die(), &k));
        assert_eq!(memo.len(), 2);
    }
}
