//! The four workloads, their seeded inputs, and the correctness check
//! every op's output must pass.
//!
//! * `gemm-large` — one `BlasHandle::sgemm` at 1024³: the `mc-compute`
//!   SIMD microkernel, packing and fan-out dominate; BLAS dispatch and
//!   the simulated launch are noise.
//! * `gemm-batched-hhs` — one `gemm_strided_batched_ex::<F16, F16, f32>`
//!   over 256 entries of 64³ (the paper's HHS routine): per-entry fixed
//!   costs dominate, so dispatch and fan-out work shows here first.
//! * `solver` — `potrf` then `getrf` at n = 768, nb = 64: the only
//!   workload where `mc-solver`'s own panels, TRSMs and block copies
//!   dominate, and where Amdahl caps a GEMM gain.
//! * `paper-suite` — one in-process pass of every registry experiment
//!   except the host-timed and file-diffing ones: the simulated plane,
//!   with no host numerics at all.

use mc_bench::experiment::{registry, Experiment, ExperimentRecord, RunContext};
use mc_blas::{select_strategy, BatchedGemmDesc, BlasHandle, GemmDesc, GemmOp};
use mc_compute::{Auto, Blocked, Epilogue, GemmParams, MatMul, Naive};
use mc_solver::getrf::Lu;
use mc_solver::{getrf, potrf, Matrix};
use mc_types::{Real, F16};
use serde::Value;

use crate::trace::Tracer;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["gemm-large", "gemm-batched-hhs", "solver", "paper-suite"];

/// Square dimension of the `gemm-large` problem.
pub const LARGE_N: usize = 1024;
/// Square dimension of one `gemm-batched-hhs` entry.
pub const ENTRY_N: usize = 64;
/// Entries per `gemm-batched-hhs` call.
pub const BATCH: usize = 256;
/// Order of the `solver` matrix.
pub const SOLVER_N: usize = 768;
/// Registry experiments `paper-suite` leaves out: `perf` and `hostprof`
/// resize the pool and time themselves, `regress` and `report` diff
/// files on disk.
pub const SUITE_SKIPPED: [&str; 4] = ["perf", "hostprof", "regress", "report"];
/// Largest relative residual a factorization may leave.
pub const RESIDUAL_TOL: f64 = 1e-12;

/// One workload: seeded inputs (made at construction, outside any
/// timing), the library state a user builds before the first op, the
/// op itself, and the check of its outputs.
pub trait Workload {
    /// (Re)builds the library-side state a user pays for before the
    /// first op: handles and registries.
    fn build(&mut self);
    /// Clears the outputs, so an op that silently writes nothing fails
    /// its check.
    fn reset_outputs(&mut self);
    /// One op: the public calls, each inside a span of `t`.
    fn op(&mut self, t: &mut Tracer) -> Result<(), String>;
    /// Whether the last op's outputs are correct.
    fn check(&mut self) -> bool;
    /// Useful floating-point work of one op, for host-numeric workloads.
    fn flops_per_op(&self) -> Option<f64>;
}

/// The named workload with inputs from `seed`.
pub fn make(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "gemm-large" => Box::new(GemmLarge::new(seed, LARGE_N)),
        "gemm-batched-hhs" => Box::new(BatchedHhs::new(seed, ENTRY_N, BATCH)),
        "solver" => Box::new(Solver::new(seed, SOLVER_N)),
        "paper-suite" => Box::new(PaperSuite::new(suite_experiments())),
        _ => return None,
    })
}

/// SplitMix64: a small, fixed input generator, so a seed names the
/// same inputs on every machine and at every commit.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [-1, 1).
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// `len` values uniform in [-1, 1), rounded to `T`.
    pub fn vec<T: Real>(&mut self, len: usize) -> Vec<T> {
        (0..len).map(|_| T::from_f64(self.uniform())).collect()
    }
}

/// The compute-backend problem the library runs for `desc`: the epilogue
/// rounding follows the static strategy, as `run_functional` does.
pub fn params_for(desc: &GemmDesc) -> GemmParams {
    let epilogue = if select_strategy(desc).uses_matrix_cores() {
        Epilogue::ComputeRounded
    } else {
        Epilogue::Direct
    };
    GemmParams::new(desc.m, desc.n, desc.k)
        .with_scaling(desc.alpha, desc.beta)
        .with_epilogue(epilogue)
}

/// `D` for one problem, from a tier other than the one `Auto` routes it
/// to: `Blocked` unless the routed tier is `Blocked`, then `Naive`. All
/// tiers agree bit for bit, so any difference is a defect.
pub fn reference<AB: Real, CD: Real, CT: Real>(
    params: &GemmParams,
    a: &[AB],
    b: &[AB],
    c: &[CD],
) -> Vec<CD> {
    let mut d = vec![CD::default(); params.m * params.n];
    let routed = Auto::from_env().routed_name::<AB, CT>(params);
    let result = if routed == "blocked" {
        Naive.gemm::<AB, CD, CT>(params, a, b, c, &mut d)
    } else {
        Blocked.gemm::<AB, CD, CT>(params, a, b, c, &mut d)
    };
    result.expect("reference buffers match the problem");
    d
}

/// Bitwise equality (through the exact f64 embedding of every dtype).
pub fn bits_equal<T: Real>(x: &[T], y: &[T]) -> bool {
    x.len() == y.len()
        && x.iter()
            .zip(y)
            .all(|(p, q)| p.to_f64().to_bits() == q.to_f64().to_bits())
}

fn nan<T: Real>() -> T {
    T::from_f64(f64::NAN)
}

/// `gemm-large`: SGEMM through the BLAS handle.
pub struct GemmLarge {
    desc: GemmDesc,
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    d: Vec<f32>,
    want: Vec<f32>,
    handle: Option<BlasHandle>,
}

impl GemmLarge {
    /// Inputs for an `n`³ problem from `seed`, and their reference.
    pub fn new(seed: u64, n: usize) -> Self {
        let desc = GemmDesc::new(GemmOp::Sgemm, n, n, n, 1.0, 0.5);
        let mut rng = Rng::new(seed);
        let (a, b, c) = (rng.vec(n * n), rng.vec(n * n), rng.vec(n * n));
        let want = reference::<f32, f32, f32>(&params_for(&desc), &a, &b, &c);
        GemmLarge {
            desc,
            a,
            b,
            c,
            d: vec![0.0; n * n],
            want,
            handle: None,
        }
    }
}

impl Workload for GemmLarge {
    fn build(&mut self) {
        self.handle = Some(BlasHandle::new_mi250x_gcd());
    }

    fn reset_outputs(&mut self) {
        self.d.fill(f32::NAN);
    }

    fn op(&mut self, t: &mut Tracer) -> Result<(), String> {
        let handle = self.handle.as_mut().expect("workload built before its ops");
        t.span("BlasHandle::sgemm", || {
            handle.sgemm(&self.desc, &self.a, &self.b, &self.c, &mut self.d)
        })
        .map(drop)
        .map_err(|e| e.to_string())
    }

    fn check(&mut self) -> bool {
        bits_equal(&self.d, &self.want)
    }

    fn flops_per_op(&self) -> Option<f64> {
        Some(2.0 * (self.desc.m * self.desc.n * self.desc.k) as f64)
    }
}

/// `gemm-batched-hhs`: strided-batched HHS (FP16 in/out, FP32 compute).
pub struct BatchedHhs {
    desc: BatchedGemmDesc,
    a: Vec<F16>,
    b: Vec<F16>,
    c: Vec<F16>,
    d: Vec<F16>,
    want: Vec<F16>,
    handle: Option<BlasHandle>,
}

impl BatchedHhs {
    /// `batch` entries of `n`³ from `seed`, and their references.
    pub fn new(seed: u64, n: usize, batch: usize) -> Self {
        let gemm = GemmDesc::new(GemmOp::Hhs, n, n, n, 1.0, 0.5);
        let desc = BatchedGemmDesc::packed(gemm, batch);
        let mut rng = Rng::new(seed);
        let len = batch * n * n;
        let (a, b, c): (Vec<F16>, Vec<F16>, Vec<F16>) = (rng.vec(len), rng.vec(len), rng.vec(len));
        let params = params_for(&gemm);
        let want = (0..batch)
            .flat_map(|i| {
                let s = i * n * n..(i + 1) * n * n;
                reference::<F16, F16, f32>(&params, &a[s.clone()], &b[s.clone()], &c[s])
            })
            .collect();
        BatchedHhs {
            desc,
            a,
            b,
            c,
            d: vec![F16::default(); len],
            want,
            handle: None,
        }
    }
}

impl Workload for BatchedHhs {
    fn build(&mut self) {
        self.handle = Some(BlasHandle::new_mi250x_gcd());
    }

    fn reset_outputs(&mut self) {
        self.d.fill(nan());
    }

    fn op(&mut self, t: &mut Tracer) -> Result<(), String> {
        let handle = self.handle.as_mut().expect("workload built before its ops");
        t.span("BlasHandle::gemm_strided_batched_ex", || {
            handle.gemm_strided_batched_ex::<F16, F16, f32>(
                &self.desc,
                &self.a,
                &self.b,
                &self.c,
                &mut self.d,
            )
        })
        .map(drop)
        .map_err(|e| e.to_string())
    }

    fn check(&mut self) -> bool {
        bits_equal(&self.d, &self.want)
    }

    fn flops_per_op(&self) -> Option<f64> {
        let g = &self.desc.gemm;
        Some(2.0 * (g.m * g.n * g.k * self.desc.batch_count) as f64)
    }
}

/// The seeded SPD matrix the solver factors: symmetric uniform entries
/// plus `n·I`.
pub fn spd_matrix(seed: u64, n: usize) -> Matrix<f64> {
    let mut rng = Rng::new(seed);
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let v = rng.uniform();
            a.set(i, j, v);
            a.set(j, i, v);
        }
        a.set(i, i, a.get(i, i) + n as f64);
    }
    a
}

/// `‖A − L·Lᵀ‖_F / ‖A‖_F` for symmetric `A`, by a plain loop independent
/// of the library.
pub fn cholesky_residual(a: &Matrix<f64>, l: &Matrix<f64>) -> f64 {
    let n = a.rows();
    let (a_s, l_s) = (a.as_slice(), l.as_slice());
    let mut err = 0.0;
    for i in 0..n {
        let li = &l_s[i * n..i * n + i + 1];
        for j in 0..=i {
            let lj = &l_s[j * n..j * n + j + 1];
            let s: f64 = li[..=j].iter().zip(lj).map(|(x, y)| x * y).sum();
            let r = a_s[i * n + j] - s;
            err += if i == j { r * r } else { 2.0 * r * r };
        }
    }
    err.sqrt() / a.frobenius_norm()
}

/// `‖P·A − L·U‖_F / ‖A‖_F` for packed LU factors, by a plain loop
/// independent of the library.
pub fn lu_residual(a: &Matrix<f64>, lu: &Lu) -> f64 {
    let n = a.rows();
    let mut pa = a.as_slice().to_vec();
    for (k, &p) in lu.ipiv.iter().enumerate() {
        if p != k {
            for col in 0..n {
                pa.swap(k * n + col, p * n + col);
            }
        }
    }
    let f = lu.lu.as_slice();
    let mut err = 0.0;
    let mut row = vec![0.0f64; n];
    for i in 0..n {
        row.fill(0.0);
        for k in 0..i {
            let l = f[i * n + k];
            for j in k..n {
                row[j] += l * f[k * n + j];
            }
        }
        for j in i..n {
            row[j] += f[i * n + j];
        }
        for j in 0..n {
            let r = pa[i * n + j] - row[j];
            err += r * r;
        }
    }
    err.sqrt() / a.frobenius_norm()
}

/// `solver`: blocked Cholesky then blocked LU of one SPD matrix.
pub struct Solver {
    a: Matrix<f64>,
    l: Option<Matrix<f64>>,
    lu: Option<Lu>,
    /// The first op's factors, once their residuals pass.
    reference: Option<(Matrix<f64>, Lu)>,
}

impl Solver {
    /// The `n`×`n` SPD matrix from `seed`.
    pub fn new(seed: u64, n: usize) -> Self {
        Solver {
            a: spd_matrix(seed, n),
            l: None,
            lu: None,
            reference: None,
        }
    }
}

impl Workload for Solver {
    fn build(&mut self) {}

    fn reset_outputs(&mut self) {
        self.l = None;
        self.lu = None;
    }

    fn op(&mut self, t: &mut Tracer) -> Result<(), String> {
        let nb = mc_solver::potrf::DEFAULT_BLOCK;
        let l = t.span("mc_solver::potrf", || potrf(&self.a, nb));
        self.l = Some(l.map_err(|e| e.to_string())?);
        let lu = t.span("mc_solver::getrf", || getrf(&self.a, nb));
        self.lu = Some(lu.map_err(|e| e.to_string())?);
        Ok(())
    }

    fn check(&mut self) -> bool {
        let (Some(l), Some(lu)) = (&self.l, &self.lu) else {
            return false;
        };
        match &self.reference {
            Some((rl, rlu)) => {
                bits_equal(l.as_slice(), rl.as_slice())
                    && bits_equal(lu.lu.as_slice(), rlu.lu.as_slice())
                    && lu.ipiv == rlu.ipiv
            }
            None => {
                let ok = cholesky_residual(&self.a, l) <= RESIDUAL_TOL
                    && lu_residual(&self.a, lu) <= RESIDUAL_TOL;
                if ok {
                    self.reference = Some((l.clone(), lu.clone()));
                }
                ok
            }
        }
    }

    fn flops_per_op(&self) -> Option<f64> {
        // Cholesky n³/3 plus LU 2n³/3.
        Some((self.a.rows() as f64).powi(3))
    }
}

/// The registry experiments `paper-suite` runs, in registry order.
pub fn suite_experiments() -> Vec<Box<dyn Experiment>> {
    registry()
        .into_iter()
        .filter(|e| !SUITE_SKIPPED.contains(&e.id()))
        .collect()
}

/// Gate counts that must read 0: `(experiment, JSON pointer)`.
pub const SUITE_GATES: [(&str, &str); 9] = [
    ("lint", "/total_errors"),
    ("flow", "/total_errors"),
    ("flow", "/total_warnings"),
    ("trace", "/total_violations"),
    ("trace", "/total_counter_mismatches"),
    ("insight", "/unclassified"),
    ("insight", "/regime_inconsistent"),
    ("insight", "/drift_out_of_band"),
    ("autotune", "/losing_points"),
];

/// Everything wrong with one suite pass: failed pass-bands, non-zero
/// gate counts, and payloads that differ from the first pass's. No
/// payload field is timed on the host clock, so every field must repeat
/// exactly.
pub fn suite_failures(records: &[ExperimentRecord], first: Option<&[Value]>) -> Vec<String> {
    let mut failures = Vec::new();
    for (i, r) in records.iter().enumerate() {
        for c in r.checks.iter().filter(|c| !c.pass()) {
            failures.push(format!("{}: check `{}` failed", r.experiment, c.metric));
        }
        for (_, pointer) in SUITE_GATES.iter().filter(|(id, _)| *id == r.experiment) {
            if r.payload.pointer(pointer).and_then(Value::as_u64) != Some(0) {
                failures.push(format!("{}: gate {pointer} is not 0", r.experiment));
            }
        }
        if let Some(first) = first {
            if first.get(i) != Some(&r.payload) {
                failures.push(format!("{}: payload differs from pass 1", r.experiment));
            }
        }
    }
    failures
}

/// `paper-suite`: one pass of the registry experiments, no sink.
pub struct PaperSuite {
    experiments: Vec<Box<dyn Experiment>>,
    ctx: Option<RunContext>,
    /// The first clean pass's payloads.
    first: Option<Vec<Value>>,
    last: Vec<ExperimentRecord>,
}

impl PaperSuite {
    /// A suite over `experiments`.
    pub fn new(experiments: Vec<Box<dyn Experiment>>) -> Self {
        PaperSuite {
            experiments,
            ctx: None,
            first: None,
            last: Vec::new(),
        }
    }

    /// Ids of the experiments one pass runs.
    pub fn ids(&self) -> Vec<&'static str> {
        self.experiments.iter().map(|e| e.id()).collect()
    }
}

impl Workload for PaperSuite {
    fn build(&mut self) {
        self.experiments = suite_experiments_like(&self.experiments);
        self.ctx = Some(RunContext::reduced());
    }

    fn reset_outputs(&mut self) {
        self.last.clear();
    }

    fn op(&mut self, t: &mut Tracer) -> Result<(), String> {
        let ctx = self.ctx.as_ref().expect("workload built before its ops");
        for e in &self.experiments {
            let record = t.span(&format!("run {}", e.id()), || e.run(ctx));
            self.last.push(record);
        }
        Ok(())
    }

    fn check(&mut self) -> bool {
        let failures = suite_failures(&self.last, self.first.as_deref());
        for f in &failures {
            eprintln!("paper-suite: {f}");
        }
        let ok = self.last.len() == self.experiments.len() && failures.is_empty();
        if ok && self.first.is_none() {
            self.first = Some(self.last.iter().map(|r| r.payload.clone()).collect());
        }
        ok
    }

    fn flops_per_op(&self) -> Option<f64> {
        None
    }
}

/// A fresh registry holding the same experiments as `current`.
fn suite_experiments_like(current: &[Box<dyn Experiment>]) -> Vec<Box<dyn Experiment>> {
    let ids: Vec<&str> = current.iter().map(|e| e.id()).collect();
    registry()
        .into_iter()
        .filter(|e| ids.contains(&e.id()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{timed_op, Tally};

    /// Builds `w` and runs `ops` ops, letting `tamper` corrupt the
    /// outputs of op `i` after the op and before its check.
    fn tally<W: Workload>(w: &mut W, ops: u64, mut tamper: impl FnMut(&mut W, u64)) -> Tally {
        w.build();
        let mut tally = Tally::default();
        let mut t = Tracer::new(false);
        for i in 0..ops {
            timed_op(w, &mut t, &mut tally, |w| tamper(w, i));
        }
        tally
    }

    #[test]
    fn flipped_output_bit_raises_failed_ratio() {
        let mut w = GemmLarge::new(1, 96);
        let clean = tally(&mut w, 3, |_, _| {});
        assert_eq!((clean.attempted, clean.failed), (3, 0));
        let t = tally(&mut w, 4, |w, i| {
            if i % 2 == 1 {
                w.d[5] = f32::from_bits(w.d[5].to_bits() ^ 1);
            }
        });
        assert_eq!(t.failed_ratio(), 0.5);

        let mut w = BatchedHhs::new(2, 16, 8);
        assert_eq!(tally(&mut w, 2, |_, _| {}).failed, 0);
        let t = tally(&mut w, 2, |w, i| {
            if i == 0 {
                let last = w.d.len() - 1;
                w.d[last] = F16::from_bits(w.d[last].to_bits() ^ 1);
            }
        });
        assert_eq!(t.failed_ratio(), 0.5);
    }

    #[test]
    fn perturbed_factor_raises_failed_ratio() {
        let mut w = Solver::new(3, 96);
        assert_eq!(tally(&mut w, 2, |_, _| {}).failed, 0);
        // A one-ulp change passes the residual bound but is not
        // bit-identical to the first op's factors.
        let t = tally(&mut w, 3, |w, i| {
            if i > 0 {
                let l = w.l.as_mut().expect("op produced L");
                let x = l.get(7, 3);
                l.set(7, 3, f64::from_bits(x.to_bits() + 1));
            }
        });
        assert_eq!((t.attempted, t.failed), (3, 2));
        // Before a reference exists, the residual bound catches it.
        let mut fresh = Solver::new(3, 96);
        let t = tally(&mut fresh, 1, |w, _| {
            let lu = w.lu.as_mut().expect("op produced LU");
            let x = lu.lu.get(10, 10);
            lu.lu.set(10, 10, x * 1.001);
        });
        assert_eq!(t.failed, 1);
    }

    #[test]
    fn failing_check_raises_failed_ratio() {
        let pick = |ids: &[&str]| -> Vec<Box<dyn Experiment>> {
            registry()
                .into_iter()
                .filter(|e| ids.contains(&e.id()))
                .collect()
        };
        let mut w = PaperSuite::new(pick(&["table2", "lint"]));
        assert_eq!(tally(&mut w, 2, |_, _| {}).failed, 0);
        let t = tally(&mut w, 3, |w, i| match i {
            0 => w.last[0].checks[0].measured = f64::NAN,
            1 => w.last[1].payload = Value::Null,
            _ => {}
        });
        assert_eq!((t.attempted, t.failed), (3, 2));
        let bad_gate = ExperimentRecord {
            payload: Value::Object(vec![("total_errors".into(), Value::U64(1))]),
            ..w.last[1].clone()
        };
        assert_eq!(suite_failures(&[bad_gate], None).len(), 1);
    }
}
