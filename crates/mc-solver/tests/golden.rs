//! Golden pin of the solver's per-element operation order.
//!
//! Each routine runs on seeded inputs at orders that straddle
//! [`TRSM_BLOCK`] and [`DEFAULT_BLOCK`], and the FNV-1a hash of the
//! output bits is committed as a constant. A rewrite of a kernel (a new
//! loop order, a slice-based panel, a different GEMM split) must leave
//! every element's chain of operations — and so every bit — unchanged;
//! a tolerance test cannot tell, this pin does. The constants are
//! machine-independent: the solver's scalar arithmetic is IEEE-defined
//! (no FMA contraction, no reassociation) and every GEMM tier rounds
//! the same per-element chain.

use mc_solver::potrf::DEFAULT_BLOCK;
use mc_solver::trsm::{trsm_left_lower, trsm_left_upper, trsm_right_lower_transpose, TRSM_BLOCK};
use mc_solver::{getrf, potrf, Matrix};

/// Orders below, at and above both block sizes, plus the benchmark's.
const ORDERS: [usize; 6] = [1, 37, 64, 65, 200, 768];

/// Right-hand sides per triangular solve.
const RHS: usize = 9;

/// SplitMix64 stream of uniforms in `[-1, 1)`.
struct Rng(u64);

impl Rng {
    fn uniform(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    fn matrix(&mut self, rows: usize, cols: usize) -> Matrix<f64> {
        Matrix::from_fn(rows, cols, |_, _| self.uniform())
    }
}

/// Symmetric uniform entries plus `n·I`.
fn spd(rng: &mut Rng, n: usize) -> Matrix<f64> {
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

/// Lower triangle of uniforms with a diagonal in `[1, 3)`.
fn lower(rng: &mut Rng, n: usize) -> Matrix<f64> {
    Matrix::from_fn(n, n, |i, j| match j.cmp(&i) {
        std::cmp::Ordering::Less => rng.uniform(),
        std::cmp::Ordering::Equal => 2.0 + rng.uniform(),
        std::cmp::Ordering::Greater => 0.0,
    })
}

/// FNV-1a over a stream of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn matrix(&mut self, m: &Matrix<f64>) {
        self.word(m.rows() as u64);
        self.word(m.cols() as u64);
        for v in m.as_slice() {
            self.word(v.to_bits());
        }
    }
}

#[test]
fn orders_straddle_the_block_sizes() {
    for edge in [TRSM_BLOCK, DEFAULT_BLOCK] {
        assert!(ORDERS.contains(&edge) && ORDERS.contains(&(edge + 1)));
    }
}

#[test]
fn factor_and_solve_bits_are_pinned() {
    let names = [
        "potrf",
        "getrf factor",
        "getrf ipiv",
        "trsm_left_lower unit",
        "trsm_left_lower",
        "trsm_left_upper",
        "trsm_right_lower_transpose",
    ];
    let mut hashes: Vec<Fnv> = names.iter().map(|_| Fnv::new()).collect();
    for n in ORDERS {
        let mut rng = Rng(0x5EED_0000 + n as u64);

        let a = spd(&mut rng, n);
        hashes[0].matrix(&potrf(&a, DEFAULT_BLOCK).unwrap());

        let g = rng.matrix(n, n);
        let lu = getrf(&g, DEFAULT_BLOCK).unwrap();
        hashes[1].matrix(&lu.lu);
        for &p in &lu.ipiv {
            hashes[2].word(p as u64);
        }

        let l = lower(&mut rng, n);
        let b = rng.matrix(n, RHS);
        for (slot, unit) in [(3, true), (4, false)] {
            let mut x = b.clone();
            trsm_left_lower(&l, &mut x, unit).unwrap();
            hashes[slot].matrix(&x);
        }
        let mut x = b.clone();
        trsm_left_upper(&l.transposed(), &mut x).unwrap();
        hashes[5].matrix(&x);
        let mut x = rng.matrix(RHS, n);
        trsm_right_lower_transpose(&l, &mut x).unwrap();
        hashes[6].matrix(&x);
    }

    const GOLDEN: [u64; 7] = [
        0xc3aa_dc38_6085_771f,
        0x00e1_0bec_05ac_7f17,
        0x5928_ab07_727b_e49c,
        0xa93b_5a2c_d086_09c2,
        0xb5c9_fce2_ac6e_6add,
        0x1a72_69f3_584a_7b1a,
        0xe7ef_c22c_fbf1_863a,
    ];
    let all: Vec<u64> = hashes.iter().map(|h| h.0).collect();
    for ((name, &got), want) in names.iter().zip(&all).zip(GOLDEN) {
        assert_eq!(
            got, want,
            "{name}: the per-element operation order changed (all: {all:#018x?})"
        );
    }
}
