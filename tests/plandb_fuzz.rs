//! No-panic fuzzing of the persisted plan DB, end to end: file bytes →
//! `PlanDb::from_json` → `PlanDb::lookup` → `BlasHandle::planned`.
//!
//! A plan-DB file is user-editable state. Whatever it holds — arbitrary
//! bytes, or well-formed entries whose every geometry field is drawn
//! from the full `usize` range — a searching handle must either refuse
//! the file or plan the problem: an entry that cannot tile it is stale,
//! and the handle falls through to a fresh search.

use std::path::PathBuf;

use amd_matrix_cores::blas::enumerate::tileable;
use amd_matrix_cores::blas::{
    select_plan, BlasHandle, GemmDesc, GemmOp, PlanDb, PlanDbEntry, StrategyRecord,
};
use amd_matrix_cores::isa::cdna2_catalog;
use proptest::prelude::*;

/// The routines of the paper's rocBLAS sweep.
const OPS: [GemmOp; 5] = [
    GemmOp::Sgemm,
    GemmOp::Dgemm,
    GemmOp::Hgemm,
    GemmOp::Hss,
    GemmOp::Hhs,
];

/// A per-test scratch file for the DB.
fn db_path(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("plandb_fuzz_{test}.json"))
}

/// A searching handle on the MI250X GCD with `json` as its plan-DB
/// file, planning `desc`. The handle refuses an unreadable file and
/// keeps planning without one.
fn plan_with_db_file(test: &str, json: &str, desc: &GemmDesc) -> BlasHandle {
    let path = db_path(test);
    std::fs::write(&path, json).expect("scratch file is writable");
    let mut handle = BlasHandle::new_mi250x_gcd();
    handle.set_plan_search(true);
    let _ = handle.set_plan_db_path(path);
    let plan = handle.planned(desc).expect("a valid problem always plans");
    assert!(tileable(desc, &plan.strategy), "{:?}", plan.strategy);
    handle
}

/// A DB holding one entry for `desc` on the handle's device.
fn db_for(desc: &GemmDesc, strategy: StrategyRecord) -> PlanDb {
    let device = BlasHandle::new_mi250x_gcd().gpu().spec().name.clone();
    let mut db = PlanDb::new();
    db.entries.push(PlanDbEntry {
        device,
        op: desc.op.to_string(),
        m: desc.m,
        n: desc.n,
        k: desc.k,
        alpha_bits: desc.alpha.to_bits(),
        beta_bits: desc.beta.to_bits(),
        strategy,
        searched_time_s: 1e-5,
        predicted_time_s: 1e-5,
    });
    db
}

/// The static strategy of SGEMM at N = 64, as a record to tamper with.
fn sgemm_record() -> (GemmDesc, StrategyRecord) {
    let desc = GemmDesc::square(GemmOp::Sgemm, 64);
    let winner = select_plan(
        &BlasHandle::new_mi250x_gcd().gpu().spec().die,
        &cfg(),
        &desc,
    )
    .expect("SGEMM N=64 searches")
    .plan
    .strategy;
    (desc, StrategyRecord::from_strategy(&winner))
}

fn cfg() -> amd_matrix_cores::sim::SimConfig {
    BlasHandle::new_mi250x_gcd().gpu().config().clone()
}

#[test]
fn tampered_geometry_falls_through_to_a_fresh_search() {
    let (desc, record) = sgemm_record();
    assert_eq!(record.kind, "matrix-core");
    let fresh = select_plan(
        &BlasHandle::new_mi250x_gcd().gpu().spec().die,
        &cfg(),
        &desc,
    )
    .unwrap()
    .plan;
    let tampered = [
        StrategyRecord {
            wt_m: 0,
            ..record.clone()
        },
        StrategyRecord {
            mt_m: 0,
            ..record.clone()
        },
        StrategyRecord {
            k_step: 0,
            ..record.clone()
        },
        StrategyRecord {
            wt_n: record.mt_n * 2,
            ..record.clone()
        },
    ];
    for (i, strategy) in tampered.into_iter().enumerate() {
        let json = db_for(&desc, strategy.clone()).to_json();
        let mut handle = plan_with_db_file(&format!("tampered{i}"), &json, &desc);
        let plan = handle.planned(&desc).unwrap();
        assert_eq!(plan, fresh, "entry {strategy:?}");
    }
}

proptest! {
    /// Arbitrary file contents: refused or planned, never a panic.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        n in 16usize..96,
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = PlanDb::from_json(&text);
        plan_with_db_file("bytes", &text, &GemmDesc::square(GemmOp::Sgemm, n));
    }

    /// Entries with every field from the full `usize` range (each field
    /// small or arbitrary, at random) resolve, or are skipped, and the
    /// handle plans every problem.
    #[test]
    fn arbitrary_entries_never_panic(
        op in 0usize..OPS.len(),
        n in 16usize..96,
        full in prop::collection::vec(any::<usize>(), 8..9),
        small in prop::collection::vec(0usize..300, 8..9),
        which in any::<u8>(),
        hit in 0u8..4,
        instr in any::<usize>(),
        kind in 0u8..4,
        double_buffered in any::<bool>(),
    ) {
        let desc = GemmDesc::square(OPS[op], n);
        // Each field small or from the full range, at random.
        let field = |i: usize| if which >> i & 1 == 1 { full[i] } else { small[i] };
        let catalog = cdna2_catalog().instructions();
        let strategy = StrategyRecord {
            kind: ["matrix-core", "matrix-core", "simd", "warp-specialized"][kind as usize].into(),
            instr: catalog[instr % catalog.len()].mnemonic().to_string(),
            mt_m: field(0),
            mt_n: field(1),
            wt_m: field(2),
            wt_n: field(3),
            k_step: field(4),
            double_buffered,
        };
        let mut db = db_for(&desc, strategy);
        let entry = &mut db.entries[0];
        // Three entries in four keep the problem's key, so the lookup
        // hits; the rest key other dimensions.
        if hit == 0 {
            (entry.m, entry.n, entry.k) = (field(5), field(6), field(7));
        }
        let device = entry.device.clone();
        let json = db.to_json();
        let parsed = PlanDb::from_json(&json).expect("a well-formed DB parses");
        let _ = parsed.lookup(&device, &desc);
        plan_with_db_file("entries", &json, &desc);
    }
}
