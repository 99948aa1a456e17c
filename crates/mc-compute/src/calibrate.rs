//! Schema for the crossover-calibration artifact.
//!
//! The `calibrate` example times the three tiers over a size sweep and,
//! besides its console table, writes the measurements as
//! [`CALIBRATE_FILE`] so the sweep is diffable: the `regress` gate in
//! `mc-bench` pairs a committed baseline against a fresh run and flags
//! tier slowdowns that would invalidate the committed
//! [`default_crossover`](crate::default_crossover) edges. The schema
//! lives here (not in `mc-bench`) because the example that writes the
//! file and the gate that reads it sit on opposite sides of the
//! dependency graph, and `mc-compute` is the shared ancestor.
//!
//! Layout rules mirror `BENCH_hotpaths.json`: a `schema_version`
//! header the reader checks before trusting anything, a thread count
//! so runs on different pool sizes never pair, and one row per square
//! dimension. The naive tier is only timed up to its cap (the cubic
//! loop at 1024³ would dominate the sweep), so `naive_s` is an
//! `Option` — JSON has no NaN, and an absent measurement is not a zero.

use serde::{Deserialize, Serialize};

/// Name of the calibration artifact, written into `results/` by the
/// calibrate example and read back by the `regress` gate.
pub const CALIBRATE_FILE: &str = "CALIBRATE_crossover.json";

/// Layout version of [`CalibrateFile`]. Bump on any breaking change;
/// readers treat a mismatched file as absent (skip, never gate).
pub const CALIBRATE_SCHEMA_VERSION: u32 = 1;

/// One timed square dimension of the calibration sweep.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CalibrateRow {
    /// Square problem dimension (m = n = k).
    pub n: u64,
    /// Best-of-reps naive wall time, absent above the naive timing cap.
    pub naive_s: Option<f64>,
    /// Best-of-reps blocked-tier wall time.
    pub blocked_s: f64,
    /// Best-of-reps SIMD-tier wall time.
    pub simd_s: f64,
    /// SIMD-tier throughput, `2n³ / simd_s / 1e9`.
    pub simd_gflops: f64,
}

/// The schema-versioned calibration artifact.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CalibrateFile {
    /// Layout version ([`CALIBRATE_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Rayon pool size the sweep ran on. Crossover edges are
    /// thread-aware, so timings from different pool sizes never pair.
    pub threads: u64,
    /// Whether a vector (AVX2 or AVX-512F) microkernel was active (vs
    /// the scalar unrolled fallback).
    pub simd_vector: bool,
    /// Timed rows, one per swept dimension, in sweep order.
    pub rows: Vec<CalibrateRow>,
}

impl CalibrateFile {
    /// An empty artifact stamped with the current schema version and
    /// the given machine configuration.
    pub fn new(threads: usize, simd_vector: bool) -> Self {
        CalibrateFile {
            schema_version: CALIBRATE_SCHEMA_VERSION,
            threads: threads as u64,
            simd_vector,
            rows: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_including_absent_naive_cells() {
        let mut f = CalibrateFile::new(8, true);
        f.rows.push(CalibrateRow {
            n: 64,
            naive_s: Some(0.001),
            blocked_s: 0.002,
            simd_s: 0.0005,
            simd_gflops: 2.0 * 64f64.powi(3) / 0.0005 / 1e9,
        });
        f.rows.push(CalibrateRow {
            n: 1024,
            naive_s: None,
            blocked_s: 0.9,
            simd_s: 0.3,
            simd_gflops: 2.0 * 1024f64.powi(3) / 0.3 / 1e9,
        });
        let text = serde_json::to_string_pretty(&f).unwrap();
        assert!(text.contains("\"schema_version\": 1"));
        assert!(
            text.contains("null"),
            "absent naive cell must be null: {text}"
        );
        let back: CalibrateFile = serde_json::from_str(&text).unwrap();
        assert_eq!(back, f);
        assert_eq!(back.rows[1].naive_s, None);
    }
}
