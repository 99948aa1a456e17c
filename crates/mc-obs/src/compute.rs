//! Host-compute pool counters as metrics.
//!
//! The `mc-compute` packing-buffer pool counts its freelist traffic —
//! hits, misses (each miss is one allocator round-trip), recycles,
//! discards, and freshly-allocated bytes. This module registers a
//! [`PoolStats`] window into a [`mc_trace::MetricsRegistry`] under
//! `compute.pool.*`, from where [`mc_trace::openmetrics`] renders the
//! text exposition — so a scraping dashboard sees the same
//! steady-state-reuse invariant the batched-GEMM reuse test enforces
//! (miss delta zero once warm), and an allocation regression shows up
//! as a counter stepping away from zero rather than only as a slower
//! wall time.

use mc_compute::PoolStats;
use mc_trace::{MetricsRegistry, Unit};

/// Registers one pool window's counters as `compute.pool.{hits,misses,
/// recycled,discarded,allocated_bytes,hit_rate}` metrics.
pub fn register_compute_pool_metrics(stats: &PoolStats, reg: &mut MetricsRegistry) {
    reg.set("compute.pool.hits", Unit::Count, stats.hits as f64);
    reg.set("compute.pool.misses", Unit::Count, stats.misses as f64);
    reg.set("compute.pool.recycled", Unit::Count, stats.recycled as f64);
    reg.set(
        "compute.pool.discarded",
        Unit::Count,
        stats.discarded as f64,
    );
    reg.set(
        "compute.pool.allocated_bytes",
        Unit::Bytes,
        stats.allocated_bytes as f64,
    );
    reg.set("compute.pool.hit_rate", Unit::Ratio, stats.hit_rate());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_land_under_the_pool_prefix() {
        let stats = PoolStats {
            hits: 96,
            misses: 4,
            recycled: 100,
            discarded: 0,
            allocated_bytes: 8192,
        };
        let mut reg = MetricsRegistry::new();
        register_compute_pool_metrics(&stats, &mut reg);
        let text = mc_trace::openmetrics(&reg);
        assert!(text.contains("compute_pool_hits 96"), "{text}");
        assert!(text.contains("compute_pool_misses 4"), "{text}");
        assert!(text.contains("compute_pool_allocated_bytes 8192"), "{text}");
        assert!(text.contains("compute_pool_hit_rate_ratio 0.96"), "{text}");
    }

    #[test]
    fn idle_window_reports_full_hit_rate() {
        assert_eq!(PoolStats::default().hit_rate(), 1.0);
        let mut reg = MetricsRegistry::new();
        register_compute_pool_metrics(&PoolStats::default(), &mut reg);
        let text = mc_trace::openmetrics(&reg);
        assert!(text.contains("compute_pool_hit_rate_ratio 1"), "{text}");
    }
}
