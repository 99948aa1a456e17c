//! The one rule that sizes every host region's fan-out, from its item
//! count and each item's estimated serial cost (stated by its kernel).

/// The cost of waking a parked worker, in ns: layerbench's
/// `rayon.region_us` reads 15–17 µs on the 2-vCPU AVX-512F host.
const WAKE_NS: f64 = 16_000.0;

/// How many parts to cut `items` items of about `item_ns` ns each into:
/// one per wake cost of work, at most one per item and per thread that
/// could run now ([`rayon::current_free_threads`]), at least one. The
/// regions it sizes are thread-count invariant: it moves time, not bits.
pub fn fan_out(items: usize, item_ns: f64) -> usize {
    parts(items, item_ns, rayon::current_free_threads())
}

/// [`fan_out`] with `free` threads able to run.
pub(crate) fn parts(items: usize, item_ns: f64, free: usize) -> usize {
    let paid = (items as f64 * item_ns / WAKE_NS) as usize;
    paid.min(items).min(free).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    const COSTS: [f64; 8] = [
        0.0,
        0.07,
        1.0,
        250.0,
        WAKE_NS / 2.0,
        WAKE_NS,
        4.0 * WAKE_NS,
        1e12,
    ];

    #[test]
    fn parts_never_exceed_items_or_free_threads() {
        for free in 1..=3 {
            for items in 1..=64 {
                for item_ns in COSTS {
                    let p = parts(items, item_ns, free);
                    assert!(
                        (1..=items.min(free)).contains(&p),
                        "{items} × {item_ns} ns, {free}"
                    );
                }
            }
        }
    }

    #[test]
    fn one_part_below_the_break_even_and_in_a_saturated_region() {
        for free in 1..=3 {
            for items in 1..=64 {
                // Two parts need two wake costs of work in all.
                let below = (2.0 * WAKE_NS - 1.0) / items as f64;
                assert_eq!(parts(items, below, free), 1, "{items} items, {free} free");
                assert_eq!(parts(items, 0.0, free), 1);
            }
        }
        // Inside a region that holds every worker one thread is free.
        for item_ns in COSTS {
            assert_eq!(parts(1 << 20, item_ns, 1), 1);
        }
        assert_eq!(parts(2, WAKE_NS, 2), 2);
    }

    #[test]
    fn parts_never_fall_as_work_grows() {
        for free in 1..=3 {
            for items in 1..=64 {
                let by_cost: Vec<usize> = COSTS.iter().map(|&ns| parts(items, ns, free)).collect();
                assert!(by_cost.windows(2).all(|w| w[0] <= w[1]), "{by_cost:?}");
            }
            for item_ns in COSTS {
                let by_items: Vec<usize> = (1..=64).map(|i| parts(i, item_ns, free)).collect();
                assert!(by_items.windows(2).all(|w| w[0] <= w[1]), "{by_items:?}");
            }
        }
    }
}
