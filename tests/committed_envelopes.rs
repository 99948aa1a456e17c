//! Determinism gate: every registry experiment that reads no host clock
//! must reproduce its committed `results/<id>.json` exactly, `payload`
//! and `rendered` both, at the reduced budgets the envelopes were
//! recorded with. A change to the simulator, the planner or a verifier
//! that moves any reported number or diagnostic fails here by
//! experiment id.

use std::path::Path;

use mc_bench::experiment::{registry, ExperimentRecord, IterBudgets, RunContext};

/// Experiments excluded from the gate: `perf` and `hostprof` time the
/// host, `regress` and `report` read the files of other runs.
const HOST_DEPENDENT: [&str; 4] = ["perf", "hostprof", "regress", "report"];

#[test]
fn host_clock_free_experiments_match_committed_envelopes() {
    let ctx = RunContext::reduced();
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let mut checked = 0;
    let mut drifted = Vec::new();
    for exp in registry() {
        if HOST_DEPENDENT.contains(&exp.id()) {
            continue;
        }
        let path = results.join(format!("{}.json", exp.id()));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: cannot read {}: {e}", exp.id(), path.display()));
        let committed: ExperimentRecord = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("{}: unparseable envelope: {e}", exp.id()));
        assert_eq!(committed.config, IterBudgets::reduced(), "{}", exp.id());

        let record = exp.run(&ctx);
        if record.payload != committed.payload {
            drifted.push(format!("{}: payload", exp.id()));
        }
        if record.rendered != committed.rendered {
            drifted.push(format!("{}: rendered", exp.id()));
        }
        checked += 1;
    }
    assert_eq!(checked, 20, "the host-clock-free set changed size");
    assert!(
        drifted.is_empty(),
        "differ from results/: {}",
        drifted.join(", ")
    );
}
