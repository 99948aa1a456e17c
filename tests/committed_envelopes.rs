//! Determinism gate: every registry experiment that reads no host clock
//! must reproduce its committed `results/<id>.json` exactly, `payload`
//! and `rendered` both, at the reduced budgets the envelopes were
//! recorded with. A change to the simulator, the planner or a verifier
//! that moves any reported number or diagnostic fails here by
//! experiment id.
//!
//! The host-dependent files cannot be pinned by value, so a schema gate
//! pins their layout instead: each must parse into its current type and
//! re-serialize to the same JSON value. A layout change that does not
//! regenerate its committed file fails here by file name.

use std::path::Path;

use amd_matrix_cores::hostprof::HostAttributionRecord;
use mc_bench::experiment::{registry, ExperimentRecord, IterBudgets, RunContext};
use mc_bench::{hostprof::Hostprof, perf::BenchFile, perf::Perf, regress::Regress, report::Report};
use serde::{Deserialize, Serialize, Value};

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

/// `value` parsed as `T` and serialized back: the same JSON value, or
/// the parse error.
fn round_trips<T: Deserialize + Serialize>(value: &Value) -> Result<(), String> {
    let typed: T = serde_json::from_value(value.clone()).map_err(|e| e.to_string())?;
    let back = serde_json::to_value(&typed);
    if back == *value {
        Ok(())
    } else {
        Err("re-serializes to a different JSON value".to_owned())
    }
}

#[test]
fn host_dependent_files_parse_into_their_current_types() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let read = |name: &str| {
        std::fs::read_to_string(results.join(name))
            .unwrap_or_else(|e| panic!("cannot read results/{name}: {e}"))
    };
    let payload = |id: &str| {
        let record: ExperimentRecord = serde_json::from_str(&read(&format!("{id}.json")))
            .unwrap_or_else(|e| panic!("{id}.json: unparseable envelope: {e}"));
        record.payload
    };
    let mut stale = Vec::new();
    let mut check = |name: &str, outcome: Result<(), String>| {
        if let Err(e) = outcome {
            stale.push(format!("{name}: {e}"));
        }
    };
    check("perf.json", round_trips::<Perf>(&payload("perf")));
    check(
        "hostprof.json",
        round_trips::<Hostprof>(&payload("hostprof")),
    );
    check("regress.json", round_trips::<Regress>(&payload("regress")));
    check("report.json", round_trips::<Report>(&payload("report")));
    let bench: Value = serde_json::from_str(&read("BENCH_hotpaths.json"))
        .unwrap_or_else(|e| panic!("BENCH_hotpaths.json: {e}"));
    check("BENCH_hotpaths.json", round_trips::<BenchFile>(&bench));

    let ledger = read("hostprof.host.jsonl");
    check(
        "hostprof.host.jsonl",
        amd_matrix_cores::trace::from_jsonl::<HostAttributionRecord>(&ledger).and_then(|records| {
            let lines = |text: &str| -> Vec<Value> {
                text.lines()
                    .filter(|l| !l.trim().is_empty())
                    .map(|l| serde_json::from_str(l).expect("a parsed ledger line is JSON"))
                    .collect()
            };
            let back = amd_matrix_cores::trace::to_jsonl(&records);
            (lines(&back) == lines(&ledger))
                .then_some(())
                .ok_or_else(|| "re-serializes to different JSON values".to_owned())
        }),
    );
    assert!(
        stale.is_empty(),
        "regenerate with `experiments all --json results/`: {}",
        stale.join("; ")
    );
}
