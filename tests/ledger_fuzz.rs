//! Properties of the one JSON-lines ledger parser,
//! `mc_trace::from_jsonl`, over both record types persisted through it:
//! `mc-obs` kernel attribution records and `mc-hostprof` host-region
//! records. Records come back exactly; a record written under another
//! schema version is refused with its line and both versions named; and
//! no input — arbitrary text, or a valid ledger with one line mangled —
//! panics the parser: it returns `Ok` or `Err`.

use std::fmt::Debug;
use std::sync::{Arc, OnceLock};

use amd_matrix_cores::blas::{BlasHandle, GemmDesc, GemmOp};
use amd_matrix_cores::compute::{prof, Auto, Epilogue, GemmParams, MatMul};
use amd_matrix_cores::hostprof::{attribute, HostAttributionRecord};
use amd_matrix_cores::sim::{DeviceId, DeviceRegistry};
use amd_matrix_cores::trace::{from_jsonl, to_jsonl, RingSink, Versioned};
use mc_obs::{AttributionRecord, Attributor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};

/// Real attribution records: two traced GEMMs on the MI250X GCD.
fn attribution_ledger() -> &'static [AttributionRecord] {
    static LEDGER: OnceLock<Vec<AttributionRecord>> = OnceLock::new();
    LEDGER.get_or_init(|| {
        let sink = Arc::new(RingSink::new());
        let mut devices = DeviceRegistry::builtin();
        devices.set_trace_sink(sink.clone());
        let mut handle = BlasHandle::from_registry(&devices, DeviceId::Mi250xGcd);
        for n in [256, 1024] {
            handle
                .gemm_timed(&GemmDesc::square(GemmOp::Sgemm, n))
                .unwrap();
        }
        let records = Attributor::from_registry(&devices).attribute(&sink.events());
        assert_eq!(records.len(), 2);
        records
    })
}

/// Real host records: one packed-tier and one naive-tier region.
fn host_ledger() -> &'static [HostAttributionRecord] {
    static LEDGER: OnceLock<Vec<HostAttributionRecord>> = OnceLock::new();
    LEDGER.get_or_init(|| {
        let session = prof::session();
        for (n, crossover) in [(96, 0), (64, 320)] {
            let params = GemmParams::new(n, n, n).with_epilogue(Epilogue::ComputeRounded);
            let (a, b, c) = (vec![1.0f32; n * n], vec![0.5; n * n], vec![0.25; n * n]);
            let mut d = vec![0.0f32; n * n];
            Auto::with_crossover(crossover)
                .gemm::<f32, f32, f32>(&params, &a, &b, &c, &mut d)
                .unwrap();
        }
        let records = attribute(&session.finish());
        assert_eq!(records.len(), 2);
        records
    })
}

/// An arbitrary string: quotes, backslashes, control characters and
/// non-ASCII scalars included, so every escape path of the writer runs.
fn arbitrary_string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..12usize);
    (0..len)
        .map(|_| match rng.gen_range(0..4u32) {
            0 => ['"', '\\', '\n', '\t', '\u{1}', '/'][rng.gen_range(0..6usize)],
            1 => char::from_u32(rng.gen_range(0x80..0x11_0000u32)).unwrap_or('\u{fffd}'),
            _ => char::from(rng.gen_range(0x20..0x7fu8)),
        })
        .collect()
}

/// Redraws every leaf of a serialized record except its schema
/// version: finite floats over their whole bit range, integers that
/// fit the narrowest field, arbitrary strings and booleans.
fn scramble(value: &Value, rng: &mut StdRng) -> Value {
    match value {
        Value::F64(_) => loop {
            let f = f64::from_bits(rng.gen::<u64>());
            if f.is_finite() {
                break Value::F64(f);
            }
        },
        Value::U64(_) => Value::U64(u64::from(rng.gen::<u32>())),
        Value::Bool(_) => Value::Bool(rng.gen::<bool>()),
        Value::Str(_) => Value::Str(arbitrary_string(rng)),
        Value::Object(pairs) => Value::Object(
            pairs
                .iter()
                .map(|(k, v)| match k.as_str() {
                    "schema_version" => (k.clone(), v.clone()),
                    _ => (k.clone(), scramble(v, rng)),
                })
                .collect(),
        ),
        other => other.clone(),
    }
}

/// `len` arbitrary records shaped like the real ones in `templates`.
fn arbitrary_ledger<T: Serialize + Deserialize>(templates: &[T], len: usize, seed: u64) -> Vec<T> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|i| {
            let template = serde_json::to_value(&templates[i % templates.len()]);
            serde_json::from_value(scramble(&template, &mut rng))
                .expect("scrambled records keep their shape")
        })
        .collect()
}

fn check_round_trip<T>(records: &[T]) -> Result<(), TestCaseError>
where
    T: Serialize + Deserialize + Versioned + PartialEq + Debug,
{
    let text = to_jsonl(records);
    prop_assert_eq!(text.lines().count(), records.len());
    prop_assert_eq!(
        from_jsonl::<T>(&text).map_err(TestCaseError::fail)?,
        records
    );
    Ok(())
}

/// Rewrites line `at`'s `schema_version` to `version`; the parser must
/// name that line and both versions.
fn check_version_rejected<T>(records: &[T], at: usize, version: u32) -> Result<(), TestCaseError>
where
    T: Serialize + Deserialize + Versioned,
{
    let mut values: Vec<Value> = records.iter().map(serde_json::to_value).collect();
    if let Value::Object(pairs) = &mut values[at] {
        for (_, v) in pairs.iter_mut().filter(|(k, _)| k == "schema_version") {
            *v = Value::U64(u64::from(version));
        }
    }
    prop_assert_eq!(
        from_jsonl::<T>(&to_jsonl(&values)).err(),
        Some(format!(
            "line {}: schema version {version} (expected {})",
            at + 1,
            T::SCHEMA_VERSION
        ))
    );
    Ok(())
}

/// Mangles line `line` of a valid ledger with one edit. The other lines
/// stay valid, so the parser either accepts the result or reports
/// exactly that line — and never panics.
fn check_mangled_line<T>(records: &[T], line: usize, edit: &Edit) -> Result<(), TestCaseError>
where
    T: Serialize + Deserialize + Versioned,
{
    let mut lines: Vec<String> = to_jsonl(records).lines().map(str::to_owned).collect();
    edit.apply(&mut lines[line]);
    if let Err(err) = from_jsonl::<T>(&lines.join("\n")) {
        prop_assert!(err.starts_with(&format!("line {}: ", line + 1)), "{err}");
    }
    Ok(())
}

/// JSON-ish fragments the fuzzers splice in: structural bytes, escapes
/// and number edge cases.
const FRAGMENTS: [&str; 15] = [
    "[", "]", "{", "}", "\"", ":", ",", "\\", "\\u12", "-", "1e999", ".5", "null", "é", " \t",
];

/// One single-line edit: cut the line at a byte, splice a fragment in
/// there, or delete a run of bytes from there.
struct Edit {
    kind: u8,
    at: usize,
    len: usize,
    fragment: &'static str,
}

impl Edit {
    fn apply(&self, line: &mut String) {
        let floor = |line: &String, mut i: usize| {
            i = i.min(line.len());
            while !line.is_char_boundary(i) {
                i -= 1;
            }
            i
        };
        let at = floor(line, self.at % (line.len() + 1));
        match self.kind {
            0 => line.truncate(at),
            1 => line.insert_str(at, self.fragment),
            _ => {
                let end = floor(line, at + self.len);
                line.replace_range(at..end, "");
            }
        }
    }
}

proptest! {
    #[test]
    fn records_round_trip(seed in any::<u64>(), len in 0usize..6) {
        check_round_trip(&arbitrary_ledger(attribution_ledger(), len, seed))?;
        check_round_trip(&arbitrary_ledger(host_ledger(), len, seed))?;
    }

    #[test]
    fn a_changed_schema_version_is_rejected(
        seed in any::<u64>(),
        at in 0usize..5,
        version in any::<u32>(),
    ) {
        prop_assume!(version != AttributionRecord::SCHEMA_VERSION);
        prop_assume!(version != HostAttributionRecord::SCHEMA_VERSION);
        check_version_rejected(&arbitrary_ledger(attribution_ledger(), 5, seed), at, version)?;
        check_version_rejected(&arbitrary_ledger(host_ledger(), 5, seed), at, version)?;
    }

    #[test]
    fn arbitrary_text_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..64),
        depth in 0usize..400,
    ) {
        let fragments: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        for text in [
            String::from_utf8_lossy(&bytes).into_owned(),
            fragments.clone(),
            "[".repeat(depth) + &fragments,
        ] {
            let _ = from_jsonl::<AttributionRecord>(&text);
            let _ = from_jsonl::<HostAttributionRecord>(&text);
        }
    }

    #[test]
    fn a_mangled_line_never_panics_and_is_the_one_reported(
        seed in any::<u64>(),
        line in 0usize..4,
        kind in 0u8..3,
        at in any::<usize>(),
        len in 0usize..64,
        fragment in 0usize..FRAGMENTS.len(),
    ) {
        let edit = Edit { kind, at, len, fragment: FRAGMENTS[fragment] };
        check_mangled_line(&arbitrary_ledger(attribution_ledger(), 4, seed), line, &edit)?;
        check_mangled_line(&arbitrary_ledger(host_ledger(), 4, seed), line, &edit)?;
    }
}

#[test]
fn real_ledgers_round_trip_and_degenerate_ones_parse_or_fail_cleanly() {
    check_round_trip(attribution_ledger()).unwrap();
    check_round_trip(host_ledger()).unwrap();
    assert!(from_jsonl::<AttributionRecord>("").unwrap().is_empty());
    assert!(from_jsonl::<HostAttributionRecord>("\n  \n")
        .unwrap()
        .is_empty());
    let err = from_jsonl::<AttributionRecord>("not json\n").unwrap_err();
    assert!(err.starts_with("line 1: "), "{err}");
    // Blank lines are skipped but still counted.
    let host = to_jsonl(host_ledger());
    let err = from_jsonl::<HostAttributionRecord>(&format!("{host}\nnot json")).unwrap_err();
    assert!(err.starts_with("line 4: "), "{err}");
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    assert!(from_jsonl::<AttributionRecord>(&"[".repeat(50_000)).is_err());
    assert!(from_jsonl::<HostAttributionRecord>(&"{\"a\":".repeat(50_000)).is_err());
}
