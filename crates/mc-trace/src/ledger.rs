//! The JSON-lines ledger format shared by every schema-versioned
//! record stream (`mc-obs` attribution records, `mc-hostprof` host
//! records): one compact record per line, each carrying the schema
//! version it was written under, so a reader built against a different
//! schema fails loudly instead of misreading.

use serde::{Deserialize, Serialize};

/// A ledger record that carries its own schema version.
pub trait Versioned {
    /// The schema version the current code writes and accepts.
    const SCHEMA_VERSION: u32;

    /// The schema version this record was written under.
    fn schema_version(&self) -> u32;
}

/// Renders a ledger as JSON lines: one compact record per line, in
/// order, with a trailing newline (empty string for an empty ledger).
pub fn to_jsonl<T: Serialize>(records: &[T]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(
            &serde_json::to_string(&serde_json::to_value(r)).expect("ledger records serialize"),
        );
        out.push('\n');
    }
    out
}

/// Parses a JSONL ledger, skipping blank lines and rejecting malformed
/// rows and any record whose schema version differs from
/// [`Versioned::SCHEMA_VERSION`]. Errors name the 1-based line.
pub fn from_jsonl<T: Deserialize + Versioned>(text: &str) -> Result<Vec<T>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record: T = serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if record.schema_version() != T::SCHEMA_VERSION {
            return Err(format!(
                "line {}: schema version {} (expected {})",
                i + 1,
                record.schema_version(),
                T::SCHEMA_VERSION
            ));
        }
        out.push(record);
    }
    Ok(out)
}
