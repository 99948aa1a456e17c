//! Stamps the binary with the two fingerprint fields only the build
//! knows: the compiler version and a digest of the source tree under
//! test (the benchmark runs from checkouts that are not git
//! repositories, so a content digest stands in for the commit id).

use std::path::{Path, PathBuf};
use std::process::Command;

/// The repository sources the digest covers, relative to the package.
const DIGEST_ROOTS: [&str; 5] = [
    "../crates",
    "../vendor",
    "../Cargo.toml",
    "../Cargo.lock",
    "src",
];

fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        let Ok(entries) = std::fs::read_dir(path) else {
            return;
        };
        for entry in entries.flatten() {
            collect(&entry.path(), out);
        }
    } else if path
        .extension()
        .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
    {
        out.push(path.to_path_buf());
    }
}

/// FNV-1a over every source path and its contents, in sorted order.
fn source_digest() -> u64 {
    let mut files = Vec::new();
    for root in DIGEST_ROOTS {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in files {
        feed(file.to_string_lossy().as_bytes());
        feed(&std::fs::read(&file).unwrap_or_default());
    }
    h
}

fn main() {
    for root in DIGEST_ROOTS {
        println!("cargo:rerun-if-changed={root}");
    }
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=LAYERBENCH_RUSTC={version}");
    println!("cargo:rustc-env=LAYERBENCH_SOURCE={:016x}", source_digest());
}
