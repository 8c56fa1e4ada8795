//! Workspace discovery: which `.rs` files to scan, how each is classified,
//! and which modules are *total* (D3-strict).

use crate::rules::FileClass;
use std::path::{Path, PathBuf};

/// Crates whose whole tree is a test harness: panics are their job.
const HARNESS_CRATES: &[&str] = &["proptest-shim"];

/// Modules that must be *total*: hostile input yields typed errors, never a
/// panic. D3 is a hard error here — no baseline, only reasoned inline
/// suppressions.
pub const TOTAL_MODULES: &[&str] = &[
    "crates/ebs-store/src/reader.rs",
    "crates/ebs-store/src/bytes.rs",
    "crates/ebs-store/src/codec.rs",
    "crates/ebs-store/src/columns.rs",
    "crates/ebs-store/src/manifest.rs",
    "crates/ebs-store/src/seal.rs",
    "crates/ebs-store/src/stream.rs",
    "crates/ebs-workload/src/store.rs",
    "crates/ebs-stack/src/route.rs",
    "crates/ebs-serve/src/epoch.rs",
    "crates/ebs-serve/src/window.rs",
];

/// One file scheduled for scanning.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Absolute path on disk.
    pub abs: PathBuf,
    /// Workspace-relative, `/`-separated path (the diagnostic span prefix).
    pub rel: String,
    /// Rule-applicability class.
    pub class: FileClass,
    /// Whether this is a D3-strict total module.
    pub total: bool,
}

/// Classify a workspace-relative path.
pub fn classify(rel: &str) -> FileClass {
    let parts: Vec<&str> = rel.split('/').collect();
    let rest = match parts.as_slice() {
        ["crates", krate, ..] if HARNESS_CRATES.contains(krate) => return FileClass::Test,
        ["crates", _, rest @ ..] => rest,
        rest => rest,
    };
    match rest {
        ["tests", ..] => FileClass::Test,
        ["examples", ..] | ["src", "bin", ..] | ["src", "main.rs"] => FileClass::Bin,
        _ => FileClass::Lib,
    }
}

/// Discover every `.rs` file under the workspace `root`, classified and
/// sorted by relative path (so reports and baselines are deterministic).
pub fn discover(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut rels: Vec<String> = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        collect_rs(&root.join(top), root, &mut rels)?;
    }
    rels.sort();
    Ok(rels
        .into_iter()
        .map(|rel| SourceFile {
            abs: root.join(&rel),
            class: classify(&rel),
            total: TOTAL_MODULES.contains(&rel.as_str()),
            rel,
        })
        .collect())
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            // `tests/fixtures/` holds deliberate-violation inputs for the
            // linter's own test suite; cargo never compiles them (only
            // top-level files in `tests/` are test targets), so they are
            // not code and are not scanned.
            if name == "fixtures" && dir.file_name().is_some_and(|d| d == "tests") {
                continue;
            }
            collect_rs(&path, root, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matrix() {
        assert_eq!(classify("crates/ebs-core/src/hash.rs"), FileClass::Lib);
        assert_eq!(
            classify("crates/ebs-experiments/src/bin/all.rs"),
            FileClass::Bin
        );
        assert_eq!(classify("crates/ebs-lint/src/main.rs"), FileClass::Bin);
        assert_eq!(classify("crates/ebs-obs/src/report.rs"), FileClass::Lib);
        assert_eq!(classify("crates/proptest-shim/src/lib.rs"), FileClass::Test);
        assert_eq!(
            classify("crates/ebs-lint/tests/fixtures.rs"),
            FileClass::Test
        );
        assert_eq!(classify("tests/determinism.rs"), FileClass::Test);
        assert_eq!(classify("examples/quickstart.rs"), FileClass::Bin);
        assert_eq!(classify("src/lib.rs"), FileClass::Lib);
    }

    #[test]
    fn total_modules_are_store_workload_io_and_routing() {
        assert!(TOTAL_MODULES.contains(&"crates/ebs-store/src/reader.rs"));
        // The v2 decode kernels and the frame seal sit on the hostile-input
        // path, so they are D3-strict like the reader that calls them.
        assert!(TOTAL_MODULES.contains(&"crates/ebs-store/src/codec.rs"));
        assert!(TOTAL_MODULES.contains(&"crates/ebs-store/src/seal.rs"));
        assert!(TOTAL_MODULES.contains(&"crates/ebs-workload/src/store.rs"));
        // The route plan resolves untrusted (offset, VD) pairs for every
        // simulated event; it must surface malformed input as errors, not
        // panics.
        assert!(TOTAL_MODULES.contains(&"crates/ebs-stack/src/route.rs"));
        // The serve loop's epoch and window arithmetic steers a long-running
        // control plane; a malformed epoch spec or an empty window must come
        // back as a value, never a panic.
        assert!(TOTAL_MODULES.contains(&"crates/ebs-serve/src/epoch.rs"));
        assert!(TOTAL_MODULES.contains(&"crates/ebs-serve/src/window.rs"));
        assert!(!TOTAL_MODULES.contains(&"crates/ebs-store/src/writer.rs"));
    }
}
