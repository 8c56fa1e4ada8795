//! The ratchet baseline: `lint-baseline.toml` freezes the count of legacy
//! sites per (rule, file) for every ratcheted rule — `[D3]` panicking
//! calls outside the total modules, `[D3v2]` transitive-panic
//! reachability, `[D6]`/`[D7]` dataflow findings. A check fails
//! when a file's live count *exceeds* its frozen count — so new
//! `unwrap()`s cannot land — while deleting one only makes the baseline
//! stale (tightened with `ebs-lint baseline`, enforced with
//! `--strict-baseline` in CI).
//!
//! The format is a strict, hand-parsed TOML subset — one table per rule,
//! one quoted-path key per file:
//!
//! ```toml
//! [D3]
//! "crates/ebs-analysis/src/ccr.rs" = 2
//! ```

use std::collections::BTreeMap;

/// Parsed baseline: rule → path → allowed count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Allowed legacy counts, keyed by rule then workspace-relative path.
    pub counts: BTreeMap<String, BTreeMap<String, usize>>,
}

impl Baseline {
    /// Allowed count for `(rule, path)`; zero when absent.
    pub fn allowed(&self, rule: &str, path: &str) -> usize {
        self.counts
            .get(rule)
            .and_then(|m| m.get(path))
            .copied()
            .unwrap_or(0)
    }

    /// Total number of frozen sites.
    pub fn total(&self) -> usize {
        self.counts.values().flat_map(|m| m.values()).sum()
    }

    /// Parse the baseline file contents. Unknown syntax is an error — a
    /// typo in the ratchet must not silently widen it.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut out = Baseline::default();
        let mut section: Option<String> = None;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let Some(name) = rest.strip_suffix(']') else {
                    return Err(format!("line {}: unclosed section header", lineno + 1));
                };
                let name = name.trim();
                if name.is_empty() {
                    return Err(format!("line {}: empty section name", lineno + 1));
                }
                section = Some(name.to_string());
                continue;
            }
            let Some(section) = section.as_ref() else {
                return Err(format!(
                    "line {}: entry before any [RULE] section",
                    lineno + 1
                ));
            };
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {}: expected `\"path\" = count`", lineno + 1));
            };
            let key = key.trim();
            let path = key
                .strip_prefix('"')
                .and_then(|k| k.strip_suffix('"'))
                .ok_or_else(|| format!("line {}: path must be double-quoted", lineno + 1))?;
            let count: usize = value
                .trim()
                .parse()
                .map_err(|_| format!("line {}: count is not an integer", lineno + 1))?;
            if count == 0 {
                return Err(format!(
                    "line {}: zero-count entries must be deleted, not listed",
                    lineno + 1
                ));
            }
            let prev = out
                .counts
                .entry(section.clone())
                .or_default()
                .insert(path.to_string(), count);
            if prev.is_some() {
                return Err(format!("line {}: duplicate entry for {path}", lineno + 1));
            }
        }
        Ok(out)
    }

    /// Serialize deterministically (sorted rules, sorted paths).
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# ebs-lint ratchet baseline — legacy sites per ratcheted rule: [D3]\n\
             # unwrap/expect/panic/indexing outside the total modules, [D3v2]\n\
             # transitive-panic reachability from the total set, [D6] hash-iteration\n\
             # order, [D7] parallel float reduction.\n\
             # Counts may only DECREASE; regenerate with\n\
             # `cargo run -p ebs-lint -- baseline` after removing a site.\n",
        );
        for (rule, files) in &self.counts {
            if files.is_empty() {
                continue;
            }
            out.push_str(&format!("\n[{rule}]\n"));
            for (path, count) in files {
                out.push_str(&format!("\"{path}\" = {count}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let mut b = Baseline::default();
        b.counts
            .entry("D3".to_string())
            .or_default()
            .insert("crates/x/src/a.rs".to_string(), 3);
        b.counts
            .entry("D3".to_string())
            .or_default()
            .insert("crates/x/src/b.rs".to_string(), 1);
        let text = b.render();
        assert_eq!(Baseline::parse(&text).unwrap(), b);
        assert_eq!(b.allowed("D3", "crates/x/src/a.rs"), 3);
        assert_eq!(b.allowed("D3", "crates/x/src/zzz.rs"), 0);
        assert_eq!(b.total(), 4);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Baseline::parse("\"a.rs\" = 1").is_err()); // no section
        assert!(Baseline::parse("[D3]\na.rs = 1").is_err()); // unquoted
        assert!(Baseline::parse("[D3]\n\"a.rs\" = x").is_err()); // not a count
        assert!(Baseline::parse("[D3]\n\"a.rs\" = 0").is_err()); // zero entry
        assert!(Baseline::parse("[D3]\n\"a.rs\" = 1\n\"a.rs\" = 2").is_err()); // dup
        assert!(Baseline::parse("[D3\n").is_err()); // unclosed header
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let b = Baseline::parse("# header\n\n[D3]\n# note\n\"a.rs\" = 2\n").unwrap();
        assert_eq!(b.allowed("D3", "a.rs"), 2);
    }
}
