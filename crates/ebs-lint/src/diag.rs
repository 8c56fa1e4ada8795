//! Diagnostics: the violation record, deterministic ordering, and the
//! human / JSON renderers.

use std::fmt::Write as _;

/// One rule violation at a source span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Rule id (`D1`, `D3`, `D3v2`, `D6`, `D7`, or `SUP` for malformed
    /// suppressions).
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// What is wrong and what to use instead.
    pub message: String,
    /// Call-graph reachability path for `D3v2` findings: one
    /// `crate::module::fn (file:line)` hop per element, total root first,
    /// panicking fn last. Empty for per-file rules.
    pub trace: Vec<String>,
}

/// Sort violations into the canonical report order (path, line, col, rule)
/// so output is byte-identical regardless of walk or scan order.
pub fn sort(violations: &mut [Violation]) {
    violations.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
}

/// Render violations in the rustc-like human format.
pub fn render_human(violations: &[Violation], files_scanned: usize, baselined: usize) -> String {
    let mut out = String::new();
    for v in violations {
        let _ = writeln!(out, "error[{}]: {}", v.rule, v.message);
        let _ = writeln!(out, "  --> {}:{}:{}", v.path, v.line, v.col);
        for (i, hop) in v.trace.iter().enumerate() {
            let _ = writeln!(out, "  {}{hop}", if i == 0 { "trace: " } else { "     → " });
        }
    }
    let verdict = if violations.is_empty() {
        "clean"
    } else {
        "FAILED"
    };
    let _ = writeln!(
        out,
        "ebs-lint: {verdict} — {} violation(s), {files_scanned} file(s) scanned, \
         {baselined} legacy site(s) covered by lint-baseline.toml",
        violations.len()
    );
    out
}

/// Render violations as a single JSON document (`--format json`).
///
/// Hand-rolled serialization: the linter is dependency-free by design, and
/// the schema is flat enough that escaping strings is the only subtlety.
pub fn render_json(violations: &[Violation], files_scanned: usize, baselined: usize) -> String {
    let mut out = String::from("{\"version\":1,\"violations\":[");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let trace: Vec<String> = v.trace.iter().map(|h| json_str(h)).collect();
        let _ = write!(
            out,
            "{{\"rule\":{},\"path\":{},\"line\":{},\"col\":{},\"message\":{},\"trace\":[{}]}}",
            json_str(v.rule),
            json_str(&v.path),
            v.line,
            v.col,
            json_str(&v.message),
            trace.join(",")
        );
    }
    let _ = write!(
        out,
        "],\"files_scanned\":{files_scanned},\"baselined\":{baselined},\"ok\":{}}}",
        violations.is_empty()
    );
    out.push('\n');
    out
}

/// JSON string escape.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(path: &str, line: u32, col: u32) -> Violation {
        Violation {
            rule: "D1",
            path: path.to_string(),
            line,
            col,
            message: "m \"q\"".to_string(),
            trace: Vec::new(),
        }
    }

    #[test]
    fn ordering_is_path_line_col() {
        let mut vs = vec![
            v("b.rs", 1, 1),
            v("a.rs", 9, 1),
            v("a.rs", 2, 5),
            v("a.rs", 2, 3),
        ];
        sort(&mut vs);
        let order: Vec<(String, u32, u32)> =
            vs.iter().map(|v| (v.path.clone(), v.line, v.col)).collect();
        assert_eq!(
            order,
            vec![
                ("a.rs".to_string(), 2, 3),
                ("a.rs".to_string(), 2, 5),
                ("a.rs".to_string(), 9, 1),
                ("b.rs".to_string(), 1, 1),
            ]
        );
    }

    #[test]
    fn json_escapes_and_reports_ok_flag() {
        let doc = render_json(&[v("a.rs", 1, 2)], 3, 0);
        assert!(doc.contains("\"m \\\"q\\\"\""));
        assert!(doc.contains("\"ok\":false"));
        let clean = render_json(&[], 3, 1);
        assert!(clean.contains("\"ok\":true"));
        assert!(clean.contains("\"baselined\":1"));
    }

    #[test]
    fn human_format_has_spans() {
        let text = render_human(&[v("crates/x/src/a.rs", 7, 4)], 1, 0);
        assert!(text.contains("error[D1]"));
        assert!(text.contains("--> crates/x/src/a.rs:7:4"));
    }
}
