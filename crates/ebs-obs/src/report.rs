//! Structured run reports: the registry snapshot rendered as JSONL and
//! CSV, written next to the other run artifacts (`EBS_OBS_OUT`).
//!
//! One metric per line in both formats, in the registry's canonical order,
//! so two runs that recorded the same deterministic metrics produce
//! reports that differ only in wall-clock timer seconds.

use crate::registry::{Registry, Row};

/// Minimal JSON string escaping for metric names (which the workspace
/// keeps to dotted ASCII identifiers anyway).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render `registry` as JSONL: one JSON object per metric, canonical
/// order. Histograms carry their full shape and bin counts.
pub fn to_jsonl(registry: &Registry) -> String {
    let mut out = String::new();
    for row in registry.rows() {
        let name = json_escape(row.name());
        match &row {
            Row::Counter { value, .. } => {
                out.push_str(&format!(
                    "{{\"kind\":\"counter\",\"name\":\"{name}\",\"value\":{value}}}\n"
                ));
            }
            Row::Gauge { value, .. } => {
                out.push_str(&format!(
                    "{{\"kind\":\"gauge\",\"name\":\"{name}\",\"value\":{value}}}\n"
                ));
            }
            Row::Hist { hist, .. } => {
                let counts: Vec<String> = hist.counts().iter().map(|c| c.to_string()).collect();
                out.push_str(&format!(
                    "{{\"kind\":\"histogram\",\"name\":\"{name}\",\"lo\":{},\"hi\":{},\"total\":{},\"counts\":[{}]}}\n",
                    hist.lo(),
                    hist.hi(),
                    hist.total(),
                    counts.join(",")
                ));
            }
            Row::Timer { stat, .. } => {
                out.push_str(&format!(
                    "{{\"kind\":\"timer\",\"name\":\"{name}\",\"seconds\":{:.6},\"count\":{},\"max_seconds\":{:.6}}}\n",
                    stat.seconds, stat.count, stat.max_seconds
                ));
            }
        }
    }
    out
}

/// Render `registry` as CSV with a fixed header. The `value` column holds
/// the count/gauge value, total histogram mass, or accumulated timer
/// seconds; `detail` holds kind-specific extras.
pub fn to_csv(registry: &Registry) -> String {
    let mut out = String::from("kind,name,value,detail\n");
    for row in registry.rows() {
        let name = row.name().replace(',', ";");
        match &row {
            Row::Counter { value, .. } => {
                out.push_str(&format!("counter,{name},{value},\n"));
            }
            Row::Gauge { value, .. } => {
                out.push_str(&format!("gauge,{name},{value},\n"));
            }
            Row::Hist { hist, .. } => {
                let counts: Vec<String> = hist.counts().iter().map(|c| c.to_string()).collect();
                out.push_str(&format!(
                    "histogram,{name},{},lo={};hi={};counts={}\n",
                    hist.total(),
                    hist.lo(),
                    hist.hi(),
                    counts.join("|")
                ));
            }
            Row::Timer { stat, .. } => {
                out.push_str(&format!(
                    "timer,{name},{:.6},count={};max_s={:.6}\n",
                    stat.seconds, stat.count, stat.max_seconds
                ));
            }
        }
    }
    out
}

/// Write `<base>.jsonl` and `<base>.csv` for `registry`. Returns the two
/// paths written.
pub fn write_files(registry: &Registry, base: &str) -> std::io::Result<(String, String)> {
    let jsonl = format!("{base}.jsonl");
    let csv = format!("{base}.csv");
    std::fs::write(&jsonl, to_jsonl(registry))?;
    std::fs::write(&csv, to_csv(registry))?;
    Ok((jsonl, csv))
}

/// If observability is enabled, snapshot the global registry and write the
/// run report to `EBS_OBS_OUT` (default `OBS_report`), logging one line to
/// stderr. Stdout is never touched, preserving byte-identical program
/// output. No-op (returning `None`) when observability is off or nothing
/// was recorded.
pub fn emit_global() -> Option<(String, String)> {
    if !crate::enabled() {
        return None;
    }
    let snap = crate::snapshot();
    if snap.is_empty() {
        return None;
    }
    let base = std::env::var(crate::OBS_OUT_ENV).unwrap_or_else(|_| "OBS_report".to_string());
    match write_files(&snap, &base) {
        Ok((jsonl, csv)) => {
            eprintln!(
                "obs: wrote {jsonl} and {csv} ({} metrics)",
                snap.rows().len()
            );
            Some((jsonl, csv))
        }
        Err(e) => {
            eprintln!("obs: failed to write run report {base}.jsonl/.csv: {e}");
            None
        }
    }
}

/// If observability is enabled, write an already-rendered JSONL stream to
/// `<EBS_OBS_OUT (default OBS_report)><suffix>.jsonl`, logging one line to
/// stderr. Used for rolling streams (one record per serve epoch) that do
/// not fit the registry's metric-per-line snapshot model. Stdout is never
/// touched; a no-op (returning `None`) when observability is off or the
/// stream is empty.
pub fn emit_stream(suffix: &str, jsonl: &str) -> Option<String> {
    if !crate::enabled() || jsonl.is_empty() {
        return None;
    }
    let base = std::env::var(crate::OBS_OUT_ENV).unwrap_or_else(|_| "OBS_report".to_string());
    let path = format!("{base}{suffix}.jsonl");
    match std::fs::write(&path, jsonl) {
        Ok(()) => {
            eprintln!("obs: wrote {path} ({} records)", jsonl.lines().count());
            Some(path)
        }
        Err(e) => {
            eprintln!("obs: failed to write {path}: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Registry {
        let mut r = Registry::new();
        r.counter_add("stack.sim.ios", 10);
        r.gauge_set("driver.events_per_sec", 1234.5);
        r.observe_many("throttle.rar", 0.0, 1.0, 4, &[0.1, 0.6, 0.6]);
        r.timer_record("driver.section.table2", 0.25);
        r
    }

    #[test]
    fn jsonl_has_one_line_per_metric_in_canonical_order() {
        let text = to_jsonl(&sample());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"counter\"") && lines[0].contains("stack.sim.ios"));
        assert!(lines[1].contains("\"gauge\""));
        assert!(lines[2].contains("\"histogram\"") && lines[2].contains("\"counts\":[1,0,2,0]"));
        assert!(lines[3].contains("\"timer\"") && lines[3].contains("\"count\":1"));
    }

    #[test]
    fn csv_has_header_plus_rows() {
        let text = to_csv(&sample());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[0], "kind,name,value,detail");
        assert!(lines[3].starts_with("histogram,throttle.rar,3,"));
        assert!(lines[3].contains("counts=1|0|2|0"));
    }

    #[test]
    fn exports_are_deterministic_across_identical_registries() {
        assert_eq!(to_jsonl(&sample()), to_jsonl(&sample()));
        assert_eq!(to_csv(&sample()), to_csv(&sample()));
    }

    #[test]
    fn json_names_are_escaped() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
    }
}
