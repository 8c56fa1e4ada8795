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
/// order. Histograms carry their total, underflow, overflow and invalid
/// counts and their non-empty buckets as `[lower edge, upper edge, count]`.
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
                let buckets: Vec<String> = hist
                    .buckets()
                    .map(|(lo, hi, c)| format!("[{lo},{hi},{c}]"))
                    .collect();
                out.push_str(&format!(
                    "{{\"kind\":\"histogram\",\"name\":\"{name}\",\"total\":{},\"underflow\":{},\
                     \"overflow\":{},\"invalid\":{},\"buckets\":[{}]}}\n",
                    hist.total(),
                    hist.underflow(),
                    hist.overflow(),
                    hist.invalid(),
                    buckets.join(",")
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
/// seconds; `detail` holds kind-specific extras (for a histogram, its
/// out-of-bucket counts and its non-empty buckets as `lo..hi=count`).
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
                let buckets: Vec<String> = hist
                    .buckets()
                    .map(|(lo, hi, c)| format!("{lo}..{hi}={c}"))
                    .collect();
                out.push_str(&format!(
                    "histogram,{name},{},underflow={};overflow={};invalid={};buckets={}\n",
                    hist.total(),
                    hist.underflow(),
                    hist.overflow(),
                    hist.invalid(),
                    buckets.join("|")
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
        r.observe_many("throttle.rar", &[0.1, 0.6, 0.6, f64::NAN]);
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
        assert_eq!(
            lines[2],
            "{\"kind\":\"histogram\",\"name\":\"throttle.rar\",\"total\":4,\"underflow\":0,\
             \"overflow\":0,\"invalid\":1,\"buckets\":[[0.09765625,0.1015625,1],[0.59375,0.625,2]]}"
        );
        assert!(lines[3].contains("\"timer\"") && lines[3].contains("\"count\":1"));
    }

    #[test]
    fn csv_has_header_plus_rows() {
        let text = to_csv(&sample());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[0], "kind,name,value,detail");
        assert_eq!(
            lines[3],
            "histogram,throttle.rar,4,underflow=0;overflow=0;invalid=1;\
             buckets=0.09765625..0.1015625=1|0.59375..0.625=2"
        );
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
