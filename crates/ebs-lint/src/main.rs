//! CLI for the in-repo static analyzer.
//!
//! ```text
//! cargo run -p ebs-lint -- check [--format json] [--strict-baseline] [--root DIR]
//! cargo run -p ebs-lint -- baseline [--root DIR]
//! cargo run -p ebs-lint -- graph <fn-path> [--root DIR]
//! ```
//!
//! `graph` prints a function's callers and callees from the computed
//! workspace call graph (`<fn-path>` is a bare name like `merge` or a
//! `::`-path suffix like `ebs_store::stream::StreamSummary::merge`) —
//! handy for reviewing D3v2 reachability traces.
//!
//! Exit codes: 0 clean, 1 violations (or stale baseline under
//! `--strict-baseline`, or no `graph` match), 2 usage or I/O error.
#![allow(clippy::print_stdout, reason = "a bin owns the terminal")]
#![allow(clippy::print_stderr, reason = "a bin owns the terminal")]

use ebs_lint::{analyze, baseline::Baseline, diag, find_root, BASELINE_FILE};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd: Option<&str> = None;
    let mut query: Option<String> = None;
    let mut format_json = false;
    let mut strict_baseline = false;
    let mut root_arg: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "check" | "baseline" | "graph" if cmd.is_none() => cmd = Some(arg.as_str()),
            "--format" => match it.next().map(String::as_str) {
                Some("json") => format_json = true,
                Some("human") => format_json = false,
                other => return usage(&format!("--format expects json|human, got {other:?}")),
            },
            "--strict-baseline" => strict_baseline = true,
            "--root" => match it.next() {
                Some(dir) => root_arg = Some(PathBuf::from(dir)),
                None => return usage("--root expects a directory"),
            },
            other if cmd == Some("graph") && query.is_none() && !other.starts_with('-') => {
                query = Some(other.to_string());
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    let Some(cmd) = cmd else {
        return usage("expected a command: check | baseline | graph");
    };
    if cmd == "graph" && query.is_none() {
        return usage("graph expects a function path (e.g. `StreamSummary::merge`)");
    }

    let root =
        match root_arg.or_else(|| std::env::current_dir().ok().and_then(|cwd| find_root(&cwd))) {
            Some(root) => root,
            None => return fail("could not locate the workspace root (no [workspace] Cargo.toml)"),
        };

    let baseline_path = root.join(BASELINE_FILE);
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match Baseline::parse(&text) {
            Ok(b) => b,
            Err(e) => return fail(&format!("{BASELINE_FILE}: {e}")),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Baseline::default(),
        Err(e) => return fail(&format!("{BASELINE_FILE}: {e}")),
    };

    let analysis = match analyze(&root, &baseline) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let (report, live) = (analysis.report, analysis.live);

    match cmd {
        "baseline" => {
            let text = live.render();
            if let Err(e) = std::fs::write(&baseline_path, &text) {
                return fail(&format!("writing {BASELINE_FILE}: {e}"));
            }
            let files: usize = live.counts.values().map(|m| m.len()).sum();
            println!(
                "wrote {} with {} ratcheted site(s) across {} [rule]/file entry(ies)",
                baseline_path.display(),
                live.total(),
                files
            );
            ExitCode::SUCCESS
        }
        "graph" => {
            let graph = &analysis.graph;
            let query = query.unwrap_or_default();
            let matches = graph.find(&query);
            if matches.is_empty() {
                eprintln!("ebs-lint: no workspace fn matches `{query}`");
                return ExitCode::FAILURE;
            }
            for id in matches {
                let f = &graph.fns[id];
                println!("fn {} ({}:{})", f.path(), f.file, f.line);
                if !f.panics.is_empty() {
                    println!("  panics: {} live site(s)", f.panics.len());
                }
                for c in graph.callers_of(id) {
                    let g = &graph.fns[c];
                    println!("  caller: {} ({}:{})", g.path(), g.file, g.line);
                }
                for &c in &graph.callees[id] {
                    let g = &graph.fns[c];
                    println!("  callee: {} ({}:{})", g.path(), g.file, g.line);
                }
            }
            ExitCode::SUCCESS
        }
        _ => {
            if format_json {
                print!(
                    "{}",
                    diag::render_json(&report.violations, report.files_scanned, report.baselined)
                );
            } else {
                print!(
                    "{}",
                    diag::render_human(&report.violations, report.files_scanned, report.baselined)
                );
                for (rule, path, livec, allowed) in &report.stale {
                    eprintln!(
                        "note: stale baseline entry [{rule}] \"{path}\" = {allowed} \
                         (live count {livec}); run `cargo run -p ebs-lint -- baseline`"
                    );
                }
            }
            if report.ok(strict_baseline) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("ebs-lint: {msg}");
    eprintln!(
        "usage: ebs-lint check [--format json|human] [--strict-baseline] [--root DIR]\n\
                \x20      ebs-lint baseline [--root DIR]\n\
                \x20      ebs-lint graph <fn-path> [--root DIR]"
    );
    ExitCode::from(2)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("ebs-lint: {msg}");
    ExitCode::from(2)
}
