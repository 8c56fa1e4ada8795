//! Bounded-memory fleet-scale run: generate (or re-open) a sharded trace
//! store sized to a target VD count, replay it as a stream, and print the
//! paper's skewness headline numbers.
//!
//! ```text
//! fleetscale --dir PATH [--vds N] [--shards S] [--duration SECS] [--metrics]
//! ```
//!
//! * `--dir PATH` (required) — sharded store directory. If it already
//!   holds a manifest the generation step is skipped and the existing
//!   shards are replayed.
//! * `--vds N` — target virtual-disk count (default 1,000,000).
//! * `--shards S` — shard count (default: `EBS_SHARDS`, then threads).
//! * `--duration SECS` — observation window (default 900 s; fleet-scale
//!   runs measure population skew, not long-horizon dynamics).
//! * `--metrics` — also persist per-QP/per-segment tick series (needed
//!   only if the store will later be materialized via `all --trace`).
//!
//! The report goes to stdout and is deterministic — independent of the
//! shard count and `EBS_THREADS`. Peak RSS goes to stderr so bounded-
//! memory claims can be checked from CI.
#![allow(clippy::print_stdout, reason = "a bin owns the terminal")]
#![allow(clippy::print_stderr, reason = "a bin owns the terminal")]

use ebs_experiments::fleetscale::{config_for_vds, skew_report};
use ebs_experiments::EXPERIMENT_SEED;
use ebs_workload::{generate_sharded, replay_summary, resolve_shards};

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    let at = args.iter().position(|a| a == flag)?;
    match args.get(at + 1) {
        Some(v) if !v.starts_with("--") => Some(v.clone()),
        _ => {
            eprintln!("{flag} requires an argument");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let Some(dir) = arg_value(&args, "--dir").map(std::path::PathBuf::from) else {
        eprintln!(
            "usage: fleetscale --dir PATH [--vds N] [--shards S] [--duration SECS] [--metrics]"
        );
        std::process::exit(2);
    };
    let vds: u64 = parse_or_exit(arg_value(&args, "--vds"), "--vds", 1_000_000);
    let duration: f64 = parse_or_exit(arg_value(&args, "--duration"), "--duration", 900.0);
    let shards = resolve_shards(arg_value(&args, "--shards").map(|s| match s.parse() {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("--shards requires a positive integer");
            std::process::exit(2);
        }
    }));
    let with_metrics = args.iter().any(|a| a == "--metrics");

    if !dir.join(ebs_store::MANIFEST_FILE).exists() {
        let config = config_for_vds(vds, EXPERIMENT_SEED, duration);
        eprintln!(
            "generating ~{vds} VDs into {shards} shard(s) at {} ...",
            dir.display()
        );
        if let Err(e) = generate_sharded(&config, &dir, shards, with_metrics) {
            eprintln!("sharded generation failed: {e}");
            std::process::exit(2);
        }
    } else {
        eprintln!("replaying existing sharded store at {}", dir.display());
    }

    match replay_summary(&dir) {
        Ok((manifest, summary)) => {
            for line in skew_report(&manifest, &summary) {
                println!("{line}");
            }
        }
        Err(e) => {
            eprintln!("sharded replay failed: {e}");
            std::process::exit(2);
        }
    }

    if let Some(kib) = peak_rss_kib() {
        eprintln!("peak rss: {} MiB", kib / 1024);
    }
}

fn parse_or_exit<T: std::str::FromStr>(value: Option<String>, flag: &str, default: T) -> T {
    match value {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("{flag}: cannot parse {v:?}");
            std::process::exit(2);
        }),
    }
}

/// Peak resident set size of this process in KiB, from
/// `/proc/self/status` (`VmHWM`). `None` off Linux or if the field is
/// missing — the report never depends on it.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
