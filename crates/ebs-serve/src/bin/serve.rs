//! `serve` — run the online control plane over a trace or live workload.
//!
//! ```text
//! serve [--quick|--medium] [--trace <path>] [--shards <n>]
//!       [--epoch <virt-secs>] [--window <epochs>] [--policies <csv>]
//!       [--speedup <x>] [--duration <virt-secs>] [--cache-pages <n>]
//! ```
//!
//! `--trace <path>` replays an ebs-store trace: a directory holding a
//! shard manifest is read shard-by-shard (any shard count — metricless
//! shards are fine), anything else as a single-file store. A missing path
//! is populated first: the canonical dataset at the chosen scale is
//! generated into `path` as a sharded store (`--shards <n>` or
//! `EBS_SHARDS` to pin the shard count, else the thread count). Without
//! `--trace` the workload is generated in memory.
//!
//! `--policies` selects the online controllers (comma-separated):
//! `rebind`, `lend`, `balance`, `cache`, or `none`. Default:
//! `rebind,lend,balance`.
//!
//! Without `--speedup` the loop fast-forwards (tests, CI). With
//! `--speedup <x>` each epoch takes `epoch/x` wall seconds, emulating a
//! live control plane at `x ×` accelerated virtual time; pacing never
//! changes a single output byte.
//!
//! Stdout carries only deterministic serve output — identical across
//! runs, thread counts (`EBS_THREADS`), shard counts, pacing modes, and
//! `EBS_OBS`. Status goes to stderr. With `EBS_OBS=1` the per-epoch
//! metrics stream is additionally written to
//! `<EBS_OBS_OUT>_epochs.jsonl`.
#![allow(clippy::print_stdout, reason = "a bin owns the terminal")]
#![allow(clippy::print_stderr, reason = "a bin owns the terminal")]

use std::path::PathBuf;

use ebs_serve::{
    serve, EpochSpec, NoopPolicy, OnlineBalancer, OnlineCacheTuner, OnlineLender, OnlineRebinder,
    Pacing, Policy, ServeConfig, ServeSource,
};
use ebs_stack::sim::StackConfig;
use ebs_workload::WorkloadConfig;

/// The canonical experiment seed (`ebs_experiments::EXPERIMENT_SEED`), so
/// `serve` and the offline bins agree on generated traces.
const SEED: u64 = 0xEB5_2025;

/// Pages for the serve-side cache when `cache` is selected without an
/// explicit `--cache-pages` (16 MiB of 4 KiB pages).
const DEFAULT_CACHE_PAGES: usize = 4096;

fn usage() -> ! {
    eprintln!(
        "usage: serve [--quick|--medium] [--trace <path>] [--shards <n>] \
         [--epoch <virt-secs>] [--window <epochs>] [--policies <csv>] \
         [--speedup <x>] [--duration <virt-secs>] [--cache-pages <n>]"
    );
    std::process::exit(2);
}

struct Args {
    quick: bool,
    medium: bool,
    trace: Option<PathBuf>,
    shards: Option<usize>,
    epoch_secs: f64,
    window: usize,
    policies: Vec<String>,
    speedup: Option<f64>,
    duration_secs: Option<f64>,
    cache_pages: Option<usize>,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        medium: false,
        trace: None,
        shards: None,
        epoch_secs: 60.0,
        window: 5,
        policies: vec!["rebind".into(), "lend".into(), "balance".into()],
        speedup: None,
        duration_secs: None,
        cache_pages: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |argv: &[String], i: usize| -> String {
        match argv.get(i + 1) {
            Some(v) if !v.starts_with("--") => v.clone(),
            _ => usage(),
        }
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--quick" => args.quick = true,
            "--medium" => args.medium = true,
            "--trace" => {
                args.trace = Some(PathBuf::from(value(&argv, i)));
                i += 1;
            }
            "--shards" => {
                let n: usize = value(&argv, i)
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
                args.shards = Some(n);
                i += 1;
            }
            "--epoch" => {
                args.epoch_secs = value(&argv, i)
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage());
                i += 1;
            }
            "--window" => {
                args.window = value(&argv, i)
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| usage());
                i += 1;
            }
            "--policies" => {
                args.policies = value(&argv, i)
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                i += 1;
            }
            "--speedup" => {
                args.speedup = Some(
                    value(&argv, i)
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .unwrap_or_else(|| usage()),
                );
                i += 1;
            }
            "--duration" => {
                args.duration_secs = Some(
                    value(&argv, i)
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .unwrap_or_else(|| usage()),
                );
                i += 1;
            }
            "--cache-pages" => {
                args.cache_pages = Some(
                    value(&argv, i)
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .unwrap_or_else(|| usage()),
                );
                i += 1;
            }
            "--fast-forward" => args.speedup = None,
            _ => usage(),
        }
        i += 1;
    }
    args
}

fn scale_config(args: &Args) -> WorkloadConfig {
    if args.quick {
        WorkloadConfig::quick(SEED)
    } else if args.medium {
        WorkloadConfig::medium(SEED)
    } else {
        WorkloadConfig {
            seed: SEED,
            ..WorkloadConfig::default()
        }
    }
}

fn build_policies(
    names: &[String],
    throttle_scale: f64,
    cache_pages: usize,
) -> Vec<Box<dyn Policy>> {
    let mut out: Vec<Box<dyn Policy>> = Vec::new();
    for name in names {
        match name.as_str() {
            "rebind" => out.push(Box::new(OnlineRebinder::default())),
            "lend" => out.push(Box::new(OnlineLender::new(
                ebs_throttle::LendingConfig::default(),
                throttle_scale,
            ))),
            "balance" => out.push(Box::new(OnlineBalancer::new(
                ebs_balance::bs_balancer::BalancerConfig::default(),
            ))),
            "cache" => out.push(Box::new(OnlineCacheTuner::new(cache_pages))),
            "none" | "noop" => out.push(Box::new(NoopPolicy)),
            other => {
                eprintln!("unknown policy {other:?} (known: rebind, lend, balance, cache, none)");
                std::process::exit(2);
            }
        }
    }
    out
}

fn main() {
    let args = parse_args();

    // Resolve the traffic source.
    let source = match &args.trace {
        Some(path) => {
            if path.join(ebs_store::MANIFEST_FILE).exists() || path.is_file() {
                ServeSource::from_path(path)
            } else {
                // First run: materialize the canonical trace as a sharded
                // store at `path` (bounded memory; metricless — serve does
                // not need the metric series).
                let config = scale_config(&args);
                let shards = ebs_workload::resolve_shards(args.shards);
                match ebs_workload::generate_sharded(&config, path, shards, false) {
                    Ok(manifest) => eprintln!(
                        "generated {} events into {} shard(s) at {}",
                        manifest.total_events(),
                        manifest.shards.len(),
                        path.display()
                    ),
                    Err(e) => {
                        eprintln!("cannot create trace store {}: {e}", path.display());
                        std::process::exit(2);
                    }
                }
                ServeSource::ShardedStore(path.clone())
            }
        }
        None => ServeSource::Generate(Box::new(scale_config(&args))),
    };
    let trace = match ebs_serve::load(&source) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot load serve trace: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "serving {} events over {} VDs",
        trace.events.len(),
        trace.fleet.vd_count()
    );

    // Build the serve configuration.
    let stack = StackConfig::default();
    let wants_cache = args.policies.iter().any(|p| p == "cache");
    let cache_pages = match (args.cache_pages, wants_cache) {
        (Some(n), _) => Some(n),
        (None, true) => Some(DEFAULT_CACHE_PAGES),
        (None, false) => None,
    };
    let epoch = match EpochSpec::from_secs(args.epoch_secs) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("bad --epoch: {e}");
            std::process::exit(2);
        }
    };
    let config = ServeConfig {
        epoch,
        window: args.window,
        stack: stack.clone(),
        duration_us: args
            .duration_secs
            .map(|s| (s * 1e6).round().clamp(0.0, u64::MAX as f64) as u64),
        pacing: match args.speedup {
            Some(speedup) => Pacing::Paced { speedup },
            None => Pacing::FastForward,
        },
        cache_pages,
        collect_traces: false,
    };
    let mut policies = build_policies(
        &args.policies,
        stack.throttle_scale,
        cache_pages.unwrap_or(DEFAULT_CACHE_PAGES),
    );

    // The deterministic serve output.
    println!(
        "serve: epoch={}s window={} policies={}",
        config.epoch.secs(),
        config.window,
        args.policies.join(",")
    );
    let report = match serve(&trace.fleet, &config, &trace.events, &mut policies) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve failed: {e}");
            std::process::exit(1);
        }
    };
    for row in &report.epochs {
        println!(
            "epoch {:>5} t={:>7}s ios={:>8} thr={:>6} bytes={:>12} p99={:>9.1}us | \
             win p99={:>8.1}us waste={:.4} mig={} reb={} hit={:.3} | \
             applied reb={} lend={} rec={} mig={} cache={} rej={}",
            row.epoch,
            row.start_us / 1_000_000,
            row.ios,
            row.throttled,
            row.bytes,
            row.p99_us,
            row.window.p99_us,
            row.window.throttle_waste,
            row.window.migrations,
            row.window.rebinds,
            row.window.cache_hit,
            row.applied.rebinds,
            row.applied.lends,
            row.applied.reclaims,
            row.applied.migrations,
            row.applied.cache_ops,
            row.applied.rejected,
        );
    }
    println!(
        "total: epochs={} consumed={} ios={} throttled={} mean_lat={:.3}us",
        report.epochs.len(),
        report.consumed,
        report.aggregate.ios,
        report.aggregate.throttled,
        report.aggregate.mean_latency_us,
    );

    // Rolling metrics stream (EBS_OBS gated; never touches stdout).
    ebs_obs::report::emit_stream("_epochs", &report.metrics_jsonl);
}
