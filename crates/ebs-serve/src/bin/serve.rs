//! `serve` — run the online control plane over a trace or live workload.
//!
//! ```text
//! serve [--quick|--medium] [--trace <path>] [--shards <n>]
//!       [--epoch <virt-secs>] [--policies <csv>]
//! ```
//!
//! `--trace <path>` replays the events of an ebs-store trace in either
//! layout (`ebs_workload::load_events`; metricless shards are fine). A
//! path holding no store is populated first: the canonical dataset at the
//! chosen scale is generated into `path` as a metricless sharded store
//! (`--shards <n>` or `EBS_SHARDS` to pin the shard count, else the
//! thread count). Without `--trace` the workload is generated in memory.
//!
//! `--policies` selects the online controllers (comma-separated):
//! `rebind`, `lend`, `balance`, `cache`, or `none`. Default:
//! `rebind,lend,balance`. The `cache` policy tunes a page cache of
//! 4096 4 KiB pages (16 MiB).
//!
//! Every run serves the whole trace, from time 0 through its last event,
//! under a sliding window of 5 epochs.
//!
//! Stdout carries only deterministic serve output — identical across
//! runs, thread counts (`EBS_THREADS`), store layouts, shard counts and
//! `EBS_OBS`. Status goes to stderr. With `EBS_OBS=1` the per-epoch
//! metrics stream is additionally written to
//! `<EBS_OBS_OUT>_epochs.jsonl`.
#![allow(clippy::print_stdout, reason = "a bin owns the terminal")]
#![allow(clippy::print_stderr, reason = "a bin owns the terminal")]

use std::path::PathBuf;

use ebs_core::error::EbsError;
use ebs_core::io::IoEvent;
use ebs_core::topology::Fleet;
use ebs_serve::{
    serve, EpochSpec, NoopPolicy, OnlineBalancer, OnlineCacheTuner, OnlineLender, OnlineRebinder,
    Policy, ServeConfig,
};
use ebs_stack::sim::StackConfig;
use ebs_workload::{Scale, StoreLayout, EXPERIMENT_SEED};

/// Pages for the serve-side cache when `cache` is selected (16 MiB of
/// 4 KiB pages).
const DEFAULT_CACHE_PAGES: usize = 4096;

/// Sliding-window length, in epochs.
const WINDOW: usize = 5;

fn usage() -> ! {
    eprintln!(
        "usage: serve [--quick|--medium] [--trace <path>] [--shards <n>] \
         [--epoch <virt-secs>] [--policies <csv>]"
    );
    std::process::exit(2);
}

struct Args {
    scale: Scale,
    trace: Option<PathBuf>,
    shards: Option<usize>,
    epoch_secs: f64,
    policies: Vec<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: Scale::Full,
        trace: None,
        shards: None,
        epoch_secs: 60.0,
        policies: vec!["rebind".into(), "lend".into(), "balance".into()],
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
            // `--quick` wins over `--medium`, in either order.
            "--quick" => args.scale = Scale::Quick,
            "--medium" if args.scale == Scale::Full => args.scale = Scale::Medium,
            "--medium" => {}
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
            "--policies" => {
                args.policies = value(&argv, i)
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                i += 1;
            }
            _ => usage(),
        }
        i += 1;
    }
    args
}

/// The fleet and event stream to serve: the canonical dataset generated
/// in memory, or the events of the store at `--trace`, which a first run
/// creates as a metricless sharded store.
fn load_trace(args: &Args) -> Result<(Fleet, Vec<IoEvent>), EbsError> {
    let config = args.scale.config(EXPERIMENT_SEED);
    let Some(path) = &args.trace else {
        let ds = ebs_workload::generate(&config)?;
        return Ok((ds.fleet, ds.events));
    };
    if StoreLayout::probe(path) == StoreLayout::Absent {
        let shards = ebs_workload::resolve_shards(args.shards);
        let manifest = ebs_workload::generate_sharded(&config, path, shards, false)?;
        eprintln!(
            "generated {} events into {} shard(s) at {}",
            manifest.total_events(),
            manifest.shards.len(),
            path.display()
        );
    }
    let (_, fleet, events) = ebs_workload::load_events(path)?;
    Ok((fleet, events))
}

fn build_policies(names: &[String], throttle_scale: f64) -> Vec<Box<dyn Policy>> {
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
            "cache" => out.push(Box::new(OnlineCacheTuner::new(DEFAULT_CACHE_PAGES))),
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

    let (fleet, events) = load_trace(&args).unwrap_or_else(|e| {
        eprintln!("cannot load serve trace: {e}");
        std::process::exit(2);
    });
    eprintln!(
        "serving {} events over {} VDs",
        events.len(),
        fleet.vd_count()
    );

    // Build the serve configuration.
    let stack = StackConfig::default();
    let wants_cache = args.policies.iter().any(|p| p == "cache");
    let epoch = match EpochSpec::from_secs(args.epoch_secs) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("bad --epoch: {e}");
            std::process::exit(2);
        }
    };
    let config = ServeConfig {
        epoch,
        window: WINDOW,
        stack: stack.clone(),
        cache_pages: wants_cache.then_some(DEFAULT_CACHE_PAGES),
        collect_latency: false,
    };
    let mut policies = build_policies(&args.policies, stack.throttle_scale);

    // The deterministic serve output.
    println!(
        "serve: epoch={}s window={} policies={}",
        config.epoch.secs(),
        config.window,
        args.policies.join(",")
    );
    let report = match serve(&fleet, &config, &events, &mut policies) {
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
