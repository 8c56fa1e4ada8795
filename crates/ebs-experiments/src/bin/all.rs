//! Run every table and figure of the reproduction in one pass.
//!
//! Sections run as parallel jobs on the `ebs-core` pool (see
//! `ebs_experiments::driver`); set `EBS_THREADS=1` for a serial run. The
//! printed output is identical either way — and identical with `EBS_OBS=1`,
//! which additionally writes the observability run report (default
//! `OBS_report.jsonl`, override with `EBS_OBS_OUT`) without
//! touching stdout.
//!
//! `--only <name>` prints one section of the driver's table (`table2`…
//! `table4`, `fig2`…`fig7`, `ablations`, `extensions`), byte-identical to
//! its slice of the full run, and builds only the inputs that section
//! reads. An unknown name exits with status 2 and lists the valid ones.
//!
//! `--trace <path>` persists the dataset: the first run generates and
//! saves it to `path`, later runs replay from the store, in whichever
//! layout it has, instead of regenerating. With `--shards <n>` (or
//! `EBS_SHARDS`) a new store is written as a sharded directory, shard by
//! shard with bounded memory. Output is byte-identical across all of
//! these paths (see `scenario::dataset_or_replay`); status goes to
//! stderr only.
#![allow(clippy::print_stdout, reason = "a bin owns the terminal")]
#![allow(clippy::print_stderr, reason = "a bin owns the terminal")]
use ebs_experiments::*;

/// The section named by `--only <name>`, if given; exits 2 on a missing or
/// unknown name.
fn only_from_args() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let at = args.iter().position(|a| a == "--only")?;
    match args.get(at + 1) {
        Some(name) if driver::SECTIONS.iter().any(|(n, _)| n == name) => Some(name.clone()),
        given => {
            let names: Vec<&str> = driver::SECTIONS.iter().map(|&(n, _)| n).collect();
            eprintln!(
                "--only needs a section name, one of: {} (got {})",
                names.join(", "),
                given.map_or("nothing", String::as_str)
            );
            std::process::exit(2);
        }
    }
}

fn main() {
    let only = only_from_args();
    let scale = scale_from_args();
    let ds = match trace_path_from_args() {
        Some(path) => dataset_or_replay(scale, &path, shards_from_args()).unwrap_or_else(|e| {
            eprintln!("cannot use trace store {}: {e}", path.display());
            std::process::exit(2);
        }),
        None => dataset(scale),
    };
    match only {
        Some(name) => println!("{}", driver::run_only(&ds, &name).expect("checked name")),
        None => println!("{}", driver::run_all(&ds).join("\n\n")),
    }
    ebs_obs::report::emit_global();
}
