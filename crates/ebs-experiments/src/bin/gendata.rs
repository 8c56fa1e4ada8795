//! Generate the canonical synthetic dataset and export it as CSV, the way
//! the paper released its collection.
//!
//! ```sh
//! cargo run --release -p ebs-experiments --bin gendata -- --quick [out_dir]
//! ```
#![allow(clippy::print_stdout, reason = "a bin owns the terminal")]
use ebs_experiments::{dataset, Scale};
use std::path::PathBuf;

fn main() {
    let scale = Scale::from_args();
    let out: PathBuf = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .unwrap_or_else(|| "ebs-dataset".into())
        .into();
    let ds = dataset(scale);
    let files = ebs_workload::export::export_dir(&ds, &out).expect("export failed");
    println!(
        "wrote {} files to {} ({} sampled IOs, {} VDs)",
        files.len(),
        out.display(),
        ds.trace_count(),
        ds.fleet.vds.len()
    );
    for f in files {
        println!("  {}", out.join(f).display());
    }
}
