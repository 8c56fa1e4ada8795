//! CSV export of the generated datasets.
//!
//! The paper released its collection as CSV tables (trace / metric /
//! specification); this module writes our synthetic stand-ins in the same
//! spirit so downstream tooling (pandas, DuckDB, …) can consume them:
//!
//! * `events.csv` — the 1/3200-sampled IO stream (one row per IO);
//! * `compute_metrics.csv` — per-(QP, tick) read/write bytes and ops with
//!   the Table 1 joins (user, VM, VD, WT, CN);
//! * `storage_metrics.csv` — per-(segment, tick) read/write bytes and ops
//!   with the storage-side joins (VD, BS, SN);
//! * `specs.csv` — the specification data (per-VD capacity, caps, QPs,
//!   placement, application).

use crate::dataset::Dataset;
use ebs_core::ids::{QpId, SegId};
use std::io::{self, Write};
use std::path::Path;

/// Write the sampled IO events as CSV.
pub fn write_events_csv<W: Write>(ds: &Dataset, mut w: W) -> io::Result<()> {
    writeln!(w, "t_us,vd,qp,op,size,offset")?;
    for e in &ds.events {
        writeln!(
            w,
            "{},{},{},{},{},{}",
            e.t_us,
            e.vd.0,
            e.qp.0,
            e.op.letter(),
            e.size,
            e.offset
        )?;
    }
    Ok(())
}

/// Write the compute-domain metric data as CSV (sparse: only active ticks).
pub fn write_compute_metrics_csv<W: Write>(ds: &Dataset, mut w: W) -> io::Result<()> {
    writeln!(
        w,
        "tick,user,vm,vd,wt,qp,read_bytes,write_bytes,read_ops,write_ops"
    )?;
    let fleet = &ds.fleet;
    for (i, series) in ds.compute.per_qp.iter().enumerate() {
        let qp = QpId::from_index(i);
        let vd = fleet.qps[qp].vd;
        let vm = fleet.vds[vd].vm;
        let user = fleet.vms[vm].user;
        let wt = fleet.qp_binding[qp];
        for s in series.samples() {
            writeln!(
                w,
                "{},{},{},{},{},{},{:.0},{:.0},{:.2},{:.2}",
                s.tick,
                user.0,
                vm.0,
                vd.0,
                wt.0,
                qp.0,
                s.rw.read.bytes,
                s.rw.write.bytes,
                s.rw.read.ops,
                s.rw.write.ops
            )?;
        }
    }
    Ok(())
}

/// Write the storage-domain metric data as CSV (sparse).
pub fn write_storage_metrics_csv<W: Write>(ds: &Dataset, mut w: W) -> io::Result<()> {
    writeln!(
        w,
        "tick,vd,segment,bs,sn,read_bytes,write_bytes,read_ops,write_ops"
    )?;
    let fleet = &ds.fleet;
    for (i, series) in ds.storage.per_seg.iter().enumerate() {
        let seg = SegId::from_index(i);
        let vd = fleet.segments[seg].vd;
        let bs = fleet.seg_home[seg];
        let sn = fleet.block_servers[bs].sn;
        for s in series.samples() {
            writeln!(
                w,
                "{},{},{},{},{},{:.0},{:.0},{:.2},{:.2}",
                s.tick,
                vd.0,
                seg.0,
                bs.0,
                sn.0,
                s.rw.read.bytes,
                s.rw.write.bytes,
                s.rw.read.ops,
                s.rw.write.ops
            )?;
        }
    }
    Ok(())
}

/// Write the specification data as CSV.
pub fn write_specs_csv<W: Write>(ds: &Dataset, mut w: W) -> io::Result<()> {
    writeln!(
        w,
        "vd,vm,user,cn,dc,app,capacity_bytes,qp_count,tput_cap_bps,iops_cap"
    )?;
    let fleet = &ds.fleet;
    for vd in fleet.vds.iter() {
        let vm = &fleet.vms[vd.vm];
        let cn = vm.cn;
        let dc = fleet.compute_nodes[cn].dc;
        writeln!(
            w,
            "{},{},{},{},{},{},{},{},{:.0},{:.0}",
            vd.id.0,
            vd.vm.0,
            vm.user.0,
            cn.0,
            dc.0,
            vm.app.label(),
            vd.spec.capacity_bytes,
            vd.spec.qp_count,
            vd.spec.tput_cap,
            vd.spec.iops_cap
        )?;
    }
    Ok(())
}

/// Write all four CSVs into `dir` (created if missing). Returns the file
/// names written.
///
/// Files are written through a `BufWriter`: every row is a separate
/// `write!` call, and issuing those as raw one-row `File` writes costs one
/// syscall per row (tens of thousands for the events table alone).
pub fn export_dir(ds: &Dataset, dir: &Path) -> io::Result<Vec<String>> {
    std::fs::create_dir_all(dir)?;
    type RowWriter = fn(&Dataset, &mut io::BufWriter<std::fs::File>) -> io::Result<()>;
    let files: [(&str, RowWriter); 4] = [
        ("events.csv", |ds, w| write_events_csv(ds, w)),
        ("compute_metrics.csv", |ds, w| {
            write_compute_metrics_csv(ds, w)
        }),
        ("storage_metrics.csv", |ds, w| {
            write_storage_metrics_csv(ds, w)
        }),
        ("specs.csv", |ds, w| write_specs_csv(ds, w)),
    ];
    let mut written = Vec::new();
    for (name, writer) in files {
        let f = std::fs::File::create(dir.join(name))?;
        let mut buf = io::BufWriter::new(f);
        writer(ds, &mut buf)?;
        buf.flush()?;
        written.push(name.to_string());
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, WorkloadConfig};

    fn dataset() -> Dataset {
        generate(&WorkloadConfig::quick(301)).unwrap()
    }

    #[test]
    fn events_csv_has_one_row_per_event() {
        let ds = dataset();
        let mut buf = Vec::new();
        write_events_csv(&ds, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), ds.events.len() + 1);
        assert!(text.starts_with("t_us,vd,qp,op,size,offset"));
        // Spot-check the first data row round-trips.
        let first = text.lines().nth(1).unwrap();
        let cols: Vec<&str> = first.split(',').collect();
        assert_eq!(cols.len(), 6);
        assert_eq!(cols[0].parse::<u64>().unwrap(), ds.events[0].t_us);
    }

    #[test]
    fn metric_csvs_match_sample_counts() {
        let ds = dataset();
        let mut buf = Vec::new();
        write_compute_metrics_csv(&ds, &mut buf).unwrap();
        let rows = String::from_utf8(buf).unwrap().lines().count() - 1;
        let samples: usize = ds.compute.per_qp.iter().map(|s| s.active_ticks()).sum();
        assert_eq!(rows, samples);

        let mut buf = Vec::new();
        write_storage_metrics_csv(&ds, &mut buf).unwrap();
        let rows = String::from_utf8(buf).unwrap().lines().count() - 1;
        let samples: usize = ds.storage.per_seg.iter().map(|s| s.active_ticks()).sum();
        assert_eq!(rows, samples);
    }

    #[test]
    fn specs_csv_covers_every_vd() {
        let ds = dataset();
        let mut buf = Vec::new();
        write_specs_csv(&ds, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), ds.fleet.vds.len() + 1);
        assert!(text.contains("BigData") || text.contains("Database"));
    }

    #[test]
    fn buffered_export_is_byte_identical_to_direct_writes() {
        let ds = dataset();
        let dir = ebs_core::TempDir::new("export-buf").unwrap();
        export_dir(&ds, &dir).unwrap();
        type MemWriter = fn(&Dataset, &mut Vec<u8>) -> io::Result<()>;
        let writers: [(&str, MemWriter); 4] = [
            ("events.csv", |ds, w| write_events_csv(ds, w)),
            ("compute_metrics.csv", |ds, w| {
                write_compute_metrics_csv(ds, w)
            }),
            ("storage_metrics.csv", |ds, w| {
                write_storage_metrics_csv(ds, w)
            }),
            ("specs.csv", |ds, w| write_specs_csv(ds, w)),
        ];
        for (name, writer) in writers {
            let mut direct = Vec::new();
            writer(&ds, &mut direct).unwrap();
            let on_disk = std::fs::read(dir.join(name)).unwrap();
            assert_eq!(on_disk, direct, "{name} differs through the BufWriter");
        }
    }

    #[test]
    fn export_dir_writes_all_files() {
        let ds = dataset();
        let dir = ebs_core::TempDir::new("export").unwrap();
        let files = export_dir(&ds, &dir).unwrap();
        assert_eq!(files.len(), 4);
        for f in &files {
            let meta = std::fs::metadata(dir.join(f)).unwrap();
            assert!(meta.len() > 0, "{f} is empty");
        }
    }
}

/// Parse an `events.csv` produced by [`write_events_csv`] back into IO
/// events — the entry point for replaying *real* traces through the stack
/// simulator and the §4–§7 analyses. Rows must be time-sorted (the export
/// writes them that way); the parser re-sorts defensively.
pub fn read_events_csv<R: io::BufRead>(r: R) -> io::Result<Vec<ebs_core::io::IoEvent>> {
    use ebs_core::ids::{QpId, VdId};
    use ebs_core::io::{IoEvent, Op};
    let mut events = Vec::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        if lineno == 0 || line.trim().is_empty() {
            continue; // header
        }
        let mut cols = line.split(',');
        let mut field = |name: &str| -> io::Result<&str> {
            cols.next().ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: missing column {name}", lineno + 1),
                )
            })
        };
        let bad = |name: &str, lineno: usize| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: bad {name}", lineno + 1),
            )
        };
        let t_us = field("t_us")?.parse().map_err(|_| bad("t_us", lineno))?;
        let vd = VdId(field("vd")?.parse().map_err(|_| bad("vd", lineno))?);
        let qp = QpId(field("qp")?.parse().map_err(|_| bad("qp", lineno))?);
        let op = match field("op")? {
            "R" => Op::Read,
            "W" => Op::Write,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: unknown op {other:?}", lineno + 1),
                ))
            }
        };
        let size = field("size")?.parse().map_err(|_| bad("size", lineno))?;
        let offset = field("offset")?
            .parse()
            .map_err(|_| bad("offset", lineno))?;
        events.push(IoEvent {
            t_us,
            vd,
            qp,
            op,
            size,
            offset,
        });
    }
    events.sort_by_key(|e| e.t_us);
    Ok(events)
}

#[cfg(test)]
mod import_tests {
    use super::*;
    use crate::{generate, WorkloadConfig};

    #[test]
    fn events_roundtrip_through_csv() {
        let ds = generate(&WorkloadConfig::quick(302)).unwrap();
        let mut buf = Vec::new();
        write_events_csv(&ds, &mut buf).unwrap();
        let parsed = read_events_csv(std::io::BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(parsed, ds.events);
    }

    #[test]
    fn malformed_rows_are_rejected_with_line_numbers() {
        let csv = "t_us,vd,qp,op,size,offset\n1,0,0,R,4096,0\n2,0,0,X,4096,0\n";
        let err = read_events_csv(std::io::BufReader::new(csv.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
        let csv = "t_us,vd,qp,op,size,offset\n1,0,0,R,4096\n";
        let err = read_events_csv(std::io::BufReader::new(csv.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("missing column"), "{err}");
    }

    #[test]
    fn unsorted_input_is_resorted() {
        let csv = "t_us,vd,qp,op,size,offset\n9,0,0,R,512,0\n1,0,0,W,512,0\n";
        let events = read_events_csv(std::io::BufReader::new(csv.as_bytes())).unwrap();
        assert_eq!(events[0].t_us, 1);
        assert_eq!(events[1].t_us, 9);
    }
}
