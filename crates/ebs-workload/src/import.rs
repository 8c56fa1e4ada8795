//! CSV import: the inverse of [`crate::export`] for the trace and
//! specification datasets.
//!
//! `specs.csv` carries enough of the fleet (VD → VM → user/CN/DC joins,
//! application classes, subscription specs) to rebuild a topology whose
//! spec re-export is byte-identical to the input; `events.csv` supplies
//! the sampled IO stream. Together they make a [`Dataset`] that every
//! trace-driven analysis (CCR, P2A, CDFs, the stack simulator) accepts —
//! the entry point for running *real* exported traces, not just
//! generated ones. Metric data is not part of the CSV pair, so the
//! imported dataset carries empty metric series on grids covering the
//! event window.

use std::io::{self, BufRead};
use std::path::Path;

use ebs_core::apps::AppClass;
use ebs_core::error::EbsError;
use ebs_core::ids::IdVec;
use ebs_core::io::IoEvent;
use ebs_core::metric::{ComputeMetrics, StorageMetrics};
use ebs_core::spec::VdSpec;
use ebs_core::time::US_PER_SEC;
use ebs_core::topology::{Fleet, FleetBuilder};

use crate::config::WorkloadConfig;
use crate::dataset::Dataset;
use crate::export::read_events_csv;
use crate::spatial::{RwBytes, RwWeight, TrafficPlan};

/// One parsed row of `specs.csv`, exactly as [`crate::export::write_specs_csv`]
/// lays it out.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpecCsvRow {
    /// VD id (dense, row order).
    pub vd: u32,
    /// Owning VM.
    pub vm: u32,
    /// Owning tenant.
    pub user: u32,
    /// Hosting compute node.
    pub cn: u32,
    /// Data center of the compute node.
    pub dc: u32,
    /// Application class of the VM.
    pub app: AppClass,
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Queue pairs.
    pub qp_count: u8,
    /// Throughput cap (bytes/s).
    pub tput_cap: f64,
    /// IOPS cap.
    pub iops_cap: f64,
}

/// Parse a `specs.csv` produced by [`crate::export::write_specs_csv`].
pub fn read_specs_csv<R: BufRead>(r: R) -> io::Result<Vec<SpecCsvRow>> {
    let mut rows = Vec::new();
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
        let bad = |name: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: bad {name}", lineno + 1),
            )
        };
        let vd = field("vd")?.parse().map_err(|_| bad("vd"))?;
        let vm = field("vm")?.parse().map_err(|_| bad("vm"))?;
        let user = field("user")?.parse().map_err(|_| bad("user"))?;
        let cn = field("cn")?.parse().map_err(|_| bad("cn"))?;
        let dc = field("dc")?.parse().map_err(|_| bad("dc"))?;
        let app_label = field("app")?;
        let app = AppClass::from_label(app_label).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: unknown app class {app_label:?}", lineno + 1),
            )
        })?;
        let capacity_bytes = field("capacity_bytes")?
            .parse()
            .map_err(|_| bad("capacity_bytes"))?;
        let qp_count = field("qp_count")?.parse().map_err(|_| bad("qp_count"))?;
        let tput_cap = field("tput_cap_bps")?
            .parse()
            .map_err(|_| bad("tput_cap_bps"))?;
        let iops_cap = field("iops_cap")?.parse().map_err(|_| bad("iops_cap"))?;
        rows.push(SpecCsvRow {
            vd,
            vm,
            user,
            cn,
            dc,
            app,
            capacity_bytes,
            qp_count,
            tput_cap,
            iops_cap,
        });
    }
    Ok(rows)
}

/// Rebuild a fleet from specification rows.
///
/// Entities are minted in dense-id order, so every id in the rows — and
/// every QP id a matching `events.csv` references — lands on the same
/// entity it named at export time. The storage side (SNs, BlockServers,
/// segment homes) is not part of `specs.csv`; one SN/BS pair is minted
/// per DC, which preserves every exported column while keeping segment
/// APIs usable.
pub fn fleet_from_specs(rows: &[SpecCsvRow]) -> Result<Fleet, EbsError> {
    let mut b = FleetBuilder::new();

    // Dense-id consistency: row k must describe VD k.
    for (k, row) in rows.iter().enumerate() {
        if row.vd as usize != k {
            return Err(EbsError::invalid_spec(format!(
                "specs row {k} describes vd {}, expected dense id {k}",
                row.vd
            )));
        }
    }

    let dc_count = rows.iter().map(|r| r.dc + 1).max().unwrap_or(1);
    for d in 0..dc_count {
        b.add_dc(format!("DC-{}", d + 1));
    }
    let user_count = rows.iter().map(|r| r.user + 1).max().unwrap_or(0);
    for _ in 0..user_count {
        b.add_user();
    }

    // CN k's DC comes from any row naming it; rows must agree.
    let cn_count = rows.iter().map(|r| r.cn + 1).max().unwrap_or(0);
    let mut cn_dc = vec![None; cn_count as usize];
    for row in rows {
        // Sized from max(cn)+1 above, so the lookup cannot miss; the typed
        // error keeps this importer total on any row set.
        let slot = cn_dc.get_mut(row.cn as usize).ok_or_else(|| {
            EbsError::invalid_spec(format!("cn {} outside the {cn_count}-node table", row.cn))
        })?;
        match *slot {
            None => *slot = Some(row.dc),
            Some(dc) if dc == row.dc => {}
            Some(dc) => {
                return Err(EbsError::invalid_spec(format!(
                    "cn {} is placed in both dc {dc} and dc {}",
                    row.cn, row.dc
                )))
            }
        }
    }
    for (k, dc) in cn_dc.iter().enumerate() {
        // CNs never named by a VD row default to DC 0; 8 worker threads
        // matches the generator's median node.
        let dc = dc.unwrap_or(0);
        let cn = b.add_cn(ebs_core::ids::DcId(dc), 8, false);
        debug_assert_eq!(cn.0 as usize, k);
    }
    for d in 0..dc_count {
        let sn = b.add_sn(ebs_core::ids::DcId(d));
        b.add_bs(sn);
    }

    // VMs, same agreement rule over (cn, user, app).
    let vm_count = rows.iter().map(|r| r.vm + 1).max().unwrap_or(0);
    let mut vm_info: Vec<Option<(u32, u32, AppClass)>> = vec![None; vm_count as usize];
    for row in rows {
        let info = (row.cn, row.user, row.app);
        let slot = vm_info.get_mut(row.vm as usize).ok_or_else(|| {
            EbsError::invalid_spec(format!("vm {} outside the {vm_count}-vm table", row.vm))
        })?;
        match *slot {
            None => *slot = Some(info),
            Some(prev) if prev == info => {}
            Some(prev) => {
                return Err(EbsError::invalid_spec(format!(
                    "vm {} described as {prev:?} and {info:?}",
                    row.vm
                )))
            }
        }
    }
    for (k, info) in vm_info.iter().enumerate() {
        // VMs no VD row names (diskless at export time) get placeholder
        // placement; they never reappear in a spec re-export.
        let (cn, user, app) = info.unwrap_or((0, 0, AppClass::WebApp));
        let vm = b.add_vm(ebs_core::ids::CnId(cn), ebs_core::ids::UserId(user), app);
        debug_assert_eq!(vm.0 as usize, k);
    }

    for row in rows {
        let spec = VdSpec {
            capacity_bytes: row.capacity_bytes,
            qp_count: row.qp_count,
            tput_cap: row.tput_cap,
            iops_cap: row.iops_cap,
        };
        b.try_add_vd(ebs_core::ids::VmId(row.vm), spec)?;
    }
    b.finish()
}

/// Assemble a [`Dataset`] from parsed specification rows and events.
///
/// Events are range-checked against the rebuilt fleet (in-range VD, QP
/// owned by that VD) so a mismatched file pair fails with a typed error
/// instead of panicking later in `EventIndex::build`. Metric data is empty
/// (CSV pairs don't carry it); the config describes the imported shape so
/// tick grids cover the event window.
pub fn dataset_from_csv(rows: &[SpecCsvRow], events: Vec<IoEvent>) -> Result<Dataset, EbsError> {
    let fleet = fleet_from_specs(rows)?;
    for (i, ev) in events.iter().enumerate() {
        let vd = fleet.vds.get(ev.vd).ok_or_else(|| {
            EbsError::invalid_spec(format!(
                "event {i} names vd {} but specs.csv has {} VDs",
                ev.vd.0,
                fleet.vds.len()
            ))
        })?;
        let qp_ok = ev.qp.0 >= vd.qp_base && ev.qp.0 < vd.qp_base + u32::from(vd.spec.qp_count);
        if !qp_ok {
            return Err(EbsError::invalid_spec(format!(
                "event {i} books qp {} which vd {} does not own",
                ev.qp.0, ev.vd.0
            )));
        }
    }

    let last_us = events.last().map_or(0, |e| e.t_us);
    let duration_secs = ((last_us / US_PER_SEC) + 1) as f64;
    let config = WorkloadConfig {
        seed: 0,
        dc_count: fleet.dcs.len() as u32,
        cns_per_dc: (fleet.compute_nodes.len() as u32).max(1),
        sns_per_dc: 1,
        bss_per_sn: 1,
        users_per_dc: fleet.user_count.max(1),
        vms_per_dc: (fleet.vms.len() as u32).max(1),
        duration_secs,
        compute_tick_secs: 10.0,
        storage_tick_secs: 30.0,
        traffic_scale: 1.0,
        dc_skew: vec![1.0; fleet.dcs.len()],
        whale_tenant: false,
    };
    let compute = ComputeMetrics::empty(config.compute_ticks(), fleet.qps.len());
    let storage = StorageMetrics::empty(config.storage_ticks(), fleet.segments.len());
    let plan = TrafficPlan {
        vd_bytes: IdVec::from_vec(vec![RwBytes::default(); fleet.vds.len()]),
        qp_weights: IdVec::from_vec(vec![RwWeight::default(); fleet.qps.len()]),
    };
    Ok(Dataset {
        fleet,
        plan,
        compute,
        storage,
        events,
        config,
        index: Default::default(),
    })
}

/// Import `events.csv` + `specs.csv` from `dir` (the pair
/// [`crate::export::export_dir`] writes) into a [`Dataset`].
pub fn import_dir(dir: &Path) -> Result<Dataset, EbsError> {
    let specs_file = std::fs::File::open(dir.join("specs.csv"))?;
    let rows = read_specs_csv(io::BufReader::new(specs_file))
        .map_err(|e| EbsError::invalid_spec(format!("specs.csv: {e}")))?;
    let events_file = std::fs::File::open(dir.join("events.csv"))?;
    let events = read_events_csv(io::BufReader::new(events_file))
        .map_err(|e| EbsError::invalid_spec(format!("events.csv: {e}")))?;
    dataset_from_csv(&rows, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{export_dir, write_events_csv, write_specs_csv};
    use crate::{generate, WorkloadConfig};
    use proptest::prelude::*;

    fn reexport(ds: &Dataset) -> (String, String) {
        let mut specs = Vec::new();
        write_specs_csv(ds, &mut specs).unwrap();
        let mut events = Vec::new();
        write_events_csv(ds, &mut events).unwrap();
        (
            String::from_utf8(specs).unwrap(),
            String::from_utf8(events).unwrap(),
        )
    }

    #[test]
    fn import_dir_round_trips_export_dir() {
        let ds = generate(&WorkloadConfig::quick(601)).unwrap();
        let dir = ebs_core::TempDir::new("import").unwrap();
        export_dir(&ds, &dir).unwrap();
        let imported = import_dir(&dir).unwrap();
        let (specs_a, events_a) = reexport(&ds);
        let (specs_b, events_b) = reexport(&imported);
        assert_eq!(specs_a, specs_b, "specs.csv changed across the round trip");
        assert_eq!(
            events_a, events_b,
            "events.csv changed across the round trip"
        );
        assert_eq!(imported.events, ds.events);
        // The imported fleet supports the shared event index unchanged.
        assert_eq!(imported.index().len(), ds.index().len());
    }

    #[test]
    fn inconsistent_rows_are_rejected() {
        let ds = generate(&WorkloadConfig::quick(602)).unwrap();
        let (specs, _) = reexport(&ds);
        // Corrupt one row: point vm 0's second appearance at another DC.
        let mut rows = read_specs_csv(specs.as_bytes()).unwrap();
        if rows.len() >= 2 {
            rows[1].vd = 99_999; // break dense-id order
            assert!(matches!(
                fleet_from_specs(&rows),
                Err(EbsError::InvalidSpec(_))
            ));
        }
    }

    #[test]
    fn events_referencing_unknown_vds_are_rejected() {
        let ds = generate(&WorkloadConfig::quick(603)).unwrap();
        let (specs, _) = reexport(&ds);
        let rows = read_specs_csv(specs.as_bytes()).unwrap();
        let mut events = ds.events;
        events[0].vd = ebs_core::ids::VdId(1_000_000);
        assert!(matches!(
            dataset_from_csv(&rows, events),
            Err(EbsError::InvalidSpec(_))
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Export → import → export is the identity on the CSV pair for
        /// arbitrary generator seeds.
        #[test]
        fn export_import_export_is_identity(seed in 0u64..10_000) {
            let ds = generate(&WorkloadConfig::quick(seed)).unwrap();
            let (specs, events) = reexport(&ds);
            let rows = read_specs_csv(specs.as_bytes()).unwrap();
            let parsed = read_events_csv(events.as_bytes()).unwrap();
            let imported = dataset_from_csv(&rows, parsed).unwrap();
            let (specs2, events2) = reexport(&imported);
            prop_assert_eq!(specs, specs2);
            prop_assert_eq!(events, events2);
        }
    }
}
