//! Application taxonomy from Table 5 of the paper.
//!
//! The specification dataset tags every VM with an inferred application
//! class; Table 4 breaks traffic skewness down by these classes. The class
//! determines the workload profile the generator assigns to a VM.

use std::fmt;

/// The six application classes of Table 5.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AppClass {
    /// HBase, Flink, Hadoop, TensorFlow, E-MapReduce, Elastic HPC.
    BigData,
    /// Nginx, Jenkins, Git, crawlers, games, httpd.
    WebApp,
    /// Elasticsearch, Kafka, etcd, ZooKeeper, Dubbo, Nacos, Nomad, SLB.
    Middleware,
    /// FTP, CPFS.
    FileSystem,
    /// Redis, MySQL, Postgres, MsSQL, MongoDB, Oracle, ClickHouse,
    /// Prometheus, InfluxDB.
    Database,
    /// Applications running in containers: K8s, Alibaba ECI, Alibaba ESS.
    Docker,
}

impl AppClass {
    /// All classes, in the row order of Table 4.
    pub const ALL: [AppClass; 6] = [
        AppClass::BigData,
        AppClass::WebApp,
        AppClass::Middleware,
        AppClass::FileSystem,
        AppClass::Database,
        AppClass::Docker,
    ];

    /// Table label used in the paper ("App in Docker" etc.).
    pub fn label(self) -> &'static str {
        match self {
            AppClass::BigData => "BigData",
            AppClass::WebApp => "WebApp",
            AppClass::Middleware => "Middleware",
            AppClass::FileSystem => "File system",
            AppClass::Database => "Database",
            AppClass::Docker => "App in Docker",
        }
    }

    /// The class at dense index `idx` inside [`AppClass::ALL`] (inverse of
    /// [`AppClass::index`]; used by the trace-store codec).
    pub fn from_index(idx: usize) -> Option<AppClass> {
        Self::ALL.get(idx).copied()
    }

    /// Dense index of this class inside [`AppClass::ALL`].
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&c| c == self)
            .expect("class listed in ALL")
    }
}

impl fmt::Display for AppClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_covers_every_class_once() {
        for (i, c) in AppClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        let mut labels: Vec<_> = AppClass::ALL.iter().map(|c| c.label()).collect();
        labels.dedup();
        assert_eq!(labels.len(), 6);
    }

    #[test]
    fn index_round_trips() {
        for c in AppClass::ALL {
            assert_eq!(AppClass::from_index(c.index()), Some(c));
        }
        assert_eq!(AppClass::from_index(99), None);
    }

    #[test]
    fn display_matches_table4_labels() {
        assert_eq!(AppClass::Docker.to_string(), "App in Docker");
        assert_eq!(AppClass::FileSystem.to_string(), "File system");
    }
}
