//! # rablock-workload — workload generators and measurement utilities
//!
//! The load half of the evaluation (§V): fio-style jobs ([`FioJob`]) for the
//! small-random and large-sequential experiments, YCSB core workloads A–F
//! ([`YcsbWorkload`]) with Zipfian/latest key skew, a constant-memory
//! latency histogram ([`LogHistogram`]), and CSV report tables.

#![warn(missing_docs)]

mod fio;
mod histogram;
mod report;
mod ycsb;
mod zipf;

pub use fio::{AccessPattern, FioJob, WlKind, WlOp};
pub use histogram::LogHistogram;
pub use report::{fmt_latency, Table};
pub use ycsb::{YcsbKind, YcsbOp, YcsbWorkload};
pub use zipf::{Latest, Zipfian, YCSB_THETA};
