//! # sysbench
//!
//! The workspace's system benchmark: four workloads timed from outside,
//! through the public functions of `cgnn-tensor`, `cgnn-core`,
//! `cgnn-comm`, `cgnn-mesh`/`partition`/`graph`, `cgnn-session` and
//! `cgnn-serve`. See `README.md` beside this package for the metric and
//! workload definitions and how to read the numbers.

#![warn(missing_docs)]

pub mod agree;
pub mod host;
pub mod layers;
pub mod report;
pub mod run;
pub mod serve;
pub mod staged;
pub mod stats;
pub mod trace;
pub mod train;
pub mod workload;
