//! The repository benchmark: oracle-checked workloads over the simulated
//! Chaos cluster, end-to-end host-time metrics from untraced runs, and
//! per-layer metrics from a separate traced run. See `README.md` beside
//! this crate for the workloads and the metric → layer → workload map.

pub mod bench;
pub mod calib;
pub mod oracle;
pub mod replay;
pub mod report;
pub mod run;
pub mod trace;
pub mod workload;
