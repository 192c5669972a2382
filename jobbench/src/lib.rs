//! End-to-end job benchmark for Emma. See `README.md` in this directory.

pub mod bench;
pub mod measure;
pub mod trace;
pub mod workloads;
