//! The repo's benchmark: five workloads over the knowledge cycle, the
//! store and explorerd, measured from outside through public functions.
//! See `README.md` next to this crate and `BENCHMARK.json` at the root.

pub mod adapters;
pub mod compare;
pub mod http;
pub mod run;
pub mod spec;
pub mod stats;
pub mod synth;
pub mod trace;
pub mod vfs;
pub mod workloads;
