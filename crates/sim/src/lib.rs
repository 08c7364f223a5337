//! `iokc-sim` — a deterministic discrete-event simulator of an HPC
//! cluster with a BeeGFS-like parallel file system.
//!
//! This crate is the substitute for the paper's evaluation platform (the
//! FUCHS-CSC cluster, §V-E): benchmark drivers compile rank behaviour into
//! [`script::ScriptSet`]s, a [`engine::World`] executes them against a
//! configurable system model, and the resulting [`metrics::PhaseResult`]
//! carries per-operation records from which the benchmark reimplementations
//! produce their native output formats.
//!
//! # Model summary
//!
//! * **Data path** — every transfer is a flow across client NIC → fabric →
//!   storage target, sharing capacity max–min fairly ([`flow`]).
//! * **Metadata path** — FIFO service queues at the metadata servers, with
//!   per-op-class costs ([`engine`]).
//! * **Placement** — BeeGFS-style round-robin chunk striping ([`pfs`]).
//! * **Client effects** — per-node page caches (defeated by IOR `-C`),
//!   serialized per-request target overheads (IOPS limits), RAID write
//!   amplification, shared-file unaligned-access penalties.
//! * **Variance & anomalies** — a seeded lognormal interference process
//!   and explicit fault windows ([`faults`]).
//!
//! # Example
//!
//! ```
//! use iokc_sim::prelude::*;
//!
//! let mut world = World::new(SystemConfig::test_small(), FaultPlan::none(), 42);
//! let mut scripts = ScriptSet::new(2);
//! for rank in 0..2 {
//!     let file = format!("/scratch/rank{rank}");
//!     scripts.rank(rank)
//!         .open(&file, OpenMode::Write)
//!         .write(&file, 0, 1 << 20)
//!         .close(&file)
//!         .barrier();
//! }
//! let result = world.run(JobLayout::new(2, 2), &scripts).unwrap();
//! assert_eq!(result.bytes(OpKind::Write), 2 << 20);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod api;
pub mod config;
pub mod engine;
pub mod faults;
pub mod flow;
pub mod metrics;
pub mod pfs;
pub mod rng;
pub mod script;
pub mod sysinfo;
pub mod time;

/// Convenient re-exports of the types almost every consumer needs.
pub mod prelude {
    pub use crate::api::IoApi;
    pub use crate::config::{ClusterConfig, PfsConfig, RaidScheme, SystemConfig};
    pub use crate::engine::{JobLayout, SimError, World};
    pub use crate::faults::{CrashSchedule, Fault, FaultPlan, FaultTarget};
    pub use crate::metrics::{EngineStats, OpRecord, PhaseResult};
    pub use crate::pfs::Namespace;
    pub use crate::rng::Rng;
    pub use crate::script::{Op, OpKind, OpenMode, Rank, ScriptSet, StripeHint};
    pub use crate::sysinfo::ProcSnapshot;
    pub use crate::time::{SimDuration, SimTime};
}
