//! `iokc-jube` — a JUBE-like benchmarking environment (§V-A).
//!
//! "JUBE is a generic, lightweight, configurable benchmarking environment
//! that supports systematic, automated execution, monitoring and analysis
//! of application execution." This reimplementation keeps JUBE's
//! concepts — parameter sets, Cartesian workpackage expansion, `$param`
//! substitution, step dependencies, numbered run workspaces, and
//! pattern-based result tables — behind a line-based configuration format
//! that the usage phase can generate mechanically.
//!
//! A sweep runs one way: [`run_campaign`] expands the configuration and
//! runs its workpackages under a supervised executor with a write-ahead
//! journal. Killed campaigns resume from the journal, transient failures
//! are retried with bounded backoff, and repeatedly failing parameter
//! combinations are quarantined instead of sinking the sweep. The
//! journal lives on an [`iokc_store::Vfs`]: the real disk for an
//! overnight campaign (`iokc sweep`), an in-memory one for a quick study
//! that leaves no file behind (`iokc jube`).
//!
//! ```
//! use iokc_jube::{run_campaign, CampaignOptions, JubeConfig, StepOutcome};
//! use iokc_store::FaultVfs;
//! use std::path::Path;
//!
//! let config = JubeConfig::parse(
//!     "benchmark demo\nparam n = 1, 2\nstep run = tool -n $n\npattern v = out {v:f}\n",
//! )
//! .unwrap();
//! let disk = FaultVfs::pristine();
//! let options = CampaignOptions::default();
//! let report = run_campaign(&config, Path::new("demo"), &disk, &options, || {
//!     |_wp: usize, _step: &str, command: &str| {
//!         let n: f64 = command.rsplit(' ').next().unwrap().parse().unwrap();
//!         Ok(StepOutcome::wall(format!("out {}", n * 10.0)))
//!     }
//! })
//! .unwrap();
//! let series = report.workspace.metric_series(&config, "v");
//! assert_eq!(series[1].1, 20.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod campaign;
pub mod config;
pub mod executor;
pub mod sweep;

pub use campaign::{config_fingerprint, journal_path, CampaignError, CampaignState};
pub use config::{substitute, ConfigError, JubeConfig, Step};
pub use executor::{
    run_campaign, CampaignOptions, CampaignReport, CampaignSummary, StepFailure, StepOutcome,
    StragglerReport,
};
pub use sweep::{validate_combos, InvalidCombo, SweepError, Workpackage, Workspace};
