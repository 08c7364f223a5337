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
//! ```
//! use iokc_jube::{run_sweep, JubeConfig};
//!
//! let config = JubeConfig::parse(
//!     "benchmark demo\nparam n = 1, 2\nstep run = tool -n $n\npattern v = out {v:f}\n",
//! )
//! .unwrap();
//! let workspace = run_sweep(&config, |_wp, _step, command| {
//!     let n: f64 = command.rsplit(' ').next().unwrap().parse().unwrap();
//!     Ok(format!("out {}", n * 10.0))
//! })
//! .unwrap();
//! let series = workspace.metric_series(&config, "v");
//! assert_eq!(series[1].1, 20.0);
//! ```

//! For overnight-scale studies, [`run_campaign`] runs the same
//! configuration under a supervised executor with a durable write-ahead
//! journal: killed campaigns resume from the journal, transient failures
//! are retried with bounded backoff, and repeatedly failing parameter
//! combinations are quarantined instead of sinking the sweep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod campaign;
pub mod config;
pub mod executor;
pub mod sweep;

pub use campaign::{config_fingerprint, journal_path, CampaignError, CampaignState};
pub use config::{substitute, ConfigError, JubeConfig, Step};
pub use executor::{run_campaign, CampaignOptions, CampaignReport, StepFailure, StepOutcome};
pub use sweep::{run_sweep, validate_combos, InvalidCombo, SweepError, Workpackage, Workspace};
