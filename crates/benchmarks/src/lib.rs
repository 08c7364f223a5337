//! `iokc-benchmarks` — reimplementations of the community benchmarks the
//! paper's knowledge-generation phase drives (§V-A): IOR, mdtest, HACC-IO,
//! the IO500 suite and its `find` phase, plus a Darshan instrumentation
//! adapter.
//!
//! Every driver compiles rank behaviour into [`iokc_sim`] scripts,
//! executes them on a simulated system, and renders results in the
//! original tool's output format so the knowledge extractor parses the
//! same text a real deployment would produce.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod campaign;
pub mod corpus;
pub mod find;
pub mod generators;
pub mod hacc;
pub mod instrument;
pub mod io500;
pub mod ior;
pub mod ior_output;
pub mod mdtest;

pub use campaign::{CampaignRunner, SimCampaignRunner};
pub use corpus::{CorpusPoint, CorpusRun, CorpusSpec};
pub use find::{run_find, FindResult};
pub use generators::{HaccGenerator, Io500Generator, IorGenerator, MdtestGenerator};
pub use hacc::{run_hacc, FileMode, HaccConfig, HaccResult, BYTES_PER_PARTICLE};
pub use instrument::{darshan_from_phases, InstrumentOptions};
pub use io500::{
    run_io500, run_io500_with_faults, Io500Config, Io500Phase, Io500Result, PhaseFaults, PhaseUnit,
};
pub use ior::{run_ior, Access, IorConfig, IorParseError, IorRunResult};
pub use ior_output::IorSample;
pub use mdtest::{run_mdtest, MdPhase, MdWorkload, MdtestConfig, MdtestParseError, MdtestResult};

use iokc_sim::engine::{JobLayout, SimError, World};

/// Create every missing ancestor directory of `path` in the simulated
/// namespace, as `mkdir -p` does before a benchmark job launches.
pub fn mkdir_p(world: &mut World, path: &str) -> Result<(), SimError> {
    let mut missing = Vec::new();
    let mut dir = iokc_sim::script::parent_dir(path);
    while dir != "/" && !world.namespace().is_dir(dir) {
        missing.push(dir.to_owned());
        dir = iokc_sim::script::parent_dir(dir);
    }
    if missing.is_empty() {
        return Ok(());
    }
    let mut scripts = world.scripts(1);
    for dir in missing.iter().rev() {
        scripts.rank(0).mkdir(dir);
    }
    world.run(JobLayout::new(1, 1), &scripts).map(|_| ())
}
