//! `iokc-bench` — the benchmark/experiment harness.
//!
//! [`experiments`] reproduces every figure of the paper on the simulated
//! FUCHS-CSC system; the `src/bin` binaries print each figure's series,
//! and the Criterion benches under `benches/` measure the substrate and
//! regenerate the figures under timing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

use iokc_core::model::{IterationResult, Knowledge, KnowledgeSource, OperationSummary};

pub use experiments::{
    paper_layout, run_fig3_sweep, run_fig5, run_fig6, Fig5Data, Fig6Data, SweepPoint, PAPER_COMMAND,
};

/// One synthetic benchmark run with realistic weight — two operation
/// summaries and four per-iteration results, so that serializing or
/// fully deserializing it has a real cost to pay. What the store benches
/// and the explorerd load test fill their corpora with.
#[must_use]
pub fn synthetic_knowledge(i: usize) -> Knowledge {
    let api = ["POSIX", "MPIIO", "HDF5"][i % 3];
    let bw = i as f64 * 1.5;
    let command = format!(
        "ior -a {} -b {}m -t 1m -o /scratch/q{i}",
        api.to_lowercase(),
        i % 16 + 1
    );
    let mut k = Knowledge::new(KnowledgeSource::Ior, &command);
    k.pattern.api = api.to_owned();
    k.pattern.tasks = (i % 128) as u32;
    k.pattern.transfer_size = 1 << 20;
    for op in ["write", "read"] {
        k.summaries.push(OperationSummary {
            operation: op.to_owned(),
            api: api.to_owned(),
            max_mib: bw * 1.2,
            min_mib: bw * 0.8,
            mean_mib: bw,
            stddev_mib: 1.0,
            mean_ops: bw / 2.0,
            iterations: 2,
        });
        for iteration in 0..2u32 {
            k.results.push(IterationResult {
                operation: op.to_owned(),
                iteration,
                bw_mib: bw + f64::from(iteration),
                ops: 10,
                ops_per_sec: 5.0,
                latency_s: 0.001,
                open_s: 0.002,
                wrrd_s: 1.0,
                close_s: 0.003,
                total_s: 1.1,
            });
        }
    }
    k
}
