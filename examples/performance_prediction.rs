//! I/O performance prediction (§VI outlook).
//!
//! Builds a training corpus with a JUBE-style parameter sweep (one
//! simulated world per workpackage), trains the linear-regression
//! predictor on the extracted knowledge, and evaluates it on a held-out
//! configuration.
//!
//! ```text
//! cargo run --release -p iokc-examples --bin performance_prediction
//! ```

use iokc_benchmarks::ior::{run_ior, IorConfig};
use iokc_core::model::Knowledge;
use iokc_extract::parse_ior_output;
use iokc_jube::{run_campaign, CampaignOptions, JubeConfig, StepFailure, StepOutcome};
use iokc_sim::engine::{JobLayout, World};
use iokc_sim::faults::FaultPlan;
use iokc_sim::prelude::SystemConfig;
use iokc_store::FaultVfs;
use iokc_usage::predict::{pattern_features, train_bandwidth_model};
use std::path::Path;

fn main() {
    // The sweep: transfer size × block size, run as a JUBE campaign.
    let config = JubeConfig::parse(
        "benchmark prediction-corpus\n\
         param xfer = 256k, 512k, 1m, 2m\n\
         param block = 4m, 8m\n\
         step run = ior -a mpiio -b $block -t $xfer -s 4 -F -C -e -i 1 -o /scratch/sweep$wp -k -w\n",
    )
    .expect("sweep config parses");

    // An in-memory disk holds the campaign journal: nothing to resume.
    let report = run_campaign(
        &config,
        Path::new("prediction-corpus"),
        &FaultVfs::pristine(),
        &CampaignOptions::default(),
        || {
            |wp: usize, _step: &str, command: &str| {
                let ior = IorConfig::parse_command(command)
                    .map_err(|e| StepFailure::permanent(e.to_string()))?;
                let mut world = World::new(
                    SystemConfig::fuchs_csc().with_noise(0.01),
                    FaultPlan::none(),
                    4242 + wp as u64,
                );
                let result = run_ior(&mut world, JobLayout::new(40, 20), &ior, wp as u64)
                    .map_err(|e| StepFailure::transient(e.to_string()))?;
                Ok(StepOutcome::wall(result.render()))
            }
        },
    )
    .expect("sweep executes");
    let workspace = report.workspace;
    println!("sweep complete: {}\n", report.summary);

    // Extract a knowledge object per workpackage.
    let corpus: Vec<Knowledge> = workspace
        .workpackages
        .iter()
        .map(|wp| parse_ior_output(&wp.outputs[0].1).expect("ior output parses"))
        .collect();
    let refs: Vec<&Knowledge> = corpus.iter().collect();

    // Train on everything except the largest-transfer configuration.
    let (train, holdout): (Vec<&Knowledge>, Vec<&Knowledge>) =
        refs.iter().partition(|k| k.pattern.transfer_size < 2 << 20);
    let model = train_bandwidth_model(&train, "write").expect("model trains");
    print!("{}", model.render());
    assert!(model.r_squared > 0.5, "R² = {}", model.r_squared);

    println!("\nheld-out evaluation (transfer = 2 MiB):");
    for k in &holdout {
        let predicted = model.predict(&pattern_features(k));
        let actual = k.summary("write").expect("write summary").mean_mib;
        let error = (predicted - actual).abs() / actual * 100.0;
        println!(
            "  block {:>8}: predicted {:8.1} MiB/s, measured {:8.1} MiB/s ({error:4.1}% off)",
            iokc_util::units::format_size(k.pattern.block_size),
            predicted,
            actual
        );
        assert!(
            error < 35.0,
            "prediction error {error:.1}% too large for an in-distribution extrapolation"
        );
    }
    println!("\nprediction example complete.");
}
