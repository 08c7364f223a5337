//! X4 + F3 — the JUBE sweep engine driving the simulator, knowledge
//! extraction from workspaces, and linear-regression prediction on the
//! resulting corpus.

use iokc_benchmarks::ior::{run_ior, IorConfig};
use iokc_core::model::Knowledge;
use iokc_extract::parse_ior_output;
use iokc_jube::{run_campaign, CampaignOptions, JubeConfig, StepFailure, StepOutcome, Workspace};
use iokc_sim::engine::{JobLayout, World};
use iokc_sim::faults::FaultPlan;
use iokc_sim::prelude::SystemConfig;
use iokc_store::FaultVfs;
use iokc_usage::predict::{pattern_features, train_bandwidth_model};
use iokc_usage::{derive_workload, generate_jube_config};
use std::path::Path;

const SWEEP: &str = "\
benchmark xfer-sweep
param xfer = 16k, 32k, 64k, 128k, 256k, 512k
step run = ior -a posix -b 512k -t $xfer -s 2 -F -C -e -i 1 -o /scratch/sw$wp -k -w
pattern write_bw = Max Write: {bw:f} MiB/sec
";

fn runner(wp: usize, _step: &str, command: &str) -> Result<String, String> {
    let config = IorConfig::parse_command(command).map_err(|e| e.to_string())?;
    let mut world = World::new(
        SystemConfig::test_small(),
        FaultPlan::none(),
        100 + wp as u64,
    );
    let result =
        run_ior(&mut world, JobLayout::new(4, 2), &config, wp as u64).map_err(|e| e.to_string())?;
    Ok(result.render())
}

/// Run `config` as a campaign of [`runner`] steps on an in-memory disk.
fn campaign(config: &JubeConfig) -> Workspace {
    let options = CampaignOptions::default();
    run_campaign(
        config,
        Path::new("/sweep"),
        &FaultVfs::pristine(),
        &options,
        || {
            |wp: usize, step: &str, command: &str| {
                runner(wp, step, command)
                    .map(StepOutcome::wall)
                    .map_err(StepFailure::permanent)
            }
        },
    )
    .unwrap()
    .workspace
}

#[test]
fn sweep_extracts_metric_series() {
    let config = JubeConfig::parse(SWEEP).unwrap();
    let workspace = campaign(&config);
    assert_eq!(workspace.workpackages.len(), 6);
    let series = workspace.metric_series(&config, "write_bw");
    assert_eq!(series.len(), 6);
    // Bandwidth is monotone non-decreasing in transfer size here (fewer
    // per-request overheads).
    let bws: Vec<f64> = series.iter().map(|(_, v)| *v).collect();
    for pair in bws.windows(2) {
        assert!(
            pair[1] >= pair[0] * 0.95,
            "larger transfers should not collapse: {bws:?}"
        );
    }
    assert!(bws[5] > bws[0], "512k should beat 16k: {bws:?}");
    // The JUBE result table renders with parameters and metric.
    let table = workspace.result_table(&config).render();
    assert!(table.contains("xfer"));
    assert!(table.contains("write_bw"));
    assert!(table.contains("64k"));
}

#[test]
fn corpus_trains_a_useful_predictor() {
    let config = JubeConfig::parse(SWEEP).unwrap();
    let workspace = campaign(&config);
    let corpus: Vec<Knowledge> = workspace
        .workpackages
        .iter()
        .map(|wp| parse_ior_output(&wp.outputs[0].1).unwrap())
        .collect();
    let refs: Vec<&Knowledge> = corpus.iter().collect();
    let model = train_bandwidth_model(&refs, "write").unwrap();
    assert!(model.samples == 6);
    // A linear model over log2(transfer) cannot capture the saturation
    // knee exactly, but on average it must track the corpus, and its
    // predictions must preserve the ordering (bigger transfers → more
    // bandwidth — what a recommendation would be based on).
    let mut errors = Vec::new();
    let mut predictions = Vec::new();
    for k in &refs {
        let predicted = model.predict(&pattern_features(k));
        let actual = k.summary("write").unwrap().mean_mib;
        errors.push((predicted - actual).abs() / actual);
        predictions.push(predicted);
    }
    let mean_error = iokc_util::stats::mean(&errors);
    assert!(mean_error < 0.35, "mean error {mean_error:.2}");
    for pair in predictions.windows(2) {
        assert!(
            pair[1] > pair[0],
            "predictions must be monotone: {predictions:?}"
        );
    }
}

#[test]
fn workload_generation_closes_the_loop() {
    // Derive a synthetic workload from extracted knowledge, lower it to
    // commands, and run one of them — generated configurations must be
    // executable (§IV, workload generation use case).
    let config = JubeConfig::parse(SWEEP).unwrap();
    let workspace = campaign(&config);
    let corpus: Vec<Knowledge> = workspace
        .workpackages
        .iter()
        .map(|wp| parse_ior_output(&wp.outputs[0].1).unwrap())
        .collect();
    let refs: Vec<&Knowledge> = corpus.iter().collect();
    let spec = derive_workload(&refs).expect("workload derivable");
    let commands = spec.to_commands("/scratch", 4);
    assert!(!commands.is_empty());
    for command in &commands {
        let parsed = IorConfig::parse_command(command).expect("generated command parses");
        let mut world = World::new(SystemConfig::test_small(), FaultPlan::none(), 77);
        let result = run_ior(&mut world, JobLayout::new(2, 2), &parsed, 1).unwrap();
        assert!(result.max_bw(iokc_benchmarks::Access::Write) > 0.0);
    }
}

#[test]
fn usage_generated_jube_config_parses_and_runs() {
    // confgen's JUBE output feeds straight back into the sweep engine.
    let sweeps = std::collections::BTreeMap::from([(
        "-t".to_owned(),
        vec!["128k".to_owned(), "256k".to_owned()],
    )]);
    let text = generate_jube_config(
        "generated",
        "ior -a posix -b 512k -t 128k -s 1 -F -i 1 -o /scratch/gj -k -w",
        &sweeps,
    );
    let config = JubeConfig::parse(&text).expect("generated config parses");
    let workspace = campaign(&config);
    assert_eq!(workspace.workpackages.len(), 2);
}
