//! Workpackages and result tables.
//!
//! JUBE "creates a subdirectory for each benchmark iteration and stores
//! the corresponding output" (§V-A). Here a [`Workspace`] holds what a
//! campaign ([`crate::executor::run_campaign`]) completed — numbered
//! workpackages with their parameter values, executed commands and
//! captured outputs — and result tables are extracted with the declared
//! patterns.

use crate::config::{substitute, JubeConfig};
use iokc_util::table::TextTable;
use std::collections::BTreeMap;
use std::fmt;

/// One expanded parameter combination with its execution record.
#[derive(Debug, Clone)]
pub struct Workpackage {
    /// Zero-based id (JUBE's `wp` number, the subdirectory name).
    pub id: usize,
    /// Parameter values of this combination.
    pub params: BTreeMap<String, String>,
    /// Executed commands, in step order: (step name, concrete command).
    pub commands: Vec<(String, String)>,
    /// Captured output per step, in step order.
    pub outputs: Vec<(String, String)>,
}

/// A parameter combination whose step commands cannot be fully
/// substituted (a `$name` placeholder survives because no parameter —
/// and not the implicit `wp` — defines it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidCombo {
    /// Workpackage id of the combination.
    pub workpackage: usize,
    /// The parameter values of the combination.
    pub params: BTreeMap<String, String>,
    /// The first step whose template leaves placeholders unresolved.
    pub step: String,
    /// The unresolved placeholder names.
    pub unresolved: Vec<String>,
}

impl fmt::Display for InvalidCombo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "workpackage {:06} step {} leaves ${} unresolved [{}]",
            self.workpackage,
            self.step,
            self.unresolved.join(", $"),
            params_display(&self.params)
        )
    }
}

/// Execution error for a sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// One workpackage's step failed at run time.
    Step {
        /// Failing workpackage id.
        workpackage: usize,
        /// Parameter values of the failing combination, so the failure
        /// is diagnosable from the one-line `Display` alone.
        params: BTreeMap<String, String>,
        /// Failing step.
        step: String,
        /// Runner-reported cause.
        message: String,
    },
    /// Parameter substitution failed before anything ran. Every invalid
    /// combination is listed, not just the first.
    InvalidParams(Vec<InvalidCombo>),
}

impl SweepError {
    /// The failing workpackage id, for step failures.
    #[must_use]
    pub fn workpackage(&self) -> Option<usize> {
        match self {
            SweepError::Step { workpackage, .. } => Some(*workpackage),
            SweepError::InvalidParams(_) => None,
        }
    }

    /// The failing step name, for step failures.
    #[must_use]
    pub fn step(&self) -> Option<&str> {
        match self {
            SweepError::Step { step, .. } => Some(step),
            SweepError::InvalidParams(_) => None,
        }
    }
}

/// Render a parameter map as `name=value` pairs for one-line errors.
fn params_display(params: &BTreeMap<String, String>) -> String {
    params
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<String>>()
        .join(", ")
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Step {
                workpackage,
                params,
                step,
                message,
            } => write!(
                f,
                "workpackage {workpackage:06} step {step}: {message} [{}]",
                params_display(params)
            ),
            SweepError::InvalidParams(combos) => {
                write!(
                    f,
                    "{} parameter combination(s) failed substitution: ",
                    combos.len()
                )?;
                for (i, combo) in combos.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{combo}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// Validate every expanded combination before any runner is built:
/// substitute each step template and collect the combinations that still
/// contain `$name` placeholders. Returns every invalid combination at
/// once, so one sweep failure reports the whole extent of a config bug.
#[must_use]
pub fn validate_combos(
    config: &JubeConfig,
    combos: &[BTreeMap<String, String>],
) -> Vec<InvalidCombo> {
    let mut invalid = Vec::new();
    for (id, params) in combos.iter().enumerate() {
        let mut values = params.clone();
        values.insert("wp".to_owned(), format!("{id:06}"));
        for step in &config.steps {
            let command = substitute(&step.template, &values);
            let unresolved = unresolved_placeholders(&command);
            if !unresolved.is_empty() {
                invalid.push(InvalidCombo {
                    workpackage: id,
                    params: params.clone(),
                    step: step.name.clone(),
                    unresolved,
                });
                break; // one entry per combination is enough
            }
        }
    }
    invalid
}

/// `$name` placeholders remaining in a substituted command.
fn unresolved_placeholders(command: &str) -> Vec<String> {
    let bytes = command.as_bytes();
    let mut names = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'$' {
            let start = i + 1;
            let mut end = start;
            while end < bytes.len() && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_') {
                end += 1;
            }
            if end > start {
                let name = command[start..end].to_owned();
                if !names.contains(&name) {
                    names.push(name);
                }
                i = end;
                continue;
            }
        }
        i += 1;
    }
    names
}

/// A completed sweep: the benchmark name and every workpackage.
#[derive(Debug, Clone)]
pub struct Workspace {
    /// Benchmark name from the configuration.
    pub benchmark: String,
    /// All workpackages in id order.
    pub workpackages: Vec<Workpackage>,
}

impl Workspace {
    /// Extract the declared patterns from every workpackage's outputs and
    /// build the result table: one row per workpackage, parameter columns
    /// first, then one column per metric (first match wins; empty when a
    /// pattern never matched).
    #[must_use]
    pub fn result_table(&self, config: &JubeConfig) -> TextTable {
        let param_names: Vec<&str> = config.params.iter().map(|(n, _)| n.as_str()).collect();
        let metric_names: Vec<&str> = config.patterns.iter().map(|(n, _)| n.as_str()).collect();
        let mut header: Vec<String> = vec!["wp".to_owned()];
        header.extend(param_names.iter().map(|n| (*n).to_owned()));
        header.extend(metric_names.iter().map(|n| (*n).to_owned()));
        let mut table = TextTable::new(header);
        for wp in &self.workpackages {
            let mut row = vec![format!("{:06}", wp.id)];
            for pname in &param_names {
                row.push(wp.params.get(*pname).cloned().unwrap_or_default());
            }
            let combined: String = wp
                .outputs
                .iter()
                .map(|(_, out)| out.as_str())
                .collect::<Vec<&str>>()
                .join("\n");
            for (metric, pattern) in &config.patterns {
                let value = pattern
                    .first_match(&combined)
                    .and_then(|(_, caps)| caps.values().next().cloned())
                    .unwrap_or_default();
                let _ = metric;
                row.push(value);
            }
            table.push_row(row);
        }
        table
    }

    /// Extract one numeric metric across workpackages: (params, value).
    #[must_use]
    pub fn metric_series(
        &self,
        config: &JubeConfig,
        metric: &str,
    ) -> Vec<(BTreeMap<String, String>, f64)> {
        let Some((_, pattern)) = config.patterns.iter().find(|(n, _)| n == metric) else {
            return Vec::new();
        };
        self.workpackages
            .iter()
            .filter_map(|wp| {
                let combined: String = wp
                    .outputs
                    .iter()
                    .map(|(_, out)| out.as_str())
                    .collect::<Vec<&str>>()
                    .join("\n");
                let (_, caps) = pattern.first_match(&combined)?;
                let value: f64 = caps.values().next()?.parse().ok()?;
                Some((wp.params.clone(), value))
            })
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::campaign::CampaignError;
    use crate::config::JubeConfig;
    use crate::executor::{run_campaign, CampaignOptions, StepFailure, StepOutcome};
    use iokc_core::resilience::RetryPolicy;
    use iokc_store::FaultVfs;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    const CONFIG: &str = "\
benchmark demo
param n = 1, 2, 3
step run = work -n $n -o out$wp
pattern value = result {v:f}
";

    /// Run `config` one workpackage after the other on an in-memory
    /// disk, a failing step ending the sweep.
    fn sweep<F, R>(config: &JubeConfig, runner_factory: F) -> Result<Workspace, CampaignError>
    where
        F: Fn() -> R + Sync,
        R: FnMut(usize, &str, &str) -> Result<StepOutcome, StepFailure>,
    {
        let options = CampaignOptions {
            max_parallel: 1,
            retry: RetryPolicy::none(),
            quarantine_threshold: 0,
            ..CampaignOptions::default()
        };
        let dir = std::path::Path::new("/campaign");
        run_campaign(config, dir, &FaultVfs::pristine(), &options, runner_factory)
            .map(|report| report.workspace)
    }

    fn fake_runner() -> impl FnMut(usize, &str, &str) -> Result<StepOutcome, StepFailure> {
        // "work -n K ..." → result K*10
        |_, _, command: &str| {
            let n: f64 = command
                .split_whitespace()
                .nth(2)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| StepFailure::permanent("bad command"))?;
            Ok(StepOutcome::wall(format!("header\nresult {}\n", n * 10.0)))
        }
    }

    #[test]
    fn sequential_sweep_runs_all_workpackages() {
        let config = JubeConfig::parse(CONFIG).unwrap();
        let workspace = sweep(&config, fake_runner).unwrap();
        assert_eq!(workspace.workpackages.len(), 3);
        assert_eq!(
            workspace.workpackages[0].commands[0].1,
            "work -n 1 -o out000000"
        );
        assert_eq!(
            workspace.workpackages[2].commands[0].1,
            "work -n 3 -o out000002"
        );
        assert_eq!(workspace.workpackages[0].outputs[0].0, "run");
    }

    #[test]
    fn result_table_extracts_metrics() {
        let config = JubeConfig::parse(CONFIG).unwrap();
        let workspace = sweep(&config, fake_runner).unwrap();
        let table = workspace.result_table(&config);
        let rendered = table.render();
        assert!(rendered.contains("wp"));
        assert!(rendered.contains("value"));
        assert!(rendered.contains("30"));
        let series = workspace.metric_series(&config, "value");
        assert_eq!(series.len(), 3);
        assert_eq!(series[1].1, 20.0);
        assert!(workspace.metric_series(&config, "ghost").is_empty());
    }

    #[test]
    fn step_failure_is_reported_with_location_and_params() {
        let config = JubeConfig::parse(CONFIG).unwrap();
        let err = sweep(&config, || {
            |id: usize, _: &str, _: &str| {
                if id == 1 {
                    Err(StepFailure::permanent("boom"))
                } else {
                    Ok(StepOutcome::wall("result 1\n".to_owned()))
                }
            }
        })
        .unwrap_err();
        let CampaignError::Sweep(err) = err else {
            panic!("expected a sweep error, got {err:?}");
        };
        assert_eq!(err.workpackage(), Some(1));
        assert_eq!(err.step(), Some("run"));
        let line = err.to_string();
        assert!(line.contains("boom"), "{line}");
        // The failing combination's parameter map is in the one-liner.
        assert!(line.contains("n=2"), "{line}");
        // And SweepError is a real std error.
        let as_std: &dyn std::error::Error = &err;
        assert!(as_std.to_string().contains("workpackage 000001"));
    }

    #[test]
    fn invalid_substitutions_are_reported_all_at_once() {
        // `$ghost` is never defined, so every combination is invalid.
        // No runner may be built.
        let config = JubeConfig::parse(
            "benchmark bad\nparam n = 1, 2, 3\nstep run = work -n $n -x $ghost\n",
        )
        .unwrap();
        let ran = AtomicUsize::new(0);
        let err = sweep(&config, || {
            ran.fetch_add(1, Ordering::SeqCst);
            fake_runner()
        })
        .unwrap_err();
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        let CampaignError::Sweep(SweepError::InvalidParams(combos)) = &err else {
            panic!("expected InvalidParams, got {err:?}");
        };
        assert_eq!(combos.len(), 3, "every invalid combination is listed");
        assert_eq!(combos[0].unresolved, vec!["ghost".to_owned()]);
        let line = err.to_string();
        assert!(line.contains("3 parameter combination(s)"), "{line}");
        assert!(line.contains("$ghost"), "{line}");
        assert!(line.contains("n=2"), "{line}");
    }

    #[test]
    fn validate_combos_accepts_wp_and_defined_params() {
        let config = JubeConfig::parse(CONFIG).unwrap();
        let combos = config.expand();
        assert!(validate_combos(&config, &combos).is_empty());
        // A literal `$` not followed by an identifier is not a placeholder.
        let config = JubeConfig::parse("step run = echo 5$ and $n\nparam n = 1\n").unwrap();
        let combos = config.expand();
        assert!(validate_combos(&config, &combos).is_empty());
    }

    #[test]
    fn dependent_steps_execute_in_order() {
        let config =
            JubeConfig::parse("step first = alpha\nstep second after first = beta\n").unwrap();
        let order = Mutex::new(Vec::new());
        let workspace = sweep(&config, || {
            |_: usize, step: &str, _: &str| {
                order.lock().unwrap().push(step.to_owned());
                Ok(StepOutcome::wall(String::new()))
            }
        })
        .unwrap();
        assert_eq!(order.into_inner().unwrap(), vec!["first", "second"]);
        assert_eq!(workspace.workpackages[0].outputs.len(), 2);
    }
}
