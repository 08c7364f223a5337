//! Workpackage execution and result tables.
//!
//! JUBE "creates a subdirectory for each benchmark iteration and stores
//! the corresponding output" (§V-A). Here a [`Workspace`] holds the run
//! tree — numbered workpackages with their parameter values, executed
//! commands and captured outputs — and result tables are extracted with
//! the declared patterns.

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
    /// JUBE-style run-tree listing (`<bench>/000000/run_stdout` …).
    #[must_use]
    pub fn tree(&self) -> Vec<String> {
        let mut paths = Vec::new();
        for wp in &self.workpackages {
            for (step, _) in &wp.outputs {
                paths.push(format!("{}/{:06}/{step}_stdout", self.benchmark, wp.id));
            }
        }
        paths
    }

    /// Write the run tree to disk exactly as JUBE does: one numbered
    /// directory per workpackage holding a `<step>_stdout` file per step
    /// plus a `configuration.txt` with the parameter values and the
    /// executed commands. Returns the created root directory.
    pub fn materialize(&self, root: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        let bench_root = root.join(&self.benchmark);
        for wp in &self.workpackages {
            let dir = bench_root.join(format!("{:06}", wp.id));
            std::fs::create_dir_all(&dir)?;
            let mut configuration = String::new();
            for (name, value) in &wp.params {
                configuration.push_str(&format!("{name} = {value}\n"));
            }
            for (step, command) in &wp.commands {
                configuration.push_str(&format!("step {step}: {command}\n"));
            }
            std::fs::write(dir.join("configuration.txt"), configuration)?;
            for (step, output) in &wp.outputs {
                std::fs::write(dir.join(format!("{step}_stdout")), output)?;
            }
        }
        Ok(bench_root)
    }

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

/// Execute a configuration, one workpackage after the other. The runner
/// receives the workpackage id, the step name and the concrete command,
/// and returns the captured output.
///
/// Every combination is validated up front: the runner is never invoked
/// when any combination fails substitution, and *all* invalid
/// combinations are reported at once. For parallel, durable, supervised
/// execution (journal, retries, quarantine, resume) use
/// [`crate::executor::run_campaign`] instead.
pub fn run_sweep<F>(config: &JubeConfig, mut runner: F) -> Result<Workspace, SweepError>
where
    F: FnMut(usize, &str, &str) -> Result<String, String>,
{
    let combos = config.expand();
    let invalid = validate_combos(config, &combos);
    if !invalid.is_empty() {
        return Err(SweepError::InvalidParams(invalid));
    }
    let mut workpackages = Vec::with_capacity(combos.len());
    for (id, params) in combos.into_iter().enumerate() {
        workpackages.push(run_workpackage(config, id, params, &mut runner)?);
    }
    Ok(Workspace {
        benchmark: config.name.clone(),
        workpackages,
    })
}

fn run_workpackage<F>(
    config: &JubeConfig,
    id: usize,
    params: BTreeMap<String, String>,
    runner: &mut F,
) -> Result<Workpackage, SweepError>
where
    F: FnMut(usize, &str, &str) -> Result<String, String>,
{
    let mut wp = Workpackage {
        id,
        params,
        commands: Vec::new(),
        outputs: Vec::new(),
    };
    // Make the workpackage id available for substitution (unique paths).
    let mut values = wp.params.clone();
    values.insert("wp".to_owned(), format!("{id:06}"));
    for step in &config.steps {
        let command = substitute(&step.template, &values);
        let output = runner(id, &step.name, &command).map_err(|message| SweepError::Step {
            workpackage: id,
            params: wp.params.clone(),
            step: step.name.clone(),
            message,
        })?;
        wp.commands.push((step.name.clone(), command));
        wp.outputs.push((step.name.clone(), output));
    }
    Ok(wp)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::config::JubeConfig;

    const CONFIG: &str = "\
benchmark demo
param n = 1, 2, 3
step run = work -n $n -o out$wp
pattern value = result {v:f}
";

    fn fake_runner(_: usize, _: &str, command: &str) -> Result<String, String> {
        // "work -n K ..." → result K*10
        let n: f64 = command
            .split_whitespace()
            .nth(2)
            .and_then(|v| v.parse().ok())
            .ok_or("bad command")?;
        Ok(format!("header\nresult {}\n", n * 10.0))
    }

    #[test]
    fn sequential_sweep_runs_all_workpackages() {
        let config = JubeConfig::parse(CONFIG).unwrap();
        let workspace = run_sweep(&config, fake_runner).unwrap();
        assert_eq!(workspace.workpackages.len(), 3);
        assert_eq!(
            workspace.workpackages[0].commands[0].1,
            "work -n 1 -o out000000"
        );
        assert_eq!(
            workspace.workpackages[2].commands[0].1,
            "work -n 3 -o out000002"
        );
        let tree = workspace.tree();
        assert_eq!(tree[0], "demo/000000/run_stdout");
    }

    #[test]
    fn result_table_extracts_metrics() {
        let config = JubeConfig::parse(CONFIG).unwrap();
        let workspace = run_sweep(&config, fake_runner).unwrap();
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
        let err = run_sweep(&config, |id, _, _| {
            if id == 1 {
                Err("boom".to_owned())
            } else {
                Ok("result 1\n".to_owned())
            }
        })
        .unwrap_err();
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
        // `$ghost` is never defined; `$m` only for some combos? No — all
        // combos miss both, so every combination is invalid. The runner
        // must never run.
        let config = JubeConfig::parse(
            "benchmark bad\nparam n = 1, 2, 3\nstep run = work -n $n -x $ghost\n",
        )
        .unwrap();
        let mut ran = 0;
        let err = run_sweep(&config, |_, _, _| {
            ran += 1;
            Ok(String::new())
        })
        .unwrap_err();
        assert_eq!(ran, 0);
        let SweepError::InvalidParams(combos) = &err else {
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
    fn materialize_writes_the_jube_tree() {
        let config = JubeConfig::parse(CONFIG).unwrap();
        let workspace = run_sweep(&config, fake_runner).unwrap();
        let root = std::env::temp_dir().join("iokc-jube-materialize");
        let _ = std::fs::remove_dir_all(&root);
        let bench_root = workspace.materialize(&root).unwrap();
        assert!(bench_root.ends_with("demo"));
        for wp in 0..3 {
            let dir = bench_root.join(format!("{wp:06}"));
            let stdout = std::fs::read_to_string(dir.join("run_stdout")).unwrap();
            assert!(stdout.contains("result"));
            let configuration = std::fs::read_to_string(dir.join("configuration.txt")).unwrap();
            assert!(configuration.contains("n = "));
            assert!(configuration.contains("step run: work -n"));
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn dependent_steps_execute_in_order() {
        let config =
            JubeConfig::parse("step first = alpha\nstep second after first = beta\n").unwrap();
        let mut order = Vec::new();
        let workspace = run_sweep(&config, |_, step, _| {
            order.push(step.to_owned());
            Ok(String::new())
        })
        .unwrap();
        assert_eq!(order, vec!["first", "second"]);
        assert_eq!(workspace.workpackages[0].outputs.len(), 2);
    }
}
