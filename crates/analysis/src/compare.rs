//! The comparison view (§V-D).
//!
//! "Our tool offers the ability to select any number of knowledge objects
//! and compares them based on defined metrics. … the user can select the
//! axes of the chart at runtime" — the x-axis is an applied option
//! ([`OptionAxis`]), the y-axis a focused metric ([`MetricAxis`]). The
//! overview is a box-plot summary per run. Both views read the store's
//! per-run summary rows; filtering and sorting happen in the store's
//! query engine before they see a row.

use crate::describe::Describe;
use iokc_store::{RunSummary, UnknownName};

/// Selectable x-axes: the option whose effect is being studied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptionAxis {
    /// Transfer size in bytes.
    TransferSize,
    /// Block size in bytes.
    BlockSize,
    /// Task count.
    Tasks,
    /// Segment count.
    Segments,
    /// Clients per node.
    ClientsPerNode,
}

impl OptionAxis {
    /// Parse an axis name as used by the CLI (`--axis`) and the HTTP
    /// API (`x=`); both spellings of the size axes are accepted.
    pub fn parse(name: &str) -> Result<OptionAxis, UnknownName> {
        match name {
            "transfer" | "transfer_size" => Ok(OptionAxis::TransferSize),
            "block" | "block_size" => Ok(OptionAxis::BlockSize),
            "tasks" => Ok(OptionAxis::Tasks),
            "segments" => Ok(OptionAxis::Segments),
            "clients_per_node" => Ok(OptionAxis::ClientsPerNode),
            _ => Err(UnknownName::new(
                "axis",
                name,
                "transfer|transfer_size|block|block_size|tasks|segments|clients_per_node",
            )),
        }
    }

    /// Axis label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OptionAxis::TransferSize => "transfer size (bytes)",
            OptionAxis::BlockSize => "block size (bytes)",
            OptionAxis::Tasks => "tasks",
            OptionAxis::Segments => "segments",
            OptionAxis::ClientsPerNode => "clients per node",
        }
    }

    /// The option value of one run.
    #[must_use]
    pub fn value(self, row: &RunSummary) -> f64 {
        match self {
            OptionAxis::TransferSize => row.transfer_size as f64,
            OptionAxis::BlockSize => row.block_size as f64,
            OptionAxis::Tasks => f64::from(row.tasks),
            OptionAxis::Segments => row.segments as f64,
            OptionAxis::ClientsPerNode => f64::from(row.clients_per_node),
        }
    }
}

/// Selectable y-axes: the focused metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricAxis {
    /// Mean bandwidth of an operation, MiB/s.
    MeanBandwidth(String),
    /// Max bandwidth of an operation, MiB/s.
    MaxBandwidth(String),
    /// Mean op rate of an operation, ops/s.
    MeanOps(String),
}

impl MetricAxis {
    /// Axis label.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            MetricAxis::MeanBandwidth(op) => format!("mean {op} bandwidth (MiB/s)"),
            MetricAxis::MaxBandwidth(op) => format!("max {op} bandwidth (MiB/s)"),
            MetricAxis::MeanOps(op) => format!("mean {op} ops/s"),
        }
    }

    /// The metric of one run (absent operation → `None`).
    #[must_use]
    pub fn value(&self, row: &RunSummary) -> Option<f64> {
        match self {
            MetricAxis::MeanBandwidth(op) => row.op(op).map(|s| s.mean_mib),
            MetricAxis::MaxBandwidth(op) => row.op(op).map(|s| s.max_mib),
            MetricAxis::MeanOps(op) => row.op(op).map(|s| s.mean_ops),
        }
    }
}

/// One comparison point.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonPoint {
    /// Knowledge id (if persisted).
    pub knowledge_id: Option<u64>,
    /// Command (series label).
    pub command: String,
    /// x value (selected option).
    pub x: f64,
    /// y value (selected metric).
    pub y: f64,
}

/// Build the comparison series from summary rows the store has already
/// filtered: extract both axes, drop runs without the metric, sort by x
/// (then y).
#[must_use]
pub fn compare(rows: &[RunSummary], x: OptionAxis, y: &MetricAxis) -> Vec<ComparisonPoint> {
    let mut points: Vec<ComparisonPoint> = rows
        .iter()
        .filter_map(|row| {
            y.value(row).map(|yv| ComparisonPoint {
                knowledge_id: Some(row.id),
                command: row.command.clone(),
                x: x.value(row),
                y: yv,
            })
        })
        .collect();
    points.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
    points
}

/// Box-plot overview (§V-D's automatic overview chart) from per-run
/// iteration series — the store's `boxplot_series` projection: one box
/// per run with values, labelled by command.
#[must_use]
pub fn overview(series: &[(String, Vec<f64>)]) -> Vec<(String, Describe)> {
    series
        .iter()
        .filter(|(_, values)| !values.is_empty())
        .map(|(label, values)| (label.clone(), Describe::of(values)))
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use iokc_core::model::{IterationResult, Knowledge, KnowledgeSource, OperationSummary};
    use iokc_store::{DeadlineToken, KnowledgeStore, Query, RunFilter};

    fn knowledge(command: &str, api: &str, tasks: u32, xfer: u64, mean_bw: f64) -> Knowledge {
        let mut k = Knowledge::new(KnowledgeSource::Ior, command);
        k.pattern.api = api.into();
        k.pattern.tasks = tasks;
        k.pattern.transfer_size = xfer;
        k.summaries.push(OperationSummary {
            operation: "write".into(),
            api: api.into(),
            max_mib: mean_bw * 1.1,
            min_mib: mean_bw * 0.9,
            mean_mib: mean_bw,
            stddev_mib: mean_bw * 0.05,
            mean_ops: mean_bw / 2.0,
            iterations: 3,
        });
        for i in 0..3 {
            k.results.push(IterationResult {
                operation: "write".into(),
                iteration: i,
                bw_mib: mean_bw + f64::from(i) * 10.0,
                ops: 100,
                ops_per_sec: 50.0,
                latency_s: 0.001,
                open_s: 0.001,
                wrrd_s: 1.0,
                close_s: 0.001,
                total_s: 1.0,
            });
        }
        k
    }

    fn store_of(items: &[Knowledge]) -> KnowledgeStore {
        let mut store = KnowledgeStore::in_memory();
        for k in items {
            store.save_knowledge(k).unwrap();
        }
        store
    }

    /// The summary rows `filter` selects, as a user's filters would.
    fn rows(store: &KnowledgeStore, filter: RunFilter) -> Vec<RunSummary> {
        let query = Query::new(filter.predicate());
        store
            .query_summaries(&query, &DeadlineToken::unbounded())
            .unwrap()
    }

    #[test]
    fn compare_sorts_by_x() {
        let store = store_of(&[
            knowledge("ior -t 2m", "MPIIO", 80, 2 << 20, 2800.0),
            knowledge("ior -t 512k", "MPIIO", 80, 512 << 10, 1900.0),
            knowledge("ior -t 1m", "MPIIO", 80, 1 << 20, 2400.0),
        ]);
        let points = compare(
            &rows(&store, RunFilter::default()),
            OptionAxis::TransferSize,
            &MetricAxis::MeanBandwidth("write".into()),
        );
        let xs: Vec<f64> = points.iter().map(|p| p.x).collect();
        assert_eq!(
            xs,
            vec![(512 << 10) as f64, (1 << 20) as f64, (2 << 20) as f64]
        );
        assert_eq!(points[0].y, 1900.0);
    }

    #[test]
    fn filters_narrow_selection() {
        let store = store_of(&[
            knowledge("ior -a mpiio", "MPIIO", 80, 1 << 20, 2800.0),
            knowledge("ior -a posix", "POSIX", 40, 1 << 20, 2000.0),
        ]);
        let api = RunFilter {
            api: Some("MPIIO".into()),
            ..RunFilter::default()
        };
        let points = compare(
            &rows(&store, api),
            OptionAxis::Tasks,
            &MetricAxis::MeanBandwidth("write".into()),
        );
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].command, "ior -a mpiio");

        let tasks = RunFilter {
            min_tasks: Some(30),
            max_tasks: Some(50),
            ..RunFilter::default()
        };
        let points = compare(
            &rows(&store, tasks),
            OptionAxis::Tasks,
            &MetricAxis::MeanBandwidth("write".into()),
        );
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].x, 40.0);

        let command = RunFilter {
            command: Some("posix".into()),
            ..RunFilter::default()
        };
        let points = compare(
            &rows(&store, command),
            OptionAxis::Tasks,
            &MetricAxis::MaxBandwidth("write".into()),
        );
        assert_eq!(points.len(), 1);
        assert!((points[0].y - 2200.0).abs() < 1e-9);
    }

    #[test]
    fn missing_operation_is_dropped() {
        let store = store_of(&[knowledge("ior", "MPIIO", 80, 1 << 20, 2800.0)]);
        let points = compare(
            &rows(&store, RunFilter::default()),
            OptionAxis::Tasks,
            &MetricAxis::MeanBandwidth("read".into()),
        );
        assert!(points.is_empty());
        let has_op = |op: &str| RunFilter {
            op: Some(op.into()),
            ..RunFilter::default()
        };
        assert!(rows(&store, has_op("read")).is_empty());
        assert_eq!(rows(&store, has_op("write")).len(), 1);
    }

    #[test]
    fn overview_builds_boxplots() {
        let store = store_of(&[
            knowledge("ior A", "MPIIO", 80, 1 << 20, 2800.0),
            knowledge("ior B", "MPIIO", 80, 1 << 20, 1000.0),
        ]);
        let series = |op: &str| {
            let predicate = RunFilter::default().predicate();
            store
                .boxplot_series(&predicate, op, &DeadlineToken::unbounded())
                .unwrap()
        };
        let boxes = overview(&series("write"));
        assert_eq!(boxes.len(), 2);
        assert_eq!(boxes[0].0, "ior A");
        assert_eq!(boxes[0].1.n, 3);
        assert!((boxes[0].1.mean - 2810.0).abs() < 1e-9);
        assert!(overview(&series("read")).is_empty());
    }

    #[test]
    fn axis_labels() {
        assert_eq!(OptionAxis::TransferSize.label(), "transfer size (bytes)");
        assert_eq!(
            MetricAxis::MeanOps("stat".into()).label(),
            "mean stat ops/s"
        );
    }

    #[test]
    fn axis_names_of_the_cli_and_the_http_api_both_parse() {
        for (cli, http) in [("transfer", "transfer_size"), ("block", "block_size")] {
            assert_eq!(OptionAxis::parse(cli), OptionAxis::parse(http));
        }
        assert_eq!(
            OptionAxis::parse("clients_per_node"),
            Ok(OptionAxis::ClientsPerNode)
        );
        let err = OptionAxis::parse("latency").unwrap_err();
        assert!(
            err.to_string().starts_with("unknown axis `latency`"),
            "{err}"
        );
    }
}
