//! Static HTML reports — the web face of the knowledge explorer.
//!
//! The paper's prototype exposes analysis through a web GUI (§V-D). This
//! module renders the same views as a self-contained HTML document
//! (inline CSS, inline SVG charts; no scripts, no external assets) that a
//! browser can open directly: the knowledge-base overview, the per-run
//! summary table, the IO500 runs with their scores, the comparison chart
//! and every analysis finding.

use crate::charts::{box_plot, escape_html, line_chart, ChartOptions, Series};
use crate::compare::{compare, MetricAxis, OptionAxis};
use crate::describe::Describe;
use iokc_core::phases::Finding;
use iokc_store::{RunKind, RunSummary};

const STYLE: &str = "\
body{font-family:sans-serif;margin:2em;color:#222;max-width:1000px}\
h1,h2{color:#1f3b57}table{border-collapse:collapse;margin:1em 0}\
td,th{border:1px solid #ccc;padding:4px 10px;text-align:left;font-size:14px}\
th{background:#eef3f8}tr:nth-child(even){background:#fafafa}\
.finding{background:#fff4e5;border-left:4px solid #ff7f0e;padding:8px 12px;margin:6px 0}\
.ok{background:#edf7ee;border-left:4px solid #2ca02c;padding:8px 12px;margin:6px 0}\
figure{margin:1em 0}";

/// Render the knowledge-base report from the store's summary rows (in
/// query order), the write-throughput overview boxes and the findings.
#[must_use]
pub fn render_html(
    rows: &[RunSummary],
    boxes: &[(String, Describe)],
    findings: &[Finding],
) -> String {
    let (benchmarks, io500s): (Vec<&RunSummary>, Vec<&RunSummary>) =
        rows.iter().partition(|row| row.kind == RunKind::Benchmark);

    let mut html = String::with_capacity(16 * 1024);
    html.push_str("<!DOCTYPE html><html><head><meta charset=\"utf-8\">");
    html.push_str("<title>iokc knowledge explorer</title>");
    html.push_str(&format!("<style>{STYLE}</style></head><body>"));
    html.push_str("<h1>I/O knowledge explorer</h1>");
    html.push_str(&format!(
        "<p>{} benchmark knowledge object(s), {} IO500 run(s), {} finding(s).</p>",
        benchmarks.len(),
        io500s.len(),
        findings.len()
    ));

    // Findings first (the anomaly-detection use case is the headline).
    html.push_str("<h2>Findings</h2>");
    if findings.is_empty() {
        html.push_str("<div class=\"ok\">no anomalies detected</div>");
    }
    for finding in findings {
        html.push_str(&format!(
            "<div class=\"finding\"><b>[{}]</b> {}</div>",
            escape_html(&finding.tag),
            escape_html(&finding.message)
        ));
    }

    // Benchmark knowledge table.
    if !benchmarks.is_empty() {
        html.push_str(
            "<h2>Benchmark knowledge</h2><table><tr>\
            <th>id</th><th>command</th><th>api</th><th>tasks</th>\
            <th>write mean (MiB/s)</th><th>read mean (MiB/s)</th></tr>",
        );
        for row in &benchmarks {
            let fmt_bw = |operation: &str| {
                row.op(operation)
                    .map(|s| format!("{:.1}", s.mean_mib))
                    .unwrap_or_else(|| "—".to_owned())
            };
            html.push_str(&format!(
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
                row.id,
                escape_html(&row.command),
                escape_html(&row.api),
                row.tasks,
                fmt_bw("write"),
                fmt_bw("read"),
            ));
        }
        html.push_str("</table>");

        // Overview box plot by throughput (§V-D's automatic overview).
        if !boxes.is_empty() {
            html.push_str("<h2>Throughput overview</h2><figure>");
            html.push_str(&box_plot(
                boxes,
                &ChartOptions {
                    title: "write throughput per knowledge object".into(),
                    y_label: "MiB/s".into(),
                    ..ChartOptions::default()
                },
            ));
            html.push_str("</figure>");
        }

        // Comparison: write bandwidth vs transfer size (an IO500 row has
        // no operations, so only benchmarks chart).
        let points = compare(
            rows,
            OptionAxis::TransferSize,
            &MetricAxis::MeanBandwidth("write".into()),
        );
        if points.len() >= 2 {
            html.push_str("<h2>Comparison</h2><figure>");
            html.push_str(&line_chart(
                &[Series {
                    label: "mean write bandwidth".into(),
                    points: points.iter().map(|p| (p.x, p.y)).collect(),
                }],
                &ChartOptions {
                    title: "write bandwidth vs transfer size".into(),
                    x_label: "transfer size (bytes)".into(),
                    y_label: "MiB/s".into(),
                    ..ChartOptions::default()
                },
            ));
            html.push_str("</figure>");
        }
    }

    // IO500 table.
    if !io500s.is_empty() {
        html.push_str(
            "<h2>IO500 runs</h2><table><tr>\
            <th>id</th><th>tasks</th><th>bandwidth (GiB/s)</th>\
            <th>metadata (kIOPS)</th><th>total score</th></tr>",
        );
        for row in &io500s {
            html.push_str(&format!(
                "<tr><td>{}</td><td>{}</td><td>{:.4}</td><td>{:.4}</td><td>{:.4}</td></tr>",
                row.id, row.tasks, row.bw_score, row.md_score, row.total_score
            ));
        }
        html.push_str("</table>");
    }

    html.push_str("</body></html>");
    html
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::compare::overview;
    use iokc_core::model::{
        IterationResult, Knowledge, KnowledgeItem, KnowledgeSource, OperationSummary,
    };
    use iokc_store::{DeadlineToken, KnowledgeStore, Query, RunPredicate};

    fn knowledge(id: u64, xfer: u64, bw: f64) -> KnowledgeItem {
        let mut k = Knowledge::new(KnowledgeSource::Ior, &format!("ior -t {xfer}"));
        k.id = Some(id);
        k.pattern.api = "MPIIO".into();
        k.pattern.tasks = 8;
        k.pattern.transfer_size = xfer;
        k.pattern.iterations = 2;
        k.summaries.push(OperationSummary {
            operation: "write".into(),
            api: "MPIIO".into(),
            max_mib: bw * 1.05,
            min_mib: bw * 0.95,
            mean_mib: bw,
            stddev_mib: 1.0,
            mean_ops: bw / 2.0,
            iterations: 2,
        });
        for i in 0..2 {
            k.results.push(IterationResult {
                operation: "write".into(),
                iteration: i,
                bw_mib: bw + f64::from(i),
                ops: 10,
                ops_per_sec: 5.0,
                latency_s: 0.001,
                open_s: 0.001,
                wrrd_s: 1.0,
                close_s: 0.001,
                total_s: 1.0,
            });
        }
        KnowledgeItem::Benchmark(k)
    }

    /// The report as `iokc report` renders it: `items` saved to a store,
    /// then read back as summary rows and write-throughput boxes.
    fn render(items: &[KnowledgeItem], findings: &[Finding]) -> String {
        let mut store = KnowledgeStore::in_memory();
        for item in items {
            match item {
                KnowledgeItem::Benchmark(k) => store.save_knowledge(k).unwrap(),
                KnowledgeItem::Io500(k) => store.save_io500(k).unwrap(),
            };
        }
        let open = DeadlineToken::unbounded();
        let rows = store.query_summaries(&Query::all(), &open).unwrap();
        let series = store
            .boxplot_series(&RunPredicate::True, "write", &open)
            .unwrap();
        render_html(&rows, &overview(&series), findings)
    }

    #[test]
    fn report_contains_all_sections() {
        let items = vec![
            knowledge(1, 1 << 20, 1000.0),
            knowledge(2, 2 << 20, 1500.0),
            KnowledgeItem::Io500(iokc_core::model::Io500Knowledge {
                id: Some(3),
                tasks: 40,
                bw_score: 1.2,
                md_score: 10.5,
                total_score: 3.55,
                testcases: Vec::new(),
                options: Default::default(),
                system: None,
                start_time: 0,
                warnings: Vec::new(),
            }),
        ];
        let findings = vec![Finding {
            tag: "anomaly".into(),
            knowledge_id: Some(1),
            message: "write iteration 1 dipped <b>badly</b>".into(),
            values: vec![],
        }];
        let html = render(&items, &findings);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("2 benchmark knowledge object(s), 1 IO500 run(s)"));
        assert!(html.contains("<h2>Findings</h2>"));
        // Finding text is escaped.
        assert!(html.contains("&lt;b&gt;badly&lt;/b&gt;"));
        assert!(html.contains("<h2>Benchmark knowledge</h2>"));
        assert!(html.contains("<h2>Throughput overview</h2>"));
        assert!(html.contains("<h2>Comparison</h2>"));
        assert!(html.contains("<svg"));
        assert!(html.contains("<h2>IO500 runs</h2>"));
        assert!(html.contains("3.5500"));
        assert!(html.ends_with("</body></html>"));
    }

    #[test]
    fn empty_base_reports_cleanly() {
        let html = render(&[], &[]);
        assert!(html.contains("no anomalies detected"));
        assert!(!html.contains("<h2>Benchmark knowledge</h2>"));
    }
}
