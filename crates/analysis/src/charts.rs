//! Chart rendering: SVG for exportable figures, ASCII for terminals.
//!
//! §V-D: "the tool provides the ability to visualize results as an
//! interactive graph and export it as an image file." The web front end
//! is substituted by static SVG output (same information content) plus
//! terminal bars for quick looks.
//!
//! Every chart comes in two flavours: a `write_*` function that streams
//! the SVG/text into any [`fmt::Write`] target (used by the explorer
//! service to fill HTTP response bodies directly) and a `*_chart`-style
//! wrapper returning a `String` for callers that want one.

use std::fmt;

use crate::describe::Describe;

/// A named series of (x, y) points.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Data points.
    pub points: Vec<(f64, f64)>,
}

/// Chart-wide options.
#[derive(Debug, Clone)]
pub struct ChartOptions {
    /// Chart title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// Canvas width in pixels.
    pub width: u32,
    /// Canvas height in pixels.
    pub height: u32,
}

impl Default for ChartOptions {
    fn default() -> ChartOptions {
        ChartOptions {
            title: String::new(),
            x_label: String::new(),
            y_label: String::new(),
            width: 800,
            height: 480,
        }
    }
}

const MARGIN: f64 = 60.0;
const PALETTE: [&str; 6] = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
];

fn bounds(series: &[Series]) -> (f64, f64, f64, f64) {
    let mut xmin = f64::INFINITY;
    let mut xmax = f64::NEG_INFINITY;
    let mut ymin = 0.0f64;
    let mut ymax = f64::NEG_INFINITY;
    for s in series {
        for (x, y) in &s.points {
            xmin = xmin.min(*x);
            xmax = xmax.max(*x);
            ymin = ymin.min(*y);
            ymax = ymax.max(*y);
        }
    }
    if !xmin.is_finite() {
        (xmin, xmax) = (0.0, 1.0);
    }
    if !ymax.is_finite() {
        ymax = 1.0;
    }
    if (xmax - xmin).abs() < f64::EPSILON {
        xmax = xmin + 1.0;
    }
    if (ymax - ymin).abs() < f64::EPSILON {
        ymax = ymin + 1.0;
    }
    (xmin, xmax, ymin, ymax)
}

/// Stream a line chart (one polyline per series, with point markers and a
/// legend) as a standalone SVG document into `out`.
pub fn write_line_chart<W: fmt::Write>(
    series: &[Series],
    opts: &ChartOptions,
    out: &mut W,
) -> fmt::Result {
    let (xmin, xmax, ymin, ymax) = bounds(series);
    let w = f64::from(opts.width);
    let h = f64::from(opts.height);
    let plot_w = w - 2.0 * MARGIN;
    let plot_h = h - 2.0 * MARGIN;
    let sx = |x: f64| MARGIN + (x - xmin) / (xmax - xmin) * plot_w;
    let sy = |y: f64| h - MARGIN - (y - ymin) / (ymax - ymin) * plot_h;

    write_svg_header(opts, xmin, xmax, ymin, ymax, out)?;
    for (i, s) in series.iter().enumerate() {
        let color = PALETTE[i % PALETTE.len()];
        write!(
            out,
            "<polyline fill=\"none\" stroke=\"{color}\" stroke-width=\"2\" points=\""
        )?;
        for (pi, (x, y)) in s.points.iter().enumerate() {
            if pi > 0 {
                out.write_char(' ')?;
            }
            write!(out, "{:.1},{:.1}", sx(*x), sy(*y))?;
        }
        writeln!(out, "\"/>")?;
        for (x, y) in &s.points {
            writeln!(
                out,
                "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"3\" fill=\"{color}\"/>",
                sx(*x),
                sy(*y)
            )?;
        }
        writeln!(
            out,
            "<text x=\"{:.1}\" y=\"{:.1}\" fill=\"{color}\" font-size=\"12\">{}</text>",
            w - MARGIN - 150.0,
            MARGIN + 16.0 * (i as f64 + 1.0),
            escape_html(&s.label)
        )?;
    }
    writeln!(out, "</svg>")
}

/// Render a line chart as a `String` (see [`write_line_chart`]).
#[must_use]
pub fn line_chart(series: &[Series], opts: &ChartOptions) -> String {
    let mut svg = String::new();
    let _ = write_line_chart(series, opts, &mut svg);
    svg
}

/// Stream grouped bars (e.g. write/read bandwidth per iteration — the
/// Fig. 5 layout) as SVG into `out`. `categories` label the x positions;
/// each series contributes one bar per category.
pub fn write_bar_chart<W: fmt::Write>(
    categories: &[String],
    series: &[Series],
    opts: &ChartOptions,
    out: &mut W,
) -> fmt::Result {
    let ymax = series
        .iter()
        .flat_map(|s| s.points.iter().map(|(_, y)| *y))
        .fold(1.0f64, f64::max);
    let w = f64::from(opts.width);
    let h = f64::from(opts.height);
    let plot_w = w - 2.0 * MARGIN;
    let plot_h = h - 2.0 * MARGIN;
    let ncat = categories.len().max(1) as f64;
    let group_w = plot_w / ncat;
    let bar_w = (group_w * 0.8) / series.len().max(1) as f64;

    write_svg_header(opts, 0.0, ncat, 0.0, ymax, out)?;
    for (si, s) in series.iter().enumerate() {
        let color = PALETTE[si % PALETTE.len()];
        for (ci, (_, y)) in s.points.iter().enumerate() {
            let x = MARGIN + ci as f64 * group_w + group_w * 0.1 + si as f64 * bar_w;
            let bar_h = (y / ymax) * plot_h;
            writeln!(
                out,
                "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"{:.1}\" height=\"{:.1}\" fill=\"{color}\"/>",
                x,
                h - MARGIN - bar_h,
                bar_w,
                bar_h
            )?;
        }
        writeln!(
            out,
            "<text x=\"{:.1}\" y=\"{:.1}\" fill=\"{color}\" font-size=\"12\">{}</text>",
            w - MARGIN - 150.0,
            MARGIN + 16.0 * (si as f64 + 1.0),
            escape_html(&s.label)
        )?;
    }
    for (ci, category) in categories.iter().enumerate() {
        writeln!(
            out,
            "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\" text-anchor=\"middle\">{}</text>",
            MARGIN + (ci as f64 + 0.5) * group_w,
            h - MARGIN + 16.0,
            escape_html(category)
        )?;
    }
    writeln!(out, "</svg>")
}

/// Render grouped bars as a `String` (see [`write_bar_chart`]).
#[must_use]
pub fn bar_chart(categories: &[String], series: &[Series], opts: &ChartOptions) -> String {
    let mut svg = String::new();
    let _ = write_bar_chart(categories, series, opts, &mut svg);
    svg
}

/// Stream box plots (one per labelled [`Describe`]) as SVG into `out` —
/// the §V-D overview chart.
pub fn write_box_plot<W: fmt::Write>(
    boxes: &[(String, Describe)],
    opts: &ChartOptions,
    out: &mut W,
) -> fmt::Result {
    let ymax = boxes.iter().map(|(_, d)| d.max).fold(1.0f64, f64::max);
    let w = f64::from(opts.width);
    let h = f64::from(opts.height);
    let plot_w = w - 2.0 * MARGIN;
    let plot_h = h - 2.0 * MARGIN;
    let n = boxes.len().max(1) as f64;
    let slot = plot_w / n;
    let sy = |y: f64| h - MARGIN - (y / ymax) * plot_h;

    write_svg_header(opts, 0.0, n, 0.0, ymax, out)?;
    for (i, (label, d)) in boxes.iter().enumerate() {
        let cx = MARGIN + (i as f64 + 0.5) * slot;
        let half = slot * 0.25;
        // Whiskers.
        writeln!(
            out,
            "<line x1=\"{cx:.1}\" y1=\"{:.1}\" x2=\"{cx:.1}\" y2=\"{:.1}\" stroke=\"#333\"/>",
            sy(d.min),
            sy(d.max)
        )?;
        // Box q1..q3.
        writeln!(
            out,
            "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"{:.1}\" height=\"{:.1}\" fill=\"#9ecae1\" stroke=\"#333\"/>",
            cx - half,
            sy(d.q3),
            2.0 * half,
            (sy(d.q1) - sy(d.q3)).max(1.0)
        )?;
        // Median.
        writeln!(
            out,
            "<line x1=\"{:.1}\" y1=\"{:.1}\" x2=\"{:.1}\" y2=\"{:.1}\" stroke=\"#d62728\" stroke-width=\"2\"/>",
            cx - half,
            sy(d.median),
            cx + half,
            sy(d.median)
        )?;
        // Mean marker.
        writeln!(
            out,
            "<circle cx=\"{cx:.1}\" cy=\"{:.1}\" r=\"3\" fill=\"#2ca02c\"/>",
            sy(d.mean)
        )?;
        writeln!(
            out,
            "<text x=\"{cx:.1}\" y=\"{:.1}\" font-size=\"11\" text-anchor=\"middle\">{}</text>",
            h - MARGIN + 16.0,
            escape_html(label)
        )?;
    }
    writeln!(out, "</svg>")
}

/// Render box plots as a `String` (see [`write_box_plot`]).
#[must_use]
pub fn box_plot(boxes: &[(String, Describe)], opts: &ChartOptions) -> String {
    let mut svg = String::new();
    let _ = write_box_plot(boxes, opts, &mut svg);
    svg
}

fn write_svg_header<W: fmt::Write>(
    opts: &ChartOptions,
    xmin: f64,
    xmax: f64,
    ymin: f64,
    ymax: f64,
    out: &mut W,
) -> fmt::Result {
    let w = f64::from(opts.width);
    let h = f64::from(opts.height);
    writeln!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{}\" height=\"{}\" viewBox=\"0 0 {} {}\">",
        opts.width, opts.height, opts.width, opts.height
    )?;
    writeln!(out, "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>")?;
    writeln!(
        out,
        "<text x=\"{:.1}\" y=\"24\" font-size=\"16\" text-anchor=\"middle\">{}</text>",
        w / 2.0,
        escape_html(&opts.title)
    )?;
    // Axes.
    writeln!(
        out,
        "<line x1=\"{MARGIN}\" y1=\"{:.1}\" x2=\"{:.1}\" y2=\"{:.1}\" stroke=\"#333\"/>",
        h - MARGIN,
        w - MARGIN,
        h - MARGIN
    )?;
    writeln!(
        out,
        "<line x1=\"{MARGIN}\" y1=\"{MARGIN}\" x2=\"{MARGIN}\" y2=\"{:.1}\" stroke=\"#333\"/>",
        h - MARGIN
    )?;
    writeln!(
        out,
        "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"12\" text-anchor=\"middle\">{}</text>",
        w / 2.0,
        h - 12.0,
        escape_html(&opts.x_label)
    )?;
    writeln!(
        out,
        "<text x=\"16\" y=\"{:.1}\" font-size=\"12\" text-anchor=\"middle\" transform=\"rotate(-90 16 {:.1})\">{}</text>",
        h / 2.0,
        h / 2.0,
        escape_html(&opts.y_label)
    )?;
    // Min/max tick labels.
    writeln!(
        out,
        "<text x=\"{MARGIN}\" y=\"{:.1}\" font-size=\"10\">{xmin:.6}</text>",
        h - MARGIN + 28.0
    )?;
    writeln!(
        out,
        "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"10\" text-anchor=\"end\">{xmax:.6}</text>",
        w - MARGIN,
        h - MARGIN + 28.0
    )?;
    writeln!(
        out,
        "<text x=\"{:.1}\" y=\"{MARGIN}\" font-size=\"10\" text-anchor=\"end\">{ymax:.6}</text>",
        MARGIN - 6.0
    )?;
    writeln!(
        out,
        "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"10\" text-anchor=\"end\">{ymin:.6}</text>",
        MARGIN - 6.0,
        h - MARGIN
    )
}

/// Stream a heat map (rows × columns matrix) as SVG into `out` — the
/// chart type the paper's outlook (§VI) asks for. Cell color scales
/// linearly from white to a dark blue at the matrix maximum.
pub fn write_heat_map<W: fmt::Write>(
    matrix: &[Vec<f64>],
    row_labels: &[String],
    opts: &ChartOptions,
    out: &mut W,
) -> fmt::Result {
    let rows = matrix.len().max(1);
    let cols = matrix.first().map(Vec::len).unwrap_or(0).max(1);
    let max = matrix
        .iter()
        .flatten()
        .copied()
        .fold(f64::MIN_POSITIVE, f64::max);
    let w = f64::from(opts.width);
    let h = f64::from(opts.height);
    let plot_w = w - 2.0 * MARGIN;
    let plot_h = h - 2.0 * MARGIN;
    let cell_w = plot_w / cols as f64;
    let cell_h = plot_h / rows as f64;
    writeln!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{}\" height=\"{}\">\n         <rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n         <text x=\"{:.0}\" y=\"24\" font-size=\"16\" text-anchor=\"middle\">{}</text>",
        opts.width,
        opts.height,
        w / 2.0,
        escape_html(&opts.title)
    )?;
    for (r, row) in matrix.iter().enumerate() {
        let y = MARGIN + r as f64 * cell_h;
        if let Some(label) = row_labels.get(r) {
            writeln!(
                out,
                "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"10\" text-anchor=\"end\">{}</text>",
                MARGIN - 6.0,
                y + cell_h * 0.7,
                escape_html(label)
            )?;
        }
        for (c, value) in row.iter().enumerate() {
            let intensity = (value / max).clamp(0.0, 1.0);
            // white (255,255,255) → dark blue (8,48,107).
            let red = (255.0 - intensity * 247.0) as u8;
            let green = (255.0 - intensity * 207.0) as u8;
            let blue = (255.0 - intensity * 148.0) as u8;
            writeln!(
                out,
                "<rect x=\"{:.1}\" y=\"{y:.1}\" width=\"{:.2}\" height=\"{:.2}\" fill=\"rgb({red},{green},{blue})\"/>",
                MARGIN + c as f64 * cell_w,
                cell_w.max(0.5),
                cell_h.max(0.5)
            )?;
        }
    }
    writeln!(
        out,
        "<text x=\"{:.0}\" y=\"{:.0}\" font-size=\"12\" text-anchor=\"middle\">{}</text>",
        w / 2.0,
        h - 12.0,
        escape_html(&opts.x_label)
    )?;
    writeln!(out, "</svg>")
}

/// Render a heat map as a `String` (see [`write_heat_map`]).
#[must_use]
pub fn heat_map(matrix: &[Vec<f64>], row_labels: &[String], opts: &ChartOptions) -> String {
    let mut svg = String::new();
    let _ = write_heat_map(matrix, row_labels, opts, &mut svg);
    svg
}

/// Escape `&`, `<` and `>` for HTML text and SVG labels — the one
/// escaper behind every chart, report and explorer page.
#[must_use]
pub fn escape_html(text: &str) -> String {
    text.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Stream ASCII horizontal bars for terminal views into `out`: one row
/// per (label, value).
pub fn write_ascii_bars<W: fmt::Write>(
    rows: &[(String, f64)],
    width: usize,
    out: &mut W,
) -> fmt::Result {
    let max = rows
        .iter()
        .map(|(_, v)| *v)
        .fold(f64::MIN_POSITIVE, f64::max);
    let label_w = rows
        .iter()
        .map(|(l, _)| l.chars().count())
        .max()
        .unwrap_or(0);
    for (label, value) in rows {
        let bar_len = ((value / max) * width as f64).round() as usize;
        writeln!(
            out,
            "{label:<label_w$} | {}{} {value:.2}",
            "#".repeat(bar_len),
            " ".repeat(width.saturating_sub(bar_len))
        )?;
    }
    Ok(())
}

/// Render ASCII horizontal bars as a `String` (see [`write_ascii_bars`]).
#[must_use]
pub fn ascii_bars(rows: &[(String, f64)], width: usize) -> String {
    let mut out = String::new();
    let _ = write_ascii_bars(rows, width, &mut out);
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn series() -> Vec<Series> {
        vec![
            Series {
                label: "write".into(),
                points: vec![(0.0, 2850.0), (1.0, 1251.0), (2.0, 2840.0)],
            },
            Series {
                label: "read".into(),
                points: vec![(0.0, 3109.0), (1.0, 3095.0), (2.0, 3100.0)],
            },
        ]
    }

    #[test]
    fn line_chart_is_valid_svg() {
        let svg = line_chart(
            &series(),
            &ChartOptions {
                title: "Fig 5".into(),
                x_label: "iteration".into(),
                y_label: "MiB/s".into(),
                ..ChartOptions::default()
            },
        );
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert_eq!(svg.matches("<circle").count(), 6);
        assert!(svg.contains("Fig 5"));
        assert!(svg.contains("iteration"));
    }

    #[test]
    fn writer_and_string_charts_agree() {
        let opts = ChartOptions::default();
        let mut streamed = String::new();
        write_line_chart(&series(), &opts, &mut streamed).unwrap();
        assert_eq!(streamed, line_chart(&series(), &opts));

        let categories: Vec<String> = (0..3).map(|i| format!("iter {i}")).collect();
        let mut streamed = String::new();
        write_bar_chart(&categories, &series(), &opts, &mut streamed).unwrap();
        assert_eq!(streamed, bar_chart(&categories, &series(), &opts));

        let boxes = vec![("run".to_owned(), Describe::of(&[1.0, 2.0, 3.0]))];
        let mut streamed = String::new();
        write_box_plot(&boxes, &opts, &mut streamed).unwrap();
        assert_eq!(streamed, box_plot(&boxes, &opts));
    }

    #[test]
    fn bar_chart_draws_all_bars() {
        let categories: Vec<String> = (0..3).map(|i| format!("iter {i}")).collect();
        let svg = bar_chart(&categories, &series(), &ChartOptions::default());
        assert_eq!(svg.matches("<rect").count(), 1 + 6, "background + 6 bars");
        assert!(svg.contains("iter 2"));
    }

    #[test]
    fn box_plot_draws_boxes() {
        let boxes = vec![
            ("run A".to_owned(), Describe::of(&[1.0, 2.0, 3.0, 4.0])),
            ("run B".to_owned(), Describe::of(&[2.0, 2.5, 3.5, 5.0])),
        ];
        let svg = box_plot(&boxes, &ChartOptions::default());
        assert!(svg.contains("run A"));
        // 1 background + 2 boxes.
        assert_eq!(svg.matches("<rect").count(), 3);
    }

    #[test]
    fn empty_series_do_not_panic() {
        let svg = line_chart(&[], &ChartOptions::default());
        assert!(svg.contains("</svg>"));
        let svg = bar_chart(&[], &[], &ChartOptions::default());
        assert!(svg.contains("</svg>"));
    }

    #[test]
    fn labels_are_escaped() {
        let svg = line_chart(
            &[Series {
                label: "a<b&c".into(),
                points: vec![(0.0, 1.0)],
            }],
            &ChartOptions::default(),
        );
        assert!(svg.contains("a&lt;b&amp;c"));
    }

    #[test]
    fn heat_map_renders_cells() {
        let matrix = vec![vec![0.0, 1.0, 2.0], vec![2.0, 1.0, 0.0]];
        let labels = vec!["rank 0".to_owned(), "rank 1".to_owned()];
        let svg = heat_map(
            &matrix,
            &labels,
            &ChartOptions {
                title: "hm".into(),
                ..ChartOptions::default()
            },
        );
        // 1 background + 6 cells.
        assert_eq!(svg.matches("<rect").count(), 7);
        assert!(svg.contains("rank 1"));
        // Max cell is the darkest (smallest rgb components).
        assert!(svg.contains("rgb(8,48,107)"));
        // Zero cells are white.
        assert!(svg.contains("rgb(255,255,255)"));
    }

    #[test]
    fn heat_map_handles_empty() {
        let svg = heat_map(&[], &[], &ChartOptions::default());
        assert!(svg.contains("</svg>"));
    }

    #[test]
    fn ascii_bars_scale() {
        let rows = vec![("write".to_owned(), 100.0), ("read".to_owned(), 50.0)];
        let text = ascii_bars(&rows, 20);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains(&"#".repeat(20)));
        assert!(lines[1].contains(&"#".repeat(10)));
        assert!(!lines[1].contains(&"#".repeat(11)));
    }
}
