//! `iokc-analysis` — the knowledge explorer (Phase IV, §V-D).
//!
//! The paper's web-based analysis tool, recast as a library with
//! terminal/SVG front ends:
//!
//! * [`viewer`] — single-run knowledge viewer and the IO500 viewer;
//! * [`mod@compare`] — multi-object comparison with runtime-selectable axes
//!   and the box-plot overview, over the store's summary rows;
//! * [`describe`] — descriptive statistics backing the views;
//! * [`anomaly`] — per-iteration variance anomaly detection with
//!   supporting-metric corroboration (Example II);
//! * [`bounding_box`] — the IO500 expectation box after Liem et al.;
//! * [`mod@corpus`] — the expectation box lifted to fleet scale: per-group
//!   bands fitted from aggregation-pushdown percentiles;
//! * [`charts`] — SVG line/bar/box-plot/heat-map rendering and ASCII bars;
//! * [`dxt_explorer`] — the DXT-Explorer equivalent: per-rank timelines,
//!   transfer heat maps and straggler detection over Darshan DXT traces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod anomaly;
pub mod bounding_box;
pub mod charts;
pub mod compare;
pub mod corpus;
pub mod describe;
pub mod dxt_explorer;
pub mod pattern;
pub mod report;
pub mod trend;
pub mod viewer;

pub use anomaly::{IterationAnomaly, IterationVarianceDetector};
pub use bounding_box::{Bound, BoundingBox, BoundingBoxDetector, ExpectationBox2D, Verdict};
pub use charts::{
    ascii_bars, bar_chart, box_plot, escape_html, heat_map, line_chart, write_ascii_bars,
    write_bar_chart, write_box_plot, write_heat_map, write_line_chart, ChartOptions, Series,
};
pub use compare::{compare, overview, ComparisonPoint, MetricAxis, OptionAxis};
pub use corpus::{CorpusBoxes, CorpusOutlier, DEFAULT_HIGH_Q, DEFAULT_LOW_Q, DEFAULT_MARGIN};
pub use describe::{mad_scores, Describe};
pub use dxt_explorer::{DxtTimeline, RankActivity};
pub use pattern::{classify, render_profile, Direction, IoPatternProfile, Locality, SizeClass};
pub use report::render_html;
pub use trend::{Drift, TrendDetector};
pub use viewer::{render_io500, render_knowledge, write_io500, write_knowledge};
