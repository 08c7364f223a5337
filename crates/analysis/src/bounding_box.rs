//! The IO500 bounding box (after Liem et al., §II-B and §V-E2).
//!
//! Reference IO500 runs on a healthy system span an *expectation box* per
//! test case; a new run (or an application's measured performance) is
//! mapped into the box, and any dimension falling outside — especially
//! below — indicates an anomaly such as a broken node. The paper's
//! prototype demonstrates a one-dimensional simplification using
//! `ior-easy` and `ior-hard`; this implementation supports any subset of
//! test cases.

use iokc_core::ctx::PhaseCtx;
use iokc_core::model::{Io500Knowledge, KnowledgeItem};
use iokc_core::phases::{Analyzer, CycleError, Finding};
use iokc_util::stats;
use std::collections::BTreeMap;

/// Expected range for one test case, learned from reference runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Lowest reference value.
    pub min: f64,
    /// Highest reference value.
    pub max: f64,
    /// Mean of reference values.
    pub mean: f64,
    /// Tolerance margin applied on membership tests (fraction of mean).
    pub margin: f64,
}

impl Bound {
    /// Membership with margin.
    #[must_use]
    pub fn contains(&self, value: f64) -> bool {
        let slack = self.mean * self.margin;
        value >= self.min - slack && value <= self.max + slack
    }
}

/// Where a value landed relative to a bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the expectation box.
    Inside,
    /// Below — the anomalous direction for performance metrics.
    Below,
    /// Above — better than expected (suspicious for caching effects).
    Above,
}

/// The multi-dimensional bounding box.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BoundingBox {
    bounds: BTreeMap<String, Bound>,
}

impl BoundingBox {
    /// Learn a box from reference runs, using `testcases` as dimensions
    /// (empty slice = every test case present in the references).
    /// `margin` is the tolerated fractional slack (e.g. `0.1`).
    #[must_use]
    pub fn fit(references: &[&Io500Knowledge], testcases: &[&str], margin: f64) -> BoundingBox {
        let mut series: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for reference in references {
            for tc in &reference.testcases {
                if testcases.is_empty() || testcases.contains(&tc.name.as_str()) {
                    series.entry(tc.name.clone()).or_default().push(tc.value);
                }
            }
        }
        let bounds = series
            .into_iter()
            .map(|(name, values)| {
                (
                    name,
                    Bound {
                        min: stats::min(&values),
                        max: stats::max(&values),
                        mean: stats::mean(&values),
                        margin,
                    },
                )
            })
            .collect();
        BoundingBox { bounds }
    }

    /// Dimensions of the box.
    #[must_use]
    pub fn dimensions(&self) -> Vec<&str> {
        self.bounds.keys().map(String::as_str).collect()
    }

    /// Bound of one dimension.
    #[must_use]
    pub fn bound(&self, testcase: &str) -> Option<&Bound> {
        self.bounds.get(testcase)
    }

    /// Map a run into the box: verdict per shared dimension.
    #[must_use]
    pub fn check(&self, run: &Io500Knowledge) -> Vec<(String, f64, Verdict)> {
        let mut verdicts = Vec::new();
        for tc in &run.testcases {
            let Some(bound) = self.bounds.get(&tc.name) else {
                continue;
            };
            let verdict = if bound.contains(tc.value) {
                Verdict::Inside
            } else if tc.value < bound.min {
                Verdict::Below
            } else {
                Verdict::Above
            };
            verdicts.push((tc.name.clone(), tc.value, verdict));
        }
        verdicts
    }

    /// Render the paper's simplified one-dimensional view: each dimension
    /// as `name [min … max] value MARK`.
    #[must_use]
    pub fn render_check(&self, run: &Io500Knowledge) -> String {
        let mut out = String::new();
        out.push_str("bounding box check\n");
        for (name, value, verdict) in self.check(run) {
            let bound = &self.bounds[&name];
            let mark = match verdict {
                Verdict::Inside => "ok",
                Verdict::Below => "BELOW EXPECTATION",
                Verdict::Above => "above expectation",
            };
            out.push_str(&format!(
                "  {name:<22} [{:>10.4} … {:>10.4}] got {value:>10.4} {mark}\n",
                bound.min, bound.max
            ));
        }
        out
    }
}

/// The two-dimensional expectation box of Liem et al.: the bandwidth
/// score (from ior-easy/ior-hard) spans one axis, the metadata score
/// (from mdtest-easy/hard) the other, and an application's (bw, md)
/// point is mapped into the rectangle to judge whether its performance
/// is realistic for the system.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectationBox2D {
    /// Bandwidth-axis bound (GiB/s).
    pub bw: Bound,
    /// Metadata-axis bound (kIOPS).
    pub md: Bound,
}

impl ExpectationBox2D {
    /// Fit the rectangle from reference runs' scores.
    #[must_use]
    pub fn fit(references: &[&Io500Knowledge], margin: f64) -> Option<ExpectationBox2D> {
        if references.is_empty() {
            return None;
        }
        let bws: Vec<f64> = references.iter().map(|r| r.bw_score).collect();
        let mds: Vec<f64> = references.iter().map(|r| r.md_score).collect();
        Some(ExpectationBox2D {
            bw: Bound {
                min: stats::min(&bws),
                max: stats::max(&bws),
                mean: stats::mean(&bws),
                margin,
            },
            md: Bound {
                min: stats::min(&mds),
                max: stats::max(&mds),
                mean: stats::mean(&mds),
                margin,
            },
        })
    }

    /// Judge a (bandwidth, metadata) point. Returns a verdict per axis.
    #[must_use]
    pub fn check_point(&self, bw: f64, md: f64) -> (Verdict, Verdict) {
        let axis = |bound: &Bound, value: f64| {
            if bound.contains(value) {
                Verdict::Inside
            } else if value < bound.min {
                Verdict::Below
            } else {
                Verdict::Above
            }
        };
        (axis(&self.bw, bw), axis(&self.md, md))
    }
}

/// An [`Analyzer`] that fits a box on all but the newest IO500 run and
/// checks the newest run against it.
#[derive(Debug, Clone)]
pub struct BoundingBoxDetector {
    /// Dimensions (empty = all).
    pub testcases: Vec<String>,
    /// Fractional slack.
    pub margin: f64,
}

impl Default for BoundingBoxDetector {
    fn default() -> BoundingBoxDetector {
        BoundingBoxDetector {
            testcases: vec![
                "ior-easy-write".to_owned(),
                "ior-easy-read".to_owned(),
                "ior-hard-write".to_owned(),
                "ior-hard-read".to_owned(),
            ],
            margin: 0.15,
        }
    }
}

impl Analyzer for BoundingBoxDetector {
    fn name(&self) -> &str {
        "io500-bounding-box"
    }

    fn analyze(
        &self,
        _ctx: &mut PhaseCtx,
        items: &[KnowledgeItem],
    ) -> Result<Vec<Finding>, CycleError> {
        let runs: Vec<&Io500Knowledge> = items
            .iter()
            .filter_map(|item| match item {
                KnowledgeItem::Io500(k) => Some(k),
                KnowledgeItem::Benchmark(_) => None,
            })
            .collect();
        if runs.len() < 2 {
            return Ok(Vec::new());
        }
        let (subject, references) = runs.split_last().expect("len >= 2");
        let names: Vec<&str> = self.testcases.iter().map(String::as_str).collect();
        let bbox = BoundingBox::fit(references, &names, self.margin);
        let mut findings = Vec::new();
        for (name, value, verdict) in bbox.check(subject) {
            if verdict == Verdict::Inside {
                continue;
            }
            let bound = bbox.bound(&name).expect("checked dimension exists");
            findings.push(Finding {
                tag: "bounding-box".to_owned(),
                knowledge_id: subject.id,
                message: format!(
                    "{name} = {value:.4} falls {} the expectation box [{:.4} … {:.4}]",
                    if verdict == Verdict::Below {
                        "below"
                    } else {
                        "above"
                    },
                    bound.min,
                    bound.max
                ),
                values: vec![value, bound.min, bound.max],
            });
        }
        Ok(findings)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests2d {
    use super::*;
    use iokc_core::model::Io500Knowledge;

    fn scored(bw: f64, md: f64) -> Io500Knowledge {
        Io500Knowledge {
            id: None,
            tasks: 40,
            bw_score: bw,
            md_score: md,
            total_score: (bw * md).sqrt(),
            testcases: Vec::new(),
            options: Default::default(),
            system: None,
            start_time: 0,
            warnings: Vec::new(),
        }
    }

    #[test]
    fn rectangle_classifies_points_per_axis() {
        let refs = [scored(1.0, 10.0), scored(1.2, 12.0), scored(0.9, 11.0)];
        let ref_refs: Vec<&Io500Knowledge> = refs.iter().collect();
        let bbox = ExpectationBox2D::fit(&ref_refs, 0.05).unwrap();
        // A well-tuned application inside the box on both axes.
        assert_eq!(
            bbox.check_point(1.1, 11.0),
            (Verdict::Inside, Verdict::Inside)
        );
        // Bandwidth fine, metadata collapsed (too many tiny files).
        assert_eq!(
            bbox.check_point(1.0, 2.0),
            (Verdict::Inside, Verdict::Below)
        );
        // Suspiciously fast bandwidth (cache artifact).
        assert_eq!(
            bbox.check_point(5.0, 11.0),
            (Verdict::Above, Verdict::Inside)
        );
        assert!(ExpectationBox2D::fit(&[], 0.1).is_none());
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn test_ctx() -> PhaseCtx {
        PhaseCtx::detached(iokc_core::phases::PhaseKind::Analysis, "test")
    }
    use iokc_core::model::Io500Testcase;

    fn run(easy_w: f64, easy_r: f64, hard_w: f64, hard_r: f64) -> Io500Knowledge {
        Io500Knowledge {
            id: None,
            tasks: 40,
            bw_score: 0.0,
            md_score: 0.0,
            total_score: 0.0,
            testcases: vec![
                tc("ior-easy-write", easy_w),
                tc("ior-easy-read", easy_r),
                tc("ior-hard-write", hard_w),
                tc("ior-hard-read", hard_r),
            ],
            options: Default::default(),
            system: None,
            start_time: 0,
            warnings: Vec::new(),
        }
    }

    fn tc(name: &str, value: f64) -> Io500Testcase {
        Io500Testcase {
            name: name.into(),
            value,
            unit: "GiB/s".into(),
            time_s: 1.0,
        }
    }

    fn references() -> Vec<Io500Knowledge> {
        vec![
            run(2.4, 2.6, 0.10, 0.40),
            run(2.6, 2.65, 0.14, 0.41),
            run(2.5, 2.62, 0.09, 0.39),
        ]
    }

    #[test]
    fn fit_and_membership() {
        let refs = references();
        let ref_refs: Vec<&Io500Knowledge> = refs.iter().collect();
        let bbox = BoundingBox::fit(&ref_refs, &[], 0.1);
        assert_eq!(bbox.dimensions().len(), 4);
        let b = bbox.bound("ior-easy-write").unwrap();
        assert_eq!(b.min, 2.4);
        assert_eq!(b.max, 2.6);
        assert!(b.contains(2.5));
        assert!(b.contains(2.65), "within 10% slack");
        assert!(!b.contains(1.0));
    }

    #[test]
    fn broken_node_read_detected_below_box() {
        // Fig. 6: write variance is large; the degraded run's ior-easy
        // read collapses.
        let refs = references();
        let ref_refs: Vec<&Io500Knowledge> = refs.iter().collect();
        let bbox = BoundingBox::fit(&ref_refs, &[], 0.1);
        let degraded = run(2.45, 0.9, 0.11, 0.40);
        let verdicts = bbox.check(&degraded);
        let easy_read = verdicts
            .iter()
            .find(|(name, _, _)| name == "ior-easy-read")
            .unwrap();
        assert_eq!(easy_read.2, Verdict::Below);
        let easy_write = verdicts
            .iter()
            .find(|(name, _, _)| name == "ior-easy-write")
            .unwrap();
        assert_eq!(easy_write.2, Verdict::Inside);
    }

    #[test]
    fn above_detected_for_suspicious_speedups() {
        let refs = references();
        let ref_refs: Vec<&Io500Knowledge> = refs.iter().collect();
        let bbox = BoundingBox::fit(&ref_refs, &[], 0.05);
        let cached = run(2.5, 9.9, 0.1, 0.4);
        let verdicts = bbox.check(&cached);
        assert!(verdicts
            .iter()
            .any(|(n, _, v)| n == "ior-easy-read" && *v == Verdict::Above));
    }

    #[test]
    fn render_marks_violations() {
        let refs = references();
        let ref_refs: Vec<&Io500Knowledge> = refs.iter().collect();
        let bbox = BoundingBox::fit(&ref_refs, &[], 0.1);
        let text = bbox.render_check(&run(2.45, 0.9, 0.11, 0.40));
        assert!(text.contains("ior-easy-read"));
        assert!(text.contains("BELOW EXPECTATION"));
        assert!(text.contains("ior-easy-write"));
    }

    #[test]
    fn analyzer_checks_newest_against_rest() {
        let mut items: Vec<KnowledgeItem> =
            references().into_iter().map(KnowledgeItem::Io500).collect();
        items.push(KnowledgeItem::Io500(run(2.45, 0.9, 0.11, 0.40)));
        let findings = BoundingBoxDetector::default()
            .analyze(&mut test_ctx(), &items)
            .unwrap();
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("ior-easy-read"));
        assert!(findings[0].message.contains("below"));
    }

    #[test]
    fn analyzer_needs_two_runs() {
        let items = vec![KnowledgeItem::Io500(run(1.0, 1.0, 1.0, 1.0))];
        assert!(BoundingBoxDetector::default()
            .analyze(&mut test_ctx(), &items)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn unknown_dimensions_ignored_on_check() {
        let refs = references();
        let ref_refs: Vec<&Io500Knowledge> = refs.iter().collect();
        let bbox = BoundingBox::fit(&ref_refs, &["ior-easy-write"], 0.1);
        let verdicts = bbox.check(&run(2.5, 0.1, 0.1, 0.1));
        assert_eq!(verdicts.len(), 1, "only the fitted dimension is checked");
    }
}
