//! `iokc-core` — the I/O knowledge cycle.
//!
//! This crate is the paper's primary contribution: a generic, modular,
//! tool-agnostic workflow for generating, extracting, persisting,
//! analyzing and using I/O knowledge (Zhu, Neuwirth, Lippert — IEEE
//! CLUSTER 2022). It defines
//!
//! * the [`model`] — the *knowledge object* (§V-B): I/O pattern
//!   parameters, per-operation summaries, individual iteration results,
//!   file-system settings and system statistics, plus the separate IO500
//!   knowledge object — with a stable JSON interchange form;
//! * the [`phases`] — one trait per phase of Fig. 2 (generation,
//!   extraction, persistence, analysis, usage), connected only through
//!   data types so that any tool can plug in;
//! * the [`cycle`] — the orchestrator and module registry realising the
//!   modular architecture of Fig. 4, with iterative re-generation driven
//!   by the usage phase's outcomes;
//! * the [`resilience`] layer — an error taxonomy (transient vs.
//!   permanent), deterministic seeded retry with virtual-time backoff,
//!   per-phase deadlines, and quarantine of repeatedly failing modules,
//!   so long sweeps degrade instead of aborting.
//!
//! Everything concrete — benchmark generators over the cluster simulator,
//! output parsers, the relational store, the knowledge explorer, the
//! recommendation/prediction modules — lives in sibling crates and plugs
//! into these traits.

//!
//! Every phase-trait method receives a [`PhaseCtx`] carrying the module's
//! identity, attempt number, open span, and handles to the cycle's
//! recorder (spans, metrics, virtual clock) and cancel token — see the
//! [`ctx`] module and the `iokc-obs` crate.
//!
//! A minimal cycle with inline modules:
//!
//! ```
//! use iokc_core::ctx::PhaseCtx;
//! use iokc_core::cycle::ModuleBox;
//! use iokc_core::model::{Knowledge, KnowledgeItem, KnowledgeSource};
//! use iokc_core::phases::*;
//! use iokc_core::KnowledgeCycle;
//!
//! struct Gen;
//! impl Generator for Gen {
//!     fn name(&self) -> &str { "demo-gen" }
//!     fn generate(&mut self, _ctx: &mut PhaseCtx) -> Result<Vec<Artifact>, CycleError> {
//!         Ok(vec![Artifact::text(ArtifactKind::IorOutput, "out", "bw 42".into())])
//!     }
//! }
//! struct Ext;
//! impl Extractor for Ext {
//!     fn name(&self) -> &str { "demo-ext" }
//!     fn accepts(&self, a: &Artifact) -> bool { a.kind == ArtifactKind::IorOutput }
//!     fn extract(
//!         &self,
//!         _ctx: &mut PhaseCtx,
//!         a: &[&Artifact],
//!     ) -> Result<Vec<KnowledgeItem>, CycleError> {
//!         Ok(a.iter()
//!             .map(|_| KnowledgeItem::Benchmark(Knowledge::new(KnowledgeSource::Ior, "ior")))
//!             .collect())
//!     }
//! }
//!
//! let mut cycle = KnowledgeCycle::new();
//! cycle.register(ModuleBox::generator(Gen)).register(ModuleBox::extractor(Ext));
//! let report = cycle.run_once().unwrap();
//! assert_eq!(report.extracted, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod ctx;
pub mod cycle;
pub mod model;
pub mod phases;
pub mod resilience;

pub use ctx::{Observability, PhaseCtx};
pub use cycle::{CycleReport, KnowledgeCycle, ModuleBox, PhaseModule};
pub use model::{
    FilesystemInfo, Io500Knowledge, Io500Testcase, IoPattern, IterationResult, Knowledge,
    KnowledgeItem, KnowledgeSource, OperationSummary, SystemInfo,
};
pub use phases::{
    Analyzer, Artifact, ArtifactKind, CycleError, ErrorClass, Extractor, Finding, Generator,
    Payload, Persister, PhaseKind, UsageModule, UsageOutcome,
};
pub use resilience::{
    AttemptOutcome, AttemptRecord, QuarantineBook, ResilienceConfig, RetryPolicy,
};
