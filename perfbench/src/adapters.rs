//! Phase-trait adapters: the real modules, each call under a span.
//!
//! The cycle only knows the five phase traits, so wrapping a module in
//! [`Traced`] measures it from outside without touching it. The
//! persister adapter also shares the store with the driver, which needs
//! it back after the cycle is done.

use crate::trace::Tracer;
use iokc_core::ctx::PhaseCtx;
use iokc_core::model::KnowledgeItem;
use iokc_core::phases::{
    Analyzer, Artifact, CycleError, Extractor, Finding, Generator, Persister, UsageModule,
    UsageOutcome,
};
use iokc_store::KnowledgeStore;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// A phase module whose calls are recorded as spans named `span`.
pub struct Traced<M> {
    inner: M,
    tracer: Rc<Tracer>,
    span: &'static str,
}

impl<M> Traced<M> {
    /// Wrap `inner`.
    pub fn new(inner: M, tracer: &Rc<Tracer>, span: &'static str) -> Traced<M> {
        Traced {
            inner,
            tracer: Rc::clone(tracer),
            span,
        }
    }
}

impl<G: Generator> Generator for Traced<G> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn generate(&mut self, ctx: &mut PhaseCtx) -> Result<Vec<Artifact>, CycleError> {
        let inner = &mut self.inner;
        self.tracer.span(self.span, || inner.generate(ctx))
    }

    fn reconfigure(&mut self, command: &str) -> bool {
        self.inner.reconfigure(command)
    }
}

impl<E: Extractor> Extractor for Traced<E> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn accepts(&self, artifact: &Artifact) -> bool {
        self.inner.accepts(artifact)
    }

    fn extract(
        &self,
        ctx: &mut PhaseCtx,
        artifacts: &[&Artifact],
    ) -> Result<Vec<KnowledgeItem>, CycleError> {
        self.tracer
            .span(self.span, || self.inner.extract(ctx, artifacts))
    }
}

impl<A: Analyzer> Analyzer for Traced<A> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn analyze(
        &self,
        ctx: &mut PhaseCtx,
        items: &[KnowledgeItem],
    ) -> Result<Vec<Finding>, CycleError> {
        self.tracer
            .span(self.span, || self.inner.analyze(ctx, items))
    }
}

impl<U: UsageModule> UsageModule for Traced<U> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn apply(
        &mut self,
        ctx: &mut PhaseCtx,
        items: &[KnowledgeItem],
        findings: &[Finding],
    ) -> Result<UsageOutcome, CycleError> {
        let inner = &mut self.inner;
        self.tracer
            .span(self.span, || inner.apply(ctx, items, findings))
    }
}

/// The store as the cycle's persister, shared with the driver. Spans:
/// `store.persist`, `store.load_all`.
pub struct SharedStore {
    store: Rc<RefCell<KnowledgeStore>>,
    tracer: Rc<Tracer>,
    name: String,
    loaded: Rc<Cell<u64>>,
}

impl SharedStore {
    /// Share `store` between the cycle and the driver; `loaded` counts
    /// the items `load_all` hands to analysis.
    pub fn new(
        store: &Rc<RefCell<KnowledgeStore>>,
        tracer: &Rc<Tracer>,
        loaded: &Rc<Cell<u64>>,
    ) -> SharedStore {
        SharedStore {
            name: Persister::name(&*store.borrow()).to_owned(),
            store: Rc::clone(store),
            tracer: Rc::clone(tracer),
            loaded: Rc::clone(loaded),
        }
    }
}

impl Persister for SharedStore {
    fn name(&self) -> &str {
        &self.name
    }

    fn persist(
        &mut self,
        ctx: &mut PhaseCtx,
        items: &[KnowledgeItem],
    ) -> Result<Vec<u64>, CycleError> {
        self.tracer.span("store.persist", || {
            self.store.borrow_mut().persist(ctx, items)
        })
    }

    fn load_all(&self, ctx: &mut PhaseCtx) -> Result<Vec<KnowledgeItem>, CycleError> {
        let items = self
            .tracer
            .span("store.load_all", || self.store.borrow().load_all(ctx))?;
        self.loaded.set(self.loaded.get() + items.len() as u64);
        Ok(items)
    }
}
