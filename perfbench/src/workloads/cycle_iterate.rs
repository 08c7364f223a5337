//! `cycle_iterate`: the paper's path. One long-lived `KnowledgeCycle`
//! (IOR generator over the simulator, IOR extractor, file-backed store,
//! two analyzers, regenerate-usage) iterated over a growing store.

use super::{
    account_device, attach_registry, read_store_registry, reopen_and_fsck, timed, Ctx, Round,
    StoreFs, Workload, DEFAULT_SEAL_THRESHOLD,
};
use crate::adapters::{SharedStore, Traced};
use crate::synth;
use crate::vfs::VfsCounts;
use iokc_analysis::{IterationVarianceDetector, TrendDetector};
use iokc_benchmarks::{IorConfig, IorGenerator};
use iokc_core::cycle::ModuleBox;
use iokc_core::phases::{Persister, PhaseKind};
use iokc_core::{KnowledgeCycle, PhaseCtx};
use iokc_extract::IorExtractor;
use iokc_sim::engine::{JobLayout, World};
use iokc_sim::faults::FaultPlan;
use iokc_sim::prelude::SystemConfig;
use iokc_usage::RegenerateUsage;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// The IOR run every iteration generates.
pub const COMMAND: &str = "ior -a mpiio -b 1m -t 256k -s 2 -F -C -e -i 2 -o /scratch/perf -k";

/// See the module docs.
pub struct CycleIterate {
    config: IorConfig,
}

impl CycleIterate {
    fn run(&self, ctx: &Ctx, iterations: usize) -> Round {
        let mut round = Round::default();
        let tracer = &ctx.tracer;
        let fs = StoreFs::pristine();
        let mut store = fs.open(DEFAULT_SEAL_THRESHOLD);
        let registry = ctx.trace_run.then(|| attach_registry(&mut store));
        let store = Rc::new(RefCell::new(store));
        let loaded = Rc::new(Cell::new(0u64));

        let world = World::new(SystemConfig::test_small(), FaultPlan::none(), ctx.seed);
        let generator =
            IorGenerator::new(world, JobLayout::new(4, 2), self.config.clone(), ctx.seed);
        let mut cycle = KnowledgeCycle::new();
        cycle
            .register(ModuleBox::generator(Traced::new(
                generator,
                tracer,
                "benchmarks.generate",
            )))
            .register(ModuleBox::extractor(Traced::new(
                IorExtractor,
                tracer,
                "extract.ior",
            )))
            .register(ModuleBox::persister(SharedStore::new(
                &store, tracer, &loaded,
            )))
            .register(ModuleBox::analyzer(Traced::new(
                IterationVarianceDetector::default(),
                tracer,
                "analysis",
            )))
            .register(ModuleBox::analyzer(Traced::new(
                TrendDetector::default(),
                tracer,
                "analysis",
            )))
            .register(ModuleBox::usage(Traced::new(
                RegenerateUsage::default(),
                tracer,
                "usage",
            )));

        let mut extracted = 0u64;
        let mut findings = 0u64;
        let ((), main_s) = timed(|| {
            for _ in 0..iterations {
                tracer.next_op();
                let (report, secs) = timed(|| tracer.span("core.cycle", || cycle.run_once()));
                round.op_ms.push(secs * 1e3);
                let ok = report.as_ref().is_ok_and(|r| {
                    extracted += r.extracted as u64;
                    findings += r.findings.len() as u64;
                    r.extracted == 1 && r.persisted_ids.len() == 1
                });
                round.check(ok, "iteration extracts and persists one item");
            }
        });
        round.main_s = main_s;
        round.ops = iterations as u64;
        drop(cycle);
        if let Some(registry) = &registry {
            read_store_registry(registry, &mut round);
        }
        drop(store);

        let store = reopen_and_fsck(ctx, &fs, DEFAULT_SEAL_THRESHOLD, &mut round);
        tracer.next_op();
        let mut pctx = PhaseCtx::detached(PhaseKind::Analysis, "perf-readback");
        let (items, secs) = timed(|| tracer.span("store.readback", || store.load_all(&mut pctx)));
        let items = items.unwrap_or_default();
        round.readback_s = secs;
        round.readback_rows = items.len() as u64;
        round.check(
            items.len() == iterations && store.knowledge_count() == iterations,
            "one knowledge object per iteration reads back after reopen",
        );
        round.user_bytes = synth::user_bytes(&items);
        round.live_user_bytes = round.user_bytes;
        account_device(&fs, VfsCounts::default(), &mut round);
        round.counts.insert("extract.items", extracted as f64);
        round.counts.insert("analysis.findings", findings as f64);
        round
            .counts
            .insert("store.load_all.items", loaded.get() as f64);
        round.store = Some(store);
        round
    }
}

impl Workload for CycleIterate {
    /// Parse the command and run a short warm-up cycle on a scratch
    /// store, so lazy initialisation is paid before the first round.
    fn setup(ctx: &Ctx) -> CycleIterate {
        let workload = CycleIterate {
            config: IorConfig::parse_command(COMMAND).expect("benchmark command parses"),
        };
        let warmup = workload.run(ctx, ctx.scale.cycle_warmup);
        assert_eq!(warmup.failed, 0, "warm-up cycle must be healthy");
        workload
    }

    fn round(&mut self, ctx: &Ctx) -> Round {
        self.run(ctx, ctx.scale.cycle_iterations)
    }
}
