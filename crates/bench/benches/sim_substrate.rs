//! Substrate benches: the max–min flow solver, the event engine on the
//! 4-node test cluster, and whole corpus points on clusters the size of
//! the paper's (DESIGN.md §6). The 4-node tiers alone hide every cost
//! that grows with the cluster: their capacity space has 13 entries
//! where FUCHS-CSC has 211.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iokc_benchmarks::CorpusSpec;
use iokc_sim::engine::{JobLayout, World};
use iokc_sim::faults::FaultPlan;
use iokc_sim::flow::{FlowPath, RateSolver};
use iokc_sim::prelude::{OpenMode, ScriptSet, SystemConfig};
use iokc_sim::rng::Rng;
use std::hint::black_box;

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_solver");
    for &nflows in &[16usize, 64, 256, 1024] {
        let nres = 64u32;
        let mut rng = Rng::seed_from(9);
        let capacities: Vec<f64> = (0..nres).map(|_| rng.uniform(1e8, 1e10)).collect();
        let flows: Vec<FlowPath> = (0..nflows)
            .map(|_| {
                FlowPath::new(vec![
                    rng.next_below(u64::from(nres)) as u32,
                    rng.next_below(u64::from(nres)) as u32,
                    rng.next_below(u64::from(nres)) as u32,
                ])
            })
            .collect();
        // One solver across solves, its buffers kept, as the engine runs it.
        let mut solver = RateSolver::default();
        let capacity = |r: u32| capacities[r as usize];
        group.bench_with_input(BenchmarkId::new("maxmin", nflows), &nflows, |b, _| {
            b.iter(|| black_box(solver.solve(flows.iter(), capacity).sum::<f64>()));
        });
    }
    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.sample_size(20);

    group.bench_function("write_phase_16ranks_64MiB", |b| {
        b.iter(|| {
            let mut world = World::new(SystemConfig::test_small(), FaultPlan::none(), 4);
            let mut scripts = ScriptSet::new(16);
            for rank in 0..16u32 {
                let path = format!("/scratch/b{rank}");
                scripts.rank(rank).open(&path, OpenMode::Write);
                for i in 0..4u64 {
                    scripts.rank(rank).write(&path, i << 20, 1 << 20);
                }
                scripts.rank(rank).close(&path).barrier();
            }
            let result = world.run(JobLayout::new(16, 4), &scripts).unwrap();
            black_box(result.finished)
        });
    });

    group.bench_function("metadata_phase_2000_creates", |b| {
        b.iter(|| {
            let mut world = World::new(SystemConfig::test_small(), FaultPlan::none(), 5);
            let mut scripts = ScriptSet::new(4);
            for rank in 0..4u32 {
                let dir = format!("/scratch/md{rank}");
                scripts.rank(rank).mkdir(&dir);
                for i in 0..500u32 {
                    let path = format!("{dir}/f{i}");
                    scripts.rank(rank).open(&path, OpenMode::Write);
                    scripts.rank(rank).close(&path);
                }
            }
            let result = world.run(JobLayout::new(4, 2), &scripts).unwrap();
            black_box(result.finished)
        });
    });

    group.finish();
}

/// Points 0..27 of a corpus: every cluster shape (198, 32 and 8 nodes) ×
/// PFS variant once at each rank count (4, 8 and 16), each a full
/// 12-phase IO500 run — what `cycle_corpus` spends its time in.
fn bench_corpus(c: &mut Criterion) {
    let mut group = c.benchmark_group("corpus");
    group.sample_size(20);
    let spec = CorpusSpec::new(27, 1);
    group.bench_function("corpus_points_0_to_26", |b| {
        b.iter(|| {
            for index in 0..27 {
                black_box(spec.execute(index).unwrap());
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_solver, bench_engine, bench_corpus);
criterion_main!(benches);
