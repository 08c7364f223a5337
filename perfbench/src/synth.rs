//! Seeded inputs: the one synthetic-`Knowledge` generator and the IO500
//! item pool. The seed drives these inputs and nothing else; the
//! program under test only ever sees what is generated here.

use crate::trace::Tracer;
use iokc_benchmarks::CorpusSpec;
use iokc_core::ctx::PhaseCtx;
use iokc_core::model::{
    IterationResult, Knowledge, KnowledgeItem, KnowledgeSource, OperationSummary,
};
use iokc_core::phases::{Artifact, ArtifactKind, Extractor, PhaseKind};
use iokc_extract::Io500Extractor;

/// splitmix64: one well-mixed word per input word.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator (xorshift64*), for request mixes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeded; a zero state is avoided.
    pub fn new(seed: u64) -> Rng {
        Rng(mix(seed) | 1)
    }

    /// The next word.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The I/O interfaces synthetic runs are spread over.
pub const APIS: [&str; 3] = ["POSIX", "MPIIO", "HDF5"];
const TRANSFERS: [u64; 5] = [256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20];

/// One synthetic IOR run, a pure function of `(seed, i)`: two operation
/// summaries and four per-iteration results, so that serialising,
/// indexing and deserialising it have a real cost. Values keep two
/// decimals so the serialised size barely depends on the seed.
pub fn knowledge(seed: u64, i: usize) -> Knowledge {
    let r = mix(seed ^ mix(i as u64));
    let api = APIS[(r % 3) as usize];
    let tasks = 1 + ((r >> 8) % 128) as u32;
    let block_mib = 1 + (r >> 16) % 16;
    let transfer = TRANSFERS[((r >> 24) % 5) as usize];
    let bw = 200.0 + ((r >> 32) % 300_000) as f64 / 100.0;
    let command = format!(
        "ior -a {} -b {block_mib}m -t {}k -o /scratch/perf{i}",
        api.to_lowercase(),
        transfer >> 10
    );
    let mut k = Knowledge::new(KnowledgeSource::Ior, &command);
    k.pattern.api = api.to_owned();
    k.pattern.tasks = tasks;
    k.pattern.clients_per_node = 1 + tasks % 4;
    k.pattern.block_size = block_mib << 20;
    k.pattern.transfer_size = transfer;
    k.pattern.segments = 1 + (r >> 40) % 8;
    k.pattern.iterations = 2;
    k.start_time = 1_656_590_400 + i as u64;
    k.end_time = k.start_time + 60;
    for (op, factor) in [("write", 1.0), ("read", 1.25)] {
        let mean = (bw * factor * 100.0).round() / 100.0;
        k.summaries.push(OperationSummary {
            operation: op.to_owned(),
            api: api.to_owned(),
            max_mib: mean + 12.5,
            min_mib: mean - 12.5,
            mean_mib: mean,
            stddev_mib: 12.5,
            mean_ops: mean / 2.0,
            iterations: 2,
        });
        for (iteration, delta) in [(0u32, -12.5), (1, 12.5)] {
            k.results.push(IterationResult {
                operation: op.to_owned(),
                iteration,
                bw_mib: mean + delta,
                ops: 4096,
                ops_per_sec: mean / 2.0,
                latency_s: 0.001,
                open_s: 0.002,
                wrrd_s: 1.5,
                close_s: 0.003,
                total_s: 1.505,
            });
        }
    }
    k
}

/// Execute corpus point `index` on the simulator and extract its IO500
/// knowledge: the `iokc corpus gen` path for one point. Spans:
/// `benchmarks.execute`, `extract.io500`.
pub fn corpus_point(
    spec: &CorpusSpec,
    index: usize,
    ctx: &mut PhaseCtx,
    tracer: &Tracer,
) -> Vec<KnowledgeItem> {
    let run = tracer.span("benchmarks.execute", || {
        spec.execute(index).expect("corpus point executes")
    });
    let mut artifact = Artifact::text(
        ArtifactKind::Io500Output,
        &format!("corpus-{index}.txt"),
        run.output.clone(),
    )
    .with_meta("tasks", &run.point.tasks.to_string())
    .with_meta("start_time", &run.start_time.to_string())
    .with_meta("system", &format!("sim-{}", run.point.shape));
    for (key, value) in run.point.params() {
        artifact = artifact.with_meta(&key, &value);
    }
    tracer.span("extract.io500", || {
        Io500Extractor
            .extract(ctx, &[&artifact])
            .expect("io500 output extracts")
    })
}

/// `n` IO500 items from the first `n` corpus points of `seed`.
pub fn io500_pool(seed: u64, n: usize, tracer: &Tracer) -> Vec<KnowledgeItem> {
    let spec = CorpusSpec::new(n, seed);
    let mut ctx = PhaseCtx::detached(PhaseKind::Extraction, "perf-pool");
    (0..n)
        .flat_map(|i| corpus_point(&spec, i, &mut ctx, tracer))
        .collect()
}

/// Items `from..to` of the mixed stream the store workloads ingest:
/// synthetic IOR runs, every eighth an IO500 item cycled from `pool`.
pub fn items(seed: u64, pool: &[KnowledgeItem], from: usize, to: usize) -> Vec<KnowledgeItem> {
    (from..to)
        .map(|i| {
            if i % 8 == 7 && !pool.is_empty() {
                pool[(i / 8) % pool.len()].clone()
            } else {
                KnowledgeItem::Benchmark(knowledge(seed, i))
            }
        })
        .collect()
}

/// Bytes of user data in `items`: the compact JSON interchange form.
pub fn user_bytes(items: &[KnowledgeItem]) -> u64 {
    items
        .iter()
        .map(|item| item.to_json().to_compact().len() as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(knowledge(7, 3), knowledge(7, 3));
        assert_ne!(knowledge(7, 3), knowledge(8, 3));
        assert_ne!(knowledge(7, 3), knowledge(7, 4));
        let mut a = Rng::new(1);
        let mut b = Rng::new(1);
        assert_eq!(a.next_u64(), b.next_u64());
        assert!(a.unit() < 1.0);
        assert!(a.below(10) < 10);
    }

    #[test]
    fn every_eighth_item_comes_from_the_pool() {
        let tracer = Tracer::new();
        let pool = io500_pool(5, 2, &tracer);
        assert_eq!(pool.len(), 2);
        let batch = items(5, &pool, 0, 16);
        let io500: Vec<usize> = batch
            .iter()
            .enumerate()
            .filter(|(_, item)| matches!(item, KnowledgeItem::Io500(_)))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(io500, vec![7, 15]);
        assert!(user_bytes(&batch) > 16 * 500);
    }
}
