//! The `/api/*` bodies of one seeded store, pinned by their FNV-1a 64.
//!
//! Every number in a body goes through `util::json`'s one number
//! writer, whether the body is a `Json` tree (`/api/runs/{id}`,
//! `/api/agg`, `/api/dist`) or written field by field (`/api/runs`,
//! `/api/compare`). The rows here hold fractional REALs of every length
//! the corpus produces (1, 2, 3 and 6 fractional digits, and full
//! 15–17 digit values), integral REALs, non-finite scores and strings
//! that need escapes, some of them read back from sealed segments. A
//! writer that changes any byte of any of them fails here.
#![cfg(test)]

use std::path::PathBuf;
use std::sync::{Arc, RwLock};

use iokc_core::model::{
    Io500Knowledge, IterationResult, Knowledge, KnowledgeItem, KnowledgeSource, OperationSummary,
};
use iokc_explorerd::http::pull_chunk;
use iokc_explorerd::{Explorer, Request, Response};
use iokc_obs::{DeadlineToken, Recorder};
use iokc_store::vfs::{FaultVfs, Vfs};
use iokc_store::KnowledgeStore;

/// xorshift64*: the values of the store, from one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// A positive REAL below 10^5 with 1, 2, 3 or 6 fractional digits,
    /// an integral one, or one with every digit a double carries.
    fn real(&mut self) -> f64 {
        let n = (self.next() % 100_000_000) as f64;
        match self.next() % 6 {
            0 => n / 10.0,
            1 => n / 100.0,
            2 => n / 1000.0,
            3 => n / 1e6,
            4 => (n / 1000.0).floor(),
            _ => n / 3.0 * 1.000_000_1,
        }
    }
}

fn benchmark(rng: &mut Rng, i: u64) -> Knowledge {
    let api = ["POSIX", "MPIIO", "HDF5"][(i % 3) as usize];
    let mut k = Knowledge::new(
        KnowledgeSource::Ior,
        &format!("ior -a {api} -t {}k -o \"/scratch/f\\{i}\"", 1 << (i % 5)),
    );
    k.pattern.api = api.to_owned();
    k.pattern.tasks = 1 << (i % 6);
    k.pattern.transfer_size = 1 << (10 + i % 8);
    k.pattern.block_size = 1 << (20 + i % 4);
    for op in ["write", "read"] {
        let mean = rng.real();
        k.summaries.push(OperationSummary {
            operation: op.to_owned(),
            api: api.to_owned(),
            max_mib: mean * 1.25,
            min_mib: mean * 0.8,
            mean_mib: mean,
            stddev_mib: rng.real() / 7.0,
            mean_ops: rng.real(),
            iterations: 2,
        });
        for iteration in 0..2 {
            k.results.push(IterationResult {
                operation: op.to_owned(),
                iteration,
                bw_mib: rng.real(),
                ops: rng.next() % 1_000_000,
                ops_per_sec: rng.real(),
                latency_s: rng.real() / 1e6,
                open_s: rng.real() / 1e3,
                wrrd_s: rng.real(),
                close_s: rng.real() / 1e4,
                total_s: rng.real(),
            });
        }
    }
    k
}

fn io500(rng: &mut Rng, i: u64) -> Io500Knowledge {
    let bw_score = if i == 7 { f64::INFINITY } else { rng.real() };
    Io500Knowledge {
        id: None,
        tasks: 1 << (i % 5),
        bw_score,
        md_score: rng.real(),
        total_score: if i == 7 { f64::NAN } else { rng.real() },
        testcases: Vec::new(),
        options: std::collections::BTreeMap::new(),
        system: None,
        start_time: 1_700_000_000 + i,
        warnings: Vec::new(),
    }
}

/// 210 runs, seed 42: two sealed segments of 100 runs each, and the
/// last 10 (benchmark ids 168–175) in the active block.
fn explorer() -> Explorer {
    let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::pristine());
    let mut store = KnowledgeStore::open_with_vfs(PathBuf::from("/kb.json"), vfs).expect("open");
    store.set_seal_threshold(100);
    let mut rng = Rng(42);
    let items: Vec<KnowledgeItem> = (0..210)
        .map(|i| {
            if i % 6 == 5 {
                KnowledgeItem::Io500(io500(&mut rng, i))
            } else {
                KnowledgeItem::Benchmark(benchmark(&mut rng, i))
            }
        })
        .collect();
    for batch in items.chunks(40) {
        store.save_batch(batch).expect("save");
    }
    assert_eq!(store.segment_metas().len(), 2, "sealed blocks exist");
    Explorer::new(
        Arc::new(RwLock::new(store)),
        0,
        Arc::new(Recorder::disabled()),
    )
}

/// The de-chunked body of `path?query`, which must answer 200.
fn body(explorer: &Explorer, path: &str, query: &[(&str, &str)]) -> Vec<u8> {
    let request = Request {
        method: "GET".to_owned(),
        path: path.to_owned(),
        query: query
            .iter()
            .map(|&(k, v)| (k.to_owned(), v.to_owned()))
            .collect(),
        keep_alive: false,
        if_none_match: None,
    };
    let response: Response = explorer.handle(&request, &DeadlineToken::unbounded());
    assert_eq!(response.status, 200, "{path}");
    let mut wire = Vec::new();
    let mut source = response.serialize(false, &mut wire);
    while let Some(rest) = source.as_mut() {
        if !pull_chunk(rest.as_mut(), &mut wire) {
            source = None;
        }
    }
    let split = wire
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("head")
        + 4;
    let head = String::from_utf8_lossy(&wire[..split]).to_ascii_lowercase();
    let mut rest = &wire[split..];
    if !head.contains("transfer-encoding: chunked") {
        return rest.to_vec();
    }
    let mut body = Vec::new();
    loop {
        let line = rest.windows(2).position(|w| w == b"\r\n").expect("size");
        let size = usize::from_str_radix(&String::from_utf8_lossy(&rest[..line]), 16)
            .expect("hex chunk size");
        if size == 0 {
            return body;
        }
        body.extend_from_slice(&rest[line + 2..line + 2 + size]);
        rest = &rest[line + 4 + size..];
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Name, path, query, body length and the FNV-1a 64 of the body.
type Case = (
    &'static str,
    &'static str,
    &'static [(&'static str, &'static str)],
    usize,
    u64,
);

#[test]
fn api_bodies_are_pinned() {
    let explorer = explorer();
    // Taken from the writer that printed every fractional REAL through
    // `fmt`.
    let cases: [Case; 6] = [
        (
            "sealed run",
            "/api/runs/3",
            &[],
            1484,
            0xfa96_b542_f267_30e1,
        ),
        (
            "active run",
            "/api/runs/170",
            &[],
            1538,
            0x0f9d_7821_f3b9_d623,
        ),
        (
            "listing",
            "/api/runs",
            &[
                ("sort", "bw"),
                ("order", "desc"),
                ("offset", "10"),
                ("limit", "50"),
            ],
            10421,
            0xbfea_6429_b3a0_d340,
        ),
        (
            "agg",
            "/api/agg",
            &[
                ("group", "api"),
                ("factor", "bw"),
                ("correlate", "bw,tasks"),
            ],
            1499,
            0x8a09_6198_1f59_2e61,
        ),
        (
            "dist",
            "/api/dist",
            &[("group", "tasks"), ("factor", "total_score")],
            1934,
            0xa31c_dbad_f6db_343b,
        ),
        (
            "compare",
            "/api/compare",
            &[("op", "read"), ("x", "tasks"), ("y", "max_bw")],
            15356,
            0x2250_81bc_4ff4_d596,
        ),
    ];
    let mut moved = Vec::new();
    for (name, path, query, len, pin) in cases {
        let body = body(&explorer, path, query);
        assert!(
            body.windows(2)
                .any(|w| w[0] == b'.' && w[1].is_ascii_digit()),
            "{name}: fractions"
        );
        if (body.len(), fnv1a(&body)) != (len, pin) {
            moved.push(format!(
                "{name}: {} B, fnv {:#018x}",
                body.len(),
                fnv1a(&body)
            ));
        }
    }
    assert!(moved.is_empty(), "bodies moved:\n{}", moved.join("\n"));
}
