//! Immutable sealed segments of the segmented store.
//!
//! When the active generation reaches its seal threshold, the store
//! freezes it into a *segment*. The generation's log already holds its
//! rows, in the encoding a segment body uses, so the seal *adopts* that
//! log as the body: the manifest names `<path>.wal-<epoch>` and the
//! length of its records, and the rows are never written a second time.
//! Compaction and repair write their output as a log too,
//! `<path>.seg-<id>`, and the manifest commit naming it records its
//! length the same way. Every body is read one way: exactly that many
//! bytes of records ([`read_segment_vfs`]). The
//! [`RunSummary`] projections the executor scans are derived from the
//! rows when a body is loaded, so they cannot disagree with them. Each
//! segment has a [`SegmentMeta`] index block — run counts,
//! id/task/bandwidth ranges, the API set, and a bloom-style membership
//! filter — which lives in the store manifest, so `open()` maps metadata
//! only and never reads segment bodies until a query actually needs
//! them.
//!
//! Bloom sizing: 10 bits per entry with 7 probes gives a false-positive
//! rate under 1% — a false positive costs one wasted segment body load,
//! never a wrong answer, because the executor re-evaluates the full
//! predicate against the summaries it loads.

use crate::database::{Counters, Database, DbError};
use crate::journal;
use crate::knowledge_store::{build_schema, BlockReader};
use crate::persist;
use crate::query::{RunKind, RunPredicate, RunSummary};
use crate::vfs::Vfs;
use crate::wal;
use iokc_util::json::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Bloom-style membership filter over `(kind, id)` run keys.
///
/// Double hashing: two FNV-1a hashes with distinct seeds drive `k`
/// probe positions, `bit_i = (h1 + i·h2) mod m`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Bloom {
    bits: Vec<u64>,
    probes: u32,
}

const BLOOM_PROBES: u32 = 7;
const BLOOM_BITS_PER_ENTRY: usize = 10;

fn fnv1a_seeded(seed: u64, bytes: &[u8]) -> u64 {
    let mut hash = seed;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn run_key_bytes(kind: RunKind, id: u64) -> [u8; 9] {
    let mut bytes = [0u8; 9];
    bytes[0] = match kind {
        RunKind::Benchmark => 0,
        RunKind::Io500 => 1,
    };
    bytes[1..].copy_from_slice(&id.to_le_bytes());
    bytes
}

impl Bloom {
    /// A filter sized for `entries` keys (at least one word).
    #[must_use]
    pub(crate) fn with_capacity(entries: usize) -> Bloom {
        let bits = (entries * BLOOM_BITS_PER_ENTRY).max(1).div_ceil(64);
        Bloom {
            bits: vec![0; bits],
            probes: BLOOM_PROBES,
        }
    }

    fn positions(&self, kind: RunKind, id: u64) -> impl Iterator<Item = (usize, u64)> {
        let key = run_key_bytes(kind, id);
        let h1 = fnv1a_seeded(0xcbf2_9ce4_8422_2325, &key);
        let h2 = fnv1a_seeded(0x6c62_272e_07bb_0142, &key) | 1;
        let m = self.bits.len() as u64 * 64;
        (0..u64::from(self.probes)).map(move |i| {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % m;
            ((bit / 64) as usize, 1u64 << (bit % 64))
        })
    }

    /// Record a run key.
    pub(crate) fn insert(&mut self, kind: RunKind, id: u64) {
        for (word, mask) in self.positions(kind, id) {
            self.bits[word] |= mask;
        }
    }

    /// Whether the key may be present (false = definitely absent).
    #[must_use]
    pub(crate) fn may_contain(&self, kind: RunKind, id: u64) -> bool {
        self.positions(kind, id)
            .all(|(word, mask)| self.bits[word] & mask != 0)
    }

    fn to_hex(&self) -> String {
        let mut out = String::with_capacity(self.bits.len() * 16);
        for word in &self.bits {
            out.push_str(&format!("{word:016x}"));
        }
        out
    }

    fn from_hex(text: &str) -> Result<Bloom, DbError> {
        if text.is_empty() || !text.len().is_multiple_of(16) {
            return Err(DbError::Corrupt(format!(
                "bloom filter hex has bad length {}",
                text.len()
            )));
        }
        let mut bits = Vec::with_capacity(text.len() / 16);
        for chunk in text.as_bytes().chunks(16) {
            let chunk = std::str::from_utf8(chunk)
                .map_err(|e| DbError::Corrupt(format!("bloom filter not ascii: {e}")))?;
            bits.push(
                u64::from_str_radix(chunk, 16)
                    .map_err(|e| DbError::Corrupt(format!("bloom filter word {chunk:?}: {e}")))?,
            );
        }
        Ok(Bloom {
            bits,
            probes: BLOOM_PROBES,
        })
    }
}

/// Which file holds a segment's body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyFile {
    /// `<path>.wal-<epoch>`: the log of the epoch a seal adopted.
    Adopted(u64),
    /// `<path>.seg-<id>`: the log compaction or repair wrote.
    Written,
}

/// Where a segment's body lives: a log of exactly `len` bytes of
/// records, the length the manifest commit naming it recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentBody {
    /// The file.
    pub file: BodyFile,
    /// Bytes of records the file held when the manifest named it.
    pub len: u64,
}

/// The index block of one sealed segment — everything the executor
/// needs to *skip* a segment without reading its body. Lives in the
/// store manifest.
#[derive(Debug, Clone)]
pub struct SegmentMeta {
    /// Segment id (file name suffix; monotonically assigned).
    pub id: u64,
    /// How many benchmark runs the segment holds.
    pub bench_count: usize,
    /// How many IO500 runs the segment holds.
    pub io500_count: usize,
    /// Inclusive benchmark id range, when any are present.
    pub bench_ids: Option<(u64, u64)>,
    /// Inclusive IO500 id range, when any are present.
    pub io500_ids: Option<(u64, u64)>,
    /// Inclusive task-count range over all runs.
    pub tasks: Option<(u32, u32)>,
    /// Inclusive bandwidth range (write mean / `bw_score`).
    pub bandwidth: Option<(f64, f64)>,
    /// Every API string appearing in the segment (`""` for IO500 runs).
    pub apis: BTreeSet<String>,
    /// Membership filter over `(kind, id)` keys.
    pub(crate) bloom: Bloom,
    /// Where the body lives.
    pub body: SegmentBody,
}

/// Index blocks are equal when they say the same about the runs; where
/// the body lives (`body`) is not part of that.
impl PartialEq for SegmentMeta {
    fn eq(&self, other: &SegmentMeta) -> bool {
        let ranges = |m: &SegmentMeta| (m.bench_ids, m.io500_ids, m.tasks, m.bandwidth);
        let counts = |m: &SegmentMeta| (m.id, m.bench_count, m.io500_count);
        counts(self) == counts(other)
            && ranges(self) == ranges(other)
            && (&self.apis, &self.bloom) == (&other.apis, &other.bloom)
    }
}

impl SegmentMeta {
    /// Compute the index block for the runs in `summaries`, whose body
    /// is `body`.
    #[must_use]
    pub fn compute<'a>(
        id: u64,
        summaries: impl ExactSizeIterator<Item = &'a RunSummary>,
        body: SegmentBody,
    ) -> SegmentMeta {
        let mut meta = SegmentMeta {
            id,
            bench_count: 0,
            io500_count: 0,
            bench_ids: None,
            io500_ids: None,
            tasks: None,
            bandwidth: None,
            apis: BTreeSet::new(),
            bloom: Bloom::with_capacity(summaries.len()),
            body,
        };
        fn widen<T: Copy + PartialOrd>(range: &mut Option<(T, T)>, v: T) {
            *range = Some(match *range {
                None => (v, v),
                Some((lo, hi)) => (if v < lo { v } else { lo }, if v > hi { v } else { hi }),
            });
        }
        for s in summaries {
            match s.kind {
                RunKind::Benchmark => {
                    meta.bench_count += 1;
                    widen(&mut meta.bench_ids, s.id);
                }
                RunKind::Io500 => {
                    meta.io500_count += 1;
                    widen(&mut meta.io500_ids, s.id);
                }
            }
            widen(&mut meta.tasks, s.tasks);
            widen(&mut meta.bandwidth, s.bandwidth());
            if !meta.apis.contains(&s.api) {
                meta.apis.insert(s.api.clone());
            }
            meta.bloom.insert(s.kind, s.id);
        }
        meta
    }

    /// Runs of `kind` in this segment.
    #[must_use]
    pub fn count(&self, kind: RunKind) -> usize {
        match kind {
            RunKind::Benchmark => self.bench_count,
            RunKind::Io500 => self.io500_count,
        }
    }

    /// The file holding the body of a segment of the store at `store`:
    /// the adopted log, or the `.seg-<id>` file.
    #[must_use]
    pub fn file(&self, store: &Path) -> PathBuf {
        match self.body.file {
            BodyFile::Adopted(epoch) => persist::wal_path(store, epoch),
            BodyFile::Written => persist::segment_path(store, self.id),
        }
    }

    /// Manifest-block JSON form.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let range_u64 = |r: Option<(u64, u64)>| match r {
            Some((lo, hi)) => Json::Arr(vec![Json::from(lo), Json::from(hi)]),
            None => Json::Null,
        };
        let mut fields = vec![
            ("id", Json::from(self.id)),
            ("bench_count", Json::from(self.bench_count)),
            ("io500_count", Json::from(self.io500_count)),
            ("bench_ids", range_u64(self.bench_ids)),
            ("io500_ids", range_u64(self.io500_ids)),
            (
                "tasks",
                match self.tasks {
                    Some((lo, hi)) => {
                        Json::Arr(vec![Json::from(u64::from(lo)), Json::from(u64::from(hi))])
                    }
                    None => Json::Null,
                },
            ),
            (
                "bandwidth",
                match self.bandwidth {
                    Some((lo, hi)) => Json::Arr(vec![Json::from(lo), Json::from(hi)]),
                    None => Json::Null,
                },
            ),
            (
                "apis",
                Json::Arr(self.apis.iter().map(|a| Json::from(a.as_str())).collect()),
            ),
            ("bloom", Json::from(self.bloom.to_hex())),
            ("len", Json::from(self.body.len)),
        ];
        if let BodyFile::Adopted(epoch) = self.body.file {
            fields.push(("epoch", Json::from(epoch)));
        }
        Json::obj(fields)
    }

    /// Parse a manifest block back into an index block. `unrecorded`
    /// gives the length of the `.seg-<id>` file of a block that recorded
    /// none, as binaries before lengths were recorded wrote it.
    pub(crate) fn from_json(
        json: &Json,
        unrecorded: impl FnOnce(u64) -> Result<u64, DbError>,
    ) -> Result<SegmentMeta, DbError> {
        let corrupt = |what: &str| DbError::Corrupt(format!("segment meta: {what}"));
        let id = json
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| corrupt("missing id"))?;
        let count = |key: &str| -> Result<usize, DbError> {
            json.get(key)
                .and_then(Json::as_u64)
                .map(|n| n as usize)
                .ok_or_else(|| corrupt(&format!("missing {key}")))
        };
        let range_u64 = |key: &str| -> Result<Option<(u64, u64)>, DbError> {
            match json.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(Json::Arr(pair)) if pair.len() == 2 => {
                    match (pair[0].as_u64(), pair[1].as_u64()) {
                        (Some(lo), Some(hi)) => Ok(Some((lo, hi))),
                        _ => Err(corrupt(&format!("bad {key} range"))),
                    }
                }
                Some(_) => Err(corrupt(&format!("bad {key} range"))),
            }
        };
        let bandwidth = match json.get("bandwidth") {
            None | Some(Json::Null) => None,
            Some(Json::Arr(pair)) if pair.len() == 2 => {
                match (pair[0].as_f64(), pair[1].as_f64()) {
                    (Some(lo), Some(hi)) => Some((lo, hi)),
                    _ => return Err(corrupt("bad bandwidth range")),
                }
            }
            Some(_) => return Err(corrupt("bad bandwidth range")),
        };
        let mut apis = BTreeSet::new();
        if let Some(list) = json.get("apis").and_then(Json::as_arr) {
            for api in list {
                apis.insert(
                    api.as_str()
                        .ok_or_else(|| corrupt("non-text api"))?
                        .to_owned(),
                );
            }
        }
        let bloom = Bloom::from_hex(
            json.get("bloom")
                .and_then(Json::as_str)
                .ok_or_else(|| corrupt("missing bloom"))?,
        )?;
        let tasks = range_u64("tasks")?.map(|(lo, hi)| (lo as u32, hi as u32));
        let file = match json.get("epoch") {
            None => BodyFile::Written,
            Some(epoch) => BodyFile::Adopted(epoch.as_u64().ok_or_else(|| corrupt("bad epoch"))?),
        };
        let len = match (json.get("len"), file) {
            (Some(len), _) => len.as_u64().ok_or_else(|| corrupt("bad len"))?,
            (None, BodyFile::Written) => unrecorded(id)?,
            (None, BodyFile::Adopted(_)) => return Err(corrupt("an adopted log needs its len")),
        };
        Ok(SegmentMeta {
            id,
            bench_count: count("bench_count")?,
            io500_count: count("io500_count")?,
            bench_ids: range_u64("bench_ids")?,
            io500_ids: range_u64("io500_ids")?,
            tasks,
            bandwidth,
            apis,
            bloom,
            body: SegmentBody { file, len },
        })
    }
}

/// A block of runs: the rows full deserialization joins against, and
/// the projections of them the executor scans. A sealed segment's
/// body and the store's active generation are both one of these — the
/// active block simply has not been sealed yet.
#[derive(Debug, Clone)]
pub struct SegmentData {
    /// Every run's projection row, keyed (and so iterated) in
    /// `(kind, id)` order.
    pub summaries: BTreeMap<(RunKind, u64), RunSummary>,
    /// The runs' rows (ids preserved across sealing).
    pub db: Database,
}

impl SegmentData {
    /// A block holding no runs over `db` (its schema and counters).
    pub(crate) fn empty(db: Database) -> SegmentData {
        SegmentData {
            summaries: BTreeMap::new(),
            db,
        }
    }

    /// The block over `db`'s rows, every summary derived from them.
    pub(crate) fn from_db(db: Database) -> Result<SegmentData, DbError> {
        Ok(SegmentData {
            summaries: BlockReader::many(&db).summaries()?,
            db,
        })
    }

    /// One block of the runs of `blocks`, whose ids ascend from each
    /// block to the next, moved out of them ([`Database::append`]).
    pub(crate) fn concat(blocks: Vec<SegmentData>) -> Result<SegmentData, DbError> {
        let mut db = build_schema();
        let (mut bench, mut io500) = (Vec::new(), Vec::new());
        for mut block in blocks {
            db.append(&mut block.db)?;
            io500.push(block.summaries.split_off(&(RunKind::Io500, 0)));
            bench.push(block.summaries);
        }
        // Already in key order, so the collect sorts in one pass.
        let summaries = bench.into_iter().chain(io500).flatten().collect();
        Ok(SegmentData { summaries, db })
    }

    /// The projection rows of one kind, ids ascending.
    pub(crate) fn of_kind(&self, kind: RunKind) -> impl Iterator<Item = &RunSummary> {
        self.summaries
            .range((kind, 0)..=(kind, u64::MAX))
            .map(|(_, s)| s)
    }

    /// How many runs of `kind` the block holds.
    pub(crate) fn count(&self, kind: RunKind) -> Result<usize, DbError> {
        self.db.row_count(kind.table())
    }
}

/// One immutable sealed segment: its index block, its file, and a
/// lazily-loaded body shared by every reader.
#[derive(Debug)]
pub struct Segment {
    /// The index block (also stored in the manifest).
    pub meta: SegmentMeta,
    path: PathBuf,
    data: Mutex<Option<Arc<SegmentData>>>,
}

impl Segment {
    /// A segment whose body will be read from `path` on first use.
    #[must_use]
    pub fn new(meta: SegmentMeta, path: PathBuf) -> Segment {
        Segment {
            meta,
            path,
            data: Mutex::new(None),
        }
    }

    /// A segment whose body is already in memory (just sealed, or about
    /// to have its file removed by compaction while snapshots still hold
    /// the handle).
    #[must_use]
    pub fn preloaded(meta: SegmentMeta, path: PathBuf, data: Arc<SegmentData>) -> Segment {
        Segment {
            meta,
            path,
            data: Mutex::new(Some(data)),
        }
    }

    /// The segment's file.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The body, reading and caching it on first use. Concurrent callers
    /// share one `Arc`; the cache is never evicted for the lifetime of
    /// the handle (snapshot lifetime rule: a `Snapshot` holding this
    /// segment stays readable even after compaction unlinks the file).
    pub fn data(&self, vfs: &dyn Vfs) -> Result<Arc<SegmentData>, DbError> {
        self.load(vfs).map(|(data, _)| data)
    }

    /// [`Segment::data`], also returning the bytes this call decoded:
    /// the file's length when it read the body, 0 when it was cached.
    pub(crate) fn load(&self, vfs: &dyn Vfs) -> Result<(Arc<SegmentData>, u64), DbError> {
        let mut slot = self
            .data
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(data) = &*slot {
            return Ok((Arc::clone(data), 0));
        }
        let data = Arc::new(read_segment_vfs(&self.path, vfs, self.meta.body.len)?);
        *slot = Some(Arc::clone(&data));
        Ok((data, self.meta.body.len))
    }
}

/// Write a segment body crash-safely as a log of one record holding its
/// rows, as `fsck --repair` rewrites a repaired body; returns the length
/// written, which the manifest records. The summaries and the index
/// block are not stored — both are derived from these rows.
pub fn write_segment_vfs(path: &Path, vfs: &dyn Vfs, data: &SegmentData) -> std::io::Result<u64> {
    let mut image = Vec::new();
    let len = push_rows_record(&mut image, &[&data.db]);
    persist::write_image(path, vfs, &image)?;
    Ok(len)
}

/// Append to `image` one `{"rows":…}` log record holding the rows of
/// `blocks`, table-major ([`persist::write_blocks`]); returns its
/// length.
pub(crate) fn push_rows_record(image: &mut Vec<u8>, blocks: &[&Database]) -> u64 {
    let mut payload = String::from("{\"rows\":");
    persist::write_blocks(&mut payload, blocks, &Counters::new());
    payload.push('}');
    let record = journal::record(&payload);
    image.extend_from_slice(record.as_bytes());
    record.len() as u64
}

/// Read a segment body from its file — a log of exactly `len` bytes,
/// every one of them in a record that verifies, where `len` is what the
/// manifest commit naming the file recorded — and derive its summaries.
/// A file shorter or longer than that, or holding a record that does not
/// verify or apply, is [`DbError::Corrupt`]: a body is never salvaged.
pub fn read_segment_vfs(path: &Path, vfs: &dyn Vfs, len: u64) -> Result<SegmentData, DbError> {
    let bytes = vfs
        .read(path)
        .map_err(|e| DbError::Corrupt(format!("read {}: {e}", path.display())))?;
    let mut db = build_schema();
    wal::replay_sealed(path, &bytes, len, &mut db)?;
    SegmentData::from_db(db).map_err(|e| DbError::Corrupt(format!("{}: {e}", path.display())))
}

/// Can any run in a segment with this index block match the predicate?
///
/// Conservative: `true` means "maybe" — the executor re-evaluates the
/// full predicate against each summary it loads, so a false `true` costs
/// one body read, never a wrong answer. `false` must be exact.
#[must_use]
pub fn may_match_segment(pred: &RunPredicate, meta: &SegmentMeta, kind: RunKind) -> bool {
    // Does `lo..=hi` overlap the segment's range? A reversed inclusive
    // range matches no row anywhere: exact, not conservative, so the
    // scan never loads a body for it.
    fn overlaps<T: PartialOrd>(range: Option<(T, T)>, lo: T, hi: T) -> bool {
        lo <= hi && range.is_none_or(|(rlo, rhi)| lo <= rhi && rlo <= hi)
    }
    match pred {
        RunPredicate::True => true,
        RunPredicate::Kind(k) => *k == kind,
        RunPredicate::ApiEq(api) => match kind {
            RunKind::Benchmark => meta.apis.contains(api),
            // IO500 runs match only the empty api, and their summaries
            // contribute `""` to the api set.
            RunKind::Io500 => api.is_empty() && meta.apis.contains(""),
        },
        RunPredicate::HasOp(_) => kind == RunKind::Benchmark,
        RunPredicate::TasksBetween(lo, hi) => overlaps(meta.tasks, *lo, *hi),
        RunPredicate::BandwidthBetween(lo, hi) => overlaps(meta.bandwidth, *lo, *hi),
        // Transfer sizes and command text are not summarized in the
        // index block; always load.
        RunPredicate::TransferBetween(..) | RunPredicate::CommandContains(_) => true,
        RunPredicate::IdIn(ids) => {
            let range = match kind {
                RunKind::Benchmark => meta.bench_ids,
                RunKind::Io500 => meta.io500_ids,
            };
            let Some((lo, hi)) = range else { return false };
            ids.iter()
                .any(|id| (lo..=hi).contains(id) && meta.bloom.may_contain(kind, *id))
        }
        RunPredicate::And(a, b) => {
            may_match_segment(a, meta, kind) && may_match_segment(b, meta, kind)
        }
        RunPredicate::Or(a, b) => {
            may_match_segment(a, meta, kind) || may_match_segment(b, meta, kind)
        }
        // A negation can admit runs the inner ranges exclude; stay
        // conservative.
        RunPredicate::Not(_) => true,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::knowledge_store::KnowledgeStore;
    use crate::query::OpStat;
    use crate::vfs::FaultVfs;
    use iokc_core::model::{Knowledge, KnowledgeSource};

    /// The body of an index block these tests never load.
    const WRITTEN: SegmentBody = SegmentBody {
        file: BodyFile::Written,
        len: 0,
    };

    fn bench_summary(id: u64, api: &str, tasks: u32, bw: f64) -> RunSummary {
        RunSummary {
            kind: RunKind::Benchmark,
            id,
            command: format!("ior -{id}"),
            api: api.to_owned(),
            tasks,
            block_size: 4 << 20,
            transfer_size: 1 << 20,
            segments: 16,
            clients_per_node: 20,
            ops: vec![OpStat {
                operation: "write".into(),
                mean_mib: bw,
                max_mib: bw * 1.5,
                mean_ops: bw / 2.0,
            }],
            bw_score: 0.0,
            md_score: 0.0,
            total_score: 0.0,
            warning_count: 0,
        }
    }

    fn io500_summary(id: u64, tasks: u32, bw_score: f64) -> RunSummary {
        RunSummary {
            kind: RunKind::Io500,
            id,
            command: "io500".into(),
            api: String::new(),
            tasks,
            block_size: 0,
            transfer_size: 0,
            segments: 0,
            clients_per_node: 0,
            ops: Vec::new(),
            bw_score,
            md_score: bw_score * 2.0,
            total_score: bw_score * 1.5,
            warning_count: 1,
        }
    }

    #[test]
    fn bloom_has_no_false_negatives_and_few_false_positives() {
        let mut bloom = Bloom::with_capacity(200);
        for id in 0..200u64 {
            bloom.insert(RunKind::Benchmark, id);
        }
        for id in 0..200u64 {
            assert!(bloom.may_contain(RunKind::Benchmark, id), "id {id}");
        }
        // Kinds are part of the key.
        let io500_hits = (0..200u64)
            .filter(|id| bloom.may_contain(RunKind::Io500, *id))
            .count();
        let absent_hits = (10_000..20_000u64)
            .filter(|id| bloom.may_contain(RunKind::Benchmark, *id))
            .count();
        // 10 bits/entry, 7 probes → ~0.8% expected; allow generous slack.
        assert!(io500_hits < 20, "io500 false positives: {io500_hits}");
        assert!(absent_hits < 500, "absent false positives: {absent_hits}");
    }

    #[test]
    fn bloom_roundtrips_through_hex() {
        let mut bloom = Bloom::with_capacity(10);
        bloom.insert(RunKind::Benchmark, 7);
        bloom.insert(RunKind::Io500, 3);
        let restored = Bloom::from_hex(&bloom.to_hex()).unwrap();
        assert_eq!(restored, bloom);
        assert!(Bloom::from_hex("").is_err());
        assert!(Bloom::from_hex("xyz").is_err());
    }

    #[test]
    fn meta_computes_ranges_and_roundtrips_json() {
        let summaries = [
            bench_summary(3, "MPIIO", 80, 2000.0),
            bench_summary(9, "POSIX", 40, 900.0),
            io500_summary(2, 160, 1.5),
        ];
        let meta = SegmentMeta::compute(4, summaries.iter(), WRITTEN);
        assert_eq!(meta.id, 4);
        assert_eq!(meta.bench_count, 2);
        assert_eq!(meta.io500_count, 1);
        assert_eq!(meta.bench_ids, Some((3, 9)));
        assert_eq!(meta.io500_ids, Some((2, 2)));
        assert_eq!(meta.tasks, Some((40, 160)));
        assert_eq!(meta.bandwidth, Some((1.5, 2000.0)));
        assert!(meta.apis.contains("MPIIO"));
        assert!(meta.apis.contains(""));

        let recorded = |_| panic!("every block records its len");
        let restored = SegmentMeta::from_json(&meta.to_json(), recorded).unwrap();
        assert_eq!(restored, meta);
        // And through a rendered document, the path the manifest takes.
        let reparsed = iokc_util::json::parse(&meta.to_json().to_compact()).unwrap();
        assert_eq!(SegmentMeta::from_json(&reparsed, recorded).unwrap(), meta);
        assert!(SegmentMeta::from_json(&Json::Null, recorded).is_err());
        // Where a body lives, and its length, travel with the index block.
        for file in [BodyFile::Adopted(3), BodyFile::Written] {
            let body = SegmentBody { file, len: 99 };
            let placed = SegmentMeta {
                body,
                ..meta.clone()
            };
            let restored = SegmentMeta::from_json(&placed.to_json(), recorded).unwrap();
            assert_eq!(restored.body, body);
            assert_eq!(placed, meta, "not part of the index block");
        }
    }

    #[test]
    fn may_match_prunes_exactly_when_safe() {
        let summaries = [
            bench_summary(3, "MPIIO", 80, 2000.0),
            bench_summary(9, "POSIX", 40, 900.0),
        ];
        let meta = SegmentMeta::compute(0, summaries.iter(), WRITTEN);
        let b = RunKind::Benchmark;
        assert!(may_match_segment(&RunPredicate::True, &meta, b));
        assert!(may_match_segment(&RunPredicate::Kind(b), &meta, b));
        assert!(!may_match_segment(
            &RunPredicate::Kind(RunKind::Io500),
            &meta,
            b
        ));
        assert!(may_match_segment(
            &RunPredicate::ApiEq("MPIIO".into()),
            &meta,
            b
        ));
        assert!(!may_match_segment(
            &RunPredicate::ApiEq("HDF5".into()),
            &meta,
            b
        ));
        assert!(may_match_segment(
            &RunPredicate::TasksBetween(50, 90),
            &meta,
            b
        ));
        assert!(!may_match_segment(
            &RunPredicate::TasksBetween(100, 200),
            &meta,
            b
        ));
        assert!(!may_match_segment(
            &RunPredicate::BandwidthBetween(3000.0, 4000.0),
            &meta,
            b
        ));
        // A reversed range is empty even where its bounds straddle the
        // segment's range.
        assert!(!may_match_segment(
            &RunPredicate::TasksBetween(90, 50),
            &meta,
            b
        ));
        assert!(!may_match_segment(
            &RunPredicate::BandwidthBetween(2500.0, 500.0),
            &meta,
            b
        ));
        assert!(may_match_segment(&RunPredicate::IdIn(vec![3]), &meta, b));
        assert!(!may_match_segment(&RunPredicate::IdIn(vec![100]), &meta, b));
        // No IO500 runs at all: IdIn on that space prunes.
        assert!(!may_match_segment(
            &RunPredicate::IdIn(vec![3]),
            &meta,
            RunKind::Io500
        ));
        // Conjunctions prune when either side does; disjunctions only
        // when both do.
        assert!(!may_match_segment(
            &RunPredicate::ApiEq("MPIIO".into()).and(RunPredicate::TasksBetween(100, 200)),
            &meta,
            b
        ));
        assert!(may_match_segment(
            &RunPredicate::ApiEq("HDF5".into()).or(RunPredicate::TasksBetween(50, 90)),
            &meta,
            b
        ));
        // Negation and unsummarized fields never prune.
        assert!(may_match_segment(
            &RunPredicate::TasksBetween(100, 200).negate(),
            &meta,
            b
        ));
        assert!(may_match_segment(
            &RunPredicate::CommandContains("zz".into()),
            &meta,
            b
        ));
        assert!(may_match_segment(
            &RunPredicate::TransferBetween(0, 1),
            &meta,
            b
        ));
    }

    #[test]
    fn segment_files_roundtrip_and_lazy_load_once() {
        let vfs = FaultVfs::pristine();
        let path = PathBuf::from("/kb.json.seg-0");
        let mut store = KnowledgeStore::in_memory();
        let run = Knowledge::new(KnowledgeSource::Ior, "ior").with_warning("partial");
        store.save_knowledge(&run).unwrap();
        let data = store.snapshot().active;
        assert_eq!(data.summaries[&(RunKind::Benchmark, 1)].warning_count, 1);
        let len = write_segment_vfs(&path, &vfs, &data).unwrap();
        assert_eq!(len, vfs.len(&path).unwrap());

        let body = SegmentBody {
            file: BodyFile::Written,
            len,
        };
        let meta = SegmentMeta::compute(0, data.summaries.values(), body);
        let seg = Segment::new(meta, path.clone());
        let a = seg.data(&vfs).unwrap();
        let b = seg.data(&vfs).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "body cached, read once");
        assert_eq!(a.summaries, data.summaries, "derived from the rows");
        assert_eq!(a.db.row_count("warnings").unwrap(), 1);

        // A length other than the one recorded is corruption, whatever
        // the file holds.
        for recorded in [len - 1, len + 1] {
            let err = read_segment_vfs(&path, &vfs, recorded).unwrap_err();
            let why = format!("sealed at {recorded} bytes, holds {len}");
            assert!(
                matches!(&err, DbError::Corrupt(e) if e.contains(&why)),
                "{err}"
            );
        }
        // A preloaded handle survives the file going away entirely.
        vfs.remove_file(&path).unwrap();
        let kept = Segment::preloaded(seg.meta.clone(), path, a);
        assert_eq!(kept.data(&vfs).unwrap().summaries.len(), 1);
    }
}
