//! The store against a reference model, plus the properties of the
//! journaled active generation that no crash point shows: the same
//! history writes the same bytes, fsck sweeps what a crashed seal
//! strands, and the log stays bounded under churn.
//!
//! The model is a `BTreeMap<(kind, id), label>` of *acknowledged*
//! results, and `apply` moves it with every operation (`Op`) the store
//! acknowledges: saves, batches, deletes of active and of sealed runs,
//! seals, compactions, event-journal appends. One checker,
//! `crash_and_check`, judges every disk a power loss can leave, in two
//! loops:
//!
//! * a proptest state machine runs random histories under injected
//!   ENOSPC, EIO, torn writes and failed fsyncs, loses power after every
//!   session, and tries each crashed disk with its manifest damaged too.
//!   After every step the store reads back the model with consistent
//!   indexes, its generation advanced if reads changed and held if a
//!   failed operation left them alone, its look-ups equal their linear
//!   definitions, and every live run loads back as it was saved;
//! * `crash_at_every` replays a fixed op list with a power loss at every
//!   operation (or fsync) and checks every image a real disk could
//!   expose: saves, deletes and journal appends; seals mid-history, a
//!   tombstone and compaction; and the adoption of a torn log.
//!
//! The runs a random history saves fill every child table, and the
//! readers that walk a block's child tables for many runs at once are
//! held to loading those runs one by one.

use iokc_core::model::{
    FilesystemInfo, Io500Knowledge, Io500Testcase, IterationResult, Knowledge, KnowledgeItem,
    KnowledgeSource, OperationSummary, SystemInfo,
};
use iokc_core::phases::Persister;
use iokc_obs::Recorder;
use iokc_store::journal::{read_journal_vfs, JournalWriter};
use iokc_store::persist;
use iokc_store::segment::read_segment_vfs;
use iokc_store::{
    fsck, AggregateQuery, AggregateResult, Database, DbError, DeadlineToken, DiskFault, Factor,
    FaultPlan, FaultVfs, FsckOptions, GroupBy, KnowledgeStore, Query, RunKind, RunOrder,
    RunPredicate, RunRef, RunSummary, SegmentMeta, Vfs,
};
use iokc_util::json::Json;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;

type Disk = BTreeMap<PathBuf, Vec<u8>>;
type Model = BTreeMap<(RunKind, u64), String>;

/// Low enough that seals happen every few operations, mid-batch too.
const SEAL_THRESHOLD: usize = 4;

/// A threshold no replay reaches: nothing seals unless asked to.
const NO_AUTO_SEAL: usize = usize::MAX;

fn kb() -> PathBuf {
    PathBuf::from("/kb.json")
}

/// The event journal beside the store, on the same disk.
fn journal_path() -> PathBuf {
    PathBuf::from("/events.j")
}

/// The payload of a history's `n`th event-journal record.
fn event(n: usize) -> String {
    format!("event {n}")
}

fn bench(tag: u32) -> Knowledge {
    Knowledge::new(KnowledgeSource::Ior, &format!("ior -t 1m #{tag}"))
}

fn io500(tag: u32) -> Io500Knowledge {
    Io500Knowledge {
        id: None,
        tasks: tag,
        bw_score: 1.5,
        md_score: 10.0,
        total_score: 3.9,
        testcases: Vec::new(),
        options: BTreeMap::new(),
        system: None,
        start_time: 0,
        warnings: Vec::new(),
    }
}

/// What the model remembers of an item: distinct per tag and kind.
fn label(item: &KnowledgeItem) -> String {
    match item {
        KnowledgeItem::Benchmark(k) => k.command.clone(),
        KnowledgeItem::Io500(k) => format!("io500 tasks={}", k.tasks),
    }
}

/// `item`, relabelled by `tag`: a history gives every item it saves a
/// fresh tag, so no two share a label.
fn tagged(item: &KnowledgeItem, tag: u32) -> KnowledgeItem {
    let mut item = item.clone();
    match &mut item {
        KnowledgeItem::Benchmark(k) => k.command = bench(tag).command,
        KnowledgeItem::Io500(k) => k.tasks = tag,
    }
    item
}

fn system(tag: u32) -> SystemInfo {
    SystemInfo {
        system: format!("node-{tag}"),
        cpu_model: "E5-2670v2".into(),
        cores: tag,
        cpu_mhz: 2500.5,
        cache_kib: 25_600,
        mem_kib: u64::from(tag) << 20,
    }
}

/// A run with every child table in play: summaries with their
/// results, file system, system, options, testcases, warnings.
fn arb_item() -> impl Strategy<Value = KnowledgeItem> {
    (
        any::<bool>(),
        1u32..64,
        (any::<bool>(), any::<bool>(), any::<bool>()),
        0usize..3,
        (any::<bool>(), any::<bool>()),
        proptest::collection::vec("[a-z ]{1,12}", 0..3),
    )
        .prop_map(
            |(is_io500, tag, (write, read, stat), per_op, (fs, sys), warnings)| {
                let picked = [(write, "write"), (read, "read"), (stat, "stat")];
                let ops = picked.into_iter().filter(|(on, _)| *on).map(|(_, op)| op);
                let real = f64::from(tag) * 1.25;
                if is_io500 {
                    return KnowledgeItem::Io500(Io500Knowledge {
                        testcases: ops
                            .map(|op| Io500Testcase {
                                name: format!("ior-easy-{op}"),
                                value: real,
                                unit: "GiB/s".into(),
                                time_s: 30.5,
                            })
                            .collect(),
                        options: (0..per_op)
                            .map(|n| (format!("key{n}"), format!("value{tag}")))
                            .collect(),
                        system: sys.then(|| system(tag)),
                        warnings,
                        ..io500(tag)
                    });
                }
                let mut k = bench(tag);
                k.pattern.tasks = tag;
                k.derived_from = fs.then_some(u64::from(tag));
                for op in ops {
                    k.summaries.push(OperationSummary {
                        operation: op.into(),
                        api: "POSIX".into(),
                        max_mib: real + 1.0,
                        min_mib: real - 1.0,
                        mean_mib: real,
                        stddev_mib: 0.5,
                        mean_ops: real / 2.0,
                        iterations: per_op as u32,
                    });
                    for iteration in 0..per_op as u32 {
                        k.results.push(IterationResult {
                            operation: op.into(),
                            iteration,
                            bw_mib: real + f64::from(iteration),
                            ops: 64,
                            ops_per_sec: real,
                            latency_s: 0.001,
                            open_s: 0.002,
                            wrrd_s: 1.5,
                            close_s: 0.003,
                            total_s: 1.75,
                        });
                    }
                }
                k.filesystem = fs.then(|| FilesystemInfo {
                    fs_type: "BeeGFS".into(),
                    entry_type: "file".into(),
                    entry_id: format!("A-{tag}"),
                    metadata_node: "meta01".into(),
                    chunk_size: 512 << 10,
                    storage_targets: tag,
                    raid: "RAID0".into(),
                    storage_pool: "Default".into(),
                });
                k.system = sys.then(|| system(tag));
                k.warnings = warnings;
                KnowledgeItem::Benchmark(k)
            },
        )
}

fn open(vfs: &Arc<FaultVfs>) -> KnowledgeStore {
    let mut store = KnowledgeStore::open_with_vfs(kb(), Arc::clone(vfs) as Arc<dyn Vfs>)
        .expect("a disk the store wrote reopens");
    store.set_seal_threshold(SEAL_THRESHOLD);
    store
}

/// Everything the store reads back, in the model's shape.
fn contents(store: &KnowledgeStore) -> Model {
    store
        .query_summaries(&Query::all(), &DeadlineToken::unbounded())
        .expect("listing")
        .iter()
        .map(|r| {
            let label = match r.kind {
                RunKind::Benchmark => r.command.clone(),
                RunKind::Io500 => format!("io500 tasks={}", r.tasks),
            };
            ((r.kind, r.id), label)
        })
        .collect()
}

fn in_active(store: &KnowledgeStore, (kind, id): (RunKind, u64)) -> bool {
    let table = match kind {
        RunKind::Benchmark => "performances",
        RunKind::Io500 => "IOFHsRuns",
    };
    matches!(store.database().get(table, id as i64), Ok(Some(_)))
}

fn fsck_pass(vfs: &FaultVfs, repair: bool) -> iokc_store::FsckReport {
    let opts = FsckOptions {
        repair,
        journal: None,
    };
    fsck(&kb(), vfs, &opts)
}

/// How a session ends up damaging the manifest: cut short at a byte, or
/// one bit of a byte flipped.
#[derive(Debug, Clone)]
struct Damage {
    flip: bool,
    at: usize,
}

impl Damage {
    /// `manifest`, no longer verifying. The final newline is spared: the
    /// footer verifies without it.
    fn apply(&self, manifest: &[u8]) -> Vec<u8> {
        let at = self.at % (manifest.len() - 1);
        let mut bytes = manifest.to_vec();
        match self.flip {
            true => bytes[at] ^= 1,
            false => bytes.truncate(at),
        }
        bytes
    }
}

/// `image` with its manifest damaged. The manifest is what says which
/// log and which segments are the store, so nothing may be answered,
/// acknowledged or swept without it: `open` is `Corrupt`, the degraded
/// store refuses writes, `fsck --repair` reports one finding it cannot
/// repair and changes no byte — and with the manifest's bytes back,
/// every run in `acknowledged` is.
fn check_damaged_manifest(image: &Disk, damage: &Damage, acknowledged: &Model) {
    let Some(manifest) = image.get(&kb()) else {
        return;
    };
    let mut broken = image.clone();
    broken.insert(kb(), damage.apply(manifest));
    let vfs = Arc::new(FaultVfs::from_state(broken.clone()));
    let disk = || Arc::clone(&vfs) as Arc<dyn Vfs>;
    assert!(matches!(
        KnowledgeStore::open_with_vfs(kb(), disk()),
        Err(DbError::Corrupt(_))
    ));
    let mut degraded = KnowledgeStore::open_or_degraded_with_vfs(kb(), disk());
    assert!(degraded.is_read_only());
    assert!(contents(&degraded).is_empty());
    assert!(matches!(
        degraded.save_knowledge(&bench(0)),
        Err(DbError::ReadOnly(_))
    ));
    drop(degraded);
    let repair = fsck_pass(&vfs, true);
    assert_eq!(
        (repair.repaired(), repair.unrepaired()),
        (0, 1),
        "{:?}",
        repair.findings
    );
    assert_eq!(vfs.durable_state(), broken, "fsck --repair moved bytes");

    let mut restored = vfs.durable_state();
    restored.insert(kb(), manifest.clone());
    let restored = Arc::new(FaultVfs::from_state(restored));
    assert_eq!(&contents(&open(&restored)), acknowledged);
}

/// What a history has acknowledged besides the model, and what it
/// carries from one operation to the next: the last tag it gave out,
/// whether a write was acknowledged (from then on every disk it can
/// leave holds a manifest), and how many event-journal records were —
/// `event(0)`, `event(1)`, … in order.
#[derive(Debug, Default)]
struct History {
    next_tag: u32,
    committed: bool,
    journal: usize,
}

/// Power loss: reboot into `image`, a disk the history can have left,
/// and check it with `history` and `acknowledged` (equal to the model —
/// or, after a failed operation, one of the states that operation may
/// have left):
///
/// * one generation: once a write was acknowledged, a manifest that
///   verifies is there (a document is committed by one rename), and no
///   file is a second generation (`.bak`) of anything;
/// * the store reopens to an acknowledged state with consistent indexes,
///   and with its manifest damaged as `check_damaged_manifest` expects;
/// * the event journal salvages to the acknowledged records, plus at
///   most the one in flight;
/// * one `fsck --repair` pass, the journal included, fixes every
///   finding — a torn log or journal tail, a stray — the second pass is
///   clean, and neither the rows nor the salvaged records move.
///
/// Returns the store's contents and the disk after the repair.
fn crash_and_check(
    image: &Disk,
    damage: &Damage,
    history: &History,
    acknowledged: impl Fn(&Model) -> bool,
) -> (Model, Disk) {
    let disk = Arc::new(FaultVfs::from_state(image.clone()));
    if history.committed {
        if let Err(e) = persist::read_document_vfs(&kb(), disk.as_ref()) {
            panic!("no manifest that verifies: {e}");
        }
    }
    let bak = image.keys().find(|p| p.to_string_lossy().ends_with(".bak"));
    assert!(bak.is_none(), "{bak:?}");
    let reopened = open(&disk);
    let found = contents(&reopened);
    assert!(acknowledged(&found), "reopened to unacknowledged {found:?}");
    assert!(reopened.indexes_consistent().expect("index rebuild"));
    drop(reopened);
    check_damaged_manifest(image, damage, &found);

    let read = read_journal_vfs(&journal_path(), disk.as_ref()).expect("journal");
    let salvaged = read.records;
    let appended: Vec<String> = (0..salvaged.len()).map(event).collect();
    let acked = history.journal;
    assert!(
        salvaged == appended && (acked..=acked + 1).contains(&salvaged.len()),
        "{acked} journal record(s) acknowledged, {salvaged:?} salvaged"
    );
    let pass = |repair| {
        let journal = Some(journal_path());
        fsck(&kb(), disk.as_ref(), &FsckOptions { repair, journal })
    };
    let repair = pass(true);
    assert_eq!(repair.unrepaired(), 0, "{:?}", repair.findings);
    let second = pass(false);
    assert!(second.clean(), "{:?}", second.findings);
    let repaired = read_journal_vfs(&journal_path(), disk.as_ref()).expect("journal");
    assert_eq!((repaired.records, repaired.torn_tail), (salvaged, false));
    assert_eq!(contents(&open(&disk)), found, "fsck --repair changed rows");
    (found, disk.durable_state())
}

#[derive(Debug, Clone)]
enum Op {
    /// Saved under a fresh tag, as are a batch's items.
    Save(Box<KnowledgeItem>),
    SaveBatch(Vec<KnowledgeItem>),
    DeleteActive(usize),
    DeleteSealed(usize),
    Seal,
    Compact,
    /// Append the history's next record to the event journal.
    Journal,
}

/// One mount of the disk: the faults its filesystem injects (by
/// mutating-operation index and by fsync index, both counted from the
/// mount), the operations run on it, then power loss — and what then
/// happens to the manifest.
#[derive(Debug, Clone)]
struct Session {
    faults: Vec<(u64, DiskFault)>,
    ops: Vec<Op>,
    damage: Damage,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let save = || arb_item().prop_map(|item| Op::Save(Box::new(item)));
    prop_oneof![
        save(),
        save(),
        save(),
        proptest::collection::vec(arb_item(), 0..7).prop_map(Op::SaveBatch),
        (0usize..64).prop_map(Op::DeleteActive),
        (0usize..64).prop_map(Op::DeleteSealed),
        Just(Op::Seal),
        Just(Op::Compact),
    ]
}

fn arb_session() -> impl Strategy<Value = Session> {
    let at = |horizon, most| proptest::collection::vec(0u64..horizon, 0..most);
    (
        (at(60, 3), at(60, 3), at(60, 3), at(20, 2)),
        proptest::collection::vec(arb_op(), 1..12),
        (any::<bool>(), 0usize..4096),
    )
        .prop_map(|((enospc, eio, short_write, fail_sync), ops, (flip, at))| {
            let at_each = |ops: Vec<u64>, kind| ops.into_iter().map(move |op| (op, kind));
            Session {
                faults: at_each(enospc, DiskFault::Enospc)
                    .chain(at_each(eio, DiskFault::Eio))
                    .chain(at_each(short_write, DiskFault::ShortWrite))
                    .chain(at_each(fail_sync, DiskFault::FailSync))
                    .collect(),
                ops,
                damage: Damage { flip, at },
            }
        })
}

/// What an operation tried to change.
#[derive(Debug)]
enum Attempt {
    /// Save these items, in order.
    Save(Vec<KnowledgeItem>),
    Delete(RunKind, u64),
    Nothing,
}

impl Attempt {
    fn saved(&self) -> &[KnowledgeItem] {
        match self {
            Attempt::Save(items) => items,
            _ => &[],
        }
    }
}

/// Run `op`; on success the model and `history` move with it, and a
/// write that changed the model advanced the store's generation.
/// Returns what the operation reported, and what it tried.
fn apply(
    store: &mut KnowledgeStore,
    model: &mut Model,
    op: &Op,
    history: &mut History,
) -> (Result<(), DbError>, Attempt) {
    let (generation, runs) = (store.generation(), model.len());
    let mut fresh = |item: &KnowledgeItem| {
        history.next_tag += 1;
        tagged(item, history.next_tag)
    };
    let pick = |store: &KnowledgeStore, model: &Model, active: bool, n: usize| {
        let keys: Vec<(RunKind, u64)> = model
            .keys()
            .copied()
            .filter(|key| in_active(store, *key) == active)
            .collect();
        (!keys.is_empty()).then(|| keys[n % keys.len()])
    };
    let (result, attempt) = match op {
        Op::Save(item) => {
            let item = fresh(item);
            let saved = match &item {
                KnowledgeItem::Benchmark(k) => {
                    store.save_knowledge(k).map(|id| (RunKind::Benchmark, id))
                }
                KnowledgeItem::Io500(k) => store.save_io500(k).map(|id| (RunKind::Io500, id)),
            };
            let result = saved.map(|key| {
                assert!(
                    model.insert(key, label(&item)).is_none(),
                    "{key:?} reissued"
                );
            });
            (result, Attempt::Save(vec![item]))
        }
        Op::SaveBatch(items) => {
            let items: Vec<KnowledgeItem> = items.iter().map(fresh).collect();
            let result = store.save_batch(&items).map(|ids| {
                assert_eq!(ids.len(), items.len());
                for (item, id) in items.iter().zip(ids) {
                    let kind = match item {
                        KnowledgeItem::Benchmark(_) => RunKind::Benchmark,
                        KnowledgeItem::Io500(_) => RunKind::Io500,
                    };
                    assert!(model.insert((kind, id), label(item)).is_none());
                }
            });
            (result, Attempt::Save(items))
        }
        Op::DeleteActive(n) | Op::DeleteSealed(n) => {
            let Some((kind, id)) = pick(store, model, matches!(op, Op::DeleteActive(_)), *n) else {
                return (Ok(()), Attempt::Nothing);
            };
            let deleted = match kind {
                RunKind::Benchmark => store.delete_knowledge(id),
                RunKind::Io500 => store.delete_io500(id),
            };
            let result = deleted.map(|existed| {
                assert!(existed, "{kind:?} {id} is acknowledged but was not there");
                model.remove(&(kind, id));
            });
            (result, Attempt::Delete(kind, id))
        }
        Op::Seal => (store.seal_active(), Attempt::Nothing),
        Op::Compact => (store.compact().map(drop), Attempt::Nothing),
        Op::Journal => {
            let record = event(history.journal);
            let appended = JournalWriter::open_vfs(&journal_path(), store.vfs())
                .and_then(|mut journal| journal.append(&record));
            history.journal += usize::from(appended.is_ok());
            let result = appended.map_err(|e| DbError::Io(e.to_string()));
            (result, Attempt::Nothing)
        }
    };
    if model.len() != runs {
        assert!(
            store.generation() > generation,
            "acknowledged {op:?} did not advance the generation"
        );
        history.committed = true;
    }
    (result, attempt)
}

/// Whether a *failed* `op` may have left `state`, given the model
/// before it: nothing of it; all of it (the failure hit after the commit
/// point — the directory sync that follows a manifest rename, the seal
/// that follows a durable save — or could not be undone); or, for a
/// batch, the prefix that a mid-batch seal made durable. Whichever it
/// left, reads that changed did so under a new `generation()`: the
/// caller asserts that, with no tolerance.
fn failed_op_may_leave(before: &Model, state: &Model, op: &Op, attempt: &Attempt) -> bool {
    if state == before {
        return true;
    }
    match op {
        Op::Seal | Op::Compact | Op::Journal => false,
        Op::DeleteActive(_) | Op::DeleteSealed(_) => {
            let Attempt::Delete(kind, id) = attempt else {
                return false;
            };
            let mut after = before.clone();
            after.remove(&(*kind, *id)).is_some() && *state == after
        }
        _ => {
            // The new rows carry the items' labels, in order, under keys
            // the model never held.
            let mut added: Vec<&String> = state
                .iter()
                .filter(|(key, _)| !before.contains_key(*key))
                .map(|(_, label)| label)
                .collect();
            added.sort();
            let kept = before.iter().all(|(k, l)| state.get(k) == Some(l));
            let items = attempt.saved();
            kept && (1..=items.len()).any(|k| {
                let mut want: Vec<String> = items[..k].iter().map(label).collect();
                want.sort();
                want.iter().eq(added.iter().copied())
            })
        }
    }
}

/// Ids ascend, every foreign key is non-decreasing, and `children` — by
/// binary search and by a forward walk — is what a linear sweep finds
/// under every parent id and its neighbours.
fn check_block(db: &Database) {
    for table in db.table_names() {
        let rows = db.rows(table).expect("rows");
        prop_assert!(rows.windows(2).all(|w| w[0].id < w[1].id), "{}", table);
        let schema = db.schema(table).expect("schema");
        for fk in &schema.foreign_keys {
            let ci = schema.column_index(&fk.column).expect("fk column");
            let keys: Vec<i64> = rows.iter().filter_map(|r| r.values[ci].as_int()).collect();
            prop_assert_eq!(keys.len(), rows.len());
            prop_assert!(
                keys.windows(2).all(|w| w[0] <= w[1]),
                "{}.{}",
                table,
                fk.column
            );
            let parents = db.rows(&fk.references_table).expect("parents");
            let probes = parents.iter().map(|r| r.id).chain(keys.iter().copied());
            let probes: BTreeSet<i64> = probes.flat_map(|id| [id - 1, id, id + 1]).collect();
            // Every key is a probe, so one sweep in probe order meets each
            // row under its key.
            let mut at = 0;
            let key = db.foreign_key(table, &fk.column).expect("foreign key");
            let mut walk = key.walk();
            for parent in probes {
                let n = keys[at..].iter().take_while(|&&key| key == parent).count();
                prop_assert_eq!(key.children(parent), &rows[at..at + n]);
                prop_assert_eq!(walk.children(parent), &rows[at..at + n]);
                at += n;
            }
            prop_assert_eq!(at, rows.len());
        }
    }
}

/// What the look-up checks remember of a history: every item it tried
/// to save, by label, and the segment bodies already checked (a body's
/// bytes decide its check).
#[derive(Default)]
struct Saved {
    items: BTreeMap<String, KnowledgeItem>,
    bodies: BTreeSet<Vec<u8>>,
}

/// The look-ups against their linear definitions, and the live runs
/// against what was saved: every block — the active one, each segment
/// body and the SQL surface's merge of them all — passes `check_block`,
/// and every run in `model` loads back as the item saved under its
/// label.
fn check_lookups(store: &KnowledgeStore, vfs: &FaultVfs, model: &Model, saved: &mut Saved) {
    check_block(store.database());
    for meta in store.segment_metas() {
        let path = meta.file(&kb());
        if saved.bodies.insert(vfs.read(&path).expect("segment")) {
            let body = read_segment_vfs(&path, vfs, meta.body.len).expect("segment");
            check_block(&body.db);
        }
    }
    let merged = store.snapshot().materialize().expect("materialize");
    check_block(&merged);
    let runs = |table| merged.row_count(table).expect("count");
    assert_eq!(runs("performances") + runs("IOFHsRuns"), model.len());
    for (&(kind, id), label) in model {
        let mut item = saved.items[label].clone();
        let loaded = match &mut item {
            KnowledgeItem::Benchmark(k) => {
                k.id = Some(id);
                store
                    .load_knowledge(id)
                    .expect("load")
                    .map(KnowledgeItem::Benchmark)
            }
            KnowledgeItem::Io500(k) => {
                k.id = Some(id);
                store
                    .load_io500(id)
                    .expect("load")
                    .map(KnowledgeItem::Io500)
            }
        };
        assert_eq!(loaded, Some(item), "{kind:?} {id}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn the_store_equals_a_map_of_acknowledged_results(
        sessions in proptest::collection::vec(arb_session(), 1..5)
    ) {
        let mut disk = Disk::new();
        let mut model = Model::new();
        let mut saved = Saved::default();
        let mut history = History::default();
        for session in &sessions {
            let plan = FaultPlan::from_iter(session.faults.iter().copied());
            let vfs = Arc::new(FaultVfs::from_state_with_plan(disk, plan));
            let mut store = open(&vfs);
            prop_assert_eq!(&contents(&store), &model);
            check_lookups(&store, &vfs, &model, &mut saved);
            // Set by a failed operation that may have reached the disk.
            let mut unsettled = None;
            for op in &session.ops {
                let before = model.clone();
                let generation = store.generation();
                let (result, items) = apply(&mut store, &mut model, op, &mut history);
                saved.items.extend(items.saved().iter().map(|item| (label(item), item.clone())));
                let now = contents(&store);
                prop_assert!(store.indexes_consistent().expect("index rebuild"));
                match result {
                    Ok(()) => prop_assert_eq!(&now, &model, "after acknowledged {:?}", op),
                    Err(DbError::ReadOnly(_)) => break,
                    Err(e) => {
                        prop_assert!(
                            failed_op_may_leave(&before, &now, op, &items),
                            "failed {op:?} ({e}) left {now:?}, before it {before:?}"
                        );
                        if now != before {
                            prop_assert!(
                                store.generation() > generation,
                                "failed {op:?} changed reads under generation {generation}"
                            );
                        }
                        if now != before || store.is_read_only() {
                            // Memory follows the volatile disk, which may
                            // be ahead of the durable one; and a store
                            // that could not undo a failed append stops
                            // writing because the disk may hold it
                            // whole. Settle either by rebooting now.
                            unsettled = Some((op, items));
                            break;
                        }
                        prop_assert_eq!(store.generation(), generation);
                    }
                }
                check_lookups(&store, &vfs, &model, &mut saved);
            }
            drop(store);
            let (image, damage) = (vfs.durable_state(), &session.damage);
            (model, disk) = crash_and_check(&image, damage, &history, |found| match &unsettled {
                Some((op, items)) => failed_op_may_leave(&model, found, op, items),
                None => *found == model,
            });
        }
    }
}

/// One replay of a fixed op list: its disk, and what it acknowledged
/// before the operation that failed, if one did.
struct Replay {
    vfs: Arc<FaultVfs>,
    model: Model,
    history: History,
    failed: Option<(Op, Attempt)>,
}

/// Replay `ops` from `start` at seal `threshold` on a disk executing
/// `plan`, up to the first operation that fails. After every
/// acknowledged one the store reads back the model, with consistent
/// indexes.
fn replay(start: &Disk, plan: FaultPlan<DiskFault>, ops: &[Op], threshold: usize) -> Replay {
    let vfs = Arc::new(FaultVfs::from_state_with_plan(start.clone(), plan));
    let mut store = open(&vfs);
    store.set_seal_threshold(threshold);
    let mut model = contents(&store);
    let mut history = History {
        committed: !model.is_empty(),
        ..History::default()
    };
    let mut failed = None;
    for op in ops {
        let (result, attempt) = apply(&mut store, &mut model, op, &mut history);
        if result.is_err() {
            failed = Some((op.clone(), attempt));
            break;
        }
        assert_eq!(contents(&store), model, "after acknowledged {op:?}");
        assert!(store.indexes_consistent().expect("index rebuild"));
    }
    Replay {
        vfs,
        model,
        history,
        failed,
    }
}

/// Replay `ops` with `fault` at every point of its fault-free replay —
/// every mutating operation, or every fsync for `DiskFault::CrashSync` —
/// and check every disk image each power loss can leave with
/// `crash_and_check`, its manifest damaged at a byte that moves from
/// image to image. Prints the number of crash points and of images, and
/// returns the first.
fn crash_at_every(
    workload: &str,
    start: &Disk,
    ops: &[Op],
    threshold: usize,
    fault: DiskFault,
) -> u64 {
    let probe = replay(start, FaultPlan::default(), ops, threshold);
    assert!(probe.failed.is_none(), "{workload}: a fault-free op failed");
    let points = match fault {
        DiskFault::CrashSync => probe.vfs.sync_count(),
        _ => probe.vfs.op_count(),
    };
    let mut images = 0;
    for at in 0..points {
        let run = replay(start, FaultPlan::at(at, fault), ops, threshold);
        assert!(run.vfs.crashed(), "{workload}: crash {at} never fired");
        let acknowledged = |found: &Model| match &run.failed {
            Some((op, attempt)) => failed_op_may_leave(&run.model, found, op, attempt),
            None => *found == run.model,
        };
        for image in run.vfs.crash_states() {
            let flip = images % 2 == 0;
            let damage = Damage { flip, at: images };
            crash_and_check(&image, &damage, &run.history, acknowledged);
            images += 1;
        }
    }
    eprintln!("{workload} crash enumeration: {points} crash points, {images} images");
    points
}

fn save_bench() -> Op {
    Op::Save(Box::new(KnowledgeItem::Benchmark(bench(0))))
}

fn save_io500() -> Op {
    Op::Save(Box::new(KnowledgeItem::Io500(io500(0))))
}

/// Two benchmark saves, two IO500 saves and a delete of each kind, each
/// followed by an event-journal append, with nothing sealing.
fn basic_history() -> Vec<Op> {
    let ops = [
        save_bench(),
        save_io500(),
        save_bench(),
        Op::DeleteActive(0),
        save_io500(),
        Op::DeleteActive(1),
    ];
    ops.into_iter().flat_map(|op| [op, Op::Journal]).collect()
}

#[test]
fn every_crash_point_recovers_an_acknowledged_prefix() {
    let ops = basic_history();
    let points = crash_at_every("basic", &Disk::new(), &ops, NO_AUTO_SEAL, DiskFault::Crash);
    assert!(points > 20, "history too small to be interesting");
}

#[test]
fn every_fsync_crash_recovers_an_acknowledged_prefix() {
    let (ops, fault) = (basic_history(), DiskFault::CrashSync);
    crash_at_every("basic, at fsyncs", &Disk::new(), &ops, NO_AUTO_SEAL, fault);
}

/// Saves that trip the seal threshold (2), so segments seal
/// mid-history; a delete that lands a tombstone on a sealed run; an
/// explicit seal; a full compaction.
#[test]
fn every_crash_point_during_seal_and_compaction_recovers() {
    let mut ops = vec![save_bench(), save_bench(), save_bench(), save_bench()];
    ops.extend([Op::DeleteSealed(0), save_io500(), Op::Seal, Op::Compact]);
    let points = crash_at_every("segmented", &Disk::new(), &ops, 2, DiskFault::Crash);
    assert!(points > 30, "too small to exercise seal and compaction");
}

/// Every adoption point, over a log a crash tore mid-record when it held
/// a seal threshold's worth (2) of acknowledged saves: the first save
/// seals the reopened generation at once (its torn tail truncated, then
/// its log adopted); a batch seals twice inside itself, each time
/// logging its rows so far before adopting, and logs its tail; an
/// explicit seal adopts that; a compaction merges the adopted logs.
#[test]
fn every_crash_point_while_adopting_a_log_recovers() {
    let saves = [save_bench(), save_bench(), save_bench()];
    let mut start = replay(&Disk::new(), FaultPlan::default(), &saves, NO_AUTO_SEAL)
        .vfs
        .durable_state();
    let log = start.get_mut(&persist::wal_path(&kb(), 0)).expect("log");
    log.truncate(log.len() - 7);
    let torn = Arc::new(FaultVfs::from_state(start.clone()));
    let salvaged = contents(&open(&torn));
    assert_eq!(salvaged.len(), 2, "the reopen salvages two runs");
    let batch = vec![KnowledgeItem::Benchmark(bench(0)); 4];
    let ops = [save_bench(), Op::SaveBatch(batch), Op::Seal, Op::Compact];
    crash_at_every("adoption", &start, &ops, 2, DiskFault::Crash);
}

/// One scripted history touching every kind of file the store writes.
fn scripted_history() -> Disk {
    let vfs = Arc::new(FaultVfs::pristine());
    let mut store = open(&vfs);
    store.save_knowledge(&bench(1)).expect("save");
    store.save_io500(&io500(2)).expect("save");
    let batch: Vec<KnowledgeItem> = (3..3 + SEAL_THRESHOLD as u32)
        .map(|tag| KnowledgeItem::Benchmark(bench(tag)))
        .collect();
    let ids = store.save_batch(&batch).expect("batch");
    let (sealed, active) = (ids[0], ids[ids.len() - 1]);
    assert!(!in_active(&store, (RunKind::Benchmark, sealed)));
    assert!(in_active(&store, (RunKind::Benchmark, active)));
    assert!(store.delete_knowledge(sealed).expect("sealed delete"));
    assert!(store.delete_knowledge(active).expect("active delete"));
    store.seal_active().expect("seal");
    store.compact().expect("compact");
    store.save_knowledge(&bench(100)).expect("save");
    drop(store);
    vfs.durable_state()
}

#[test]
fn the_same_history_writes_the_same_bytes() {
    let disk = scripted_history();
    assert_eq!(disk, scripted_history());
    // A manifest, a segment and a log: every kind of file.
    let names: Vec<_> = disk.keys().map(|p| p.to_string_lossy()).collect();
    assert_eq!(names, ["/kb.json", "/kb.json.seg-2", "/kb.json.wal-2"]);
}

/// FNV-1a 64: what the pins below hash with, whatever checksum the
/// store frames its files with.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A file framed as binaries before XXH64 framed it: every `j2` record
/// a `j1` record carrying the FNV-1a 64 of its payload, or a document's
/// footer `#iokc-crc64:` over the FNV-1a 64 of its body. Nothing else
/// moves: both frames are the same length.
fn legacy_frame(bytes: Vec<u8>) -> Vec<u8> {
    let text = String::from_utf8(bytes).expect("utf-8");
    if let Some((body, _)) = text.split_once("\n#iokc-xxh64:") {
        let footer = fnv1a(body.as_bytes());
        return format!("{body}\n#iokc-crc64:{footer:016x}\n").into_bytes();
    }
    let line = |line: &str| match line.strip_prefix("j2 ").map(|l| l.split_at(17)) {
        Some((_, payload)) => {
            let hash = fnv1a(payload.trim_end().as_bytes());
            format!("j1 {hash:016x} {payload}")
        }
        None => line.to_owned(),
    };
    text.split_inclusive('\n')
        .map(line)
        .collect::<String>()
        .into_bytes()
}

/// Every file of `disk` [`legacy_frame`]d.
fn legacy_framed(disk: Disk) -> Disk {
    disk.into_iter()
        .map(|(path, bytes)| (path, legacy_frame(bytes)))
        .collect()
}

/// The on-disk format is a compatibility surface, so same-binary
/// determinism is not enough: these are the checksums of the files
/// `scripted_history()` leaves, and of the segment that sealing and
/// compacting that disk writes. Framed as older binaries framed them,
/// they are the bytes pinned against the binary whose row codec last
/// went through a `Json` tree (the logs), as the logs compaction writes
/// since it splices blocks (the two compaction outputs), and as the
/// manifest that records every segment's length; without those lengths
/// that manifest is the previous binary's byte for byte
/// (`a_segment_without_a_recorded_length_takes_its_files_and_a_document_is_refused`).
/// Framed as this binary frames them, they are pinned beside those.
#[test]
fn store_bytes_are_pinned() {
    const PINNED: [(&str, u64, u64); 4] = [
        ("/kb.json", 0x96c1_9074_0a70_453e, 0xb247_6d81_3362_4e61),
        (
            "/kb.json.seg-2",
            0xb0fb_cbda_1e6c_aff7,
            0xc472_810e_bd72_d6bc,
        ),
        (
            "/kb.json.wal-2",
            0x8f14_2a56_abd6_9206,
            0xdb78_624a_7d7f_39e9,
        ),
        (
            "/kb.json.seg-4",
            0xa4ab_10f8_d6a9_7b38,
            0x9eb2_7c07_2eae_bea0,
        ),
    ];
    let mut disk = scripted_history();
    let vfs = Arc::new(FaultVfs::from_state(disk.clone()));
    let mut store = open(&vfs);
    store.seal_active().expect("seal");
    store.compact().expect("compact");
    let compacted = persist::segment_path(&kb(), 4);
    disk.insert(compacted.clone(), vfs.durable_state()[&compacted].clone());
    let legacy = legacy_framed(disk.clone());
    for (name, pinned, framed) in PINNED {
        let path = PathBuf::from(name);
        let got = (fnv1a(&legacy[&path]), fnv1a(&disk[&path]));
        assert_eq!(got, (pinned, framed), "{name} moved: {got:#018x?}");
    }
    assert_eq!(disk.len(), PINNED.len());
}

/// Every summary and every loaded run a store answers.
type View = (Vec<iokc_store::RunSummary>, Vec<KnowledgeItem>);

fn view(store: &KnowledgeStore) -> View {
    let summaries = store
        .query_summaries(&Query::all(), &DeadlineToken::unbounded())
        .expect("listing");
    let runs = summaries
        .iter()
        .map(|r| match r.kind {
            RunKind::Benchmark => {
                KnowledgeItem::Benchmark(store.load_knowledge(r.id).expect("load").expect("run"))
            }
            RunKind::Io500 => {
                KnowledgeItem::Io500(store.load_io500(r.id).expect("load").expect("run"))
            }
        })
        .collect();
    (summaries, runs)
}

/// `disk` with `edit` applied to every segment block of its manifest.
fn with_segment_blocks(disk: Disk, edit: impl Fn(&mut BTreeMap<String, Json>)) -> Disk {
    let vfs = FaultVfs::from_state(disk);
    let mut manifest = persist::read_document_vfs(&kb(), &vfs).expect("manifest");
    if let Json::Obj(fields) = &mut manifest {
        if let Some(Json::Arr(segments)) = fields.get_mut("segments") {
            for segment in segments {
                if let Json::Obj(block) = segment {
                    edit(block);
                }
            }
        }
    }
    persist::write_document_vfs(&kb(), &vfs, &manifest).expect("manifest");
    vfs.durable_state()
}

/// `disk` with its manifest rewritten as binaries before segment lengths
/// were recorded wrote it: no `len` in a `.seg-` segment's block.
fn without_recorded_lengths(disk: Disk) -> Disk {
    with_segment_blocks(disk, |block| {
        if !block.contains_key("epoch") {
            block.remove("len");
        }
    })
}

/// A manifest written before segment lengths were recorded names each
/// `.seg-` log without one: every such segment takes its file's length,
/// the store opens to the same view, and its next manifest commit
/// records the lengths, so the disk becomes the one today's binary
/// writes, but for the frames of the logs it keeps; a missing, torn or
/// empty file is one unusable segment, as any damaged body is. A segment document an older binary wrote is
/// never decoded: planted at `.seg-2`, it is refused with a message
/// that names the way back, and `fsck --repair` leaves every byte where
/// it was.
#[test]
fn a_segment_without_a_recorded_length_takes_its_files_and_a_document_is_refused() {
    let disk = scripted_history();
    let legacy = legacy_framed(without_recorded_lengths(disk.clone()));
    // The previous binary's manifest of this history, byte for byte.
    assert_eq!(fnv1a(&legacy[&kb()]), 0x7626_6ace_7c79_8a1c);
    // The rows of `.seg-2` in the envelope binaries before compaction
    // wrote logs gave a segment: the old pin's bytes.
    let seg = persist::segment_path(&kb(), 2);
    let today = Arc::new(FaultVfs::from_state(disk.clone()));
    let block = read_segment_vfs(&seg, today.as_ref(), disk[&seg].len() as u64).expect("segment");
    let mut body = String::from("{\"format\":\"iokc-segment\",\"id\":2,\"rows\":");
    persist::write_rows(&mut body, &block.db, &BTreeMap::new());
    body.push_str(",\"version\":2}");
    let document = legacy_frame(persist::render_document(body).into_bytes());
    assert_eq!(fnv1a(&document), 0xe830_8154_3ba4_e1de);

    let earlier = Arc::new(FaultVfs::from_state(legacy.clone()));
    let (mut new, mut old) = (open(&today), open(&earlier));
    assert_eq!(view(&old), view(&new));
    assert_eq!(old.segment_metas()[0].body, new.segment_metas()[0].body);
    for store in [&mut new, &mut old] {
        store.seal_active().expect("seal");
    }
    let (sealed, sealed_today) = (earlier.durable_state(), today.durable_state());
    assert_eq!(sealed[&kb()], sealed_today[&kb()]);
    assert_eq!(legacy_framed(sealed), legacy_framed(sealed_today));

    // A `.seg-` log that is gone, torn or empty is one unusable segment,
    // as any damaged body is: fsck names it and `--repair` drops it alone.
    let torn = legacy[&seg][..legacy[&seg].len() - 7].to_vec();
    for body in [None, Some(torn), Some(Vec::new())] {
        let mut damaged = legacy.clone();
        match body {
            Some(bytes) => damaged.insert(seg.clone(), bytes),
            None => damaged.remove(&seg),
        };
        let vfs = Arc::new(FaultVfs::from_state(damaged));
        let detect = fsck_pass(&vfs, false);
        assert_eq!(detect.unrepaired(), 1, "{detect:?}");
        let what = &detect.findings[0].what;
        assert!(
            what.starts_with("segment /kb.json.seg-2 unusable"),
            "{what}"
        );
        let repair = fsck_pass(&vfs, true);
        let dropped = repair
            .notes
            .iter()
            .any(|n| n.contains("DATA LOSS: segment 2"));
        assert!(dropped && repair.unrepaired() == 0, "{repair:?}");
        assert!(fsck_pass(&vfs, false).clean());
    }

    let mut planted = legacy;
    planted.insert(seg, document);
    let vfs = Arc::new(FaultVfs::from_state(planted.clone()));
    let Err(err) = KnowledgeStore::open_with_vfs(kb(), Arc::clone(&vfs) as Arc<dyn Vfs>) else {
        panic!("opened a store whose segment is a document");
    };
    let named = |e: &str| e.contains(".seg-2") && e.contains("previous binary's `iokc compact`");
    assert!(matches!(&err, DbError::Corrupt(e) if named(e)), "{err}");
    let repair = fsck_pass(&vfs, true);
    assert_eq!(
        (repair.repaired(), repair.unrepaired()),
        (0, 1),
        "{repair:?}"
    );
    assert!(named(&repair.findings[0].what), "{repair:?}");
    assert!(!repair.notes.iter().any(|n| n.contains("DATA LOSS")));
    assert_eq!(vfs.durable_state(), planted);
    assert!(KnowledgeStore::open_or_degraded_with_vfs(kb(), vfs).is_read_only());
}

/// A disk an older binary framed (`j1` records, `#iokc-crc64:` footer)
/// opens to the view the same disk framed today opens to, and fsck
/// finds it clean. It seals and compacts: the blocks compaction splices
/// keep their `j1` frames inside the log it writes, every record of
/// which verifies, and the store reads back the same runs.
#[test]
fn a_disk_an_older_binary_framed_opens_seals_and_compacts() {
    let disk = scripted_history();
    let legacy = legacy_framed(disk.clone());
    assert_ne!(legacy, disk);
    let (earlier, today) = (
        Arc::new(FaultVfs::from_state(legacy)),
        Arc::new(FaultVfs::from_state(disk)),
    );
    let (mut old, mut new) = (open(&earlier), open(&today));
    let before = view(&new);
    assert_eq!(view(&old), before);
    assert!(fsck_pass(&earlier, false).clean());
    for store in [&mut old, &mut new] {
        store.seal_active().expect("seal");
        store.compact().expect("compact");
        assert_eq!(view(store), before);
    }
    let seg = persist::segment_path(&kb(), 4);
    let compacted = earlier.read(&seg).expect("compacted");
    let spliced = compacted
        .split(|&b| b == b'\n')
        .filter(|l| l.starts_with(b"j1 "));
    assert!(spliced.count() > 0, "no legacy block spliced");
    let log = read_journal_vfs(&seg, earlier.as_ref()).expect("log");
    assert!(!log.torn_tail && log.dropped_bytes == 0);
    assert_eq!(
        legacy_frame(compacted),
        legacy_frame(today.read(&seg).expect("seg"))
    );
    drop(old);
    assert!(fsck_pass(&earlier, false).clean());
    assert_eq!(view(&open(&earlier)), before);
}

/// An active log an older binary wrote takes this binary's appends: its
/// `j1` records, then the `j2` records after them, replay in order.
#[test]
fn a_legacy_log_takes_appends_and_replays_in_order() {
    let vfs = Arc::new(FaultVfs::pristine());
    let mut store = open(&vfs);
    let mut model = Model::new();
    let mut save = |store: &mut KnowledgeStore, tag: u32| {
        let id = store.save_knowledge(&bench(tag)).expect("save");
        model.insert((RunKind::Benchmark, id), bench(tag).command);
    };
    save(&mut store, 1);
    save(&mut store, 2);
    drop(store);
    let vfs = Arc::new(FaultVfs::from_state(legacy_framed(vfs.durable_state())));
    let mut store = open(&vfs);
    save(&mut store, 3);
    save(&mut store, 4);
    drop(store);
    let log = vfs.read(&persist::wal_path(&kb(), 0)).expect("log");
    let magics: Vec<&[u8]> = log
        .split_inclusive(|&b| b == b'\n')
        .map(|l| &l[..2])
        .collect();
    assert_eq!(magics, [b"j1", b"j1", b"j2", b"j2"]);
    let ids: Vec<u64> = model.keys().map(|&(_, id)| id).collect();
    assert_eq!(ids, [1, 2, 3, 4]);
    assert_eq!(contents(&open(&vfs)), model);
}

/// A crash tore the log's last record. The torn bytes are cut by the
/// first append after the open, or by `fsck --repair`, with a truncate
/// whose barrier may fail or lose power and still reach the disk: a
/// power loss there offers the log torn and cut, and each image reopens
/// to the acknowledged prefix — as does every image of every other
/// crash point of either path.
#[test]
fn every_crash_of_a_torn_log_truncate_reopens_to_the_acknowledged_prefix() {
    let saves = [save_bench(), save_bench(), save_bench()];
    let mut start = replay(&Disk::new(), FaultPlan::default(), &saves, NO_AUTO_SEAL)
        .vfs
        .durable_state();
    let log = persist::wal_path(&kb(), 0);
    let torn = start.get_mut(&log).expect("log");
    torn.truncate(torn.len() - 7);
    let torn_len = torn.len();
    let boot = |plan| Arc::new(FaultVfs::from_state_with_plan(start.clone(), plan));
    let dropped = read_journal_vfs(&log, boot(FaultPlan::default()).as_ref())
        .expect("log")
        .dropped_bytes;
    let acknowledged = contents(&open(&boot(FaultPlan::default())));
    assert_eq!(acknowledged.len(), 2);

    let ops = [save_bench()];
    for fault in [DiskFault::Crash, DiskFault::CrashSync] {
        crash_at_every("torn log, first append", &start, &ops, NO_AUTO_SEAL, fault);
    }
    // The truncate's barrier is the first after the open.
    let cut = replay(
        &start,
        FaultPlan::at(0, DiskFault::CrashSync),
        &ops,
        NO_AUTO_SEAL,
    );
    let lengths: BTreeSet<usize> = cut
        .vfs
        .crash_states()
        .iter()
        .map(|s| s[&log].len())
        .collect();
    assert_eq!(lengths, BTreeSet::from([torn_len - dropped, torn_len]));

    let repair = |plan| {
        let vfs = boot(plan);
        fsck_pass(&vfs, true);
        vfs
    };
    let probe = repair(FaultPlan::default());
    let (mut points, mut images, mut lengths) = (0, 0, BTreeSet::new());
    for (fault, count) in [
        (DiskFault::Crash, probe.op_count()),
        (DiskFault::CrashSync, probe.sync_count()),
    ] {
        for at in 0..count {
            let crashed = repair(FaultPlan::at(at, fault));
            assert!(crashed.crashed(), "{fault:?} at {at} never fired");
            for image in crashed.crash_states() {
                lengths.insert(image[&log].len());
                let vfs = Arc::new(FaultVfs::from_state(image));
                assert_eq!(contents(&open(&vfs)), acknowledged, "{fault:?} at {at}");
                let again = fsck_pass(&vfs, true);
                assert_eq!(again.unrepaired(), 0, "{fault:?} at {at}: {again:?}");
                assert!(fsck_pass(&vfs, false).clean(), "{fault:?} at {at}");
                assert_eq!(contents(&open(&vfs)), acknowledged, "{fault:?} at {at}");
                images += 1;
            }
            points += 1;
        }
    }
    assert_eq!(lengths, BTreeSet::from([torn_len - dropped, torn_len]));
    eprintln!("torn log, fsck --repair crash enumeration: {points} crash points, {images} images");
}

/// A `.seg-` log is the length its manifest recorded, as an adopted log
/// is: one valid record appended past the committed bytes makes the
/// segment corrupt to every reader — the body load, the SQL surface,
/// fsck and compaction — and never part of the store.
#[test]
fn a_record_appended_past_a_segments_recorded_length_is_corruption() {
    let disk = scripted_history();
    let seg = persist::segment_path(&kb(), 2);
    let recorded = disk[&seg].len() as u64;
    // A store that had the body resident before the append, and one
    // that reads it cold after.
    let (hot, vfs) = (
        Arc::new(FaultVfs::from_state(disk.clone())),
        Arc::new(FaultVfs::from_state(disk)),
    );
    let mut warm = open(&hot);
    warm.snapshot().materialize().expect("rows");
    for disk in [&hot, &vfs] {
        JournalWriter::open_vfs(&seg, disk.as_ref())
            .expect("open")
            .append(r#"{"rows":{"IOFHsRuns":[[999,null,null]]}}"#)
            .expect("append");
    }
    let actual = vfs.len(&seg).expect("segment");
    let mut cold = open(&vfs);
    let meta = &cold.segment_metas()[0];
    assert_eq!((meta.file(&kb()), meta.body.len), (seg.clone(), recorded));

    let err = read_segment_vfs(&seg, vfs.as_ref(), recorded).expect_err("body");
    let lengths = format!("sealed at {recorded} bytes, holds {actual}");
    assert!(
        matches!(&err, DbError::Corrupt(e) if e.contains(&lengths)),
        "{err}"
    );
    let err = cold.snapshot().materialize().expect_err("SQL view");
    assert!(
        matches!(&err, DbError::Corrupt(e) if e.contains(&lengths)),
        "{err}"
    );
    let detect = fsck_pass(&vfs, false);
    assert_eq!(detect.unrepaired(), 1, "{detect:?}");
    assert!(detect.findings[0].what.contains("unusable"), "{detect:?}");
    for (store, disk) in [(&mut warm, &hot), (&mut cold, &vfs)] {
        store.seal_active().expect("seal");
        let before = disk.durable_state();
        let err = store.compact().expect_err("compact");
        assert!(
            matches!(&err, DbError::Corrupt(e) if e.contains(".seg-2")),
            "{err}"
        );
        assert_eq!(disk.durable_state(), before, "nothing written");
    }
}

/// `scripted_history()` with a row appended to its one segment, `.seg-2`,
/// that references a missing parent (no performance 12345), and the
/// manifest recording the longer length: a body that verifies and that
/// `fsck --repair` rewrites.
fn with_an_orphan_row() -> Disk {
    let vfs = FaultVfs::from_state(scripted_history());
    let seg = persist::segment_path(&kb(), 2);
    let orphan =
        r#"{"rows":{"summaries":[[999,{"i":12345},"write",null,null,null,null,null,null,null]]}}"#;
    JournalWriter::open_vfs(&seg, &vfs)
        .expect("open")
        .append(orphan)
        .expect("append");
    let len = vfs.len(&seg).expect("segment");
    with_segment_blocks(vfs.durable_state(), |block| {
        block.insert("len".into(), Json::from(len));
    })
}

/// `fsck --repair` writes a repaired body to a fresh `.seg-<id>` and
/// unlinks the old one only after the manifest commit that names the new
/// one. So a power loss at any point of the repair, or any one of its
/// operations failing — the manifest commit among them — leaves a disk
/// that reads the same runs, and the next repair finishes the job
/// without dropping the segment.
#[test]
fn every_crash_point_of_a_repair_keeps_the_segment() {
    let start = with_an_orphan_row();
    let model = contents(&open(&Arc::new(FaultVfs::from_state(start.clone()))));
    assert!(!model.is_empty());
    let repair = |plan| {
        let vfs = Arc::new(FaultVfs::from_state_with_plan(start.clone(), plan));
        let report = fsck_pass(&vfs, true);
        (vfs, report)
    };
    let recovers = |vfs: Arc<FaultVfs>, when: &str| {
        assert_eq!(contents(&open(&vfs)), model, "{when}");
        let again = fsck_pass(&vfs, true);
        assert_eq!(again.unrepaired(), 0, "{when}: {again:?}");
        let lost = again.notes.iter().any(|n| n.contains("DATA LOSS"));
        assert!(!lost, "{when}: {again:?}");
        assert!(fsck_pass(&vfs, false).clean(), "{when}");
        assert_eq!(contents(&open(&vfs)), model, "{when}");
    };
    let (probe, report) = repair(FaultPlan::default());
    assert!(
        report.repaired() > 0 && report.unrepaired() == 0,
        "{report:?}"
    );
    let (mut images, mut failed_commits) = (0, 0);
    for at in 0..probe.op_count() {
        let (crashed, _) = repair(FaultPlan::at(at, DiskFault::Crash));
        assert!(crashed.crashed(), "crash {at} never fired");
        for image in crashed.crash_states() {
            recovers(
                Arc::new(FaultVfs::from_state(image)),
                &format!("crash at {at}"),
            );
            images += 1;
        }
        for fault in [DiskFault::Enospc, DiskFault::Eio] {
            let (vfs, report) = repair(FaultPlan::at(at, fault));
            let commit = "manifest rewrite after repair failed";
            failed_commits += usize::from(report.findings.iter().any(|f| f.what.contains(commit)));
            recovers(vfs, &format!("{fault:?} at {at}"));
        }
    }
    assert!(failed_commits > 0, "no fault hit the manifest commit");
    let points = probe.op_count();
    eprintln!("repair crash enumeration: {points} crash points, {images} images");
}

#[test]
fn fsck_sweeps_logs_of_other_epochs_and_truncates_a_torn_log() {
    let vfs = Arc::new(FaultVfs::pristine());
    let mut store = open(&vfs);
    let mut model = Model::new();
    for tag in 0..6 {
        let id = store.save_knowledge(&bench(tag)).expect("save");
        model.insert((RunKind::Benchmark, id), bench(tag).command);
    }
    drop(store);
    // Epoch 1 is current; segment 0 adopted epoch 0's log. Tear the
    // current log mid-record (the sixth save is lost with it) and plant
    // files a crashed seal could have left at epochs no segment adopted.
    let log = persist::wal_path(&kb(), 1);
    vfs.set_len(&log, vfs.len(&log).expect("log") - 7)
        .expect("tear");
    model.remove(&(RunKind::Benchmark, 6));
    for stray in [persist::wal_path(&kb(), 2), persist::wal_path(&kb(), 3)] {
        let mut file = vfs.create(&stray).expect("stray");
        file.write_all(b"left behind").expect("stray bytes");
        file.sync().expect("stray sync");
    }
    let vfs = Arc::new(FaultVfs::from_state(vfs.durable_state()));

    // The store already reads the acknowledged prefix, without writing.
    assert_eq!(contents(&open(&vfs)), model);
    assert_eq!(vfs.op_count(), 0);
    let detect = fsck_pass(&vfs, false);
    assert_eq!(detect.unrepaired(), 3, "{:?}", detect.findings);
    let repair = fsck_pass(&vfs, true);
    assert_eq!(
        (repair.repaired(), repair.unrepaired()),
        (3, 0),
        "{:?}",
        repair.findings
    );
    assert!(fsck_pass(&vfs, false).clean());
    let names: Vec<String> = vfs
        .durable_state()
        .keys()
        .map(|p| p.to_string_lossy().into_owned())
        .filter(|p| p.contains(".wal-"))
        .collect();
    assert_eq!(names, vec!["/kb.json.wal-0", "/kb.json.wal-1"]);
    assert_eq!(contents(&open(&vfs)), model);
}

#[test]
fn save_and_delete_churn_cannot_grow_the_log_or_its_replay() {
    let vfs = Arc::new(FaultVfs::pristine());
    let mut store = open(&vfs);
    let keeper = store.save_knowledge(&bench(0)).expect("save");
    let mut longest_log = 0;
    for tag in 1..=10 * SEAL_THRESHOLD as u32 {
        let id = store.save_knowledge(&bench(tag)).expect("save");
        assert!(store.delete_knowledge(id).expect("delete"));
        // A log a segment adopted is that segment, not a log left behind.
        let adopted: Vec<PathBuf> = store
            .segment_metas()
            .iter()
            .map(|m| m.file(&kb()))
            .collect();
        let logs: Vec<usize> = vfs
            .durable_state()
            .iter()
            .filter(|(path, _)| path.to_string_lossy().contains(".wal-") && !adopted.contains(path))
            .map(|(_, bytes)| bytes.len())
            .collect();
        assert!(logs.len() <= 1, "a retired log was left behind");
        longest_log = longest_log.max(logs.iter().sum());
    }
    drop(store);
    // No log ever held more than a threshold's worth of operations...
    let record = 1024; // generous: a save record here is ~300 bytes
    assert!(
        longest_log <= SEAL_THRESHOLD * record,
        "log grew to {longest_log} bytes"
    );
    // ...so no reopen replays more than that, however long the churn.
    let mut reopened = open(&Arc::new(FaultVfs::from_state(vfs.durable_state())));
    let recorder = Arc::new(Recorder::disabled());
    reopened.attach_recorder(Arc::clone(&recorder));
    let replayed = recorder
        .metrics()
        .counter("store.wal.replayed_records")
        .get();
    assert!(replayed < SEAL_THRESHOLD as u64, "replayed {replayed}");
    assert_eq!(reopened.knowledge_count(), 1);
    assert!(reopened.load_knowledge(keeper).expect("load").is_some());
}

/// A cold body load is visible: the first unfiltered scan of a reopened
/// store reads and decodes every segment, the second none.
#[test]
fn a_cold_body_load_is_counted_once() {
    let vfs = Arc::new(FaultVfs::pristine());
    let mut store = open(&vfs);
    for tag in 0..3 * SEAL_THRESHOLD as u32 {
        store.save_knowledge(&bench(tag)).expect("save");
    }
    let segments = store.segment_metas().len() as u64;
    assert!(segments >= 2, "{segments} segment(s)");
    let files: Vec<PathBuf> = store
        .segment_metas()
        .iter()
        .map(|m| m.file(&kb()))
        .collect();
    drop(store);
    let on_disk: u64 = files
        .iter()
        .map(|file| vfs.len(file).expect("segment"))
        .sum();

    let mut reopened = open(&vfs);
    let recorder = Arc::new(Recorder::disabled());
    reopened.attach_recorder(Arc::clone(&recorder));
    let loaded = || {
        let counter = |name: &str| recorder.metrics().counter(name).get();
        (
            counter("store.segment.bodies_loaded"),
            counter("store.segment.bytes_decoded"),
        )
    };
    assert_eq!(loaded(), (0, 0), "open maps index blocks only");
    assert_eq!(contents(&reopened).len(), 3 * SEAL_THRESHOLD);
    assert_eq!(loaded(), (segments, on_disk));
    assert_eq!(contents(&reopened).len(), 3 * SEAL_THRESHOLD);
    assert_eq!(loaded(), (segments, on_disk), "bodies stay resident");
}

/// Every run of `query`'s cursor, each loaded on its own.
fn loaded_one_by_one(store: &KnowledgeStore, query: &Query) -> Vec<KnowledgeItem> {
    let refs = store.query_ids(query, &DeadlineToken::unbounded());
    let load = |r: &RunRef| match r.kind {
        RunKind::Benchmark => store
            .load_knowledge(r.id)
            .map(|k| k.map(KnowledgeItem::Benchmark)),
        RunKind::Io500 => store.load_io500(r.id).map(|k| k.map(KnowledgeItem::Io500)),
    };
    let items = refs
        .expect("ids")
        .iter()
        .map(load)
        .collect::<Result<Vec<_>, _>>();
    items
        .expect("load")
        .into_iter()
        .map(|item| item.expect("live"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// The readers that walk a block's child tables against their
    /// run-by-run models, over runs that fill every child table and carry
    /// warnings, after any history of saves, batches, deletes of active
    /// and of sealed runs, seals and compactions: a full projection is
    /// each run of its cursor loaded on its own (the whole store, a
    /// selective query, bandwidth descending); a box-plot series is the
    /// results of each matched run's knowledge object; and the summaries
    /// a reopen derives block by block are those each save derived from
    /// its own rows.
    #[test]
    fn walked_readers_equal_their_run_by_run_models(
        ops in proptest::collection::vec(arb_op(), 1..16)
    ) {
        let vfs = Arc::new(FaultVfs::pristine());
        let mut store = open(&vfs);
        let (mut model, mut history) = (Model::new(), History::default());
        for op in &ops {
            apply(&mut store, &mut model, op, &mut history).0.expect("no fault is injected");
        }
        let open_ended = DeadlineToken::unbounded();
        for query in [
            Query::all(),
            Query::new(RunPredicate::TasksBetween(1, 32)),
            Query::all().order_by(RunOrder::Bandwidth).descending(),
        ] {
            let items = store.query_items(&query).expect("items");
            prop_assert_eq!(items, loaded_one_by_one(&store, &query), "{}", query);
        }
        for op in ["write", "read", "stat"] {
            let matched = RunPredicate::Kind(RunKind::Benchmark).and(RunPredicate::HasOp(op.into()));
            let series: Vec<(String, Vec<f64>)> = loaded_one_by_one(&store, &Query::new(matched))
                .into_iter()
                .filter_map(|item| match item {
                    KnowledgeItem::Benchmark(k) => {
                        let of_op = k.results.iter().filter(|r| r.operation == op);
                        let series: Vec<f64> = of_op.map(|r| r.bw_mib).collect();
                        (!series.is_empty()).then_some((k.command, series))
                    }
                    KnowledgeItem::Io500(_) => None,
                })
                .collect();
            let walked = store.boxplot_series(&RunPredicate::True, op, &open_ended);
            prop_assert_eq!(walked.expect("series"), series, "{}", op);
        }
        let summaries = store.query_summaries(&Query::all(), &open_ended).expect("summaries");
        let reopened = open(&vfs).query_summaries(&Query::all(), &open_ended);
        prop_assert_eq!(reopened.expect("summaries"), summaries);
    }
}

/// What a store answers, as one comparable value: the listing, every
/// run of `keys` loaded (live or deleted), an aggregate, the write
/// generation, and the sealed layout.
type Answers = (
    Vec<RunSummary>,
    Vec<Option<KnowledgeItem>>,
    AggregateResult,
    u64,
    Vec<SegmentMeta>,
    usize,
);

fn answers(store: &KnowledgeStore, keys: &BTreeSet<(RunKind, u64)>) -> Answers {
    let open_ended = DeadlineToken::unbounded();
    let loaded = keys.iter().map(|&(kind, id)| match kind {
        RunKind::Benchmark => store
            .load_knowledge(id)
            .map(|k| k.map(KnowledgeItem::Benchmark)),
        RunKind::Io500 => store.load_io500(id).map(|k| k.map(KnowledgeItem::Io500)),
    });
    let aggregate = AggregateQuery::new(GroupBy::Kind, Factor::Bandwidth)
        .with_correlation(&[Factor::Tasks, Factor::Bandwidth]);
    (
        store
            .query_summaries(&Query::all(), &open_ended)
            .expect("listing"),
        loaded.collect::<Result<_, _>>().expect("load"),
        store.aggregate(&aggregate, &open_ended).expect("aggregate"),
        store.generation(),
        store.segment_metas(),
        store.tombstone_count(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// An in-memory store is a store: one history of saves, batches,
    /// deletes of active and of sealed runs, seals and compactions, run
    /// on `KnowledgeStore::in_memory()` and on a store opened over a
    /// fresh in-memory disk under the same low seal threshold, answers
    /// the same after every operation.
    #[test]
    fn an_in_memory_store_answers_as_a_store_on_an_in_memory_disk(
        threshold in 2usize..5,
        ops in proptest::collection::vec(arb_op(), 1..16),
    ) {
        let on_disk = Arc::new(FaultVfs::pristine()) as Arc<dyn Vfs>;
        let mut stores = [
            KnowledgeStore::in_memory(),
            KnowledgeStore::open_with_vfs(kb(), on_disk).expect("open"),
        ]
        .map(|mut store| {
            store.set_seal_threshold(threshold);
            (store, Model::new(), History::default())
        });
        let mut keys = BTreeSet::new();
        for op in &ops {
            for (store, model, history) in &mut stores {
                apply(store, model, op, history).0.expect("no fault is injected");
            }
            let [(memory, in_memory, _), (file, on_file, _)] = &stores;
            prop_assert_eq!(in_memory, on_file, "{:?}", op);
            keys.extend(in_memory.keys().copied());
            prop_assert_eq!(answers(memory, &keys), answers(file, &keys), "{:?}", op);
        }
    }
}

/// An in-memory store seals at its threshold and compacts, as any
/// store does, and it persists under the one persister name.
#[test]
fn an_in_memory_store_seals_and_compacts() {
    let mut store = KnowledgeStore::in_memory();
    store.set_seal_threshold(2);
    for tag in 0..3 {
        store.save_knowledge(&bench(tag)).expect("save");
    }
    assert_eq!(store.segment_metas().len(), 1);
    store.save_knowledge(&bench(3)).expect("save");
    assert_eq!(store.segment_metas().len(), 2);
    assert!(store.delete_knowledge(1).expect("delete"));
    let report = store.compact().expect("compact");
    assert_eq!((report.segments_merged, report.runs_rewritten), (2, 3));
    assert_eq!(contents(&store).len(), 3);
    assert_eq!(Persister::name(&store), "knowledge-store");
}

/// The one row-block codec, checked differentially on real blocks. A log
/// record (`save_batch`, replayed by the reopen) and a segment body
/// (`seal_active`, decoded by `read_segment_vfs`) must both hold exactly
/// the rows an in-memory store holds for the same items, and what is
/// derived from the decoded segment — summaries, index block — must be
/// what was derived from the source rows.
mod codec {
    use super::*;
    use iokc_core::model::{Io500Testcase, OperationSummary};
    use iokc_store::segment::{read_segment_vfs, SegmentMeta};
    use iokc_store::{Column, ColumnType, Database, Row, TableSchema, Value};
    use iokc_util::json::{self, Json, Reader};

    /// A run of either kind whose cells cover what the codec must carry:
    /// non-ASCII text, a NULL (`derived_from`), integers up to 2⁵³, reals
    /// across the exponent range, warnings.
    fn arb_item() -> impl Strategy<Value = KnowledgeItem> {
        (
            any::<bool>(),
            ".{1,16}",
            0u64..(1 << 53) + 1,
            (1.0f64..10.0, -300i32..300),
            proptest::option::of(1u64..9),
            proptest::collection::vec(".{0,8}", 0..3),
        )
            .prop_map(|(is_io500, text, int, (mantissa, exp), parent, warnings)| {
                let real = mantissa * 10f64.powi(exp);
                if is_io500 {
                    return KnowledgeItem::Io500(Io500Knowledge {
                        bw_score: real,
                        total_score: real.sqrt(),
                        testcases: vec![Io500Testcase {
                            name: text.clone(),
                            value: real,
                            unit: text,
                            time_s: 1.0,
                        }],
                        start_time: int,
                        warnings,
                        ..io500(4)
                    });
                }
                let mut k = Knowledge::new(KnowledgeSource::Ior, &text);
                k.pattern.block_size = int;
                k.derived_from = parent;
                k.warnings = warnings;
                k.summaries.push(OperationSummary {
                    operation: "write".into(),
                    api: text,
                    max_mib: real,
                    min_mib: 0.0,
                    mean_mib: real,
                    stddev_mib: 0.0,
                    mean_ops: real,
                    iterations: 1,
                });
                KnowledgeItem::Benchmark(k)
            })
    }

    fn rows(db: &Database) -> Vec<(String, Vec<Row>)> {
        let scan = |table| db.rows(table).expect("scan").to_vec();
        db.table_names()
            .into_iter()
            .map(|table| (table.to_owned(), scan(table)))
            .collect()
    }

    /// The tree codec the streaming one replaced (`persist::rows_to_json`
    /// and `rows_from_json` until PR 24), kept as its oracle: the same
    /// bytes through a `Json` tree. It holds integers as `f64` and cannot
    /// see a table given twice (the tree keeps one).
    fn rows_to_json(db: &Database, mark: &BTreeMap<String, i64>) -> Json {
        let cell = |value: &Value| match value {
            Value::Null => Json::Null,
            Value::Int(i) => Json::obj(vec![("i", Json::from(*i))]),
            Value::Real(r) => Json::Num(*r),
            Value::Text(t) => Json::from(t.as_str()),
        };
        let mut tables = BTreeMap::new();
        for (table, rows) in rows(db) {
            let from = mark.get(&table).copied().unwrap_or(i64::MIN);
            let row = |row: &Row| {
                let id = std::iter::once(Json::from(row.id));
                Json::Arr(id.chain(row.values.iter().map(cell)).collect())
            };
            let rows: Vec<Json> = rows.iter().filter(|r| r.id >= from).map(row).collect();
            if !rows.is_empty() {
                tables.insert(table, Json::Arr(rows));
            }
        }
        Json::Obj(tables)
    }

    fn rows_from_json(db: &mut Database, rows: &Json) -> Result<(), DbError> {
        let bad = |what: String| DbError::Corrupt(what);
        let int = |json: &Json| json.as_f64().filter(|f| f.fract() == 0.0).map(|f| f as i64);
        let Json::Obj(tables) = rows else {
            return Err(bad("rows not an object".into()));
        };
        for (table, rows) in tables {
            db.schema(table).map_err(|e| bad(e.to_string()))?;
            let rows = rows.as_arr();
            for row in rows.ok_or_else(|| bad(format!("{table}: rows not an array")))? {
                let cells = row.as_arr().unwrap_or(&[]);
                let id = cells.first().and_then(int);
                let id = id.ok_or_else(|| bad(format!("{table}: not a row with an id")))?;
                let cell = |cell: &Json| {
                    match cell {
                        Json::Null => Some(Value::Null),
                        Json::Num(n) => Some(Value::Real(*n)),
                        Json::Str(s) => Some(Value::Text(s.clone())),
                        Json::Obj(map) if map.len() == 1 => {
                            map.get("i").and_then(int).map(Value::Int)
                        }
                        _ => None,
                    }
                    .ok_or_else(|| bad(format!("{table}: row {id}: a cell is not a value")))
                };
                let values = cells[1..].iter().map(cell).collect::<Result<_, _>>()?;
                db.insert_raw(table, id, values)?;
            }
        }
        Ok(())
    }

    /// Decode a whole text as one block with the streaming reader.
    fn decode(db: &mut Database, text: &str) -> Result<(), DbError> {
        let mut reader = Reader::new(text);
        persist::read_rows(&mut reader, db)?;
        Ok(reader.finish()?)
    }

    fn two_tables() -> Database {
        let mut schema = Database::new();
        for table in ["t", "u"] {
            let columns = [
                ("a", ColumnType::Text),
                ("b", ColumnType::Real),
                ("c", ColumnType::Integer),
            ];
            let columns = columns
                .iter()
                .map(|(name, ty)| Column::new(name, *ty))
                .collect();
            schema
                .create_table(TableSchema::new(table, columns))
                .expect("schema");
        }
        schema
    }

    /// What neither codec may skip: both are `Corrupt`, for every shape
    /// the tree can hold the difference of.
    #[test]
    fn what_cannot_be_placed_is_corrupt_to_the_codec_and_to_its_oracle() {
        for doc in [
            "[]",
            r#"{"v":[]}"#,
            r#"{"t":7}"#,
            r#"{"t":[7]}"#,
            r#"{"t":[[]]}"#,
            r#"{"t":[["1","a",null,null]]}"#,
            r#"{"t":[[1.5,"a",null,null]]}"#,
            r#"{"t":[[1,"a",null,null],[1,"a",null,null]]}"#,
            r#"{"t":[[1,true,null,null]]}"#,
            r#"{"t":[[1,"a",[1],null]]}"#,
            r#"{"t":[[1,"a",null,{"j":1}]]}"#,
            r#"{"t":[[1,"a",null,{"i":"x"}]]}"#,
            r#"{"t":[[1,"a",null,{"i":1.5}]]}"#,
            r#"{"t":[[1,"a",null,{"i":1,"j":2}]]}"#,
            r#"{"t":[[1,"a",null,{"i":1}"#,
            r#"{"t":[[1,"a",null,null],]}"#,
            r#"{"t":[[1,"a",null,null]]} {"#,
        ] {
            let direct = decode(&mut two_tables(), doc);
            assert!(
                matches!(direct, Err(DbError::Corrupt(_))),
                "{doc}: {direct:?}"
            );
            let tree = json::parse(doc).map_err(|e| DbError::Corrupt(e.to_string()));
            let tree = tree.and_then(|rows| rows_from_json(&mut two_tables(), &rows));
            assert!(matches!(tree, Err(DbError::Corrupt(_))), "{doc}: {tree:?}");
        }
        // A table given twice: the tree keeps the last, the reader refuses.
        let twice = r#"{"t":[[1,"a",null,null]],"t":[[2,"a",null,null]]}"#;
        assert!(matches!(
            decode(&mut two_tables(), twice),
            Err(DbError::Corrupt(_))
        ));
    }

    /// The envelope is read member by member in whatever order it comes:
    /// a segment's record the tree would have rendered with other keys
    /// first (and whitespace) holds the same block.
    #[test]
    fn a_reordered_envelope_reads_the_same() {
        let seg = persist::segment_path(&kb(), 2);
        let vfs = FaultVfs::from_state(scripted_history());
        let record = iokc_store::journal::read_journal_vfs(&seg, &vfs).expect("log");
        let doc = json::parse(&record.records[0]).expect("record");
        let block = doc.get("rows").expect("rows").to_compact();
        let reordered = format!(
            " {{\"version\": 2, \"rows\": {block},\t \"id\": 2, \"extra\": [{{}}], \"format\": \"iokc-segment\"}} "
        );
        let sealed = read_segment_vfs(&seg, &vfs, vfs.len(&seg).expect("len")).expect("segment");
        vfs.remove_file(&seg).expect("remove");
        JournalWriter::open_vfs(&seg, &vfs)
            .expect("open")
            .append(&reordered)
            .expect("append");
        let len = vfs.len(&seg).expect("len");
        let again = read_segment_vfs(&seg, &vfs, len).expect("reordered segment");
        assert_eq!(rows(&again.db), rows(&sealed.db));
        assert_eq!(again.summaries, sealed.summaries);
    }

    proptest! {
        /// The streaming codec against the tree codec over generated
        /// databases (text with quotes, backslashes, control and non-BMP
        /// characters; reals across the range, `-0.0`, non-finite;
        /// integers within ±2⁵³; negative and sparse ids; an empty table;
        /// any mark): the same bytes, the same rows from them and from
        /// what only the tree would write (whitespace, `\u` escapes,
        /// surrogate pairs), and decode∘encode the identity on what the
        /// mark selects, a non-finite REAL reading back NULL.
        #[test]
        fn the_streaming_codec_equals_the_tree_codec(
            generated in proptest::collection::vec((
                any::<bool>(),
                -50i64..50,
                "[a-c \"\\\\\u{1}\n\té😀]{0,6}",
                proptest::option::of(prop_oneof![
                    any::<f64>(), Just(-0.0), Just(5e-324), Just(1e300), Just(f64::NAN), Just(f64::INFINITY)
                ]),
                proptest::option::of(-(1i64 << 53)..(1 << 53) + 1),
            ), 0..24),
            mark in proptest::option::of(-50i64..50),
        ) {
            let (mut db, mut expected) = (two_tables(), two_tables());
            let from = |table: &str| mark.filter(|_| table == "t").unwrap_or(i64::MIN);
            for (in_u, id, a, b, c) in generated {
                let table = if in_u { "u" } else { "t" };
                let (a, c) = (Value::from(a), c.map_or(Value::Null, Value::Int));
                let cells = |b: Option<f64>| vec![a.clone(), b.map_or(Value::Null, Value::Real), c.clone()];
                // An id the table already holds is refused.
                if db.insert_raw(table, id, cells(b)).is_ok() && id >= from(table) {
                    expected.insert_raw(table, id, cells(b.filter(|b| b.is_finite()))).expect("fresh id");
                }
            }
            let mark: BTreeMap<String, i64> = mark.map(|from| ("t".to_owned(), from)).into_iter().collect();
            let mut text = String::new();
            let any = persist::write_rows(&mut text, &db, &mark);
            let tree = rows_to_json(&db, &mark);
            prop_assert_eq!(&text, &tree.to_compact());
            prop_assert_eq!(any, text != "{}");
            let escape = |c: char| match c.is_ascii() {
                true => c.to_string(),
                false => c.encode_utf16(&mut [0; 2]).iter().map(|u| format!("\\u{u:04x}")).collect(),
            };
            let escaped = text.chars().map(escape).collect();
            for doc in [text, tree.to_pretty(), escaped] {
                let (mut direct, mut oracle) = (two_tables(), two_tables());
                decode(&mut direct, &doc).expect("streaming decode");
                rows_from_json(&mut oracle, &json::parse(&doc).expect("parse")).expect("tree decode");
                prop_assert_eq!(rows(&direct), rows(&expected), "{}", doc);
                prop_assert_eq!(rows(&oracle), rows(&expected), "{}", doc);
            }
        }
    }

    proptest! {
        #[test]
        fn a_block_survives_the_log_and_the_segment_file_alike(
            items in proptest::collection::vec(arb_item(), 1..8)
        ) {
            let mut source = KnowledgeStore::in_memory();
            source.save_batch(&items).expect("save");
            let summaries: BTreeMap<_, _> = source
                .query_summaries(&Query::all(), &DeadlineToken::unbounded())
                .expect("listing")
                .into_iter()
                .map(|s| ((s.kind, s.id), s))
                .collect();

            // The log: one record written by the batch, replayed by the
            // reopen (default threshold, so nothing seals mid-batch).
            let vfs = Arc::new(FaultVfs::pristine());
            let reopen = || KnowledgeStore::open_with_vfs(kb(), Arc::clone(&vfs) as Arc<dyn Vfs>);
            reopen().expect("open").save_batch(&items).expect("save");
            let mut store = reopen().expect("reopen");
            prop_assert_eq!(rows(store.database()), rows(source.database()));

            // The segment: the same block written by the seal.
            store.seal_active().expect("seal");
            let meta = &store.segment_metas()[0];
            let sealed = read_segment_vfs(&meta.file(&kb()), vfs.as_ref(), meta.body.len)
                .expect("segment");
            prop_assert_eq!(rows(&sealed.db), rows(source.database()));
            prop_assert_eq!(&sealed.summaries, &summaries);
            prop_assert_eq!(
                vec![SegmentMeta::compute(0, sealed.summaries.values(), meta.body)],
                store.segment_metas()
            );
        }
    }
}
