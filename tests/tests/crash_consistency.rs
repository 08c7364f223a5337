//! Crash-consistency checker for the knowledge store (ISSUE PR 6).
//!
//! A mixed save/delete/journal workload runs on the deterministic
//! [`FaultVfs`]; for every virtual-filesystem operation the workload
//! performs, one run is crashed exactly there and every post-crash disk
//! image a real disk could expose (`crash_states`) is reopened and
//! checked against the durability contract:
//!
//! * every acknowledged operation is fully present;
//! * no unacknowledged operation is partially visible — the recovered
//!   store equals an acknowledged-prefix state (at most one in-flight
//!   operation whose bytes all reached disk may additionally appear);
//! * the incremental secondary indexes equal a bulk rebuild;
//! * the event journal salvages to a prefix of the acknowledged records;
//! * `fsck --repair` fixes every finding the crash produced, and a
//!   second pass comes back clean;
//! * a document is committed by one rename, so once a manifest was
//!   acknowledged every image holds one that verifies, and none holds a
//!   second generation of anything.
//!
//! The corpus generation (`iokc corpus gen`'s library call) runs through
//! the same enumeration against a stronger contract: resumed from any
//! post-crash image it ends in the run set of the uninterrupted run.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use iokc_benchmarks::corpus::generate;
use iokc_benchmarks::CorpusSpec;
use iokc_core::model::{Io500Knowledge, Io500Testcase, Knowledge, KnowledgeItem, KnowledgeSource};
use iokc_extract::Io500Extractor;
use iokc_store::journal::{read_journal_vfs, truncate_torn_tail_vfs, JournalWriter};
use iokc_store::persist::{read_document_vfs, wal_path};
use iokc_store::{
    fsck, DbError, DeadlineToken, DiskFault, FaultPlan, FaultVfs, FsckOptions, KnowledgeStore,
    Query, RunKind, RunPredicate, Vfs,
};

fn kb() -> PathBuf {
    PathBuf::from("/kb.json")
}

fn journal_path() -> PathBuf {
    PathBuf::from("/events.j")
}

fn bench(i: usize) -> Knowledge {
    Knowledge::new(KnowledgeSource::Ior, &format!("ior -t 1m -b 16m #{i}"))
}

fn io500(i: usize) -> Io500Knowledge {
    Io500Knowledge {
        id: None,
        tasks: 8 + i as u32,
        bw_score: 0.5 + i as f64,
        md_score: 10.0,
        total_score: 2.25 + i as f64,
        testcases: vec![Io500Testcase {
            name: "ior-easy-write".into(),
            value: 2.5,
            unit: "GiB/s".into(),
            time_s: 31.0,
        }],
        options: BTreeMap::new(),
        system: None,
        start_time: 0,
        warnings: Vec::new(),
    }
}

/// Stable content signature of a store: one sorted line per run.
fn fingerprint(store: &KnowledgeStore) -> Vec<String> {
    let mut rows: Vec<String> = store
        .query_summaries(&Query::all(), &DeadlineToken::unbounded())
        .expect("fingerprint query")
        .iter()
        .map(|r| match r.kind {
            RunKind::Benchmark => format!("b:{}:{}", r.id, r.command),
            RunKind::Io500 => format!("i:{}:{}:{}", r.id, r.tasks, r.total_score),
        })
        .collect();
    rows.sort();
    rows
}

/// One generation: with `acked` store operations acknowledged before
/// the crash, the manifest at the store's path verifies in this image
/// (the first acknowledged operation committed it, and a rename replaces
/// it whole ever after), and no image holds a `.bak` of anything.
fn assert_one_generation(op: u64, acked: usize, image: &FaultVfs) {
    if acked > 0 {
        if let Err(e) = read_document_vfs(&kb(), image) {
            panic!("crash op {op} (acked {acked}): no manifest that verifies: {e}");
        }
    }
    for path in image.durable_state().keys() {
        let name = path.to_string_lossy();
        assert!(!name.ends_with(".bak"), "crash op {op}: {name}");
    }
}

struct WorkloadRun {
    /// Store operations acknowledged (flush returned `Ok`).
    acked: usize,
    /// Journal records whose append was acknowledged.
    journal_records: Vec<String>,
    /// `states[j]` = fingerprint after `j` acknowledged store ops.
    states: Vec<Vec<String>>,
}

/// The mixed workload: two benchmark saves, two IO500 saves, one delete
/// of each kind, with a journal record appended after every
/// acknowledged store operation. Stops at the first failure.
fn run_workload(vfs: Arc<FaultVfs>) -> WorkloadRun {
    let mut out = WorkloadRun {
        acked: 0,
        journal_records: Vec::new(),
        states: Vec::new(),
    };
    let Ok(mut store) = KnowledgeStore::open_with_vfs(kb(), Arc::clone(&vfs) as Arc<dyn Vfs>)
    else {
        return out;
    };
    let Ok(mut journal) = JournalWriter::open_vfs(&journal_path(), &*vfs) else {
        return out;
    };
    out.states.push(fingerprint(&store));
    let mut bench_ids: Vec<u64> = Vec::new();
    let mut io_ids: Vec<u64> = Vec::new();
    for step in 0..6 {
        let result: Result<(), DbError> = (|| {
            match step {
                0 => bench_ids.push(store.save_knowledge(&bench(0))?),
                1 => io_ids.push(store.save_io500(&io500(0))?),
                2 => bench_ids.push(store.save_knowledge(&bench(1))?),
                3 => drop(store.delete_knowledge(bench_ids[0])?),
                4 => io_ids.push(store.save_io500(&io500(1))?),
                _ => drop(store.delete_io500(io_ids[0])?),
            }
            Ok(())
        })();
        if result.is_err() {
            return out;
        }
        out.acked += 1;
        out.states.push(fingerprint(&store));
        let payload = format!("op-{step} acked");
        if journal.append(&payload).is_err() {
            return out;
        }
        out.journal_records.push(payload);
    }
    out
}

#[test]
fn every_crash_point_recovers_an_acknowledged_prefix() {
    // Fault-free probe: records the op budget and the fingerprint after
    // each acknowledged operation.
    let probe_vfs = Arc::new(FaultVfs::pristine());
    let probe = run_workload(Arc::clone(&probe_vfs));
    assert_eq!(probe.acked, 6, "fault-free workload must fully succeed");
    let total_ops = probe_vfs.op_count();
    assert!(total_ops > 20, "workload too small to be interesting");

    for op in 0..total_ops {
        let vfs = Arc::new(FaultVfs::new(FaultPlan::at(op, DiskFault::Crash)));
        let run = run_workload(Arc::clone(&vfs));
        assert!(vfs.crashed(), "crash op {op} never fired");
        let j = run.acked;
        let hi = (j + 1).min(probe.acked);
        let allowed = &probe.states[j..=hi];

        for state in vfs.crash_states() {
            let svfs = Arc::new(FaultVfs::from_state(state));
            assert_one_generation(op, j, &svfs);

            // Reopen: every exposable disk image must load to an
            // acknowledged-prefix state with indexes that match a bulk
            // rebuild.
            let reopened = KnowledgeStore::open_with_vfs(kb(), Arc::clone(&svfs) as Arc<dyn Vfs>)
                .unwrap_or_else(|e| panic!("crash op {op}: reopen failed: {e}"));
            let fp = fingerprint(&reopened);
            assert!(
                allowed.contains(&fp),
                "crash op {op} (acked {j}): recovered state {fp:?} is not an acknowledged prefix"
            );
            assert!(
                reopened.indexes_consistent().expect("index rebuild"),
                "crash op {op}: incremental indexes diverge from bulk rebuild"
            );

            // Journal: the salvaged prefix is exactly the acknowledged
            // records, plus at most the one in-flight record whose
            // bytes fully landed.
            let report = read_journal_vfs(&journal_path(), &*svfs).expect("journal read");
            let n = run.journal_records.len();
            assert!(
                report.records.len() >= n && report.records.len() <= n + 1,
                "crash op {op}: journal salvaged {} records, acknowledged {n}",
                report.records.len()
            );
            assert_eq!(&report.records[..n], &run.journal_records[..]);
            if report.records.len() == n + 1 {
                assert_eq!(report.records[n], format!("op-{} acked", run.acked - 1));
            }
            if report.torn_tail {
                let salvaged =
                    truncate_torn_tail_vfs(&journal_path(), &*svfs).expect("torn-tail truncate");
                let again = read_journal_vfs(&journal_path(), &*svfs).expect("journal reread");
                assert!(
                    !again.torn_tail,
                    "crash op {op}: tail still torn after repair"
                );
                assert_eq!(again.records, salvaged.records);
            }

            // fsck: one repair pass fixes every finding the crash
            // produced; the second pass is clean; the repaired image is
            // still an acknowledged prefix.
            let repair = fsck(
                &kb(),
                &*svfs,
                &FsckOptions {
                    repair: true,
                    journal: Some(journal_path()),
                },
            );
            assert_eq!(
                repair.unrepaired(),
                0,
                "crash op {op}: unrepaired findings {:?}",
                repair.findings
            );
            let second = fsck(
                &kb(),
                &*svfs,
                &FsckOptions {
                    repair: false,
                    journal: Some(journal_path()),
                },
            );
            assert!(
                second.clean(),
                "crash op {op}: fsck not clean after repair: {:?}",
                second.findings
            );
            let after = KnowledgeStore::open_with_vfs(kb(), Arc::clone(&svfs) as Arc<dyn Vfs>)
                .unwrap_or_else(|e| panic!("crash op {op}: reopen after fsck failed: {e}"));
            assert!(allowed.contains(&fingerprint(&after)));
        }
    }
}

/// The segmented-store workload: saves that trip the auto-seal
/// threshold (so segments seal mid-workload), a delete that lands a
/// tombstone on a sealed run, an explicit seal, and a full compaction.
/// Sealing and compaction move rows between layers without changing
/// what reads return, so their fingerprints equal the preceding step's.
fn run_segmented_workload(vfs: Arc<FaultVfs>) -> WorkloadRun {
    let mut out = WorkloadRun {
        acked: 0,
        journal_records: Vec::new(),
        states: Vec::new(),
    };
    let Ok(mut store) = KnowledgeStore::open_with_vfs(kb(), Arc::clone(&vfs) as Arc<dyn Vfs>)
    else {
        return out;
    };
    store.set_seal_threshold(2);
    out.states.push(fingerprint(&store));
    let mut ids: Vec<u64> = Vec::new();
    for step in 0..8 {
        let result: Result<(), DbError> = (|| {
            match step {
                0..=3 => ids.push(store.save_knowledge(&bench(step))?),
                4 => drop(store.delete_knowledge(ids[0])?),
                5 => drop(store.save_io500(&io500(0))?),
                6 => store.seal_active()?,
                _ => {
                    store.compact()?;
                }
            }
            Ok(())
        })();
        if result.is_err() {
            return out;
        }
        out.acked += 1;
        out.states.push(fingerprint(&store));
    }
    out
}

#[test]
fn every_crash_point_during_seal_and_compaction_recovers() {
    let probe_vfs = Arc::new(FaultVfs::pristine());
    let probe = run_segmented_workload(Arc::clone(&probe_vfs));
    assert_eq!(probe.acked, 8, "fault-free segmented workload must succeed");
    let total_ops = probe_vfs.op_count();
    assert!(
        total_ops > 30,
        "segmented workload too small to exercise seal/compaction windows"
    );

    for op in 0..total_ops {
        let vfs = Arc::new(FaultVfs::new(FaultPlan::at(op, DiskFault::Crash)));
        let run = run_segmented_workload(Arc::clone(&vfs));
        assert!(vfs.crashed(), "crash op {op} never fired");
        let j = run.acked;
        let hi = (j + 1).min(probe.acked);
        let allowed = &probe.states[j..=hi];

        for state in vfs.crash_states() {
            let svfs = Arc::new(FaultVfs::from_state(state));
            assert_one_generation(op, j, &svfs);

            // Reopen: mid-seal and mid-compaction crash images must load
            // to an acknowledged-prefix state — strays (half-written
            // segments, superseded actives, torn manifests) never change
            // what reads return.
            let reopened = KnowledgeStore::open_with_vfs(kb(), Arc::clone(&svfs) as Arc<dyn Vfs>)
                .unwrap_or_else(|e| panic!("crash op {op}: reopen failed: {e}"));
            let fp = fingerprint(&reopened);
            assert!(
                allowed.contains(&fp),
                "crash op {op} (acked {j}): recovered state {fp:?} is not an acknowledged prefix"
            );
            assert!(
                reopened.indexes_consistent().expect("index rebuild"),
                "crash op {op}: incremental indexes diverge from bulk rebuild"
            );

            // One `fsck --repair` pass sweeps every stray the crash
            // left; the second pass is clean; the repaired image still
            // reads as an acknowledged prefix.
            let repair = fsck(
                &kb(),
                &*svfs,
                &FsckOptions {
                    repair: true,
                    journal: None,
                },
            );
            assert_eq!(
                repair.unrepaired(),
                0,
                "crash op {op}: unrepaired findings {:?}",
                repair.findings
            );
            let second = fsck(
                &kb(),
                &*svfs,
                &FsckOptions {
                    repair: false,
                    journal: None,
                },
            );
            assert!(
                second.clean(),
                "crash op {op}: fsck not clean after repair: {:?}",
                second.findings
            );
            let after = KnowledgeStore::open_with_vfs(kb(), Arc::clone(&svfs) as Arc<dyn Vfs>)
                .unwrap_or_else(|e| panic!("crash op {op}: reopen after fsck failed: {e}"));
            assert!(allowed.contains(&fingerprint(&after)));
        }
    }
}

/// A disk whose log a crash tore mid-record when it held a seal
/// threshold's worth (2) of acknowledged saves.
fn torn_at_threshold() -> BTreeMap<PathBuf, Vec<u8>> {
    let vfs = Arc::new(FaultVfs::pristine());
    let mut store =
        KnowledgeStore::open_with_vfs(kb(), Arc::clone(&vfs) as Arc<dyn Vfs>).expect("open");
    for i in 0..3 {
        store.save_knowledge(&bench(i)).expect("save");
    }
    drop(store);
    let log = wal_path(&kb(), 0);
    vfs.set_len(&log, vfs.len(&log).expect("log") - 7)
        .expect("tear");
    vfs.durable_state()
}

/// The runs of the adoption workload's batch.
const ADOPTION_BATCH: [usize; 4] = [11, 12, 13, 14];

/// Every adoption point, over `torn_at_threshold`: the first save seals
/// the reopened generation at once (its torn tail truncated, then its
/// log adopted); a batch seals twice inside itself, each time logging
/// its rows so far before adopting, and logs its tail; an explicit seal
/// adopts that; a compaction merges the adopted logs into a document.
fn run_adoption_workload(vfs: Arc<FaultVfs>) -> WorkloadRun {
    let mut out = WorkloadRun {
        acked: 0,
        journal_records: Vec::new(),
        states: Vec::new(),
    };
    let Ok(mut store) = KnowledgeStore::open_with_vfs(kb(), Arc::clone(&vfs) as Arc<dyn Vfs>)
    else {
        return out;
    };
    store.set_seal_threshold(2);
    out.states.push(fingerprint(&store));
    for step in 0..4 {
        let result: Result<(), DbError> = (|| {
            match step {
                0 => drop(store.save_knowledge(&bench(10))?),
                1 => drop(
                    store
                        .save_batch(&ADOPTION_BATCH.map(|i| KnowledgeItem::Benchmark(bench(i))))?,
                ),
                2 => store.seal_active()?,
                _ => {
                    store.compact()?;
                }
            }
            Ok(())
        })();
        if result.is_err() {
            return out;
        }
        out.acked += 1;
        out.states.push(fingerprint(&store));
    }
    out
}

#[test]
fn every_crash_point_while_adopting_a_log_recovers() {
    let image = torn_at_threshold();
    let probe_vfs = Arc::new(FaultVfs::from_state(image.clone()));
    let probe = run_adoption_workload(Arc::clone(&probe_vfs));
    assert_eq!(probe.acked, 4, "fault-free adoption workload must succeed");
    assert_eq!(probe.states[0].len(), 2, "the reopen salvages two runs");
    let total_ops = probe_vfs.op_count();
    // Besides its endpoints, a crash inside the batch may leave the
    // prefix of it that a seal inside it logged.
    let (before, after) = (&probe.states[1], &probe.states[2]);
    let prefixes: Vec<Vec<String>> = (1..ADOPTION_BATCH.len())
        .map(|k| {
            let logged: Vec<String> = ADOPTION_BATCH[..k]
                .iter()
                .map(|&i| format!(":{}", bench(i).command))
                .collect();
            after
                .iter()
                .filter(|line| before.contains(line) || logged.iter().any(|c| line.ends_with(c)))
                .cloned()
                .collect()
        })
        .collect();

    for op in 0..total_ops {
        let plan = FaultPlan::at(op, DiskFault::Crash);
        let vfs = Arc::new(FaultVfs::from_state_with_plan(image.clone(), plan));
        let run = run_adoption_workload(Arc::clone(&vfs));
        assert!(vfs.crashed(), "crash op {op} never fired");
        let j = run.acked;
        let mut allowed = probe.states[j..=(j + 1).min(probe.acked)].to_vec();
        if j == 1 {
            allowed.extend(prefixes.iter().cloned());
        }

        for state in vfs.crash_states() {
            let svfs = Arc::new(FaultVfs::from_state(state));
            assert_one_generation(op, j, &svfs);
            let reopened = KnowledgeStore::open_with_vfs(kb(), Arc::clone(&svfs) as Arc<dyn Vfs>)
                .unwrap_or_else(|e| panic!("crash op {op}: reopen failed: {e}"));
            let fp = fingerprint(&reopened);
            assert!(
                allowed.contains(&fp),
                "crash op {op} (acked {j}): recovered state {fp:?} is not an acknowledged prefix"
            );
            assert!(
                reopened.indexes_consistent().expect("index rebuild"),
                "crash op {op}: incremental indexes diverge from bulk rebuild"
            );
            let pass = |repair| {
                let opts = FsckOptions {
                    repair,
                    journal: None,
                };
                fsck(&kb(), &*svfs, &opts)
            };
            let repair = pass(true);
            assert_eq!(
                repair.unrepaired(),
                0,
                "crash op {op}: unrepaired findings {:?}",
                repair.findings
            );
            let second = pass(false);
            assert!(
                second.clean(),
                "crash op {op}: fsck not clean after repair: {:?}",
                second.findings
            );
            let after = KnowledgeStore::open_with_vfs(kb(), Arc::clone(&svfs) as Arc<dyn Vfs>)
                .unwrap_or_else(|e| panic!("crash op {op}: reopen after fsck failed: {e}"));
            assert!(allowed.contains(&fingerprint(&after)));
        }
    }
}

#[test]
fn seeded_chaos_never_leaves_the_store_incoherent() {
    for seed in 0..12u64 {
        let plan = FaultPlan::seeded(seed, 200, 5, &DiskFault::CHAOS);
        let vfs = Arc::new(FaultVfs::new(plan));
        let Ok(mut store) = KnowledgeStore::open_with_vfs(kb(), Arc::clone(&vfs) as Arc<dyn Vfs>)
        else {
            continue;
        };
        let mut last_generation = store.generation();
        for i in 0..10 {
            if store.is_read_only() {
                break;
            }
            match store.save_knowledge(&bench(i)) {
                Ok(_) => {
                    assert!(
                        store.generation() > last_generation,
                        "seed {seed}: acknowledged write did not advance the generation"
                    );
                }
                Err(DbError::ReadOnly(_)) => break,
                Err(_) => {
                    // A failed write must leave memory equal to disk and
                    // the generation untouched (monotone, no phantom
                    // bumps).
                    assert_eq!(store.generation(), last_generation, "seed {seed}");
                }
            }
            last_generation = store.generation();
            assert!(
                store.indexes_consistent().expect("index rebuild"),
                "seed {seed}: indexes diverged after op {i}"
            );
        }
        // Whatever the chaos did, the durable image still opens with
        // consistent indexes.
        let survivor = Arc::new(FaultVfs::from_state(vfs.durable_state()));
        let reopened = KnowledgeStore::open_with_vfs(kb(), survivor as Arc<dyn Vfs>)
            .unwrap_or_else(|e| panic!("seed {seed}: durable image does not reopen: {e}"));
        assert!(reopened.indexes_consistent().expect("index rebuild"));
    }
}

/// Corpus shape for the crash enumeration: three batches (3 + 3 + 2
/// points) over a store that seals every second run, so the first two
/// batches each commit a prefix through a seal before their own log
/// record, and a crash between the two leaves a partial batch durable.
const CORPUS_RUNS: usize = 8;
const CORPUS_BATCH: usize = 3;

fn campaign_dir() -> PathBuf {
    PathBuf::from("/campaign")
}

/// Open the store on `vfs` and generate (or resume) the corpus.
fn run_corpus(vfs: &Arc<FaultVfs>) -> Result<(KnowledgeStore, (usize, usize)), String> {
    let mut store = KnowledgeStore::open_with_vfs(kb(), Arc::clone(vfs) as Arc<dyn Vfs>)
        .map_err(|e| e.to_string())?;
    store.set_seal_threshold(2);
    let spec = CorpusSpec::new(CORPUS_RUNS, 42);
    let done = generate(
        &spec,
        &Io500Extractor,
        &mut store,
        &campaign_dir(),
        CORPUS_BATCH,
    )
    .map_err(|e| e.to_string())?;
    Ok((store, done))
}

/// The corpus as a reader sees it: one line per IO500 run, in id order,
/// with its id, its corpus index and its whole serialized item.
fn corpus_runs(store: &KnowledgeStore) -> Vec<String> {
    store
        .query_summaries(
            &Query::new(RunPredicate::Kind(RunKind::Io500)),
            &DeadlineToken::unbounded(),
        )
        .expect("corpus query")
        .iter()
        .map(|row| {
            let run = store
                .load_io500(row.id)
                .expect("run loads")
                .expect("run exists");
            let index = run.options["corpus_index"].clone();
            let item = KnowledgeItem::Io500(run).to_json().to_compact();
            format!("{} {index} {item}", row.id)
        })
        .collect()
}

#[test]
fn corpus_generation_resumes_to_the_uninterrupted_run_set_from_every_crash_point() {
    let probe_vfs = Arc::new(FaultVfs::pristine());
    let (probe, done) = run_corpus(&probe_vfs).expect("fault-free generation");
    assert_eq!(done, (CORPUS_RUNS, 0));
    let expected = corpus_runs(&probe);
    assert_eq!(expected.len(), CORPUS_RUNS);
    let total_ops = probe_vfs.op_count();
    assert!(total_ops > 40, "generation too small to be interesting");
    let reference = probe_vfs.durable_state();

    let mut images = 0;
    let mut identical = 0;
    for op in 0..total_ops {
        let vfs = Arc::new(FaultVfs::new(FaultPlan::at(op, DiskFault::Crash)));
        // Ok only when the crash hit cleanup the store does not wait on.
        let _ = run_corpus(&vfs);
        assert!(vfs.crashed(), "crash op {op} never fired");

        for state in vfs.crash_states() {
            let svfs = Arc::new(FaultVfs::from_state(state));
            let (resumed, (generated, skipped)) =
                run_corpus(&svfs).unwrap_or_else(|e| panic!("crash op {op}: resume failed: {e}"));
            assert_eq!(generated + skipped, CORPUS_RUNS, "crash op {op}");
            assert_eq!(
                corpus_runs(&resumed),
                expected,
                "crash op {op}: resumed run set differs from the uninterrupted one"
            );
            assert_eq!(resumed.io500_count(), CORPUS_RUNS, "crash op {op}");
            drop(resumed);

            // The journal is the header, whole; a second resume finds
            // nothing to do.
            let journal = iokc_jube::journal_path(&campaign_dir());
            let report = read_journal_vfs(&journal, &*svfs).expect("journal read");
            assert_eq!(
                (report.records.len(), report.torn_tail),
                (1, false),
                "crash op {op}"
            );
            let (_, again) = run_corpus(&svfs).expect("second resume");
            assert_eq!(again, (0, CORPUS_RUNS), "crash op {op}");

            // Same seed, same bytes: every file of the uninterrupted run
            // is there byte for byte. What else is there the crash
            // stranded and no read looks at: a log of an epoch a seal had
            // already moved past.
            images += 1;
            let durable = svfs.durable_state();
            for (path, bytes) in &reference {
                assert!(
                    durable.get(path) == Some(bytes),
                    "crash op {op}: {} differs from the uninterrupted run's",
                    path.display()
                );
            }
            let strays: Vec<&PathBuf> = durable
                .keys()
                .filter(|path| !reference.contains_key(*path))
                .collect();
            for path in &strays {
                let name = path.to_string_lossy();
                assert!(
                    name.contains(".wal-"),
                    "crash op {op}: unexpected file {name}"
                );
            }
            identical += usize::from(strays.is_empty());
        }
    }
    eprintln!(
        "corpus crash enumeration: {total_ops} crash points, {images} images, \
         {identical} end byte-identical to the uninterrupted run, the rest with strays only"
    );
}

/// The campaign pays for durability per batch, not per point: 64 more
/// points in one more batch add that batch's barriers (a `Start` and a
/// `Done` record per point would add 128), and the journal stays one
/// record long.
#[test]
fn corpus_generation_pays_no_barrier_per_point() {
    let syncs = |runs: usize| {
        let vfs = Arc::new(FaultVfs::pristine());
        let mut store = KnowledgeStore::open_with_vfs(kb(), Arc::clone(&vfs) as Arc<dyn Vfs>)
            .expect("open store");
        let spec = CorpusSpec::new(runs, 42);
        let done = generate(&spec, &Io500Extractor, &mut store, &campaign_dir(), 64);
        assert_eq!(done, Ok((runs, 0)));
        let journal = iokc_jube::journal_path(&campaign_dir());
        let report = read_journal_vfs(&journal, &*vfs).expect("journal read");
        assert_eq!(report.records.len(), 1, "{runs} points, one journal record");
        vfs.sync_count()
    };
    let (small, large) = (syncs(64), syncs(128));
    assert!(
        large - small < 8,
        "64 more points cost {} more barriers",
        large - small
    );
}
