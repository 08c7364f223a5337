//! `FaultVfs` against the disk it models, op by op.
//!
//! The model below is the two-image disk `FaultVfs` was before it held
//! each file once: every path keeps a volatile byte image and a durable
//! copy, and an fsync clones one into the other. A handle is the file it
//! opened, not its name: after a rename it writes to the renamed file,
//! after an unlink to a file nothing names, and its fsync clones into
//! the durable copy of whatever name points at that file now. It is
//! slow and plain, which is what an oracle should be. Random op lists — creates,
//! appends, writes in several calls, file and directory syncs, renames,
//! unlinks, truncates and reboots into a crash image — run through both
//! under the same seeded fault plan, and after every op each observable
//! answer must agree.

use iokc_store::{DiskFault, FaultPlan, FaultVfs, Vfs, VfsFile};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};

type Image = BTreeMap<PathBuf, Vec<u8>>;

const NAMES: [&str; 4] = ["kb.json", "kb.json.tmp", "kb.json.wal-0", "journal"];
const KINDS: [DiskFault; 6] = [
    DiskFault::Enospc,
    DiskFault::Eio,
    DiskFault::ShortWrite,
    DiskFault::Crash,
    DiskFault::FailSync,
    DiskFault::CrashSync,
];

#[derive(Debug, Default)]
struct Node {
    bytes: Vec<u8>,
    synced_len: usize,
    /// The length a truncate whose barrier failed cut the file to.
    cut: Option<usize>,
}

/// The two-image disk.
#[derive(Debug, Default)]
struct Model {
    /// Every file ever opened, by handle number; never freed.
    files: Vec<Node>,
    /// Each name's file.
    volatile: BTreeMap<PathBuf, usize>,
    durable: Image,
    pending_renames: Vec<(PathBuf, PathBuf)>,
    ops: u64,
    syncs: u64,
    crashed: bool,
    plan: FaultPlan<DiskFault>,
}

fn crash_error() -> io::Error {
    io::Error::other("simulated power loss")
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("{}: no such file", path.display()),
    )
}

impl Model {
    fn from_state(state: Image, plan: FaultPlan<DiskFault>) -> Model {
        let mut model = Model {
            durable: state.clone(),
            plan,
            ..Model::default()
        };
        for (path, bytes) in state {
            let file = model.new_file(&path);
            model.files[file] = Node {
                synced_len: bytes.len(),
                bytes,
                cut: None,
            };
        }
        model
    }

    /// Point `path` at a new empty file; returns its number.
    fn new_file(&mut self, path: &Path) -> usize {
        self.files.push(Node::default());
        let file = self.files.len() - 1;
        self.volatile.insert(path.to_path_buf(), file);
        file
    }

    fn begin_op(&mut self) -> io::Result<u64> {
        if self.crashed {
            return Err(crash_error());
        }
        let op = self.ops;
        self.ops += 1;
        if self.plan.fires(op, DiskFault::Crash) {
            self.crashed = true;
            return Err(crash_error());
        }
        if self.plan.fires(op, DiskFault::Eio) {
            return Err(io::Error::other("injected EIO"));
        }
        if self.plan.fires(op, DiskFault::Enospc) {
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "injected ENOSPC",
            ));
        }
        Ok(op)
    }

    fn begin_sync(&mut self) -> io::Result<()> {
        let sync = self.syncs;
        self.syncs += 1;
        if self.plan.fires(sync, DiskFault::CrashSync) {
            self.crashed = true;
            return Err(crash_error());
        }
        if self.plan.fires(sync, DiskFault::FailSync) {
            return Err(io::Error::other("injected fsync failure"));
        }
        Ok(())
    }

    fn commit_renames(&mut self, count: usize) {
        for (from, to) in self.pending_renames.drain(..count).collect::<Vec<_>>() {
            if let Some(bytes) = self.durable.remove(&from) {
                self.durable.insert(to, bytes);
            } else {
                self.durable.remove(&to);
            }
        }
    }

    fn settle_renames_of(&mut self, path: &Path) {
        let last = (self.pending_renames.iter()).rposition(|(from, to)| from == path || to == path);
        if let Some(last) = last {
            self.commit_renames(last + 1);
        }
    }

    /// A file sync: the durable copy of the name pointing at `file`
    /// becomes a clone of it.
    fn promote(&mut self, file: usize) {
        let node = &mut self.files[file];
        node.synced_len = node.bytes.len();
        node.cut = None;
        for (path, _) in self.volatile.iter().filter(|&(_, &named)| named == file) {
            self.durable.insert(path.clone(), node.bytes.clone());
        }
    }

    fn write_all(&mut self, file: usize, data: &[u8]) -> io::Result<()> {
        let op = self.begin_op()?;
        let node = &mut self.files[file];
        if self.plan.fires(op, DiskFault::ShortWrite) {
            node.bytes.extend_from_slice(&data[..data.len() / 2]);
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "injected short write",
            ));
        }
        node.bytes.extend_from_slice(data);
        Ok(())
    }

    fn sync(&mut self, file: usize) -> io::Result<()> {
        self.begin_op()?;
        self.begin_sync()?;
        self.promote(file);
        Ok(())
    }

    fn create(&mut self, path: &Path) -> io::Result<usize> {
        self.begin_op()?;
        self.settle_renames_of(path);
        Ok(self.new_file(path))
    }

    fn append(&mut self, path: &Path) -> io::Result<usize> {
        self.begin_op()?;
        if let Some(&file) = self.volatile.get(path) {
            return Ok(file);
        }
        self.settle_renames_of(path);
        Ok(self.new_file(path))
    }

    fn set_len(&mut self, path: &Path, len: u64) -> io::Result<()> {
        self.begin_op()?;
        let Some(&file) = self.volatile.get(path) else {
            return Err(not_found(path));
        };
        let node = &mut self.files[file];
        node.bytes.truncate(len as usize);
        node.synced_len = node.synced_len.min(node.bytes.len());
        // A barrier that fails may have reached the disk anyway.
        node.cut = Some(node.bytes.len());
        self.begin_sync()?;
        self.promote(file);
        Ok(())
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        self.begin_op()?;
        let Some(file) = self.volatile.remove(from) else {
            return Err(not_found(from));
        };
        self.volatile.insert(to.to_path_buf(), file);
        (self.pending_renames).push((from.to_path_buf(), to.to_path_buf()));
        Ok(())
    }

    fn remove_file(&mut self, path: &Path) -> io::Result<()> {
        self.begin_op()?;
        if self.volatile.remove(path).is_none() {
            return Err(not_found(path));
        }
        self.settle_renames_of(path);
        self.durable.remove(path);
        Ok(())
    }

    fn sync_parent_dir(&mut self) -> io::Result<()> {
        self.begin_op()?;
        self.begin_sync()?;
        let all = self.pending_renames.len();
        self.commit_renames(all);
        Ok(())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        if self.crashed {
            return Err(crash_error());
        }
        let &file = self.volatile.get(path).ok_or_else(|| not_found(path))?;
        Ok(self.files[file].bytes.clone())
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        self.read(path).map(|bytes| bytes.len() as u64)
    }

    fn exists(&self, path: &Path) -> bool {
        !self.crashed && self.volatile.contains_key(path)
    }

    fn crash_states(&self) -> Vec<Image> {
        const MAX_STATES: usize = 64;
        let mut states = BTreeSet::new();
        for applied in 0..=self.pending_renames.len() {
            let mut base = self.durable.clone();
            for (from, to) in &self.pending_renames[..applied] {
                if let Some(bytes) = base.remove(from) {
                    base.insert(to.clone(), bytes);
                }
            }
            states.insert(base.clone());
            for (path, &file) in &self.volatile {
                let node = &self.files[file];
                if let Some(cut) = node.cut {
                    let mut truncated = base.clone();
                    truncated.insert(path.clone(), node.bytes[..cut].to_vec());
                    states.insert(truncated);
                }
                if node.bytes.len() == node.synced_len {
                    continue;
                }
                let suffix = node.bytes.len() - node.synced_len;
                let mut torn = base.clone();
                let kept = node.synced_len + suffix / 2;
                torn.insert(path.clone(), node.bytes[..kept].to_vec());
                states.insert(torn);
                let mut full = base.clone();
                full.insert(path.clone(), node.bytes.clone());
                states.insert(full);
                if states.len() >= MAX_STATES {
                    return states.into_iter().collect();
                }
            }
        }
        states.into_iter().collect()
    }
}

#[derive(Debug, Clone)]
enum Op {
    Create(usize),
    Append(usize),
    /// Write through an open handle, in one call per chunk length.
    Write(usize, Vec<usize>),
    Sync(usize),
    Rename(usize, usize),
    Remove(usize),
    SetLen(usize, u64),
    SyncDir,
    /// Boot both disks from one of their crash images.
    Reboot(usize),
}

/// Writes and syncs are listed twice: they weigh double.
fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..NAMES.len()).prop_map(Op::Create),
        (0..NAMES.len()).prop_map(Op::Append),
        (0..8usize, prop::collection::vec(0..40usize, 1..4)).prop_map(|(h, c)| Op::Write(h, c)),
        (0..8usize, prop::collection::vec(0..40usize, 1..4)).prop_map(|(h, c)| Op::Write(h, c)),
        (0..8usize).prop_map(Op::Sync),
        (0..8usize).prop_map(Op::Sync),
        (0..NAMES.len(), 0..NAMES.len()).prop_map(|(from, to)| Op::Rename(from, to)),
        (0..NAMES.len()).prop_map(Op::Remove),
        (0..NAMES.len(), 0..60u64).prop_map(|(name, len)| Op::SetLen(name, len)),
        Just(Op::SyncDir),
        (0..64usize).prop_map(Op::Reboot),
    ]
}

fn path(name: usize) -> PathBuf {
    PathBuf::from(NAMES[name])
}

/// What an operation answered, comparable across the two disks.
fn outcome<T>(result: io::Result<T>) -> Result<T, (io::ErrorKind, String)> {
    result.map_err(|error| (error.kind(), error.to_string()))
}

/// Both disks, and the handles opened on each (a model handle is the
/// number of the file it writes to).
struct Pair {
    vfs: FaultVfs,
    handles: Vec<Box<dyn VfsFile>>,
    model: Model,
    model_handles: Vec<usize>,
}

impl Pair {
    fn new(plan: impl Fn() -> FaultPlan<DiskFault>, state: Image) -> Pair {
        Pair {
            vfs: FaultVfs::from_state_with_plan(state.clone(), plan()),
            handles: Vec::new(),
            model: Model::from_state(state, plan()),
            model_handles: Vec::new(),
        }
    }

    fn open(&mut self, name: usize, append: bool) {
        let path = path(name);
        let (real, model) = if append {
            (self.vfs.append(&path), self.model.append(&path))
        } else {
            (self.vfs.create(&path), self.model.create(&path))
        };
        let model = model.map(|file| self.model_handles.push(file));
        let real = real.map(|handle| self.handles.push(handle));
        assert_eq!(outcome(real), outcome(model));
    }

    fn apply(&mut self, op: &Op, fill: &mut u8) {
        match op {
            Op::Create(name) => self.open(*name, false),
            Op::Append(name) => self.open(*name, true),
            Op::Write(handle, chunks) if !self.handles.is_empty() => {
                let at = handle % self.handles.len();
                for &len in chunks {
                    let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                    *fill = fill.wrapping_add(7);
                    let real = self.handles[at].write_all(&data);
                    let model = self.model.write_all(self.model_handles[at], &data);
                    assert_eq!(outcome(real), outcome(model), "{op:?}");
                }
            }
            Op::Sync(handle) if !self.handles.is_empty() => {
                let at = handle % self.handles.len();
                let real = self.handles[at].sync();
                let model = self.model.sync(self.model_handles[at]);
                assert_eq!(outcome(real), outcome(model), "{op:?}");
            }
            Op::Write(..) | Op::Sync(_) => {}
            Op::Rename(from, to) => {
                let real = self.vfs.rename(&path(*from), &path(*to));
                let model = self.model.rename(&path(*from), &path(*to));
                assert_eq!(outcome(real), outcome(model), "{op:?}");
            }
            Op::Remove(name) => {
                let real = self.vfs.remove_file(&path(*name));
                let model = self.model.remove_file(&path(*name));
                assert_eq!(outcome(real), outcome(model), "{op:?}");
            }
            Op::SetLen(name, len) => {
                let real = self.vfs.set_len(&path(*name), *len);
                let model = self.model.set_len(&path(*name), *len);
                assert_eq!(outcome(real), outcome(model), "{op:?}");
            }
            Op::SyncDir => {
                let real = self.vfs.sync_parent_dir(&path(0));
                assert_eq!(outcome(real), outcome(self.model.sync_parent_dir()));
            }
            Op::Reboot(_) => unreachable!("a reboot replaces the pair"),
        }
    }

    fn check(&self, step: usize) {
        let (vfs, model) = (&self.vfs, &self.model);
        for name in 0..NAMES.len() {
            let path = path(name);
            assert_eq!(
                outcome(vfs.read(&path)),
                outcome(model.read(&path)),
                "{step}"
            );
            assert_eq!(outcome(vfs.len(&path)), outcome(model.len(&path)), "{step}");
            assert_eq!(vfs.exists(&path), model.exists(&path), "{step}");
        }
        assert_eq!(vfs.durable_state(), model.durable, "step {step}");
        assert_eq!(vfs.crash_states(), model.crash_states(), "step {step}");
        assert_eq!(vfs.op_count(), model.ops, "step {step}");
        assert_eq!(vfs.sync_count(), model.syncs, "step {step}");
        assert_eq!(vfs.crashed(), model.crashed, "step {step}");
        assert_eq!(vfs.faults_injected(), model.plan.fired(), "step {step}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn fault_vfs_answers_as_the_two_image_disk(
        ops in prop::collection::vec(op(), 1..80),
        seed in any::<u64>(),
        faults in 0..6usize,
    ) {
        let plan = |boot: u64| move || FaultPlan::seeded(seed ^ boot, 100, faults, &KINDS);
        let mut pair = Pair::new(plan(0), Image::new());
        let mut fill = 0u8;
        for (step, op) in ops.iter().enumerate() {
            if let Op::Reboot(pick) = op {
                let states = pair.vfs.crash_states();
                let state = states[pick % states.len()].clone();
                pair = Pair::new(plan(step as u64 + 1), state);
            } else {
                pair.apply(op, &mut fill);
            }
            pair.check(step);
        }
    }
}

/// Write 11 bytes, sync, then truncate to 5 under `fault` at the
/// truncate's barrier: a barrier that fails may still have reached the
/// disk, so a crash image holds all 11 bytes or the first 5, and both
/// are offered.
fn truncate_under(fault: DiskFault) -> FaultVfs {
    let vfs = FaultVfs::new(FaultPlan::at(1, fault));
    let mut file = vfs.create(Path::new("a")).expect("create");
    file.write_all(b"hello world").expect("write");
    file.sync().expect("sync");
    assert!(vfs.set_len(Path::new("a"), 5).is_err());
    let images: Vec<Vec<u8>> = (vfs.crash_states().iter())
        .map(|state| state[Path::new("a")].clone())
        .collect();
    assert_eq!(images, [&b"hello"[..], b"hello world"]);
    vfs
}

#[test]
fn a_truncate_whose_fsync_fails_is_not_durable() {
    let vfs = truncate_under(DiskFault::FailSync);
    assert_eq!(vfs.read(Path::new("a")).expect("read"), b"hello");
    vfs.set_len(Path::new("a"), 5).expect("retried truncate");
    assert_eq!(vfs.durable_state()[Path::new("a")], b"hello");
    assert_eq!(vfs.crash_states(), [vfs.durable_state()]);
}

#[test]
fn a_truncate_whose_fsync_crashes_is_not_durable() {
    assert!(truncate_under(DiskFault::CrashSync).crashed());
}

/// A cut is forgotten with its file: a file created after the cut one
/// was unlinked (which may reuse its inode) surfaces only as written.
#[test]
fn a_cut_is_forgotten_with_its_file() {
    let vfs = truncate_under(DiskFault::FailSync);
    vfs.remove_file(Path::new("a")).expect("unlink");
    let mut file = vfs.create(Path::new("b")).expect("create");
    file.write_all(b"hi").expect("write");
    let images: Vec<Option<Vec<u8>>> = (vfs.crash_states().iter())
        .map(|state| state.get(Path::new("b")).cloned())
        .collect();
    assert_eq!(images, [None, Some(b"h".to_vec()), Some(b"hi".to_vec())]);
}

/// A handle writes to and syncs the file it opened, whatever names it
/// now: after a rename, the renamed file; after an unlink, a file no
/// name reaches, whose sync makes no name durable.
#[test]
fn a_handle_follows_its_file_across_a_rename_and_an_unlink() {
    let mut pair = Pair::new(FaultPlan::default, Image::new());
    let ops = [
        Op::Create(0),
        Op::Write(0, vec![3]),
        Op::Rename(0, 3),
        Op::Write(0, vec![2]),
        Op::Sync(0),
        Op::Create(2),
        Op::Remove(2),
        Op::Write(1, vec![4]),
        Op::Sync(1),
    ];
    let mut fill = 0u8;
    for (step, op) in ops.iter().enumerate() {
        pair.apply(op, &mut fill);
        pair.check(step);
    }
    let journal = pair.vfs.read(&path(3)).expect("read");
    assert_eq!(journal.len(), 5, "both writes land in the renamed file");
    assert!(!pair.vfs.exists(&path(0)) && !pair.vfs.exists(&path(2)));
    assert_eq!(pair.vfs.durable_state(), Image::from([(path(3), journal)]));
}
