//! A virtual filesystem under every store file operation.
//!
//! Persistence code that talks to `std::fs` directly can only be tested
//! against the failures a developer's laptop happens to produce. The
//! [`Vfs`] trait routes every read, write, fsync, rename and truncate
//! through one seam so the same save/load/journal code runs over:
//!
//! * [`StdVfs`] — the real filesystem, used in production; and
//! * [`FaultVfs`] — a deterministic in-memory filesystem that injects
//!   ENOSPC, EIO, short writes, fsync failures and power-loss crash
//!   points according to a reproducible [`FaultPlan`], while tracking
//!   which bytes a real disk would actually guarantee after a crash.
//!
//! # The durability model
//!
//! [`FaultVfs`] holds every file once, as an *inode*: bytes that only
//! grow by appends (or shrink by a truncate), and `synced_len`, how many
//! of them the last successful fsync covered. The *volatile* namespace
//! maps a path to an inode: what the running process observes. The
//! *durable* namespace maps a path to an inode and a length: what the
//! disk promises to still hold after power loss. A file handle holds its
//! inode, as a POSIX descriptor does: after a rename it writes to the
//! renamed file, after an unlink to a file nothing names. A successful
//! `sync` records the file's length as durable under the name that
//! points at it now, if any — a length, not a copy: appends keep every
//! recorded prefix intact, and a truncate first copies out any durable
//! name it would cut. Renames
//! apply to the volatile namespace immediately but are queued as
//! *pending metadata operations* until [`Vfs::sync_parent_dir`] commits
//! them — exactly the window in which a crashed POSIX system may expose
//! either the old or the new directory entry.
//!
//! After a simulated crash, [`FaultVfs::crash_states`] enumerates the
//! disk images a real machine could reboot into: the durable namespace
//! with any *prefix* of the pending renames applied (journaling
//! filesystems preserve metadata ordering), and — for each file written
//! since its last successful fsync — variants where that file surfaces
//! with its durable content, a torn prefix, or its full unsynced content
//! (the page cache may have flushed it anyway), and — for a file whose
//! truncate's barrier failed, which may have reached the disk anyway —
//! the truncated file. Enumeration varies one file at a time and is
//! capped, which bounds the state count while still covering every
//! single-fault outcome.

use iokc_obs::Counter;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::fault::FaultPlan;

/// An open writable file handle, abstracted over the backing store.
pub trait VfsFile: Send {
    /// Append `data` to the file (handles are append-ordered: `create`
    /// handles start at offset zero, `append` handles at the end).
    fn write_all(&mut self, data: &[u8]) -> io::Result<()>;
    /// Make everything written through this handle durable (fsync).
    fn sync(&mut self) -> io::Result<()>;
}

/// The filesystem operations the store's persistence layer needs.
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Read a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Create (or truncate) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Open (creating if absent) a file for appending.
    fn append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Whether a file exists.
    fn exists(&self, path: &Path) -> bool;
    /// Current length of a file in bytes.
    fn len(&self, path: &Path) -> io::Result<u64>;
    /// Truncate a file to `len` bytes and make the truncation durable.
    fn set_len(&self, path: &Path, len: u64) -> io::Result<()>;
    /// Atomically rename `from` onto `to` (replacing any existing `to`).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Durability barrier for renames in `path`'s parent directory.
    fn sync_parent_dir(&self, path: &Path) -> io::Result<()>;
    /// Route injected-fault counts into an observability counter
    /// (`store.faults_injected`). A no-op for real filesystems.
    fn attach_fault_counter(&self, _counter: Counter) {}
    /// How many faults this VFS has injected so far (always zero for
    /// real filesystems).
    fn faults_injected(&self) -> u64 {
        0
    }
}

/// The production VFS: a thin veneer over `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdVfs;

struct StdFile(std::fs::File);

impl VfsFile for StdFile {
    fn write_all(&mut self, data: &[u8]) -> io::Result<()> {
        io::Write::write_all(&mut self.0, data)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
}

impl Vfs for StdVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(StdFile(std::fs::File::create(path)?)))
    }

    fn append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Box::new(StdFile(file)))
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }

    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(len)?;
        file.sync_data()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn sync_parent_dir(&self, path: &Path) -> io::Result<()> {
        // Best-effort: not every platform allows opening a directory
        // for sync, and rename durability is already the common case on
        // journaling filesystems.
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(handle) = std::fs::File::open(dir) {
                let _ = handle.sync_all();
            }
        }
        Ok(())
    }
}

/// What a [`FaultPlan`] can make the disk under [`FaultVfs`] do. The
/// first four kinds are keyed by the *operation counter* — every
/// mutating call (create, write, sync, rename, truncate, remove,
/// directory sync) counts one — and the last two by the *sync counter*,
/// which counts only durability barriers. On one operation a crash wins
/// over EIO, and EIO over ENOSPC; on one sync, a crash wins over a
/// failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DiskFault {
    /// The operation fails with `ErrorKind::StorageFull`.
    Enospc,
    /// The operation fails with an EIO-style error.
    Eio,
    /// The write tears: half the payload lands, then the write reports
    /// `ErrorKind::WriteZero`.
    ShortWrite,
    /// Power loss at this operation; every operation from there on
    /// fails.
    Crash,
    /// The fsync fails with EIO without advancing durability.
    FailSync,
    /// Power loss at this durability barrier (file or directory sync).
    CrashSync,
}

impl DiskFault {
    /// What a seeded chaos plan scatters over a disk, in the order its
    /// seed draws them.
    pub const CHAOS: [DiskFault; 3] = [DiskFault::Enospc, DiskFault::Eio, DiskFault::ShortWrite];
}

/// One file's bytes, held once whatever names it. Bytes past
/// `synced_len` are the ones a crash may tear or lose; bytes before it
/// are pinned (the store only ever appends between fsyncs, never
/// overwrites in place).
#[derive(Debug, Default)]
struct Inode {
    bytes: Vec<u8>,
    synced_len: usize,
}

/// The simulated filesystem: an inode table and two namespaces over it.
#[derive(Debug, Default)]
struct Inner {
    /// Every file's bytes, by inode number; dropped once unnamed.
    inodes: BTreeMap<u64, Inode>,
    /// The number the next inode takes. Never reused: a handle may hold
    /// the number of a file dropped since.
    next_ino: u64,
    /// What the running process observes: each name's inode.
    volatile: BTreeMap<PathBuf, u64>,
    /// What the disk guarantees to still hold after power loss: each
    /// name's inode and how many of its bytes.
    durable: BTreeMap<PathBuf, (u64, usize)>,
    /// Renames applied to the volatile namespace but not yet committed
    /// by a directory sync, in application order.
    pending_renames: Vec<(PathBuf, PathBuf)>,
    /// Inodes whose last truncate's barrier failed, and the length it cut.
    cuts: BTreeMap<u64, usize>,
    /// Global mutating-operation counter.
    ops: u64,
    /// Durability-barrier counter.
    syncs: u64,
    /// Power has been lost: every further operation fails.
    crashed: bool,
    /// The faults to inject, and the tally of those injected.
    plan: FaultPlan<DiskFault>,
}

impl Inner {
    /// Account one mutating operation and apply any op-keyed fault.
    fn begin_op(&mut self) -> Result<u64, io::Error> {
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

    /// Make the first `count` pending renames durable.
    fn commit_renames(&mut self, count: usize) {
        for (from, to) in self.pending_renames.drain(..count).collect::<Vec<_>>() {
            if let Some(entry) = self.durable.remove(&from) {
                self.durable.insert(to, entry);
            } else {
                self.durable.remove(&to);
            }
        }
        self.drop_unnamed();
    }

    /// A new inode holding `bytes`, all of them synced.
    fn new_inode(&mut self, bytes: Vec<u8>) -> u64 {
        let ino = self.next_ino;
        self.next_ino += 1;
        let synced_len = bytes.len();
        self.inodes.insert(ino, Inode { bytes, synced_len });
        ino
    }

    /// Point `path` at a new empty inode, dropping whatever it named.
    fn name_new_file(&mut self, path: &Path) -> u64 {
        let ino = self.new_inode(Vec::new());
        self.volatile.insert(path.to_path_buf(), ino);
        self.drop_unnamed();
        ino
    }

    /// Record all of file `ino` as durable, under the name that points
    /// at it now; a file nothing names (or that is gone) stays unnamed.
    fn make_durable(&mut self, ino: u64) {
        let Some(node) = self.inodes.get_mut(&ino) else {
            return;
        };
        node.synced_len = node.bytes.len();
        self.cuts.remove(&ino);
        if let Some((path, _)) = self.volatile.iter().find(|&(_, &named)| named == ino) {
            self.durable.insert(path.clone(), (ino, node.synced_len));
        }
        self.drop_unnamed();
    }

    /// Free every inode that neither namespace names.
    fn drop_unnamed(&mut self) {
        let named: BTreeSet<u64> = (self.volatile.values().copied())
            .chain(self.durable.values().map(|&(ino, _)| ino))
            .collect();
        self.inodes.retain(|ino, _| named.contains(ino));
        self.cuts.retain(|ino, _| named.contains(ino));
    }

    /// What the durable namespace holds, copied out.
    fn durable_images(&self) -> BTreeMap<PathBuf, Vec<u8>> {
        (self.durable.iter())
            .map(|(path, &(ino, len))| (path.clone(), self.inodes[&ino].bytes[..len].to_vec()))
            .collect()
    }

    /// `path` is about to name a different file (created anew, or
    /// unlinked). `durable` is keyed by path, so a rename still pending
    /// on that name — a directory sync failed and the caller carried on
    /// — would later move the wrong file's bytes. Let the renames up to
    /// the last one naming `path` reach the disk first: an order a crash
    /// could expose anyway.
    fn settle_renames_of(&mut self, path: &Path) {
        let last = self
            .pending_renames
            .iter()
            .rposition(|(from, to)| from == path || to == path);
        if let Some(last) = last {
            self.commit_renames(last + 1);
        }
    }

    /// Account one durability barrier and apply any sync-keyed fault.
    fn begin_sync(&mut self) -> Result<(), io::Error> {
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
}

fn lock(inner: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
    inner.lock().unwrap_or_else(PoisonError::into_inner)
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

/// A deterministic in-memory filesystem with fault injection and
/// crash-state tracking. See the module docs for the durability model.
#[derive(Debug)]
pub struct FaultVfs {
    inner: Arc<Mutex<Inner>>,
}

impl FaultVfs {
    /// An empty filesystem executing `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan<DiskFault>) -> FaultVfs {
        FaultVfs::from_state_with_plan(BTreeMap::new(), plan)
    }

    /// An empty filesystem with no faults — a faithful in-memory FS.
    #[must_use]
    pub fn pristine() -> FaultVfs {
        FaultVfs::new(FaultPlan::default())
    }

    /// A filesystem booted from a post-crash disk image (as produced by
    /// [`FaultVfs::crash_states`]), with no faults planned: volatile and
    /// durable views start identical, like a freshly mounted disk.
    #[must_use]
    pub fn from_state(state: BTreeMap<PathBuf, Vec<u8>>) -> FaultVfs {
        FaultVfs::from_state_with_plan(state, FaultPlan::default())
    }

    /// [`FaultVfs::from_state`], but executing `plan` — for
    /// retry-after-failure scenarios over a recovered disk image.
    #[must_use]
    pub fn from_state_with_plan(
        state: BTreeMap<PathBuf, Vec<u8>>,
        plan: FaultPlan<DiskFault>,
    ) -> FaultVfs {
        let mut inner = Inner {
            plan,
            ..Inner::default()
        };
        for (path, bytes) in state {
            let len = bytes.len();
            let ino = inner.new_inode(bytes);
            inner.volatile.insert(path.clone(), ino);
            inner.durable.insert(path, (ino, len));
        }
        FaultVfs {
            inner: Arc::new(Mutex::new(inner)),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        lock(&self.inner)
    }

    fn handle(&self, ino: u64) -> Box<dyn VfsFile> {
        let inner = Arc::clone(&self.inner);
        Box::new(FaultFile { ino, inner })
    }

    /// Total mutating operations performed so far.
    #[must_use]
    pub fn op_count(&self) -> u64 {
        self.lock().ops
    }

    /// Total durability barriers performed so far.
    #[must_use]
    pub fn sync_count(&self) -> u64 {
        self.lock().syncs
    }

    /// Whether a planned power loss has triggered.
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.lock().crashed
    }

    /// The conservative post-crash image: only bytes durable at the
    /// last successful fsync, with no pending rename committed.
    #[must_use]
    pub fn durable_state(&self) -> BTreeMap<PathBuf, Vec<u8>> {
        self.lock().durable_images()
    }

    /// Every disk image a reboot could expose, bounded: each prefix of
    /// the pending renames, optionally combined with one file surfacing
    /// cut by a failed truncate, torn in its unsynced half, or whole.
    #[must_use]
    pub fn crash_states(&self) -> Vec<BTreeMap<PathBuf, Vec<u8>>> {
        const MAX_STATES: usize = 64;
        let inner = self.lock();
        let durable = inner.durable_images();
        let mut states = BTreeSet::new();
        for applied in 0..=inner.pending_renames.len() {
            let mut base = durable.clone();
            for (from, to) in &inner.pending_renames[..applied] {
                if let Some(bytes) = base.remove(from) {
                    base.insert(to.clone(), bytes);
                }
            }
            states.insert(base.clone());
            // One dirty file at a time: surface its unsynced suffix
            // torn in half or fully flushed. (The base state already
            // covers "fully lost"; bytes under `synced_len` are pinned,
            // the store never overwrites them between fsyncs.)
            for (path, ino) in &inner.volatile {
                let node = &inner.inodes[ino];
                if let Some(&cut) = inner.cuts.get(ino) {
                    let mut truncated = base.clone();
                    truncated.insert(path.clone(), node.bytes[..cut].to_vec());
                    states.insert(truncated);
                }
                if node.bytes.len() == node.synced_len {
                    continue;
                }
                let suffix = node.bytes.len() - node.synced_len;
                let mut torn = base.clone();
                torn.insert(
                    path.clone(),
                    node.bytes[..node.synced_len + suffix / 2].to_vec(),
                );
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

/// A handle into the simulated filesystem: the inode `create` or
/// `append` opened, whatever names it since. Writes append to it (and
/// are lost with it once nothing names it); `sync` records its length
/// as durable under its current name.
struct FaultFile {
    ino: u64,
    inner: Arc<Mutex<Inner>>,
}

impl VfsFile for FaultFile {
    fn write_all(&mut self, data: &[u8]) -> io::Result<()> {
        let mut inner = lock(&self.inner);
        let op = inner.begin_op()?;
        let short = inner.plan.fires(op, DiskFault::ShortWrite);
        let landed = if short { &data[..data.len() / 2] } else { data };
        if let Some(node) = inner.inodes.get_mut(&self.ino) {
            node.bytes.extend_from_slice(landed);
        }
        if short {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "injected short write",
            ));
        }
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut inner = lock(&self.inner);
        inner.begin_op()?;
        inner.begin_sync()?;
        inner.make_durable(self.ino);
        Ok(())
    }
}

impl Vfs for FaultVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let inner = self.lock();
        if inner.crashed {
            return Err(crash_error());
        }
        let ino = inner.volatile.get(path).ok_or_else(|| not_found(path))?;
        Ok(inner.inodes[ino].bytes.clone())
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let mut inner = self.lock();
        inner.begin_op()?;
        inner.settle_renames_of(path);
        Ok(self.handle(inner.name_new_file(path)))
    }

    fn append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let mut inner = self.lock();
        inner.begin_op()?;
        if let Some(&ino) = inner.volatile.get(path) {
            return Ok(self.handle(ino));
        }
        inner.settle_renames_of(path);
        Ok(self.handle(inner.name_new_file(path)))
    }

    fn exists(&self, path: &Path) -> bool {
        let inner = self.lock();
        !inner.crashed && inner.volatile.contains_key(path)
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        let inner = self.lock();
        if inner.crashed {
            return Err(crash_error());
        }
        let ino = inner.volatile.get(path).ok_or_else(|| not_found(path))?;
        Ok(inner.inodes[ino].bytes.len() as u64)
    }

    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut inner = self.lock();
        inner.begin_op()?;
        let Some(&ino) = inner.volatile.get(path) else {
            return Err(not_found(path));
        };
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        // Appends leave every durable prefix intact; a truncate does
        // not, so a durable name holding more than survives gets a copy.
        for (name, (held, kept)) in inner.durable.clone() {
            if held == ino && kept > len {
                let copy = inner.inodes[&ino].bytes[..kept].to_vec();
                let private = inner.new_inode(copy);
                inner.durable.insert(name, (private, kept));
            }
        }
        let node = inner.inodes.entry(ino).or_default();
        node.bytes.truncate(len);
        node.synced_len = node.synced_len.min(node.bytes.len());
        let cut = node.bytes.len();
        // `StdVfs::set_len` syncs the truncation; mirror that. A failed
        // barrier may have reached the disk: a crash may expose the cut.
        inner.cuts.insert(ino, cut);
        inner.begin_sync()?;
        inner.make_durable(ino);
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut inner = self.lock();
        inner.begin_op()?;
        let Some(ino) = inner.volatile.remove(from) else {
            return Err(not_found(from));
        };
        inner.volatile.insert(to.to_path_buf(), ino);
        inner.drop_unnamed();
        inner
            .pending_renames
            .push((from.to_path_buf(), to.to_path_buf()));
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut inner = self.lock();
        inner.begin_op()?;
        if inner.volatile.remove(path).is_none() {
            return Err(not_found(path));
        }
        // Model the unlink as immediately durable (conservative for the
        // fsck-repair flows that use it; nothing in the save path does).
        inner.settle_renames_of(path);
        inner.durable.remove(path);
        inner.drop_unnamed();
        Ok(())
    }

    fn sync_parent_dir(&self, _path: &Path) -> io::Result<()> {
        let mut inner = self.lock();
        inner.begin_op()?;
        inner.begin_sync()?;
        let all = inner.pending_renames.len();
        inner.commit_renames(all);
        Ok(())
    }

    fn attach_fault_counter(&self, counter: Counter) {
        self.lock().plan.attach_counter(counter);
    }

    fn faults_injected(&self) -> u64 {
        self.lock().plan.fired()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn p(name: &str) -> PathBuf {
        PathBuf::from(name)
    }

    #[test]
    fn writes_are_volatile_until_synced() {
        let vfs = FaultVfs::pristine();
        let mut file = vfs.create(&p("a")).unwrap();
        file.write_all(b"hello").unwrap();
        assert_eq!(vfs.read(&p("a")).unwrap(), b"hello");
        assert!(vfs.durable_state().is_empty(), "no fsync yet");
        file.sync().unwrap();
        assert_eq!(vfs.durable_state().get(&p("a")).unwrap(), b"hello");
    }

    #[test]
    fn renames_are_pending_until_dir_sync() {
        let vfs = FaultVfs::pristine();
        let mut file = vfs.create(&p("a.tmp")).unwrap();
        file.write_all(b"x").unwrap();
        file.sync().unwrap();
        vfs.rename(&p("a.tmp"), &p("a")).unwrap();
        // Volatile view sees the new name; durable still the old.
        assert!(vfs.exists(&p("a")));
        assert!(!vfs.exists(&p("a.tmp")));
        assert!(vfs.durable_state().contains_key(&p("a.tmp")));
        // The crash states cover both orders.
        let states = vfs.crash_states();
        assert!(states.iter().any(|s| s.contains_key(&p("a.tmp"))));
        assert!(states.iter().any(|s| s.contains_key(&p("a"))));
        vfs.sync_parent_dir(&p("a")).unwrap();
        assert!(vfs.durable_state().contains_key(&p("a")));
        assert!(!vfs.durable_state().contains_key(&p("a.tmp")));
    }

    #[test]
    fn enospc_and_short_writes_inject_their_error_kinds() {
        // Op 0 is the create; op 1 the first write.
        let vfs = FaultVfs::new(FaultPlan::at(1, DiskFault::Enospc));
        let mut file = vfs.create(&p("a")).unwrap();
        let err = file.write_all(b"data").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(vfs.faults_injected(), 1);
        // A fault injected before the counter is attached is backfilled
        // once, however often the counter is attached.
        let counter = Counter::default();
        vfs.attach_fault_counter(counter.clone());
        vfs.attach_fault_counter(counter.clone());
        assert_eq!(counter.get(), 1);

        let vfs = FaultVfs::new(FaultPlan::at(1, DiskFault::ShortWrite));
        vfs.attach_fault_counter(counter.clone());
        let mut file = vfs.create(&p("a")).unwrap();
        let err = file.write_all(b"data").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert_eq!(vfs.read(&p("a")).unwrap(), b"da", "half landed");
        assert_eq!(counter.get(), 2);

        // On one operation EIO wins over ENOSPC, and a crash over both.
        let plan = [(0, DiskFault::Enospc), (0, DiskFault::Eio)];
        let vfs = FaultVfs::new(FaultPlan::from_iter(plan));
        assert_eq!(
            vfs.create(&p("a")).err().unwrap().to_string(),
            "injected EIO"
        );
        let crash = plan.into_iter().chain([(0, DiskFault::Crash)]);
        let vfs = FaultVfs::new(FaultPlan::from_iter(crash));
        assert!(vfs.create(&p("a")).is_err());
        assert!(vfs.crashed());
        assert_eq!(vfs.faults_injected(), 1);
    }

    #[test]
    fn failed_fsync_does_not_advance_durability() {
        let vfs = FaultVfs::new(FaultPlan::at(0, DiskFault::FailSync));
        let mut file = vfs.create(&p("a")).unwrap();
        file.write_all(b"hello").unwrap();
        assert!(file.sync().is_err());
        assert!(vfs.durable_state().is_empty());
        // The next sync succeeds and promotes the content.
        file.sync().unwrap();
        assert_eq!(vfs.durable_state().get(&p("a")).unwrap(), b"hello");
    }

    #[test]
    fn crash_fails_every_later_operation() {
        let vfs = FaultVfs::new(FaultPlan::at(2, DiskFault::Crash));
        let mut file = vfs.create(&p("a")).unwrap(); // op 0
        file.write_all(b"x").unwrap(); // op 1
        assert!(file.write_all(b"y").is_err()); // op 2: crash
        assert!(vfs.crashed());
        assert!(file.sync().is_err());
        assert!(vfs.create(&p("b")).is_err());
        assert!(vfs.read(&p("a")).is_err());
    }

    #[test]
    fn crash_states_cover_torn_and_flushed_variants() {
        let vfs = FaultVfs::pristine();
        let mut file = vfs.create(&p("a")).unwrap();
        file.write_all(b"durable!").unwrap();
        file.sync().unwrap();
        file.write_all(b" plus unsynced").unwrap();
        let states = vfs.crash_states();
        let images: BTreeSet<Vec<u8>> = states
            .iter()
            .filter_map(|s| s.get(&p("a")).cloned())
            .collect();
        assert!(images.contains(b"durable!".as_slice()), "durable-only");
        assert!(
            images.contains(b"durable! plus unsynced".as_slice()),
            "fully flushed"
        );
        assert_eq!(images.len(), 3, "plus exactly one torn prefix");
    }

    #[test]
    fn seeded_chaos_plans_are_reproducible() {
        let plan = |seed| {
            let plan = FaultPlan::seeded(seed, 100, 5, &DiskFault::CHAOS);
            plan.points().collect::<Vec<_>>()
        };
        assert_eq!(plan(7), plan(7));
        // Pinned: a recorded failing seed must keep replaying the plan
        // it failed under.
        use DiskFault::{Eio, Enospc, ShortWrite};
        assert_eq!(
            plan(7),
            [
                (11, Enospc),
                (45, Enospc),
                (55, ShortWrite),
                (58, Eio),
                (99, ShortWrite)
            ]
        );
        assert_eq!(
            plan(8),
            [
                (15, Enospc),
                (22, ShortWrite),
                (27, Enospc),
                (49, Eio),
                (85, ShortWrite)
            ]
        );
    }

    #[test]
    fn a_synced_file_is_held_once() {
        let vfs = FaultVfs::pristine();
        let mut file = vfs.append(&p("log")).unwrap();
        for round in 0..1_000u32 {
            file.write_all(&round.to_le_bytes()).unwrap();
            file.sync().unwrap();
        }
        let held = |vfs: &FaultVfs| -> Vec<usize> {
            vfs.lock()
                .inodes
                .values()
                .map(|node| node.bytes.len())
                .collect()
        };
        assert_eq!(held(&vfs), [4_000], "one buffer, no durable copy");
        // A truncate below what the pending rename's old name keeps
        // gives that name a copy; a re-create settles the rename.
        vfs.rename(&p("log"), &p("old")).unwrap();
        vfs.set_len(&p("old"), 8).unwrap();
        let log: Vec<u8> = (0..1_000u32).flat_map(u32::to_le_bytes).collect();
        let want = BTreeMap::from([(p("log"), log.clone()), (p("old"), log[..8].to_vec())]);
        assert_eq!(vfs.durable_state(), want);
        vfs.create(&p("log")).unwrap().write_all(b"new").unwrap();
        assert_eq!(vfs.read(&p("old")).unwrap(), log[..8]);
        assert_eq!(vfs.durable_state(), BTreeMap::from([(p("old"), log)]));
        assert_eq!(held(&vfs), [8, 4_000, 3]);
        vfs.remove_file(&p("old")).unwrap();
        assert_eq!(held(&vfs), [3], "an unnamed file's buffers are freed");
    }

    #[test]
    fn from_state_round_trips_a_disk_image() {
        let state = BTreeMap::from([(p("kb.json"), b"content".to_vec())]);
        let vfs = FaultVfs::from_state(state);
        assert_eq!(vfs.read(&p("kb.json")).unwrap(), b"content");
        assert_eq!(vfs.durable_state().get(&p("kb.json")).unwrap(), b"content");
    }
}
