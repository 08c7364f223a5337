//! A counting [`Vfs`]: device cost as counts, not as sandbox latency.
//!
//! Every store in the benchmark sits on
//! `CountingVfs::over(FaultVfs::pristine())` — the real persistence code
//! path over a faithful in-memory filesystem, so no kernel or fsync
//! noise enters the timings, and the bytes, fsyncs, renames and creates
//! the store asks of its device are reported exactly. With one client
//! and no timers these counts repeat for a given seed.

use iokc_store::{Vfs, VfsFile};
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// The counts a [`CountingVfs`] has taken so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VfsCounts {
    /// Bytes passed to `write_all`.
    pub bytes_written: u64,
    /// Bytes returned by `read`.
    pub bytes_read: u64,
    /// Durability barriers: file syncs, directory syncs, durable truncates.
    pub fsyncs: u64,
    /// Renames.
    pub renames: u64,
    /// Files created or truncated for writing.
    pub creates: u64,
    /// Sealed-segment files renamed into place (`<store>.seg-<id>`): one
    /// per seal or compaction output.
    pub segments_written: u64,
}

impl VfsCounts {
    /// Field-wise sum (a store's life may span two filesystems: the one
    /// its corpus was built on and the copy a round runs on).
    pub fn plus(self, other: VfsCounts) -> VfsCounts {
        VfsCounts {
            bytes_written: self.bytes_written + other.bytes_written,
            bytes_read: self.bytes_read + other.bytes_read,
            fsyncs: self.fsyncs + other.fsyncs,
            renames: self.renames + other.renames,
            creates: self.creates + other.creates,
            segments_written: self.segments_written + other.segments_written,
        }
    }
}

#[derive(Debug, Default)]
struct Shared {
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    fsyncs: AtomicU64,
    renames: AtomicU64,
    creates: AtomicU64,
    segments_written: AtomicU64,
    /// Paths that currently name a file, for [`CountingVfs::space_bytes`].
    live: Mutex<BTreeSet<PathBuf>>,
}

impl Shared {
    fn live(&self) -> std::sync::MutexGuard<'_, BTreeSet<PathBuf>> {
        // Every update is a single insert or remove, valid at each step.
        self.live.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Counts every operation and forwards it to the inner [`Vfs`].
#[derive(Debug)]
pub struct CountingVfs {
    inner: Arc<dyn Vfs>,
    shared: Arc<Shared>,
}

struct CountingFile {
    inner: Box<dyn VfsFile>,
    shared: Arc<Shared>,
}

impl VfsFile for CountingFile {
    fn write_all(&mut self, data: &[u8]) -> io::Result<()> {
        self.inner.write_all(data)?;
        self.shared
            .bytes_written
            .fetch_add(data.len() as u64, Relaxed);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()?;
        self.shared.fsyncs.fetch_add(1, Relaxed);
        Ok(())
    }
}

impl CountingVfs {
    /// Count over `inner`, which holds the files named in `existing`
    /// (empty for a pristine filesystem).
    pub fn over(inner: Arc<dyn Vfs>, existing: impl IntoIterator<Item = PathBuf>) -> CountingVfs {
        let shared = Shared::default();
        shared.live().extend(existing);
        CountingVfs {
            inner,
            shared: Arc::new(shared),
        }
    }

    /// The counts so far.
    pub fn counts(&self) -> VfsCounts {
        VfsCounts {
            bytes_written: self.shared.bytes_written.load(Relaxed),
            bytes_read: self.shared.bytes_read.load(Relaxed),
            fsyncs: self.shared.fsyncs.load(Relaxed),
            renames: self.shared.renames.load(Relaxed),
            creates: self.shared.creates.load(Relaxed),
            segments_written: self.shared.segments_written.load(Relaxed),
        }
    }

    /// Bytes the filesystem holds now, over every live file.
    pub fn space_bytes(&self) -> u64 {
        self.shared
            .live()
            .iter()
            .filter_map(|p| self.inner.len(p).ok())
            .sum()
    }

    fn wrap(&self, file: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        Box::new(CountingFile {
            inner: file,
            shared: Arc::clone(&self.shared),
        })
    }
}

impl Vfs for CountingVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let data = self.inner.read(path)?;
        self.shared.bytes_read.fetch_add(data.len() as u64, Relaxed);
        Ok(data)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = self.inner.create(path)?;
        self.shared.creates.fetch_add(1, Relaxed);
        self.shared.live().insert(path.to_owned());
        Ok(self.wrap(file))
    }

    fn append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = self.inner.append(path)?;
        self.shared.live().insert(path.to_owned());
        Ok(self.wrap(file))
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        self.inner.len(path)
    }

    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        self.inner.set_len(path, len)?;
        self.shared.fsyncs.fetch_add(1, Relaxed);
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)?;
        self.shared.renames.fetch_add(1, Relaxed);
        // Images are written to `<name>.tmp` and renamed into place; the
        // previous generation rotates to `<name>.bak` first.
        let name = to.file_name().map(|n| n.to_string_lossy());
        if name.is_some_and(|n| n.contains(".seg-") && !n.ends_with(".bak")) {
            self.shared.segments_written.fetch_add(1, Relaxed);
        }
        let mut live = self.shared.live();
        live.remove(from);
        live.insert(to.to_owned());
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)?;
        self.shared.live().remove(path);
        Ok(())
    }

    fn sync_parent_dir(&self, path: &Path) -> io::Result<()> {
        self.inner.sync_parent_dir(path)?;
        self.shared.fsyncs.fetch_add(1, Relaxed);
        Ok(())
    }

    fn attach_fault_counter(&self, counter: iokc_obs::Counter) {
        self.inner.attach_fault_counter(counter);
    }

    fn faults_injected(&self) -> u64 {
        self.inner.faults_injected()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iokc_store::FaultVfs;

    #[test]
    fn counts_follow_the_operations() {
        let vfs = CountingVfs::over(Arc::new(FaultVfs::pristine()), []);
        let a = PathBuf::from("/db/a.tmp");
        let b = PathBuf::from("/db/a");
        let mut f = vfs.create(&a).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync().unwrap();
        drop(f);
        vfs.rename(&a, &b).unwrap();
        vfs.sync_parent_dir(&b).unwrap();
        assert_eq!(vfs.read(&b).unwrap(), b"hello");
        let mut g = vfs.append(&b).unwrap();
        g.write_all(b"!!").unwrap();
        drop(g);
        let seg = PathBuf::from("/db/a.seg-3");
        let tmp = PathBuf::from("/db/a.seg-3.tmp");
        vfs.create(&tmp).unwrap().write_all(b"xyz").unwrap();
        vfs.rename(&tmp, &seg).unwrap();
        assert_eq!(
            vfs.counts(),
            VfsCounts {
                bytes_written: 10,
                bytes_read: 5,
                fsyncs: 2,
                renames: 2,
                creates: 2,
                segments_written: 1,
            }
        );
        assert_eq!(vfs.space_bytes(), 10);
        vfs.remove_file(&seg).unwrap();
        assert_eq!(vfs.space_bytes(), 7);
    }
}
