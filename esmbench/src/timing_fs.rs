//! A counting, timing [`Storage`] over the real file system. The traced
//! run hands it to the checkpoint ring and to the drivers, so the time a
//! checkpoint spends inside storage calls separates from the time spent
//! encoding and checksumming.

use iosys::{RealFs, Storage};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Totals since construction. Take two and subtract for an interval.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StorageCounts {
    pub ops: u64,
    pub errors: u64,
    pub fsyncs: u64,
    pub bytes_written: u64,
    /// Nanoseconds inside storage calls of any kind.
    pub busy_ns: u64,
}

impl StorageCounts {
    pub fn since(self, earlier: StorageCounts) -> StorageCounts {
        StorageCounts {
            ops: self.ops - earlier.ops,
            errors: self.errors - earlier.errors,
            fsyncs: self.fsyncs - earlier.fsyncs,
            bytes_written: self.bytes_written - earlier.bytes_written,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }

    pub fn busy_ms(&self) -> f64 {
        self.busy_ns as f64 * 1e-6
    }
}

#[derive(Debug, Default)]
pub struct TimingFs {
    ops: AtomicU64,
    errors: AtomicU64,
    fsyncs: AtomicU64,
    bytes_written: AtomicU64,
    busy_ns: AtomicU64,
}

impl TimingFs {
    pub fn counts(&self) -> StorageCounts {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        StorageCounts {
            ops: get(&self.ops),
            errors: get(&self.errors),
            fsyncs: get(&self.fsyncs),
            bytes_written: get(&self.bytes_written),
            busy_ns: get(&self.busy_ns),
        }
    }

    fn timed<T>(&self, op: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
        let t = Instant::now();
        let out = op();
        self.busy_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.ops.fetch_add(1, Ordering::Relaxed);
        if out.is_err() {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
}

impl Storage for TimingFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.timed(|| RealFs.create_dir_all(dir))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.timed(|| RealFs.write(path, bytes))
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.timed(|| RealFs.append(path, bytes))
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.timed(|| RealFs.fsync(path))
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.timed(|| RealFs.fsync_dir(dir))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.timed(|| RealFs.rename(from, to))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.timed(|| RealFs.read(path))
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.timed(|| RealFs.list(dir))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.timed(|| RealFs.remove(path))
    }
}
