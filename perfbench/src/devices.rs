//! Counting, timing pass-throughs for the storage device traits. The
//! repository under test is built over these, so every page read/write
//! and every log append/sync is counted at the device boundary. Counting
//! is always on (a relaxed atomic add per call); timing is on only in a
//! traced run, so the untraced run pays no clock reads here.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use natix_storage::{DiskBackend, LogDevice, PageId, StorageResult};

/// Process-wide device counters. The benchmark drives one repository at
/// a time from one client thread, so phase totals are differences of
/// snapshots taken around the phase.
pub struct DeviceCounters {
    pub disk_reads: AtomicU64,
    pub disk_writes: AtomicU64,
    pub disk_ns: AtomicU64,
    pub log_appends: AtomicU64,
    pub log_bytes: AtomicU64,
    pub log_syncs: AtomicU64,
    pub log_ns: AtomicU64,
}

/// A point-in-time copy of [`DeviceCounters`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceSnapshot {
    pub disk_reads: u64,
    pub disk_writes: u64,
    pub disk_ns: u64,
    pub log_appends: u64,
    pub log_bytes: u64,
    pub log_syncs: u64,
    pub log_ns: u64,
}

impl DeviceSnapshot {
    pub fn since(&self, e: &DeviceSnapshot) -> DeviceSnapshot {
        DeviceSnapshot {
            disk_reads: self.disk_reads - e.disk_reads,
            disk_writes: self.disk_writes - e.disk_writes,
            disk_ns: self.disk_ns - e.disk_ns,
            log_appends: self.log_appends - e.log_appends,
            log_bytes: self.log_bytes - e.log_bytes,
            log_syncs: self.log_syncs - e.log_syncs,
            log_ns: self.log_ns - e.log_ns,
        }
    }
}

pub static DEVICES: DeviceCounters = DeviceCounters {
    disk_reads: AtomicU64::new(0),
    disk_writes: AtomicU64::new(0),
    disk_ns: AtomicU64::new(0),
    log_appends: AtomicU64::new(0),
    log_bytes: AtomicU64::new(0),
    log_syncs: AtomicU64::new(0),
    log_ns: AtomicU64::new(0),
};

static TIMING: AtomicBool = AtomicBool::new(false);

/// Turns device timing on (traced runs only).
pub fn enable_timing() {
    TIMING.store(true, Relaxed);
}

pub fn snapshot() -> DeviceSnapshot {
    let c = &DEVICES;
    DeviceSnapshot {
        disk_reads: c.disk_reads.load(Relaxed),
        disk_writes: c.disk_writes.load(Relaxed),
        disk_ns: c.disk_ns.load(Relaxed),
        log_appends: c.log_appends.load(Relaxed),
        log_bytes: c.log_bytes.load(Relaxed),
        log_syncs: c.log_syncs.load(Relaxed),
        log_ns: c.log_ns.load(Relaxed),
    }
}

/// Runs `f`, adding its duration to `ns` when timing is on.
fn timed<T>(ns: &AtomicU64, f: impl FnOnce() -> T) -> T {
    if !TIMING.load(Relaxed) {
        return f();
    }
    let t = Instant::now();
    let out = f();
    ns.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
    out
}

/// A page store that counts and times every page transfer.
pub struct CountingDisk<B>(pub B);

impl<B: DiskBackend> DiskBackend for CountingDisk<B> {
    fn page_size(&self) -> usize {
        self.0.page_size()
    }
    fn read_page(&self, page: PageId, buf: &mut [u8]) -> StorageResult<()> {
        DEVICES.disk_reads.fetch_add(1, Relaxed);
        timed(&DEVICES.disk_ns, || self.0.read_page(page, buf))
    }
    fn read_pages(&self, reqs: &mut [(PageId, &mut [u8])]) -> StorageResult<()> {
        DEVICES.disk_reads.fetch_add(reqs.len() as u64, Relaxed);
        timed(&DEVICES.disk_ns, || self.0.read_pages(reqs))
    }
    fn write_page(&self, page: PageId, buf: &[u8]) -> StorageResult<()> {
        DEVICES.disk_writes.fetch_add(1, Relaxed);
        timed(&DEVICES.disk_ns, || self.0.write_page(page, buf))
    }
    fn page_count(&self) -> u64 {
        self.0.page_count()
    }
    fn grow(&self, new_count: u64) -> StorageResult<()> {
        timed(&DEVICES.disk_ns, || self.0.grow(new_count))
    }
    fn sync(&self) -> StorageResult<()> {
        timed(&DEVICES.disk_ns, || self.0.sync())
    }
}

/// A log device that counts and times appends and syncs.
pub struct CountingLog<L>(pub L);

impl<L: LogDevice> LogDevice for CountingLog<L> {
    fn write(&self, bytes: &[u8]) -> StorageResult<()> {
        DEVICES.log_appends.fetch_add(1, Relaxed);
        DEVICES.log_bytes.fetch_add(bytes.len() as u64, Relaxed);
        timed(&DEVICES.log_ns, || self.0.write(bytes))
    }
    fn sync(&self) -> StorageResult<()> {
        DEVICES.log_syncs.fetch_add(1, Relaxed);
        timed(&DEVICES.log_ns, || self.0.sync())
    }
    fn read_all(&self) -> StorageResult<Vec<u8>> {
        timed(&DEVICES.log_ns, || self.0.read_all())
    }
    fn truncate(&self, len: u64) -> StorageResult<()> {
        timed(&DEVICES.log_ns, || self.0.truncate(len))
    }
    fn len(&self) -> u64 {
        self.0.len()
    }
}
