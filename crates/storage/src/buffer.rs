//! Buffer pool with clock (second-chance) eviction.
//!
//! The pool caches page frames between operations. It is **volatile**:
//! `BufferPool::crash` discards every frame, including dirty ones — the
//! WAL (in `amc-wal`) is what makes committed work survive. The engine
//! layer decides when to flush (force at local commit for the 2PC/ready
//! path; redo-from-log otherwise).
//!
//! A frame is a `Page`, which is its 4 KB image: a miss verifies the
//! stored image and copies it over the victim's frame, an eviction seals a
//! **dirty** frame into the disk slot's buffer, and neither allocates.
//! A frame is dirty exactly when the page was mutated (the page notes that
//! itself); pages a chain walk merely passed through are evicted for free.
//!
//! Access is scoped: `BufferPool::with_page` lends a frame to a closure
//! while holding `&mut self`, so eviction can never pull a page out from
//! under an in-flight operation.
//!
//! Write-ahead: each frame keeps the LSN of the newest log record that
//! describes a change to it (`BufferPool::stamp`, beside the image, not in
//! it), and a dirty frame is written back — evicted or flushed — only once
//! the pool's [`WriteAhead`] log is durable through that LSN.

use crate::disk::StableStorage;
use crate::page::Page;
use amc_types::{AmcError, AmcResult, Lsn, PageId};
use std::sync::Arc;

/// The log a pool's dirty frames wait for: no page is written back ahead
/// of the records that describe it.
pub trait WriteAhead: Send + Sync {
    /// Return once the log is durable through `lsn`, forcing it if it is
    /// not yet; `false` when it never will be (a crash took the records).
    fn force_through(&self, lsn: Lsn) -> bool;
}

impl std::fmt::Debug for dyn WriteAhead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WriteAhead")
    }
}

/// A [`BufferPool::slot_of`] entry for a page with no frame.
const NOT_RESIDENT: u32 = u32::MAX;

/// Hit/miss/eviction accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Requests served from a resident frame.
    pub hits: u64,
    /// Requests that had to read from stable storage.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Dirty frames written back during eviction or flush.
    pub writebacks: u64,
}

#[derive(Debug)]
struct Frame {
    page: Page,
    referenced: bool,
    /// The newest log record that describes a change to this frame.
    lsn: Lsn,
}

/// A fixed-capacity buffer pool over one [`StableStorage`].
#[derive(Debug)]
pub(crate) struct BufferPool {
    capacity: usize,
    /// At most `capacity` slots, filled in order; the clock hand walks them.
    frames: Vec<Frame>,
    /// The slot holding each page, indexed by page id — ids are dense, as
    /// they come from the store's allocation cursor — or `NOT_RESIDENT`.
    slot_of: Vec<u32>,
    hand: usize,
    stats: BufferStats,
    /// Slots changed since the last `stamp`: the operation in progress,
    /// whose record is not appended yet.
    changed: Vec<u32>,
    /// What a dirty frame waits for before it is written back; none for a
    /// store no log describes.
    wal: Option<Arc<dyn WriteAhead>>,
}

impl BufferPool {
    /// A pool holding at most `capacity` frames (must be ≥ 1).
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "buffer pool needs at least one frame");
        BufferPool {
            capacity,
            frames: Vec::with_capacity(capacity),
            slot_of: Vec::new(),
            hand: 0,
            stats: BufferStats::default(),
            changed: Vec::new(),
            wal: None,
        }
    }

    /// Write no dirty frame back before `wal` is durable through its LSN.
    pub(crate) fn follow(&mut self, wal: Arc<dyn WriteAhead>) {
        self.wal = Some(wal);
    }

    /// `lsn` is the record that describes what changed since the last
    /// stamp: note it on every frame those changes dirtied.
    pub(crate) fn stamp(&mut self, lsn: Lsn) {
        for slot in self.changed.drain(..) {
            self.frames[slot as usize].lsn = lsn;
        }
    }

    /// Accounting so far.
    pub(crate) fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Run `f` with mutable access to the page, faulting it in from `disk`
    /// if necessary (or initializing a fresh page when the slot was never
    /// written). The frame cannot be evicted while `f` runs, and is written
    /// back later only if `f` (or an earlier access) mutated the page.
    pub(crate) fn with_page<R>(
        &mut self,
        id: PageId,
        disk: &mut StableStorage,
        f: impl FnOnce(&mut Page) -> R,
    ) -> AmcResult<R> {
        let slot = self.fault_in(id, disk)?;
        let frame = &mut self.frames[slot];
        frame.referenced = true;
        let (out, changed) = frame.page.changed_by(f);
        if changed && !self.changed.contains(&(slot as u32)) {
            self.changed.push(slot as u32);
        }
        Ok(out)
    }

    /// Bounded retries against injected transient read errors before the
    /// failure is surfaced to the engine. Real buffer managers retry media
    /// errors a few times before declaring the page unreadable.
    const READ_RETRIES: usize = 8;

    /// The slot holding page `id`, reading it in over an evicted frame on a
    /// miss.
    fn fault_in(&mut self, id: PageId, disk: &mut StableStorage) -> AmcResult<usize> {
        let at = id.raw() as usize;
        match self.slot_of.get(at) {
            Some(&slot) if slot != NOT_RESIDENT => {
                self.stats.hits += 1;
                return Ok(slot as usize);
            }
            Some(_) => {}
            None => self.slot_of.resize(at + 1, NOT_RESIDENT),
        }
        self.stats.misses += 1;
        let slot = if self.frames.len() < self.capacity {
            let mut page = Page::new(id);
            Self::read_with_retry(id, disk, &mut page)?;
            self.frames.push(Frame {
                page,
                referenced: true,
                lsn: Lsn::ZERO,
            });
            self.frames.len() - 1
        } else {
            let slot = self.pick_victim();
            self.write_back(slot, disk)?;
            // The victim is clean now: no stamp, old or pending, passes to
            // the page this slot holds next.
            self.changed.retain(|s| *s as usize != slot);
            self.frames[slot].lsn = Lsn::ZERO;
            // A failed read leaves the victim resident (and now clean).
            let page = &mut self.frames[slot].page;
            let victim = page.id();
            if !Self::read_with_retry(id, disk, page)? {
                *page = Page::new(id);
            }
            self.slot_of[victim.raw() as usize] = NOT_RESIDENT;
            self.stats.evictions += 1;
            slot
        };
        self.slot_of[at] = slot as u32;
        Ok(slot)
    }

    /// Read `id` over `page`; `Ok(false)` (page untouched) when the disk
    /// never saw it.
    fn read_with_retry(id: PageId, disk: &mut StableStorage, page: &mut Page) -> AmcResult<bool> {
        for _ in 1..Self::READ_RETRIES {
            match disk.read_into(id, page) {
                Err(AmcError::TransientIo(_)) => continue,
                other => return other,
            }
        }
        disk.read_into(id, page)
    }

    /// Second-chance eviction: sweep the clock, clearing reference bits,
    /// until an unreferenced frame is found (two sweeps at most). Only
    /// called on a full pool, so there is a frame to find.
    fn pick_victim(&mut self) -> usize {
        loop {
            let slot = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            let frame = &mut self.frames[slot];
            if !frame.referenced {
                return slot;
            }
            frame.referenced = false;
        }
    }

    /// Write the frame in `slot` back if it is dirty, once the log is
    /// durable through the frame's LSN.
    fn write_back(&mut self, slot: usize, disk: &mut StableStorage) -> AmcResult<()> {
        let Frame { page, lsn, .. } = &mut self.frames[slot];
        if !page.is_dirty() {
            return Ok(());
        }
        if let Some(wal) = self.wal.as_ref().filter(|_| *lsn > Lsn::ZERO) {
            if !wal.force_through(*lsn) {
                return Err(AmcError::InvalidState(format!(
                    "page {}: the log lost record {lsn} that describes it",
                    page.id()
                )));
            }
        }
        disk.write_page(page)?;
        page.written_back();
        self.stats.writebacks += 1;
        Ok(())
    }

    /// Write every dirty frame back (checkpoint).
    pub(crate) fn flush_all(&mut self, disk: &mut StableStorage) -> AmcResult<()> {
        (0..self.frames.len()).try_for_each(|slot| self.write_back(slot, disk))?;
        self.changed.clear();
        Ok(())
    }

    /// Crash: lose every frame, dirty or not. Stable storage is untouched.
    pub(crate) fn crash(&mut self) {
        self.frames.clear();
        self.slot_of.clear();
        self.changed.clear();
        self.hand = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_types::{ObjectId, Value};

    impl BufferPool {
        /// Number of resident frames.
        fn resident(&self) -> usize {
            self.frames.len()
        }

        /// Reset accounting (between measured phases of a test).
        pub(crate) fn reset_stats(&mut self) {
            self.stats = BufferStats::default();
        }
    }

    fn obj(n: u64) -> ObjectId {
        ObjectId::new(n)
    }
    fn pid(n: u32) -> PageId {
        PageId::new(n)
    }

    #[test]
    fn read_through_and_hit() {
        let mut disk = StableStorage::new(8);
        let mut pool = BufferPool::new(4);
        pool.with_page(pid(1), &mut disk, |p| {
            p.upsert(obj(1), Value::counter(7)).unwrap();
        })
        .unwrap();
        let v = pool
            .with_page(pid(1), &mut disk, |p| p.get(obj(1)))
            .unwrap();
        assert_eq!(v, Some(Value::counter(7)));
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let mut disk = StableStorage::new(16);
        let mut pool = BufferPool::new(2);
        for i in 0..4u32 {
            pool.with_page(pid(i), &mut disk, |p| {
                p.upsert(obj(u64::from(i)), Value::counter(i64::from(i)))
                    .unwrap();
            })
            .unwrap();
        }
        assert!(pool.resident() <= 2);
        assert!(pool.stats().evictions >= 2);
        // Evicted dirty pages must be durable.
        let mut fresh = BufferPool::new(2);
        let v = fresh
            .with_page(pid(0), &mut disk, |p| p.get(obj(0)))
            .unwrap();
        assert_eq!(v, Some(Value::counter(0)));
    }

    #[test]
    fn crash_loses_unflushed_updates() {
        let mut disk = StableStorage::new(8);
        let mut pool = BufferPool::new(4);
        pool.with_page(pid(1), &mut disk, |p| {
            p.upsert(obj(1), Value::counter(99)).unwrap();
        })
        .unwrap();
        pool.crash();
        let v = pool
            .with_page(pid(1), &mut disk, |p| p.get(obj(1)))
            .unwrap();
        assert_eq!(v, None, "dirty frame must not survive a crash");
    }

    #[test]
    fn flush_makes_updates_durable_across_crash() {
        let mut disk = StableStorage::new(8);
        let mut pool = BufferPool::new(4);
        pool.with_page(pid(1), &mut disk, |p| {
            p.upsert(obj(1), Value::counter(5)).unwrap();
        })
        .unwrap();
        pool.flush_all(&mut disk).unwrap();
        pool.with_page(pid(1), &mut disk, |p| assert!(!p.is_dirty()))
            .unwrap();
        pool.crash();
        let v = pool
            .with_page(pid(1), &mut disk, |p| p.get(obj(1)))
            .unwrap();
        assert_eq!(v, Some(Value::counter(5)));
    }

    #[test]
    fn single_frame_pool_thrashes_but_works() {
        let mut disk = StableStorage::new(64);
        let mut pool = BufferPool::new(1);
        for i in 0..10u32 {
            pool.with_page(pid(i), &mut disk, |p| {
                p.upsert(obj(u64::from(i)), Value::counter(i64::from(i)))
                    .unwrap();
            })
            .unwrap();
        }
        for i in 0..10u32 {
            let v = pool
                .with_page(pid(i), &mut disk, |p| p.get(obj(u64::from(i))))
                .unwrap();
            assert_eq!(v, Some(Value::counter(i64::from(i))));
        }
    }

    #[test]
    fn transient_read_errors_are_retried() {
        use crate::fault::FaultConfig;
        let mut disk = StableStorage::new(8);
        let mut pool = BufferPool::new(4);
        pool.with_page(pid(1), &mut disk, |p| {
            p.upsert(obj(1), Value::counter(7)).unwrap();
        })
        .unwrap();
        pool.flush_all(&mut disk).unwrap();
        pool.crash(); // force the next access to hit the disk
        disk.inject_faults(FaultConfig {
            read_error_probability: 0.3,
            lost_write_probability: 0.0,
            seed: 21,
        });
        // At p=0.3 and 8 retries, failing a whole access needs 8 straight
        // misses (p ≈ 7e-5); 20 accesses virtually always succeed.
        for _ in 0..20 {
            pool.crash();
            let v = pool
                .with_page(pid(1), &mut disk, |p| p.get(obj(1)))
                .unwrap();
            assert_eq!(v, Some(Value::counter(7)));
        }
        assert!(disk.stats().read_faults > 0, "faults actually fired");
    }

    #[test]
    fn persistent_read_errors_surface() {
        use crate::fault::FaultConfig;
        let mut disk = StableStorage::new(8);
        let mut pool = BufferPool::new(4);
        pool.with_page(pid(1), &mut disk, |p| {
            p.upsert(obj(1), Value::counter(7)).unwrap();
        })
        .unwrap();
        pool.flush_all(&mut disk).unwrap();
        pool.crash();
        disk.inject_faults(FaultConfig {
            read_error_probability: 1.0,
            lost_write_probability: 0.0,
            seed: 2,
        });
        let err = pool
            .with_page(pid(1), &mut disk, |p| p.get(obj(1)))
            .unwrap_err();
        assert!(matches!(err, AmcError::TransientIo(_)), "{err:?}");
    }

    #[test]
    fn a_failed_read_leaves_the_victim_resident_and_written_back() {
        use crate::fault::FaultConfig;
        let mut disk = StableStorage::new(8);
        let mut pool = BufferPool::new(1);
        pool.with_page(pid(1), &mut disk, |p| {
            p.upsert(obj(1), Value::counter(7)).unwrap();
        })
        .unwrap();
        disk.inject_faults(FaultConfig {
            read_error_probability: 1.0,
            lost_write_probability: 0.0,
            seed: 3,
        });
        assert!(pool.with_page(pid(2), &mut disk, |_| ()).is_err());
        disk.clear_faults();
        assert!(disk.is_allocated(pid(1)));
        let hits = pool.stats().hits;
        let (dirty, v) = pool
            .with_page(pid(1), &mut disk, |p| (p.is_dirty(), p.get(obj(1))))
            .unwrap();
        assert_eq!((dirty, v), (false, Some(Value::counter(7))));
        assert_eq!(pool.stats().hits, hits + 1);
    }

    /// A log that answers how far it is durable, counting forces.
    struct Log {
        durable: std::sync::Mutex<(Lsn, u32)>,
    }

    impl WriteAhead for Log {
        fn force_through(&self, lsn: Lsn) -> bool {
            let mut state = self.durable.lock().unwrap();
            if state.0 < lsn {
                *state = (lsn, state.1 + 1);
            }
            true
        }
    }

    /// A dirty frame is written back only once the log is durable through
    /// the record stamped on it; a clean one, or one whose record is
    /// durable, costs no force.
    #[test]
    fn a_dirty_frame_waits_for_its_record() {
        let log = Arc::new(Log {
            durable: std::sync::Mutex::new((Lsn::ZERO, 0)),
        });
        let mut disk = StableStorage::new(8);
        let mut pool = BufferPool::new(1);
        pool.follow(log.clone());
        let put = |pool: &mut BufferPool, disk: &mut StableStorage, page: u32, n: i64| {
            pool.with_page(pid(page), disk, |p| {
                p.upsert(obj(u64::from(page)), Value::counter(n)).unwrap();
            })
            .unwrap();
        };
        put(&mut pool, &mut disk, 1, 7);
        pool.stamp(Lsn::new(5));
        // Reading page 1 again changes nothing: the stamp stays 5.
        pool.with_page(pid(1), &mut disk, |p| p.get(obj(1)))
            .unwrap();
        pool.stamp(Lsn::new(6));
        put(&mut pool, &mut disk, 2, 8); // evicts page 1
        assert_eq!(*log.durable.lock().unwrap(), (Lsn::new(5), 1));
        pool.stamp(Lsn::new(3));
        pool.flush_all(&mut disk).unwrap();
        assert_eq!(
            *log.durable.lock().unwrap(),
            (Lsn::new(5), 1),
            "3 is durable"
        );
        assert_eq!(pool.stats().writebacks, 2);
    }

    #[test]
    fn stats_reset() {
        let mut disk = StableStorage::new(8);
        let mut pool = BufferPool::new(2);
        pool.with_page(pid(1), &mut disk, |_| ()).unwrap();
        assert_ne!(pool.stats(), BufferStats::default());
        pool.reset_stats();
        assert_eq!(pool.stats(), BufferStats::default());
    }
}
