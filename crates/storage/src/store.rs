//! Hash-partitioned object store with overflow chaining.
//!
//! Layout on the simulated disk:
//!
//! * page 0 — metadata (bucket count, allocation cursor), stored as ordinary
//!   entries so the page machinery (checksums, atomic writes) covers it;
//! * pages `1..=buckets` — bucket heads; object `o` hashes to bucket
//!   `o mod buckets`;
//! * pages `> buckets` — overflow pages, allocated from the cursor and
//!   chained from their bucket via each page's overflow link.
//!
//! The store is the page-level (L0) interface the local engines use. It has
//! **no transactional semantics of its own** — atomicity and durability of
//! engine transactions come from the WAL on top.

use crate::buffer::{BufferPool, BufferStats};
use crate::disk::{DiskStats, StableStorage};
use crate::page::Page;
use amc_types::{AmcError, AmcResult, ObjectId, PageId, Value};

const META_PAGE: PageId = PageId::new(0);
const META_BUCKETS: ObjectId = ObjectId::new(0);
const META_CURSOR: ObjectId = ObjectId::new(1);

fn set_meta(meta: &mut Page, key: ObjectId, n: u32) {
    meta.upsert(key, Value::counter(i64::from(n)))
        .expect("meta page never fills");
}

/// A persistent object store: `ObjectId -> Value`.
#[derive(Debug)]
pub struct PageStore {
    disk: StableStorage,
    pool: BufferPool,
    buckets: u32,
    next_free: u32,
}

impl PageStore {
    /// Create a fresh store with `buckets` hash buckets and a buffer pool of
    /// `pool_frames` frames, or recover an existing one from `disk`.
    pub fn open(mut disk: StableStorage, buckets: u32, pool_frames: usize) -> AmcResult<Self> {
        assert!(buckets >= 1, "need at least one bucket");
        let mut pool = BufferPool::new(pool_frames);
        let (buckets, next_free) = if disk.is_allocated(META_PAGE) {
            let field = |meta: &Page, key| Some(meta.get(key)?.counter as u32);
            pool.with_page(META_PAGE, &mut disk, |meta| {
                Some((field(meta, META_BUCKETS)?, field(meta, META_CURSOR)?))
            })?
            .ok_or_else(|| AmcError::Corruption("meta page missing fields".into()))?
        } else {
            let next_free = buckets + 1;
            pool.with_page(META_PAGE, &mut disk, |meta| {
                set_meta(meta, META_BUCKETS, buckets);
                set_meta(meta, META_CURSOR, next_free);
            })?;
            pool.flush_all(&mut disk)?;
            (buckets, next_free)
        };
        Ok(PageStore {
            disk,
            pool,
            buckets,
            next_free,
        })
    }

    /// Convenience constructor over a fresh disk.
    pub fn new(buckets: u32, pool_frames: usize) -> Self {
        let disk = StableStorage::new(buckets as usize + 8);
        Self::open(disk, buckets, pool_frames).expect("fresh store cannot fail to open")
    }

    /// The bucket-head page an object hashes to. Exposed so the engines can
    /// use page ids as the L0 locking granule.
    pub fn page_of(&self, obj: ObjectId) -> PageId {
        Self::bucket_page(self.buckets, obj)
    }

    /// [`PageStore::page_of`] for a store of `buckets` buckets — pure
    /// arithmetic, so an engine that knows its bucket count need not take
    /// the store's lock to find a locking granule.
    pub fn bucket_page(buckets: u32, obj: ObjectId) -> PageId {
        // Objects 0/1 on the meta page are internal; user objects start at
        // bucket pages. A simple multiplicative scramble avoids pathological
        // clustering of consecutive ids while staying deterministic.
        let h = obj.raw().wrapping_mul(0x9e37_79b9_7f4a_7c15);
        PageId::new(1 + (h % u64::from(buckets)) as u32)
    }

    /// Walk the overflow chain from `pid`, handing each page to `visit`
    /// until it answers; `None` when the chain ended first.
    fn walk<R>(
        &mut self,
        mut pid: PageId,
        mut visit: impl FnMut(&mut Page) -> Option<R>,
    ) -> AmcResult<Option<R>> {
        loop {
            let (answer, next) = self
                .pool
                .with_page(pid, &mut self.disk, |p| (visit(p), p.overflow()))?;
            match (answer, next) {
                (None, Some(next)) => pid = next,
                (answer, _) => return Ok(answer),
            }
        }
    }

    /// Read an object's value.
    pub fn get(&mut self, obj: ObjectId) -> AmcResult<Option<Value>> {
        self.walk(self.page_of(obj), |p| p.get(obj))
    }

    /// Insert or overwrite an object, returning the previous value.
    pub fn put(&mut self, obj: ObjectId, value: Value) -> AmcResult<Option<Value>> {
        let head = self.page_of(obj);
        // Pass 1: overwrite in place if present anywhere on the chain.
        let overwrite = |p: &mut Page| {
            let old = p.get(obj)?;
            p.upsert(obj, value).expect("overwrite cannot overflow");
            Some(old)
        };
        if let Some(old) = self.walk(head, overwrite)? {
            return Ok(Some(old));
        }
        // Pass 2: insert into the first page on the chain with space, or
        // into a fresh page linked after the last.
        let mut last = head;
        let insert = |p: &mut Page| {
            last = p.id();
            (!p.is_full()).then(|| p.upsert(obj, value).expect("space was checked"))
        };
        if self.walk(head, insert)?.is_none() {
            let fresh = self.allocate_page()?;
            self.pool
                .with_page(last, &mut self.disk, |p| p.set_overflow(Some(fresh)))?;
            self.pool.with_page(fresh, &mut self.disk, |p| {
                p.upsert(obj, value).expect("fresh page has space")
            })?;
        }
        Ok(None)
    }

    /// Remove an object, returning its value if it was present.
    pub fn remove(&mut self, obj: ObjectId) -> AmcResult<Option<Value>> {
        self.walk(self.page_of(obj), |p| p.remove(obj))
    }

    fn allocate_page(&mut self) -> AmcResult<PageId> {
        let fresh = PageId::new(self.next_free);
        self.next_free += 1;
        let cursor = self.next_free;
        self.pool.with_page(META_PAGE, &mut self.disk, |meta| {
            set_meta(meta, META_CURSOR, cursor)
        })?;
        Ok(fresh)
    }

    /// Flush every dirty buffer frame (checkpoint / force).
    pub fn flush(&mut self) -> AmcResult<()> {
        self.pool.flush_all(&mut self.disk)
    }

    /// Simulate a site crash: volatile state is lost, stable state kept.
    pub fn crash(&mut self) {
        self.pool.crash();
    }

    /// Combined I/O and buffer statistics.
    pub fn stats(&self) -> (DiskStats, BufferStats) {
        (self.disk.stats(), self.pool.stats())
    }

    /// Reset statistics counters.
    pub fn reset_stats(&mut self) {
        self.disk.reset_stats();
        self.pool.reset_stats();
    }

    /// Enumerate all user objects (test/verification helper; scans every
    /// allocated page).
    pub fn scan(&mut self) -> AmcResult<Vec<(ObjectId, Value)>> {
        let mut out = Vec::new();
        for b in 1..=self.buckets {
            self.walk(PageId::new(b), |p| {
                out.extend(p.iter());
                None::<()>
            })?;
        }
        out.sort_by_key(|(o, _)| *o);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::Page;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn obj(n: u64) -> ObjectId {
        ObjectId::new(n)
    }

    #[test]
    fn put_get_remove_roundtrip() {
        let mut s = PageStore::new(4, 8);
        assert_eq!(s.put(obj(10), Value::counter(1)).unwrap(), None);
        assert_eq!(s.get(obj(10)).unwrap(), Some(Value::counter(1)));
        assert_eq!(
            s.put(obj(10), Value::counter(2)).unwrap(),
            Some(Value::counter(1))
        );
        assert_eq!(s.remove(obj(10)).unwrap(), Some(Value::counter(2)));
        assert_eq!(s.get(obj(10)).unwrap(), None);
    }

    #[test]
    fn overflow_chains_grow_and_serve() {
        // One bucket forces every object onto one chain.
        let mut s = PageStore::new(1, 4);
        let n = Page::CAPACITY * 3;
        for i in 0..n {
            s.put(obj(i as u64 + 10), Value::counter(i as i64)).unwrap();
        }
        for i in 0..n {
            assert_eq!(
                s.get(obj(i as u64 + 10)).unwrap(),
                Some(Value::counter(i as i64)),
                "object {i}"
            );
        }
    }

    #[test]
    fn flush_then_crash_preserves_data() {
        let mut s = PageStore::new(4, 8);
        for i in 0..50u64 {
            s.put(obj(i + 10), Value::counter(i as i64)).unwrap();
        }
        s.flush().unwrap();
        s.crash();
        for i in 0..50u64 {
            assert_eq!(s.get(obj(i + 10)).unwrap(), Some(Value::counter(i as i64)));
        }
    }

    #[test]
    fn crash_without_flush_loses_buffered_updates() {
        let mut s = PageStore::new(4, 64);
        s.put(obj(10), Value::counter(1)).unwrap();
        s.flush().unwrap();
        s.put(obj(10), Value::counter(2)).unwrap();
        s.crash();
        assert_eq!(s.get(obj(10)).unwrap(), Some(Value::counter(1)));
    }

    #[test]
    fn reopen_from_same_disk_recovers_meta() {
        let mut s = PageStore::new(2, 4);
        let n = Page::CAPACITY + 5; // force at least one overflow allocation
        for i in 0..n {
            s.put(obj(i as u64 + 10), Value::counter(i as i64)).unwrap();
        }
        s.flush().unwrap();
        let disk = s.disk.clone();
        let mut reopened = PageStore::open(disk, 2, 4).unwrap();
        for i in 0..n {
            assert_eq!(
                reopened.get(obj(i as u64 + 10)).unwrap(),
                Some(Value::counter(i as i64))
            );
        }
        // Allocation cursor must have been recovered: new inserts must not
        // clobber existing overflow pages.
        for i in 0..Page::CAPACITY {
            reopened
                .put(obj(i as u64 + 100_000), Value::counter(-1))
                .unwrap();
        }
        for i in 0..n {
            assert_eq!(
                reopened.get(obj(i as u64 + 10)).unwrap(),
                Some(Value::counter(i as i64))
            );
        }
    }

    #[test]
    fn scan_returns_everything_sorted() {
        let mut s = PageStore::new(3, 8);
        for i in [30u64, 10, 20] {
            s.put(obj(i), Value::counter(i as i64)).unwrap();
        }
        let all = s.scan().unwrap();
        assert_eq!(
            all,
            vec![
                (obj(10), Value::counter(10)),
                (obj(20), Value::counter(20)),
                (obj(30), Value::counter(30)),
            ]
        );
    }

    /// A store whose 4-frame pool spills: 2 buckets, chains of 3+ pages.
    fn spilling() -> PageStore {
        let mut s = PageStore::new(2, 4);
        for i in 0..Page::CAPACITY as u64 * 6 {
            s.put(obj(i + 10), Value::counter(i as i64)).unwrap();
        }
        s.flush().unwrap();
        s.reset_stats();
        s
    }

    /// Disk writes caused by `op` on a flushed store: the pages it dirtied.
    fn pages_dirtied(s: &mut PageStore, op: impl FnOnce(&mut PageStore)) -> u64 {
        s.flush().unwrap();
        s.reset_stats();
        op(s);
        s.flush().unwrap();
        s.stats().0.writes
    }

    #[test]
    fn reading_dirties_nothing_however_much_it_evicts() {
        let mut s = spilling();
        for i in 0..Page::CAPACITY as u64 * 6 {
            assert!(s.get(obj(i + 10)).unwrap().is_some());
        }
        s.flush().unwrap();
        let (disk, pool) = s.stats();
        assert!(pool.evictions > 100, "the pass spilled: {pool:?}");
        assert_eq!((disk.writes, pool.writebacks), (0, 0));
    }

    #[test]
    fn an_update_dirties_the_page_it_changes_not_the_chain_it_walked() {
        let mut s = spilling();
        // The last keys inserted live at the end of their chains.
        let deep = obj(Page::CAPACITY as u64 * 6 + 9);
        assert_eq!(
            pages_dirtied(&mut s, |s| {
                s.put(deep, Value::counter(-1)).unwrap().expect("overwrite");
            }),
            1
        );
        assert_eq!(
            pages_dirtied(&mut s, |s| {
                s.remove(deep).unwrap().expect("present");
            }),
            1
        );
        assert_eq!(
            pages_dirtied(&mut s, |s| {
                assert_eq!(s.put(deep, Value::counter(5)).unwrap(), None);
            }),
            1,
            "an absent key dirties the page it lands on"
        );
    }

    #[test]
    fn linking_an_overflow_page_dirties_predecessor_new_page_and_meta() {
        let mut s = PageStore::new(1, 4);
        for i in 0..Page::CAPACITY as u64 {
            s.put(obj(i + 10), Value::ZERO).unwrap();
        }
        let dirtied = pages_dirtied(&mut s, |s| {
            s.put(obj(5_000), Value::ZERO).unwrap();
        });
        assert_eq!(dirtied, 3, "bucket head (link), overflow page, cursor");
    }

    #[test]
    fn every_disk_write_is_a_dirty_frame_written_back() {
        let mut s = spilling();
        for i in 0..2_000u64 {
            let key = obj(10 + (i * 37) % (Page::CAPACITY as u64 * 6));
            match i % 3 {
                0 => drop(s.get(key).unwrap()),
                1 => drop(s.put(key, Value::counter(i as i64)).unwrap()),
                _ => drop(s.remove(key).unwrap()),
            }
        }
        s.flush().unwrap();
        let (disk, pool) = s.stats();
        assert!(pool.evictions > pool.writebacks, "clean frames leave free");
        assert_eq!(disk.writes, pool.writebacks);
    }

    #[test]
    fn page_of_is_stable_and_in_range() {
        let s = PageStore::new(7, 4);
        for i in 0..100u64 {
            let p = s.page_of(obj(i));
            assert_eq!(p, s.page_of(obj(i)));
            assert!(p.raw() >= 1 && p.raw() <= 7);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random op sequences agree with a HashMap model. Crash semantics
        /// are page-granular: eviction may persist updates before an
        /// explicit flush, so after a crash each key must hold one of the
        /// values written since the last flush (or the flushed value) — we
        /// track the set of *possible* post-crash values per key.
        #[test]
        fn store_matches_model(
            ops in proptest::collection::vec((0u8..5, 2u64..40, any::<i64>()), 1..200),
            buckets in 1u32..6,
            frames in 2usize..10,
        ) {
            let mut store = PageStore::new(buckets, frames);
            let mut model: HashMap<u64, i64> = HashMap::new();
            // key -> values that could legally survive a crash (None = absent).
            let mut possible: HashMap<u64, Vec<Option<i64>>> = HashMap::new();
            for (kind, key, val) in ops {
                // Keep keys clear of the meta ids by offsetting.
                let k = key + 100;
                let o = obj(k);
                match kind {
                    0 => {
                        let got = store.get(o).unwrap().map(|v| v.counter);
                        prop_assert_eq!(got, model.get(&k).copied());
                    }
                    1 => {
                        store.put(o, Value::counter(val)).unwrap();
                        model.insert(k, val);
                        possible.entry(k).or_insert_with(|| vec![None]).push(Some(val));
                    }
                    2 => {
                        let got = store.remove(o).unwrap().map(|v| v.counter);
                        prop_assert_eq!(got, model.remove(&k));
                        possible.entry(k).or_insert_with(|| vec![None]).push(None);
                    }
                    3 => {
                        store.flush().unwrap();
                        // After a flush only the current state can survive.
                        possible.clear();
                        for (k, v) in &model {
                            possible.insert(*k, vec![Some(*v)]);
                        }
                    }
                    _ => {
                        store.crash();
                        let surviving: HashMap<u64, i64> = store
                            .scan()
                            .unwrap()
                            .into_iter()
                            .map(|(o, v)| (o.raw(), v.counter))
                            .collect();
                        for (k, got) in &surviving {
                            let allowed = possible.get(k).cloned().unwrap_or_else(|| vec![None]);
                            prop_assert!(
                                allowed.contains(&Some(*got)),
                                "key {} held {} after crash; allowed {:?}",
                                k, got, allowed
                            );
                        }
                        // Keys absent after the crash must have None as a
                        // possible state.
                        for (k, allowed) in &possible {
                            if !surviving.contains_key(k) {
                                prop_assert!(
                                    allowed.contains(&None),
                                    "key {} vanished after crash; allowed {:?}",
                                    k, allowed
                                );
                            }
                        }
                        model = surviving.clone();
                        possible.clear();
                        for (k, v) in &model {
                            possible.insert(*k, vec![Some(*v)]);
                        }
                    }
                }
            }
        }
    }
}
