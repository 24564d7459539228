//! Hash-partitioned object store with overflow chaining, plus a
//! direct-mapped relation for the reserved id region.
//!
//! Layout on the simulated disk:
//!
//! * page 0 — metadata (bucket count, allocation cursor, head of the window
//!   list), stored as ordinary entries so the page machinery (checksums,
//!   atomic writes) covers it;
//! * pages `1..=buckets` — bucket heads; user object `o` hashes to
//!   [`PageStore::bucket_page`];
//! * pages `> buckets`, allocated from the cursor — **overflow pages**,
//!   chained from their bucket via each page's overflow link, and **window
//!   pages**: reserved id `r` ([`ObjectId::is_reserved`]) lives on the one
//!   page of window `(r & !RESERVED) / Page::CAPACITY`, an ordinary packed
//!   page its `CAPACITY` ids cannot outgrow. These are §3.2/§3.3's "extra
//!   relation" (`amc_net::marker`), dense and monotone in the transaction
//!   id: one costs a directory probe and one page, never a chain walk.
//!
//! The `window → page` directory is in memory. On disk the window pages are
//! one list in allocation order — head on the meta page, overflow links —
//! and the directory is what a walk of it finds, on the first reserved
//! access after `open` and after `crash` alike. Any entry names its page's
//! window; a page that lost all of them stays linked, empty and unused.
//!
//! A user object a walk found or placed is one page away: objects never move
//! (removal swaps within a page, inserts never relocate), so a volatile
//! `ObjectId → PageId` directory names its page until `crash` forgets it.
//! Ids it does not know — and one a lost write took off its page — walk.
//!
//! Placement is not the lock granule: the engines lock `bucket_page(buckets,
//! obj)` for every id, or concurrent markers would queue on their window.
//!
//! The store is the page-level (L0) interface the local engines use. It has
//! **no transactional semantics of its own** — atomicity and durability of
//! engine transactions come from the WAL on top.

use crate::buffer::{BufferPool, BufferStats, WriteAhead};
use crate::disk::{DiskStats, StableStorage};
use crate::page::Page;
use amc_types::{AmcError, AmcResult, Lsn, ObjectId, PageId, Value};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

const META_PAGE: PageId = PageId::new(0);
const META_BUCKETS: ObjectId = ObjectId::new(0);
const META_CURSOR: ObjectId = ObjectId::new(1);
/// First page of the window list; absent until a reserved id is stored.
const META_WINDOWS: ObjectId = ObjectId::new(2);

fn set_meta(meta: &mut Page, key: ObjectId, n: u32) {
    meta.upsert(key, Value::counter(i64::from(n)))
        .expect("meta page never fills");
}

fn window_of(obj: ObjectId) -> u64 {
    (obj.raw() & !ObjectId::RESERVED) / Page::CAPACITY as u64
}

/// The directories' hash: [`PageStore::bucket_page`]'s scramble folded over
/// the key's words, where SipHash would build a keyed state per lookup. Ids
/// crafted to collide here already share one bucket chain of the store.
#[derive(Default)]
struct Scramble(u64);

impl Hasher for Scramble {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|b| self.write_u64(u64::from(*b)));
    }
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

type Directory<K> = HashMap<K, PageId, BuildHasherDefault<Scramble>>;

/// The directory of the reserved relation.
#[derive(Debug, Default)]
struct Windows {
    page_of: Directory<u64>,
    /// Last page of the window list: where the next one is linked.
    tail: Option<PageId>,
}

/// A persistent object store: `ObjectId -> Value`.
#[derive(Debug)]
pub struct PageStore {
    disk: StableStorage,
    pool: BufferPool,
    buckets: u32,
    next_free: u32,
    /// `None` until read from the disk (see [`PageStore::windows`]).
    windows: Option<Windows>,
    /// The page each user object a walk found or placed lives on.
    objects: Directory<ObjectId>,
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
            windows: None,
            objects: Directory::default(),
        })
    }

    /// Convenience constructor over a fresh disk.
    pub fn new(buckets: u32, pool_frames: usize) -> Self {
        let disk = StableStorage::new(buckets as usize + 8);
        Self::open(disk, buckets, pool_frames).expect("fresh store cannot fail to open")
    }

    /// The bucket-head page an object hashes to: the engines' L0 locking
    /// granule for every id, and where a user object's chain starts.
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

    /// Visit the page `pid` and, while `follow`, the overflow chain after
    /// it, until `visit` answers; `None` when the pages ended first. `visit`
    /// is told whether the page it sees is the last.
    fn walk<R>(
        &mut self,
        mut pid: PageId,
        follow: bool,
        mut visit: impl FnMut(&mut Page, bool) -> Option<R>,
    ) -> AmcResult<Option<R>> {
        loop {
            let (answer, next) = self.pool.with_page(pid, &mut self.disk, |p| {
                let next = p.overflow().filter(|_| follow);
                (visit(p, next.is_none()), next)
            })?;
            match (answer, next) {
                (None, Some(next)) => pid = next,
                (answer, _) => return Ok(answer),
            }
        }
    }

    fn window_head(&mut self) -> AmcResult<Option<PageId>> {
        let head = |meta: &mut Page| Some(PageId::new(meta.get(META_WINDOWS)?.counter as u32));
        self.pool.with_page(META_PAGE, &mut self.disk, head)
    }

    /// The window directory, read off the disk's window list when this is
    /// the first use since `open` or `crash` — so after a crash it is, by
    /// construction, what a reopen of the same disk would find.
    fn windows(&mut self) -> AmcResult<&mut Windows> {
        if self.windows.is_none() {
            let mut found = Windows::default();
            if let Some(head) = self.window_head()? {
                self.walk(head, true, |p, _| {
                    found.tail = Some(p.id());
                    if let Some((obj, _)) = p.iter().next() {
                        found.page_of.insert(window_of(obj), p.id());
                    }
                    None::<()>
                })?;
            }
            self.windows = Some(found);
        }
        Ok(self.windows.as_mut().expect("just read"))
    }

    /// Where `obj` is looked for: the first page, and whether the search
    /// goes on through overflow links (a window is one page; its link
    /// threads the window list). `None`: a window no page was opened for.
    fn pages_of(&mut self, obj: ObjectId) -> AmcResult<Option<(PageId, bool)>> {
        if !obj.is_reserved() {
            return Ok(Some((self.page_of(obj), true)));
        }
        let page = self.windows()?.page_of.get(&window_of(obj));
        Ok(page.map(|&pid| (pid, false)))
    }

    /// Note the page user object `obj` lives on now (`None`: none).
    fn note(&mut self, obj: ObjectId, home: Option<PageId>) {
        match home {
            Some(home) if !obj.is_reserved() => drop(self.objects.insert(obj, home)),
            _ => drop(self.objects.remove(&obj)),
        }
    }

    /// Visit the page the directory names for `obj`; `None` when it names
    /// none or `visit` misses `obj` there — a lost write: the entry goes.
    fn at_home<R>(
        &mut self,
        obj: ObjectId,
        visit: impl FnOnce(&mut Page) -> Option<R>,
    ) -> AmcResult<Option<R>> {
        let Some(&home) = self.objects.get(&obj) else {
            return Ok(None);
        };
        let here = self.pool.with_page(home, &mut self.disk, visit)?;
        if here.is_none() {
            self.objects.remove(&obj);
        }
        Ok(here)
    }

    /// Read an object's value.
    pub fn get(&mut self, obj: ObjectId) -> AmcResult<Option<Value>> {
        if let Some(value) = self.at_home(obj, |p| p.get(obj))? {
            return Ok(Some(value));
        }
        let Some((head, follow)) = self.pages_of(obj)? else {
            return Ok(None);
        };
        let found = self.walk(head, follow, |p, _| Some((p.get(obj)?, p.id())))?;
        self.note(obj, found.map(|(_, home)| home));
        Ok(found.map(|(value, _)| value))
    }

    /// Read-modify-write in one pass over the object's pages: `f` sees the
    /// current value (`None` = absent) and answers the one to leave, or an
    /// error that leaves the store untouched. Returns `(before, after)`. A
    /// present key is rewritten where it is (a known one: its one page); an
    /// absent one goes to the first page with space — noted on the way, so
    /// only a hole *before* the last page costs a second visit — or a new one.
    pub fn update(
        &mut self,
        obj: ObjectId,
        f: impl FnOnce(Option<Value>) -> AmcResult<Option<Value>>,
    ) -> AmcResult<(Option<Value>, Option<Value>)> {
        let mut f = Some(f);
        let mut decide = |found| f.take().expect("an object is found or not, once")(found);
        if let Some(done) = self.at_home(obj, |p| p.update(obj, |v| decide(Some(v))))? {
            let (before, after) = done?;
            if after.is_none() {
                self.objects.remove(&obj);
            }
            return Ok((Some(before), after));
        }
        let (mut room, mut last, mut home) = (None, None, None);
        if let Some((head, follow)) = self.pages_of(obj)? {
            let done = self.walk(head, follow, |p, is_last| {
                if let Some(found) = p.update(obj, |v| decide(Some(v))) {
                    home = Some(p.id());
                    return Some(found.map(|(before, after)| (Some(before), after)));
                }
                if room.is_none() && !p.is_full() {
                    room = Some(p.id());
                }
                if !is_last {
                    return None;
                }
                last = Some(p.id());
                // Absent, and this page is where it would go: same visit.
                (room == last).then(|| {
                    let after = decide(None)?;
                    if let Some(value) = after {
                        p.push(obj, value);
                    }
                    Ok((None, after))
                })
            })?;
            if let Some(done) = done {
                let (before, after) = done?;
                self.note(obj, after.and(home.or(last)));
                return Ok((before, after));
            }
        }
        let Some(value) = decide(None)? else {
            return Ok((None, None));
        };
        let target = match room {
            Some(pid) => pid,
            None if obj.is_reserved() => {
                let tail = self.windows()?.tail;
                let fresh = self.link_fresh(tail)?;
                let windows = self.windows()?;
                windows.tail = Some(fresh);
                windows.page_of.insert(window_of(obj), fresh);
                fresh
            }
            None => self.link_fresh(last)?,
        };
        self.pool
            .with_page(target, &mut self.disk, |p| p.push(obj, value))?;
        self.note(obj, Some(target));
        Ok((None, Some(value)))
    }

    /// Insert or overwrite an object, returning the previous value.
    pub fn put(&mut self, obj: ObjectId, value: Value) -> AmcResult<Option<Value>> {
        Ok(self.update(obj, |_| Ok(Some(value)))?.0)
    }

    /// Remove an object, returning its value if it was present.
    pub fn remove(&mut self, obj: ObjectId) -> AmcResult<Option<Value>> {
        Ok(self.update(obj, |_| Ok(None))?.0)
    }

    /// Allocate a page and link it behind `pred` — or, with none, as the
    /// head of the window list on the meta page.
    fn link_fresh(&mut self, pred: Option<PageId>) -> AmcResult<PageId> {
        let fresh = PageId::new(self.next_free);
        self.next_free += 1;
        let cursor = self.next_free;
        self.pool.with_page(META_PAGE, &mut self.disk, |meta| {
            set_meta(meta, META_CURSOR, cursor);
            if pred.is_none() {
                set_meta(meta, META_WINDOWS, fresh.raw());
            }
        })?;
        if let Some(pred) = pred {
            self.pool
                .with_page(pred, &mut self.disk, |p| p.set_overflow(Some(fresh)))?;
        }
        Ok(fresh)
    }

    /// Write no page back ahead of its log: from now on a dirty page waits
    /// until `wal` is durable through the newest record that describes it
    /// (see [`PageStore::stamp`]).
    pub fn follow(&mut self, wal: Arc<dyn WriteAhead>) {
        self.pool.follow(wal);
    }

    /// `lsn` is the log record that describes the change just made: every
    /// page that change dirtied — the object's, and any page it linked —
    /// is written back only once the log is durable through `lsn`.
    pub fn stamp(&mut self, lsn: Lsn) {
        self.pool.stamp(lsn);
    }

    /// Flush every dirty buffer frame (checkpoint / force).
    pub fn flush(&mut self) -> AmcResult<()> {
        self.pool.flush_all(&mut self.disk)
    }

    /// Simulate a site crash: volatile state is lost, stable state kept.
    /// The allocation cursor stays ahead of the disk's (harmless: it skips
    /// pages); both directories are forgotten and re-read by walks.
    pub fn crash(&mut self) {
        self.pool.crash();
        self.windows = None;
        self.objects.clear();
    }

    /// Combined I/O and buffer statistics.
    pub fn stats(&self) -> (DiskStats, BufferStats) {
        (self.disk.stats(), self.pool.stats())
    }

    /// Enumerate all objects, reserved ones included (test/verification
    /// helper; scans every linked page).
    pub fn scan(&mut self) -> AmcResult<Vec<(ObjectId, Value)>> {
        let mut out = Vec::new();
        let heads = (1..=self.buckets).map(PageId::new);
        for head in heads.chain(self.window_head()?) {
            self.walk(head, true, |p, _| {
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
    use crate::fault::FaultConfig;
    use crate::page::Page;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};

    impl PageStore {
        /// Reset statistics counters.
        fn reset_stats(&mut self) {
            self.disk.reset_stats();
            self.pool.reset_stats();
        }

        /// Directory entries that do not name a page of their key's chain
        /// holding the key.
        fn misplaced(&mut self) -> Vec<(ObjectId, PageId)> {
            let entries: Vec<_> = self.objects.iter().map(|(o, p)| (*o, *p)).collect();
            let holds = |s: &mut Self, (obj, home): (ObjectId, PageId)| {
                let head = s.page_of(obj);
                let here = s.walk(head, true, |p, _| (p.id() == home).then(|| p.get(obj)));
                !obj.is_reserved() && here.unwrap().flatten().is_some()
            };
            entries.into_iter().filter(|e| !holds(self, *e)).collect()
        }
    }

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

    /// A reserved id `n` places into the region.
    fn reserved(n: u64) -> ObjectId {
        ObjectId::new(ObjectId::RESERVED | n)
    }

    /// The window directory as a sorted list, and the list's last page.
    fn directory(s: &mut PageStore) -> (Vec<(u64, PageId)>, Option<PageId>) {
        let windows = s.windows().unwrap();
        let mut pages: Vec<_> = windows.page_of.iter().map(|(w, p)| (*w, *p)).collect();
        pages.sort();
        (pages, windows.tail)
    }

    #[test]
    fn reopen_from_same_disk_recovers_meta() {
        let mut s = PageStore::new(2, 4);
        let n = Page::CAPACITY + 5; // force at least one overflow allocation
        let keys = |i: usize| [obj(i as u64 + 10), reserved(i as u64 * 7)];
        for i in 0..n {
            for key in keys(i) {
                s.put(key, Value::counter(i as i64)).unwrap();
            }
        }
        s.flush().unwrap();
        let disk = s.disk.clone();
        let mut reopened = PageStore::open(disk, 2, 4).unwrap();
        assert_eq!(directory(&mut reopened), directory(&mut s));
        assert_eq!(directory(&mut s).0.len(), 8, "ids 0..=1449 by 7: 8 windows");
        let intact = |reopened: &mut PageStore| {
            for i in 0..n {
                for key in keys(i) {
                    let got = reopened.get(key).unwrap();
                    assert_eq!(got, Some(Value::counter(i as i64)), "{key}");
                }
            }
        };
        intact(&mut reopened);
        // Allocation cursor and the list's tail must have been recovered:
        // new inserts, and new windows, must not clobber existing pages.
        for i in 0..Page::CAPACITY as u64 {
            for key in [obj(i + 100_000), reserved(i * 7 + 100_000)] {
                reopened.put(key, Value::counter(-1)).unwrap();
            }
        }
        intact(&mut reopened);
        assert_eq!(reopened.scan().unwrap().len(), 2 * (n + Page::CAPACITY));
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
        let n = Page::CAPACITY as u64 * 6;
        // Every key twice, hopping between pages: walking the chains (the
        // directory forgotten), then one page per read.
        s.crash();
        for _ in 0..2 {
            for i in 0..n {
                assert!(s.get(obj(10 + i * 37 % n)).unwrap().is_some());
            }
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

    /// Buffer accesses (hits + misses) `op` costs.
    fn accesses(s: &mut PageStore, op: impl FnOnce(&mut PageStore)) -> u64 {
        let before = s.stats().1;
        op(s);
        let after = s.stats().1;
        (after.hits + after.misses) - (before.hits + before.misses)
    }

    /// Pages on the chain `key` hashes to.
    fn chain_len(s: &mut PageStore, key: ObjectId) -> u64 {
        let mut pages = 0;
        let head = s.page_of(key);
        s.walk(head, true, |_, _| {
            pages += 1;
            None::<()>
        })
        .unwrap();
        pages
    }

    #[test]
    fn a_reserved_insert_costs_the_same_however_many_came_before() {
        let mut s = spilling();
        let mut thousands = Vec::new();
        for k in 0..10u64 {
            let cost = accesses(&mut s, |s| {
                for n in k * 1_000..(k + 1) * 1_000 {
                    assert_eq!(s.put(reserved(n), Value::ZERO).unwrap(), None);
                }
            });
            thousands.push(cost);
        }
        // One access per insert; opening a window adds the meta page and
        // the list's last page to the fresh one, 4 or 5 times a thousand.
        // (The first window has no page to link from; reading the meta page
        // to find the directory empty makes up for it.)
        assert_eq!((thousands[0], thousands[9]), (1_010, 1_010));
        let flat = thousands.iter().all(|cost| [1_008, 1_010].contains(cost));
        assert!(flat, "{thousands:?}");
        let dense: Vec<u64> = (0..10_000).collect();
        let found = s.scan().unwrap();
        let found: Vec<u64> = found
            .iter()
            .filter(|(o, _)| o.is_reserved())
            .map(|(o, _)| o.raw() & !ObjectId::RESERVED)
            .collect();
        assert_eq!(found, dense);
    }

    #[test]
    fn a_marker_insert_dirties_one_page_and_three_when_it_opens_a_window() {
        let mut s = spilling();
        let first = pages_dirtied(&mut s, |s| drop(s.put(reserved(7), Value::ZERO)));
        assert_eq!(first, 2, "window page; meta (list head and cursor)");
        let same = pages_dirtied(&mut s, |s| drop(s.put(reserved(8), Value::ZERO)));
        assert_eq!(same, 1);
        let far = reserved((1 << 62) | 7);
        let opens = pages_dirtied(&mut s, |s| drop(s.put(far, Value::ZERO)));
        assert_eq!(opens, 3, "window page, predecessor link, meta (cursor)");
        let gone = pages_dirtied(&mut s, |s| drop(s.remove(reserved(7))));
        assert_eq!(gone, 1);
        assert_eq!(pages_dirtied(&mut s, |s| drop(s.get(far))), 0);
    }

    #[test]
    fn a_known_object_is_one_access_away_until_a_crash_or_its_removal() {
        let mut s = spilling();
        let deep = obj(Page::CAPACITY as u64 * 6 + 9);
        let pages = chain_len(&mut s, deep);
        assert!(pages >= 3);
        let bump = |found: Option<Value>| Ok(found.map(|v| v.incremented(1)));
        // Placed by `spilling`'s puts, so the directory knows its page.
        assert_eq!(accesses(&mut s, |s| drop(s.get(deep))), 1);
        assert_eq!(accesses(&mut s, |s| drop(s.update(deep, bump))), 1);
        // A crash forgets it: the first touch walks, the second does not.
        s.crash();
        assert_eq!(accesses(&mut s, |s| drop(s.get(deep))), pages);
        assert_eq!(accesses(&mut s, |s| drop(s.update(deep, bump))), 1);
        assert_eq!(accesses(&mut s, |s| drop(s.put(deep, Value::ZERO))), 1);
        // Removed, it is unknown again and a lookup walks.
        assert_eq!(accesses(&mut s, |s| drop(s.remove(deep))), 1);
        assert_eq!(accesses(&mut s, |s| drop(s.get(deep))), pages);
        assert!(s.misplaced().is_empty() && !s.objects.contains_key(&deep));
    }

    #[test]
    fn a_lost_write_sends_the_lookup_back_to_the_chain() {
        let mut s = spilling();
        let mut model: BTreeMap<_, _> = s.scan().unwrap().into_iter().collect();
        // The last key inserted on a chain lives on its last page; the first
        // one on its head.
        let deep = obj(Page::CAPACITY as u64 * 6 + 9);
        let head = s.page_of(deep);
        let shallow = (10..).map(obj).find(|o| s.page_of(*o) == head).unwrap();
        s.disk.inject_faults(FaultConfig {
            read_error_probability: 0.0,
            lost_write_probability: 1.0,
            seed: 9,
        });
        // Move `deep` into the hole `shallow` leaves at the head ...
        s.remove(shallow).unwrap();
        let value = s.remove(deep).unwrap();
        s.put(deep, value.unwrap()).unwrap();
        assert_eq!(s.objects[&deep], head);
        // ... and lose every write that did it, evicting every frame: the
        // disk still holds `deep` on the last page, not where the directory
        // says.
        s.flush().unwrap();
        s.pool.crash();
        s.disk.clear_faults();
        let before = s.put(deep, Value::counter(-5)).unwrap();
        assert_eq!(before, value, "found where the walk put it first");
        model.insert(deep, Value::counter(-5));
        let model: Vec<_> = model.into_iter().collect();
        assert_eq!(s.scan().unwrap(), model, "one copy of each key");
        assert_ne!(s.objects[&deep], head);
        assert!(s.misplaced().is_empty());
        assert_eq!(accesses(&mut s, |s| drop(s.get(deep))), 1);
    }

    #[test]
    fn update_and_absent_put_visit_each_page_of_the_chain_at_most_once() {
        let mut s = spilling();
        let deep = obj(Page::CAPACITY as u64 * 6 + 9);
        let pages = chain_len(&mut s, deep);
        assert!(pages >= 3);
        let bump = |found: Option<Value>| Ok(found.map(|v| v.incremented(1)));
        s.crash();
        let cost = accesses(&mut s, |s| drop(s.update(deep, bump)));
        assert_eq!(cost, pages, "the deepest key, unknown: every page, once");
        // Absent keys of the same chain: the first may have to grow it.
        let head = s.page_of(deep);
        let mut absent = (1_000_000..).map(obj).filter(|key| s.page_of(*key) == head);
        let (grower, absent) = (absent.next().unwrap(), absent.next().unwrap());
        s.put(grower, Value::ZERO).unwrap();
        let pages = chain_len(&mut s, deep);
        let cost = accesses(&mut s, |s| drop(s.put(absent, Value::ZERO)));
        assert_eq!(cost, pages, "found absent and placed in the same visit");
        // An `Err` from the transition leaves every page clean.
        let refuse = |_| Err(AmcError::NotFound(absent));
        let dirtied = pages_dirtied(&mut s, |s| drop(s.update(obj(3), refuse)));
        assert_eq!(dirtied, 0);
        // A hole before the last page: the one case with a second visit.
        let shallow = obj(10);
        let head = s.page_of(shallow);
        let filler = (2_000_000..).map(obj).find(|key| s.page_of(*key) == head);
        assert!(s.remove(shallow).unwrap().is_some());
        let cost = accesses(&mut s, |s| drop(s.put(filler.unwrap(), Value::ZERO)));
        assert_eq!(cost, chain_len(&mut s, shallow) + 1);
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
        ///
        /// Keys come from both regions: user ids, and reserved ids that share
        /// a window, sit in neighbouring windows, or lie 2^61 and 2^62 apart.
        #[test]
        fn store_matches_model(
            ops in proptest::collection::vec((0u8..5, 2u64..50, any::<i64>()), 1..200),
            buckets in 1u32..6,
            frames in 2usize..10,
        ) {
            const FAR: u64 = 1 << 62;
            const RESERVED: [u64; 10] =
                [0, 5, 6, 202, 203, 300, 1 << 61, FAR | 5, FAR | 6, FAR + 1_000];
            let mut store = PageStore::new(buckets, frames);
            let mut model: HashMap<u64, i64> = HashMap::new();
            // key -> values that could legally survive a crash (None = absent).
            let mut possible: HashMap<u64, Vec<Option<i64>>> = HashMap::new();
            for (kind, key, val) in ops {
                // Keep user keys clear of the meta ids by offsetting.
                let o = match key.checked_sub(40) {
                    Some(i) => reserved(RESERVED[i as usize]),
                    None => obj(key + 100),
                };
                let k = o.raw();
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
                        // The directory is what a reopen of the disk finds.
                        let mut reopened =
                            PageStore::open(store.disk.clone(), buckets, frames).unwrap();
                        prop_assert_eq!(directory(&mut store), directory(&mut reopened));
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
                // Every entry of the object directory names a page on its
                // key's chain that holds the key.
                prop_assert_eq!(store.misplaced(), vec![]);
            }
        }
    }
}
