//! Fixed-size slotted pages.
//!
//! A page stores up to `Page::CAPACITY` `(ObjectId, Value)` entries plus a
//! link to an optional overflow page (used by [`crate::store::PageStore`]'s
//! hash-partitioned layout). A `Page` **is** its 4 KB image: entries are
//! read and written in place, so a buffer-pool miss is one copy plus one
//! checksum verify and a write-back is one copy plus one seal — nothing is
//! transcoded. The format, in memory and on the simulated disk:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  (b"AMCP")
//! 4       4     page id
//! 8       4     overflow link (u32::MAX = none)
//! 12      2     entry count
//! 14      2     padding (zero)
//! 16      8     checksum::page_sum over bytes [24, PAGE_SIZE); written
//!               when the image is sealed for the disk, stale in a frame
//! 24      ...   entries: obj id (8) + value (12), packed; bytes past the
//!               last entry are zero
//! ```

use crate::checksum::page_sum;
use amc_types::{AmcError, AmcResult, ObjectId, PageId, Value};

/// On-disk page size in bytes.
pub const PAGE_SIZE: usize = 4096;
/// Size of the fixed header.
pub(crate) const HEADER_SIZE: usize = 24;
/// Size of one packed entry.
pub(crate) const ENTRY_SIZE: usize = 8 + 12;

const MAGIC: [u8; 4] = *b"AMCP";
const NO_OVERFLOW: u32 = u32::MAX;
const SUM_AT: std::ops::Range<usize> = 16..24;

/// A slotted page, held as its image.
#[derive(Debug, Clone)]
pub(crate) struct Page {
    image: Box<[u8; PAGE_SIZE]>,
    /// An entry or the overflow link changed since the image last matched
    /// the disk. The page notes this itself, so no caller can forget to.
    dirty: bool,
}

/// Equal content: the images agree outside the checksum field, which is
/// only meaningful in a sealed copy.
impl PartialEq for Page {
    fn eq(&self, other: &Self) -> bool {
        self.image[..SUM_AT.start] == other.image[..SUM_AT.start]
            && self.image[SUM_AT.end..] == other.image[SUM_AT.end..]
    }
}
impl Eq for Page {}

fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"))
}

fn entry_obj(entry: &[u8]) -> u64 {
    u64::from_le_bytes(entry[..8].try_into().expect("8 bytes"))
}

fn entry_value(entry: &[u8]) -> Value {
    Value::from_bytes(entry[8..ENTRY_SIZE].try_into().expect("12 bytes"))
}

impl Page {
    /// Maximum number of entries a page can hold.
    pub(crate) const CAPACITY: usize = (PAGE_SIZE - HEADER_SIZE) / ENTRY_SIZE;

    /// A fresh, empty page.
    pub(crate) fn new(id: PageId) -> Self {
        let mut image = Box::new([0u8; PAGE_SIZE]);
        image[0..4].copy_from_slice(&MAGIC);
        image[4..8].copy_from_slice(&id.raw().to_le_bytes());
        image[8..12].copy_from_slice(&NO_OVERFLOW.to_le_bytes());
        Page {
            image,
            dirty: false,
        }
    }

    /// This page's id.
    #[inline]
    pub(crate) fn id(&self) -> PageId {
        PageId::new(le_u32(&self.image[4..]))
    }

    /// The overflow page chained after this one, if any.
    #[inline]
    pub(crate) fn overflow(&self) -> Option<PageId> {
        let link = le_u32(&self.image[8..]);
        (link != NO_OVERFLOW).then(|| PageId::new(link))
    }

    /// Set or clear the overflow link.
    pub(crate) fn set_overflow(&mut self, next: Option<PageId>) {
        let link = next.map_or(NO_OVERFLOW, PageId::raw);
        self.image[8..12].copy_from_slice(&link.to_le_bytes());
        self.dirty = true;
    }

    /// Number of live entries.
    #[inline]
    fn len(&self) -> usize {
        usize::from(u16::from_le_bytes([self.image[12], self.image[13]]))
    }

    fn set_len(&mut self, len: usize) {
        self.image[12..14].copy_from_slice(&(len as u16).to_le_bytes());
        self.dirty = true;
    }

    /// True when no further entry fits.
    #[inline]
    pub(crate) fn is_full(&self) -> bool {
        self.len() >= Self::CAPACITY
    }

    /// Whether the page changed since it was loaded or last written back.
    #[inline]
    pub(crate) fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// The buffer pool wrote this image back: it matches the disk again.
    pub(crate) fn written_back(&mut self) {
        self.dirty = false;
    }

    /// Run `f` over the page, and tell whether `f` itself changed it —
    /// whatever earlier changes left it dirty.
    pub(crate) fn changed_by<R>(&mut self, f: impl FnOnce(&mut Page) -> R) -> (R, bool) {
        let earlier = std::mem::take(&mut self.dirty);
        let out = f(self);
        let changed = self.dirty;
        self.dirty |= earlier;
        (out, changed)
    }

    /// The packed live entries. `len() ≤ CAPACITY` holds for every image a
    /// `Page` can carry (`new`, `push`, and what `load` lets through).
    fn entries(&self) -> std::slice::ChunksExact<'_, u8> {
        self.image[HEADER_SIZE..HEADER_SIZE + self.len() * ENTRY_SIZE].chunks_exact(ENTRY_SIZE)
    }

    /// Byte offset of the entry holding `obj`.
    fn find(&self, obj: ObjectId) -> Option<usize> {
        self.entries()
            .position(|e| entry_obj(e) == obj.raw())
            .map(|i| HEADER_SIZE + i * ENTRY_SIZE)
    }

    /// Look up an object's value on this page (linear scan; pages are small
    /// and hot pages live in the buffer pool).
    pub(crate) fn get(&self, obj: ObjectId) -> Option<Value> {
        self.find(obj).map(|at| entry_value(&self.image[at..]))
    }

    fn set_value(&mut self, at: usize, value: Value) {
        self.image[at + 8..at + ENTRY_SIZE].copy_from_slice(&value.to_bytes());
        self.dirty = true;
    }

    /// Append an entry for an object the caller knows is not on the page;
    /// the page must have space.
    pub(crate) fn push(&mut self, obj: ObjectId, value: Value) {
        let len = self.len();
        assert!(len < Self::CAPACITY, "page {} full", self.id());
        let at = HEADER_SIZE + len * ENTRY_SIZE;
        self.image[at..at + 8].copy_from_slice(&obj.raw().to_le_bytes());
        self.set_len(len + 1);
        self.set_value(at, value);
    }

    /// Insert or overwrite an entry. Returns the previous value, or an error
    /// if the page is full and the object is not already present.
    pub(crate) fn upsert(&mut self, obj: ObjectId, value: Value) -> AmcResult<Option<Value>> {
        if let Some(at) = self.find(obj) {
            let old = entry_value(&self.image[at..]);
            self.set_value(at, value);
            return Ok(Some(old));
        }
        if self.is_full() {
            let (id, len) = (self.id(), self.len());
            return Err(AmcError::InvalidState(format!(
                "page {id} full ({len} entries)"
            )));
        }
        self.push(obj, value);
        Ok(None)
    }

    /// Read-modify-write of an entry that is here, in place: `f` sees its
    /// value and answers the one to leave (`None` removes the entry), or an
    /// error that leaves the page untouched. Answers `(before, after)`;
    /// `None` when the object is not on this page. On removal the last
    /// entry moves into the hole and its old slot is zeroed, so equal
    /// content means equal images.
    pub(crate) fn update(
        &mut self,
        obj: ObjectId,
        f: impl FnOnce(Value) -> AmcResult<Option<Value>>,
    ) -> Option<AmcResult<(Value, Option<Value>)>> {
        let at = self.find(obj)?;
        let before = entry_value(&self.image[at..]);
        Some(f(before).map(|after| {
            match after {
                Some(value) => self.set_value(at, value),
                None => {
                    let last = HEADER_SIZE + (self.len() - 1) * ENTRY_SIZE;
                    self.image.copy_within(last..last + ENTRY_SIZE, at);
                    self.image[last..last + ENTRY_SIZE].fill(0);
                    self.set_len(self.len() - 1);
                }
            }
            (before, after)
        }))
    }

    /// Iterate over live entries.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ObjectId, Value)> + '_ {
        self.entries()
            .map(|e| (ObjectId::new(entry_obj(e)), entry_value(e)))
    }

    /// Copy the image into `dst` and seal it there with the checksum — the
    /// write-back path, straight into the disk slot's buffer.
    pub(crate) fn seal_into(&self, dst: &mut [u8; PAGE_SIZE]) {
        *dst = *self.image;
        let sum = page_sum(&dst[HEADER_SIZE..]);
        dst[SUM_AT].copy_from_slice(&sum.to_le_bytes());
    }

    /// Become the stored image of page `id` — the read path: check magic,
    /// checksum, entry count and the id the image claims, then one copy
    /// into this frame. On error `self` is untouched.
    pub(crate) fn load(&mut self, id: PageId, img: &[u8; PAGE_SIZE]) -> AmcResult<()> {
        let stored_sum = u64::from_le_bytes(img[SUM_AT].try_into().expect("8 bytes"));
        let actual_sum = page_sum(&img[HEADER_SIZE..]);
        let count = usize::from(u16::from_le_bytes([img[12], img[13]]));
        let found = PageId::new(le_u32(&img[4..]));
        let damage = if img[0..4] != MAGIC {
            "bad page magic".into()
        } else if stored_sum != actual_sum {
            format!("checksum mismatch: stored {stored_sum:#x}, computed {actual_sum:#x}")
        } else if count > Self::CAPACITY {
            format!("entry count {count} exceeds capacity {}", Self::CAPACITY)
        } else if found != id {
            format!("slot {id} holds page {found}")
        } else {
            *self.image = *img;
            self.dirty = false;
            return Ok(());
        };
        Err(AmcError::Corruption(damage))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn obj(n: u64) -> ObjectId {
        ObjectId::new(n)
    }

    impl Page {
        /// The sealed on-disk image.
        pub(crate) fn to_bytes(&self) -> [u8; PAGE_SIZE] {
            let mut buf = [0u8; PAGE_SIZE];
            self.seal_into(&mut buf);
            buf
        }

        /// Remove an entry, returning its value if present.
        pub(crate) fn remove(&mut self, obj: ObjectId) -> Option<Value> {
            let removed = self.update(obj, |_| Ok(None))?;
            Some(removed.expect("the closure cannot fail").0)
        }

        /// A page from an on-disk image, verifying magic and checksum.
        pub(crate) fn from_bytes(img: &[u8; PAGE_SIZE]) -> AmcResult<Self> {
            let id = PageId::new(le_u32(&img[4..]));
            let mut page = Page::new(id);
            page.load(id, img)?;
            Ok(page)
        }
    }

    #[test]
    fn capacity_is_sane() {
        assert_eq!(Page::CAPACITY, (4096 - 24) / 20);
        const { assert!(Page::CAPACITY > 100) };
    }

    #[test]
    fn upsert_get_remove() {
        let mut p = Page::new(PageId::new(1));
        assert_eq!(p.upsert(obj(1), Value::counter(10)).unwrap(), None);
        assert_eq!(
            p.upsert(obj(1), Value::counter(20)).unwrap(),
            Some(Value::counter(10))
        );
        assert_eq!(p.get(obj(1)), Some(Value::counter(20)));
        assert_eq!(p.remove(obj(1)), Some(Value::counter(20)));
        assert_eq!(p.get(obj(1)), None);
        assert_eq!(p.remove(obj(1)), None);
    }

    #[test]
    fn full_page_rejects_new_but_accepts_overwrite() {
        let mut p = Page::new(PageId::new(1));
        for i in 0..Page::CAPACITY {
            p.upsert(obj(i as u64), Value::counter(i as i64)).unwrap();
        }
        assert!(p.is_full());
        assert!(p.upsert(obj(999_999), Value::ZERO).is_err());
        // Overwriting an existing entry still works.
        assert!(p.upsert(obj(0), Value::counter(-1)).is_ok());
    }

    #[test]
    fn byte_roundtrip_with_overflow_link() {
        let mut p = Page::new(PageId::new(7));
        p.set_overflow(Some(PageId::new(42)));
        p.upsert(obj(5), Value::tagged(3, 9)).unwrap();
        let back = Page::from_bytes(&p.to_bytes()).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.overflow(), Some(PageId::new(42)));
    }

    #[test]
    fn corruption_is_detected() {
        let p = Page::new(PageId::new(1));
        let mut img = p.to_bytes();
        img[100] ^= 0xff;
        assert!(matches!(
            Page::from_bytes(&img),
            Err(AmcError::Corruption(_))
        ));
    }

    #[test]
    fn bad_magic_is_detected() {
        let p = Page::new(PageId::new(1));
        let mut img = p.to_bytes();
        img[0] = b'X';
        assert!(matches!(
            Page::from_bytes(&img),
            Err(AmcError::Corruption(_))
        ));
    }

    #[test]
    fn a_zeroed_block_is_not_an_empty_page() {
        let mut img = [0u8; PAGE_SIZE];
        assert!(Page::from_bytes(&img).is_err());
        img[0..4].copy_from_slice(&MAGIC); // even with the magic patched in
        assert!(Page::from_bytes(&img).is_err());
    }

    #[test]
    fn a_page_is_dirty_exactly_when_it_was_mutated() {
        let mut p = Page::new(PageId::new(1));
        assert!(!p.is_dirty());
        assert_eq!(
            (p.get(obj(1)), p.remove(obj(1)), p.overflow()),
            (None, None, None)
        );
        assert!(!p.is_dirty(), "reads and a miss change nothing");
        p.upsert(obj(1), Value::ZERO).unwrap();
        assert!(p.is_dirty());
        p.written_back();
        p.set_overflow(Some(PageId::new(2)));
        assert!(p.is_dirty());
        p.written_back();
        p.remove(obj(1));
        assert!(p.is_dirty());
        assert!(!Page::from_bytes(&p.to_bytes()).unwrap().is_dirty());
    }

    #[test]
    fn remove_leaves_no_residue_in_the_image() {
        let mut p = Page::new(PageId::new(1));
        let mut q = p.clone();
        for i in 0..5 {
            p.upsert(obj(i), Value::counter(i as i64)).unwrap();
        }
        for i in [0, 2, 4, 1] {
            p.remove(obj(i));
        }
        q.upsert(obj(3), Value::counter(3)).unwrap();
        assert_eq!(p, q);
        assert_eq!(p.to_bytes(), q.to_bytes());
    }

    proptest! {
        #[test]
        fn roundtrip_random_pages(
            id in any::<u32>(),
            overflow in proptest::option::of(any::<u32>().prop_map(|v| v % (u32::MAX - 1))),
            keys in proptest::collection::btree_set(any::<u64>(), 0..Page::CAPACITY),
        ) {
            let mut p = Page::new(PageId::new(id));
            p.set_overflow(overflow.map(PageId::new));
            for (i, k) in keys.iter().enumerate() {
                p.upsert(ObjectId::new(*k), Value::tagged(i as i64, i as u32)).unwrap();
            }
            let back = Page::from_bytes(&p.to_bytes()).unwrap();
            prop_assert_eq!(back, p);
        }
    }
}
