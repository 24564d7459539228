//! Simulated stable storage.
//!
//! A flat array of page images with **atomic page writes** (the classical
//! stable-storage assumption the paper inherits from [Gra 78]): a write
//! either fully replaces the page image or does not happen; there are no
//! torn pages. Contents survive crashes — only the buffer pool is volatile.
//!
//! I/O is counted so experiment E4 can report physical writes per protocol.
//!
//! A seeded [`FaultConfig`] can be attached to a disk (today only this
//! crate's tests do): reads then fail transiently with some probability
//! (callers retry — see `BufferPool`), and writes can be silently *lost*
//! (acknowledged but never stored), the classic fault stable-storage
//! constructions mask.

use crate::fault::{FaultConfig, FaultState};
use crate::page::{Page, PAGE_SIZE};
use amc_types::{AmcError, AmcResult, PageId};

/// Cumulative I/O statistics for one simulated disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Page images read.
    pub reads: u64,
    /// Page images written.
    pub writes: u64,
    /// Injected transient read errors.
    pub read_faults: u64,
    /// Writes acknowledged but silently lost (injected).
    pub lost_writes: u64,
}

/// A simulated disk holding page images.
#[derive(Debug, Clone)]
pub struct StableStorage {
    pages: Vec<Option<Box<[u8; PAGE_SIZE]>>>,
    stats: DiskStats,
    faults: Option<FaultState>,
}

impl StableStorage {
    /// A disk with room for `capacity` pages, all initially unallocated.
    pub fn new(capacity: usize) -> Self {
        StableStorage {
            pages: vec![None; capacity],
            stats: DiskStats::default(),
            faults: None,
        }
    }

    /// Attach a seeded fault configuration. Subsequent reads/writes fail
    /// according to its probabilities, deterministically per seed.
    pub fn inject_faults(&mut self, cfg: FaultConfig) {
        self.faults = Some(FaultState::new(cfg));
    }

    /// Detach fault injection; the disk behaves perfectly again.
    pub fn clear_faults(&mut self) {
        self.faults = None;
    }

    /// Atomically write a page image.
    ///
    /// With faults injected, the write may be silently **lost**: it is
    /// acknowledged (`Ok`) but the previous image stays on the medium —
    /// exactly the failure a caller cannot detect without reading back.
    pub(crate) fn write_page(&mut self, page: &Page) -> AmcResult<()> {
        let idx = page.id().raw() as usize;
        if idx >= self.pages.len() {
            self.pages.resize(idx + 1, None); // the disk grows on demand
        }
        self.stats.writes += 1;
        if let Some(f) = &mut self.faults {
            if f.rng.chance(f.cfg.lost_write_probability) {
                self.stats.lost_writes += 1;
                return Ok(());
            }
        }
        // Seal straight into the slot's buffer; only a slot's first write
        // allocates one.
        page.seal_into(self.pages[idx].get_or_insert_with(|| Box::new([0u8; PAGE_SIZE])));
        Ok(())
    }

    /// Read page `id` into an existing frame: verify the stored image, then
    /// copy it over `page`. `Ok(false)` when the slot was never written (a
    /// fresh page the store will initialize); then, and on any error,
    /// `page` is untouched.
    ///
    /// With faults injected, the read may fail with
    /// [`AmcError::TransientIo`]; retrying redraws the fault dice.
    pub(crate) fn read_into(&mut self, id: PageId, page: &mut Page) -> AmcResult<bool> {
        if let Some(f) = &mut self.faults {
            if f.rng.chance(f.cfg.read_error_probability) {
                self.stats.read_faults += 1;
                return Err(AmcError::TransientIo(format!(
                    "injected read error on {id}"
                )));
            }
        }
        let Some(Some(img)) = self.pages.get(id.raw() as usize) else {
            return Ok(false);
        };
        self.stats.reads += 1;
        page.load(id, img)?;
        Ok(true)
    }

    /// True when the slot holds a page image.
    pub(crate) fn is_allocated(&self, id: PageId) -> bool {
        matches!(self.pages.get(id.raw() as usize), Some(Some(_)))
    }

    /// I/O counters so far.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_types::{ObjectId, Value};

    impl StableStorage {
        /// Reset the I/O counters (between measured phases of a test).
        pub(crate) fn reset_stats(&mut self) {
            self.stats = DiskStats::default();
        }

        /// Number of page slots on the disk.
        fn capacity(&self) -> usize {
            self.pages.len()
        }

        /// Read and verify a page image; `Ok(None)` when never written.
        fn read_page(&mut self, id: PageId) -> AmcResult<Option<Page>> {
            let mut page = Page::new(id);
            Ok(self.read_into(id, &mut page)?.then_some(page))
        }

        /// Corrupt one byte of a stored image.
        fn corrupt_page(&mut self, id: PageId, byte_offset: usize) {
            if let Some(Some(img)) = self.pages.get_mut(id.raw() as usize) {
                img[byte_offset] ^= 0xff;
            }
        }
    }

    #[test]
    fn write_then_read_roundtrips() {
        let mut disk = StableStorage::new(4);
        let mut p = Page::new(PageId::new(2));
        p.upsert(ObjectId::new(9), Value::counter(5)).unwrap();
        disk.write_page(&p).unwrap();
        let back = disk.read_page(PageId::new(2)).unwrap().unwrap();
        assert_eq!(back, p);
        assert_eq!(
            disk.stats(),
            DiskStats {
                reads: 1,
                writes: 1,
                ..DiskStats::default()
            }
        );
    }

    #[test]
    fn unallocated_reads_are_none() {
        let mut disk = StableStorage::new(4);
        assert!(disk.read_page(PageId::new(1)).unwrap().is_none());
        assert!(disk.read_page(PageId::new(100)).unwrap().is_none());
        assert!(!disk.is_allocated(PageId::new(1)));
    }

    #[test]
    fn disk_grows_on_demand() {
        let mut disk = StableStorage::new(1);
        let p = Page::new(PageId::new(10));
        disk.write_page(&p).unwrap();
        assert!(disk.capacity() >= 11);
        assert!(disk.is_allocated(PageId::new(10)));
    }

    #[test]
    fn overwrite_replaces_atomically() {
        let mut disk = StableStorage::new(2);
        let mut p = Page::new(PageId::new(1));
        p.upsert(ObjectId::new(1), Value::counter(1)).unwrap();
        disk.write_page(&p).unwrap();
        p.upsert(ObjectId::new(1), Value::counter(2)).unwrap();
        disk.write_page(&p).unwrap();
        let back = disk.read_page(PageId::new(1)).unwrap().unwrap();
        assert_eq!(back.get(ObjectId::new(1)), Some(Value::counter(2)));
    }

    #[test]
    fn corruption_surfaces_as_error() {
        let mut disk = StableStorage::new(2);
        disk.write_page(&Page::new(PageId::new(1))).unwrap();
        disk.corrupt_page(PageId::new(1), 200);
        assert!(matches!(
            disk.read_page(PageId::new(1)),
            Err(AmcError::Corruption(_))
        ));
    }

    #[test]
    fn injected_read_errors_are_transient() {
        let mut disk = StableStorage::new(2);
        let mut p = Page::new(PageId::new(1));
        p.upsert(ObjectId::new(1), Value::counter(3)).unwrap();
        disk.write_page(&p).unwrap();
        disk.inject_faults(FaultConfig {
            read_error_probability: 0.5,
            lost_write_probability: 0.0,
            seed: 11,
        });
        let mut errors = 0;
        let mut oks = 0;
        for _ in 0..100 {
            match disk.read_page(PageId::new(1)) {
                Err(AmcError::TransientIo(_)) => errors += 1,
                Ok(Some(page)) => {
                    assert_eq!(page.get(ObjectId::new(1)), Some(Value::counter(3)));
                    oks += 1;
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert!(errors > 10 && oks > 10, "errors {errors}, oks {oks}");
        assert_eq!(disk.stats().read_faults, errors);
        disk.clear_faults();
        assert!(disk.read_page(PageId::new(1)).is_ok());
    }

    #[test]
    fn lost_writes_keep_the_old_image() {
        let mut disk = StableStorage::new(2);
        let mut p = Page::new(PageId::new(1));
        p.upsert(ObjectId::new(1), Value::counter(1)).unwrap();
        disk.write_page(&p).unwrap();
        disk.inject_faults(FaultConfig {
            read_error_probability: 0.0,
            lost_write_probability: 1.0,
            seed: 5,
        });
        p.upsert(ObjectId::new(1), Value::counter(2)).unwrap();
        disk.write_page(&p).unwrap(); // acknowledged ...
        assert_eq!(disk.stats().lost_writes, 1);
        disk.clear_faults();
        let back = disk.read_page(PageId::new(1)).unwrap().unwrap();
        assert_eq!(
            back.get(ObjectId::new(1)),
            Some(Value::counter(1)),
            "... but never stored"
        );
    }

    #[test]
    fn fault_injection_is_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let mut disk = StableStorage::new(2);
            disk.write_page(&Page::new(PageId::new(1))).unwrap();
            disk.inject_faults(FaultConfig {
                read_error_probability: 0.4,
                lost_write_probability: 0.0,
                seed,
            });
            (0..50)
                .map(|_| disk.read_page(PageId::new(1)).is_err())
                .collect()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4), "different seeds diverge");
    }

    #[test]
    fn wrong_slot_detected() {
        // Write page 3's image, then move it into slot 1 by hand.
        let mut disk = StableStorage::new(4);
        let p = Page::new(PageId::new(3));
        disk.write_page(&p).unwrap();
        let img = disk.pages[3].clone();
        disk.pages[1] = img;
        assert!(matches!(
            disk.read_page(PageId::new(1)),
            Err(AmcError::Corruption(_))
        ));
    }
}
