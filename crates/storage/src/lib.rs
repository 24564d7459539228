//! # amc-storage
//!
//! The physical storage substrate underneath every "existing" local database
//! system in the federation. The paper treats local DBMSs as black boxes; to
//! reproduce their behaviour faithfully (page-level access at L0, buffer
//! management, stable vs volatile state across crashes) we build the box
//! from scratch:
//!
//! * `page::Page` — a fixed-size slotted page holding `(ObjectId, Value)`
//!   entries in place in its 4 KB image, sealed with a word-wise checksum.
//! * [`disk::StableStorage`] — a simulated disk with atomic page writes and
//!   I/O accounting. Contents survive crashes.
//! * `buffer::BufferPool` — a clock-eviction buffer pool whose frames are
//!   those images and are written back only when mutated. Contents are
//!   *volatile*: `buffer::BufferPool::crash` drops everything, modelling a
//!   site failure.
//! * [`store::PageStore`] — a hash-partitioned object store with overflow
//!   chaining whose known objects are one page away, plus one page per
//!   window of reserved ids; the engine API (`get`, `update`, `put`, `remove`).
//!
//! Crash semantics matter here because both alternative commitment protocols
//! hinge on them: commit-after must redo local transactions lost in a crash
//! (§3.2) and commit-before must answer `prepare` with *aborted* after local
//! restart recovery (§3.3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod checksum;
pub mod disk;
pub mod fault;
mod page;
pub mod store;

pub use buffer::WriteAhead;
pub use page::PAGE_SIZE;
pub use store::PageStore;
