//! The on-disk frame store behind a durable [`LogManager`](crate::LogManager).
//!
//! A [`DurableFile`] is one append-only file: a plain concatenation of
//! frames,
//!
//! ```text
//! 0    4   payload length n (little-endian u32)
//! 4    8   FNV-1a checksum of the payload (amc-storage::checksum)
//! 12   n   payload
//! ```
//!
//! This module is the only code that reads or writes that header
//! ([`frame`], `unframe`, `split_frame`); the payload is whatever
//! row table (`amc_types::codec`) the record type declares. WAL frames
//! are written to disk byte-for-byte as they exist in memory.
//!
//! ## Crash contract
//!
//! [`DurableFile::open`] scans the file front to back and classifies it
//! exactly as `LogManager::truncate_torn_tail`
//! classifies the in-memory stable prefix:
//!
//! * a final frame whose header or payload runs past end-of-file, or whose
//!   checksum does not match, is a **torn write** — the crash struck
//!   mid-append, nothing after it can have been acknowledged, and the
//!   frame is silently truncated;
//! * a checksum failure anywhere **before** the last frame is **mid-log
//!   corruption** — committed history is damaged, recovery must not
//!   silently drop it, and `open` fails with
//!   [`AmcError::Corruption`].
//!
//! ## Failure model for writes
//!
//! Appends and fsyncs happen on the commit path, whose in-memory
//! signatures are infallible (the group committer acknowledges commits on
//! the strength of a completed force). A write or fsync error here means
//! the medium is gone; continuing would acknowledge commits that are not
//! durable. These methods therefore **panic** on I/O failure — the
//! process dies and restart recovery replays the log, which is the
//! crash-consistent outcome.

use amc_storage::checksum::fnv1a;
use amc_types::codec::{Wire, Writer};
use amc_types::{AmcError, AmcResult};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Length + checksum header preceding every frame payload.
pub const FRAME_HEADER: usize = 12;

/// `record`, encoded by its row table, in the `[len][fnv1a][payload]`
/// frame layout. Written in place — a zeroed header, the payload, then
/// the header patched from what was written — so a record costs one
/// allocation (64 bytes hold any fixed-size WAL record, header included).
#[inline]
pub fn frame<T: Wire>(record: &T) -> Vec<u8> {
    let mut w = Writer::with_capacity(64);
    w.bytes(&[0; FRAME_HEADER]);
    record.put(&mut w);
    let payload = &w.as_bytes()[FRAME_HEADER..];
    let (len, sum) = (payload.len() as u32, fnv1a(payload));
    w.set_u32(0, len);
    w.set_u64(4, sum);
    w.into_bytes()
}

/// Split the first physically complete frame off `bytes` (header
/// included, checksum not yet verified). `None` when `bytes` ends inside
/// the header or before the length the header promises.
pub(crate) fn split_frame(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let len = u32::from_le_bytes(bytes.get(..4)?.try_into().expect("4 bytes")) as usize;
    let total = FRAME_HEADER.checked_add(len)?;
    (bytes.len() >= total).then(|| bytes.split_at(total))
}

/// Verify a frame's header and checksum and return its payload.
pub(crate) fn unframe(frame: &[u8]) -> AmcResult<&[u8]> {
    match split_frame(frame) {
        Some((whole, [])) => {
            let stored = u64::from_le_bytes(whole[4..FRAME_HEADER].try_into().expect("8 bytes"));
            let payload = &whole[FRAME_HEADER..];
            if fnv1a(payload) != stored {
                return Err(AmcError::Corruption("frame checksum mismatch".into()));
            }
            Ok(payload)
        }
        _ => Err(AmcError::Corruption(format!(
            "frame of {} bytes does not match its length header",
            frame.len()
        ))),
    }
}

/// What [`DurableFile::open`] found on disk.
#[derive(Debug)]
pub struct Opened {
    /// The file handle, positioned for appends.
    pub file: DurableFile,
    /// Every intact frame, front to back, as full frame bytes (header
    /// included) — the exact representation [`crate::LogManager`] keeps in
    /// its stable prefix.
    pub frames: Vec<Vec<u8>>,
    /// `true` when a torn final frame (incomplete bytes or a trailing
    /// checksum failure) was truncated away during the scan.
    pub torn_truncated: bool,
}

/// An append-only file of checksummed frames.
///
/// Tracks the byte offset of every frame so the in-memory log's
/// truncations (`crate::LogManager::truncate_torn_tail`,
/// [`crate::LogManager::truncate_before`]) can be mirrored to disk.
#[derive(Debug)]
pub struct DurableFile {
    file: File,
    path: PathBuf,
    /// Byte offset where frame `i` starts; the file ends at `end`.
    offsets: Vec<u64>,
    end: u64,
}

impl DurableFile {
    /// Open (creating if absent) the frame file at `path`, scanning and
    /// validating its contents. See the module docs for the torn-tail /
    /// mid-log-corruption classification.
    pub fn open(path: impl AsRef<Path>) -> AmcResult<Opened> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| AmcError::TransientIo(format!("open {}: {e}", path.display())))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| AmcError::TransientIo(format!("read {}: {e}", path.display())))?;

        // Pass 1: split into physically complete frames; anything after
        // the last complete frame is a torn append.
        let mut offsets = Vec::new();
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let mut rest = bytes.as_slice();
        while let Some((whole, tail)) = split_frame(rest) {
            offsets.push((bytes.len() - rest.len()) as u64);
            frames.push(whole.to_vec());
            rest = tail;
        }
        // Leftover bytes: a header (possibly itself garbage from a torn
        // write) that is incomplete or promises more than the file holds.
        let mut torn = !rest.is_empty();
        let mut pos = (bytes.len() - rest.len()) as u64;

        // Pass 2: checksum classification — trailing failure is a torn
        // write, anything earlier is fatal.
        match frames.iter().position(|f| unframe(f).is_err()) {
            None => {}
            Some(i) if i + 1 == frames.len() => {
                frames.pop();
                pos = offsets.pop().expect("frame had an offset");
                torn = true;
            }
            Some(i) => {
                return Err(AmcError::Corruption(format!(
                    "mid-log corruption in {} at frame {i} (not a torn tail; {} frames follow)",
                    path.display(),
                    frames.len() - i - 1
                )));
            }
        }

        let mut durable = DurableFile {
            file,
            path,
            offsets,
            end: pos,
        };
        if torn {
            durable.physically_truncate(pos)?;
        }
        Ok(Opened {
            file: durable,
            frames,
            torn_truncated: torn,
        })
    }

    /// The path this file lives at.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one already-framed record (no fsync — call
    /// [`DurableFile::sync`] at the durability barrier).
    ///
    /// # Panics
    /// On I/O failure (see the module docs' failure model).
    pub fn append(&mut self, frame: &[u8]) {
        self.file
            .seek(SeekFrom::Start(self.end))
            .and_then(|_| self.file.write_all(frame))
            .unwrap_or_else(|e| panic!("WAL append to {}: {e}", self.path.display()));
        self.offsets.push(self.end);
        self.end += frame.len() as u64;
    }

    /// Flush appended frames to the medium (`fsync`). This is the
    /// durability barrier a [`force`](crate::LogManager::force) pays for.
    ///
    /// # Panics
    /// On I/O failure (see the module docs' failure model).
    pub fn sync(&mut self) {
        self.file
            .sync_data()
            .unwrap_or_else(|e| panic!("WAL fsync of {}: {e}", self.path.display()));
    }

    /// A second handle to the same open file, for issuing `fsync` from
    /// another thread (a group-commit syncer) while this handle keeps
    /// appending. `sync_data` on the clone flushes every byte already
    /// written through either handle — file data is shared; only the seek
    /// cursor is per-handle, and [`DurableFile::append`] never relies on
    /// the cursor (it seeks explicitly on every write).
    pub(crate) fn sync_handle(&self) -> std::io::Result<File> {
        self.file.try_clone()
    }

    /// Truncate the file to its first `keep` frames (mirrors a torn-tail
    /// pop of the in-memory stable prefix).
    ///
    /// # Panics
    /// On I/O failure.
    pub(crate) fn truncate_frames(&mut self, keep: usize) {
        if keep >= self.offsets.len() {
            return;
        }
        let new_end = self.offsets[keep];
        self.offsets.truncate(keep);
        self.physically_truncate(new_end)
            .unwrap_or_else(|e| panic!("WAL truncate of {}: {e}", self.path.display()));
    }

    /// Replace the file's whole contents with `frames` (mirrors prefix
    /// reclamation or a simulated partial force). Syncs before returning.
    ///
    /// # Panics
    /// On I/O failure.
    pub(crate) fn rewrite(&mut self, frames: impl IntoIterator<Item = impl AsRef<[u8]>>) {
        self.offsets.clear();
        self.end = 0;
        self.physically_truncate(0)
            .unwrap_or_else(|e| panic!("WAL rewrite of {}: {e}", self.path.display()));
        for f in frames {
            self.append(f.as_ref());
        }
        self.sync();
    }

    fn physically_truncate(&mut self, len: u64) -> AmcResult<()> {
        self.end = len;
        self.file
            .set_len(len)
            .and_then(|_| self.file.sync_data())
            .map_err(|e| AmcError::TransientIo(format!("truncate {}: {e}", self.path.display())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::LogRecord;
    use amc_types::LocalTxnId;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("amc-wal-durable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn rec(n: u64) -> Vec<u8> {
        LogRecord::Begin {
            txn: LocalTxnId::new(n),
        }
        .encode()
    }

    #[test]
    fn roundtrips_frames_across_reopen() {
        let path = tmp("roundtrip.wal");
        let _ = std::fs::remove_file(&path);
        let mut opened = DurableFile::open(&path).unwrap();
        assert!(opened.frames.is_empty());
        opened.file.append(&rec(1));
        opened.file.append(&rec(2));
        opened.file.sync();
        let reopened = DurableFile::open(&path).unwrap();
        assert_eq!(reopened.frames, vec![rec(1), rec(2)]);
        assert!(!reopened.torn_truncated);
    }

    #[test]
    fn torn_partial_append_is_truncated() {
        let path = tmp("torn-partial.wal");
        let _ = std::fs::remove_file(&path);
        let mut opened = DurableFile::open(&path).unwrap();
        opened.file.append(&rec(1));
        opened.file.sync();
        drop(opened);
        // Simulate a torn append: half of a second frame.
        let half = &rec(2)[..7];
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(half).unwrap();
        drop(f);
        let reopened = DurableFile::open(&path).unwrap();
        assert!(reopened.torn_truncated);
        assert_eq!(reopened.frames, vec![rec(1)]);
        // The file itself was repaired: a third open is clean.
        let again = DurableFile::open(&path).unwrap();
        assert!(!again.torn_truncated);
        assert_eq!(again.frames.len(), 1);
    }

    #[test]
    fn trailing_checksum_failure_is_a_torn_tail() {
        let path = tmp("torn-checksum.wal");
        let _ = std::fs::remove_file(&path);
        let mut opened = DurableFile::open(&path).unwrap();
        opened.file.append(&rec(1));
        let mut bad = rec(2);
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        opened.file.append(&bad);
        opened.file.sync();
        drop(opened);
        let reopened = DurableFile::open(&path).unwrap();
        assert!(reopened.torn_truncated);
        assert_eq!(reopened.frames, vec![rec(1)]);
    }

    #[test]
    fn mid_log_corruption_is_fatal() {
        let path = tmp("mid-corrupt.wal");
        let _ = std::fs::remove_file(&path);
        let mut opened = DurableFile::open(&path).unwrap();
        let mut bad = rec(1);
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        opened.file.append(&bad);
        opened.file.append(&rec(2));
        opened.file.sync();
        drop(opened);
        let err = DurableFile::open(&path).unwrap_err();
        assert!(
            matches!(err, AmcError::Corruption(ref m) if m.contains("mid-log")),
            "{err:?}"
        );
    }

    #[test]
    fn truncate_frames_mirrors_a_pop() {
        let path = tmp("truncate.wal");
        let _ = std::fs::remove_file(&path);
        let mut opened = DurableFile::open(&path).unwrap();
        opened.file.append(&rec(1));
        opened.file.append(&rec(2));
        opened.file.sync();
        opened.file.truncate_frames(1);
        drop(opened);
        let reopened = DurableFile::open(&path).unwrap();
        assert_eq!(reopened.frames, vec![rec(1)]);
    }

    #[test]
    fn rewrite_replaces_contents() {
        let path = tmp("rewrite.wal");
        let _ = std::fs::remove_file(&path);
        let mut opened = DurableFile::open(&path).unwrap();
        opened.file.append(&rec(1));
        opened.file.append(&rec(2));
        opened.file.sync();
        opened.file.rewrite(&[rec(9)]);
        drop(opened);
        let reopened = DurableFile::open(&path).unwrap();
        assert_eq!(reopened.frames, vec![rec(9)]);
    }

    #[test]
    fn frame_and_unframe_roundtrip() {
        let payload = String::from("not a log record at all");
        let f = frame(&payload);
        assert_eq!(unframe(&f).unwrap(), amc_types::codec::encode(&payload));
        let mut torn = f.clone();
        torn.pop();
        assert!(unframe(&torn).is_err());
        let mut flipped = f;
        let last = flipped.len() - 1;
        flipped[last] ^= 1;
        assert!(unframe(&flipped).is_err());
    }
}
