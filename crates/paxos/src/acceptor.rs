//! The Paxos Commit acceptor.
//!
//! One acceptor participates in **every** per-site Paxos instance of every
//! transaction; with `2f + 1` acceptors the commit protocol tolerates `f`
//! simultaneous acceptor/coordinator failures without blocking. The
//! acceptor is split sans-IO style:
//!
//! * [`Record`] — the durable log vocabulary (registration, promise,
//!   accept, decision note), one row table in the workspace codec;
//! * [`AcceptorState`] — the pure state machine: applying a sequence of
//!   records from any log prefix reproduces exactly the state the acceptor
//!   had when the last record of that prefix was written;
//! * [`DurableAcceptor`] — the production wrapper that appends each record
//!   to an [`amc_wal::RecordFile`] and fsyncs **before** the reply is
//!   released, so an acknowledged promise/accept survives `kill -9`.

use crate::ballot::Ballot;
use amc_net::PaxosOpenEntry;
use amc_types::{codec, AmcResult, GlobalTxnId, GlobalVerdict, SiteId};
use amc_wal::RecordFile;
use std::collections::BTreeMap;
use std::path::Path;

/// One durable acceptor-log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A transaction entered commit processing with these participants.
    Register {
        /// The transaction.
        gtx: GlobalTxnId,
        /// Participant sites — one Paxos instance each.
        participants: Vec<SiteId>,
    },
    /// The acceptor promised `ballot` for all of `gtx`'s instances.
    Promise {
        /// The transaction.
        gtx: GlobalTxnId,
        /// The promised ballot.
        ballot: Ballot,
    },
    /// The acceptor accepted `prepared` for instance `site` at `ballot`.
    Accept {
        /// The transaction.
        gtx: GlobalTxnId,
        /// The instance.
        site: SiteId,
        /// The ballot of the accepted value.
        ballot: Ballot,
        /// The value: true = Prepared, false = Aborted.
        prepared: bool,
    },
    /// The global decision reached `gtx`; its instances are closed.
    Decision {
        /// The transaction.
        gtx: GlobalTxnId,
        /// The verdict.
        verdict: GlobalVerdict,
    },
}

amc_types::wire_enum!(Record, "acceptor-record" {
    1 => Register { gtx: GlobalTxnId, participants: Vec<SiteId> },
    2 => Promise { gtx: GlobalTxnId, ballot: Ballot },
    3 => Accept { gtx: GlobalTxnId, site: SiteId, ballot: Ballot, prepared: bool },
    4 => Decision { gtx: GlobalTxnId, verdict: GlobalVerdict },
});

impl Record {
    /// Binary encoding (pre-framing payload).
    pub fn encode(&self) -> Vec<u8> {
        codec::encode(self)
    }

    /// Decode one record. Rejects trailing garbage.
    pub fn decode(buf: &[u8]) -> AmcResult<Record> {
        Ok(codec::decode(buf)?)
    }
}

/// What a phase-1b reply carries back to the asking replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromiseOutcome {
    /// True when the asked ballot was promised.
    pub promised: bool,
    /// The highest ballot this acceptor has promised (the asked ballot
    /// itself on success; the conflicting higher one on refusal).
    pub promised_up_to: Ballot,
    /// Participants from the durable registration (empty when this
    /// acceptor never saw the registration).
    pub participants: Vec<SiteId>,
    /// Accepted values per instance: `(site, ballot, prepared)`.
    pub accepted: Vec<(SiteId, Ballot, bool)>,
}

#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct TxnState {
    participants: Vec<SiteId>,
    promised: Ballot,
    accepted: BTreeMap<SiteId, (Ballot, bool)>,
    decided: Option<GlobalVerdict>,
}

/// The pure acceptor state machine.
///
/// Every mutating method applies the change **and** returns the [`Record`]
/// to persist (or `None` when the operation was an idempotent no-op and
/// the log already implies the state).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AcceptorState {
    txns: BTreeMap<GlobalTxnId, TxnState>,
}

impl AcceptorState {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild state from decoded records (a log replay).
    pub fn replay<'a>(records: impl IntoIterator<Item = &'a Record>) -> Self {
        let mut s = AcceptorState::new();
        for r in records {
            s.apply(r);
        }
        s
    }

    /// Apply one record (replay path — no admission checks, the log is
    /// trusted to have been admitted when written).
    pub fn apply(&mut self, record: &Record) {
        match record {
            Record::Register { gtx, participants } => {
                let t = self.txns.entry(*gtx).or_default();
                if t.participants.is_empty() {
                    t.participants = participants.clone();
                }
            }
            Record::Promise { gtx, ballot } => {
                let t = self.txns.entry(*gtx).or_default();
                t.promised = t.promised.max(*ballot);
            }
            Record::Accept {
                gtx,
                site,
                ballot,
                prepared,
            } => {
                let t = self.txns.entry(*gtx).or_default();
                t.promised = t.promised.max(*ballot);
                let slot = t.accepted.entry(*site).or_insert((*ballot, *prepared));
                if *ballot >= slot.0 {
                    *slot = (*ballot, *prepared);
                }
            }
            Record::Decision { gtx, verdict } => {
                let t = self.txns.entry(*gtx).or_default();
                t.decided = Some(*verdict);
            }
        }
    }

    /// Open `gtx`'s instance set (*BeginCommit*). Idempotent.
    pub fn register(&mut self, gtx: GlobalTxnId, participants: &[SiteId]) -> Option<Record> {
        let t = self.txns.entry(gtx).or_default();
        if !t.participants.is_empty() {
            return None;
        }
        let rec = Record::Register {
            gtx,
            participants: participants.to_vec(),
        };
        self.apply(&rec);
        Some(rec)
    }

    /// Phase 1b: try to promise `ballot` for all of `gtx`'s instances.
    pub fn promise(
        &mut self,
        gtx: GlobalTxnId,
        ballot: Ballot,
    ) -> (PromiseOutcome, Option<Record>) {
        let t = self.txns.entry(gtx).or_default();
        let granted = ballot >= t.promised;
        let rec = if granted && ballot > t.promised {
            let rec = Record::Promise { gtx, ballot };
            self.apply(&rec);
            Some(rec)
        } else {
            None
        };
        let t = &self.txns[&gtx];
        (
            PromiseOutcome {
                promised: granted,
                promised_up_to: t.promised,
                participants: t.participants.clone(),
                accepted: t.accepted.iter().map(|(s, (b, p))| (*s, *b, *p)).collect(),
            },
            rec,
        )
    }

    /// Phase 2b: try to accept `prepared` for instance `site` at `ballot`.
    /// Returns whether the value was accepted.
    pub fn accept(
        &mut self,
        gtx: GlobalTxnId,
        site: SiteId,
        ballot: Ballot,
        prepared: bool,
    ) -> (bool, Option<Record>) {
        let t = self.txns.entry(gtx).or_default();
        if ballot < t.promised {
            return (false, None);
        }
        if t.accepted.get(&site) == Some(&(ballot, prepared)) {
            return (true, None); // duplicate delivery — already durable
        }
        let rec = Record::Accept {
            gtx,
            site,
            ballot,
            prepared,
        };
        self.apply(&rec);
        (true, Some(rec))
    }

    /// Note the global decision, closing `gtx`'s instances. Idempotent;
    /// a no-op for transactions this acceptor was never involved in (no
    /// registration, promise or accept) — their outcome is covered by
    /// presume-abort, and noting them would grow the log with entries for
    /// every transaction that merely passed through the site.
    pub fn note_decision(&mut self, gtx: GlobalTxnId, verdict: GlobalVerdict) -> Option<Record> {
        match self.txns.get(&gtx) {
            None => None,
            Some(t) if t.decided.is_some() => None,
            Some(_) => {
                let rec = Record::Decision { gtx, verdict };
                self.apply(&rec);
                Some(rec)
            }
        }
    }

    /// Registered transactions with no noted decision — what a recovery
    /// replica must finish.
    pub fn open_entries(&self) -> Vec<PaxosOpenEntry> {
        self.txns
            .iter()
            .filter(|(_, t)| !t.participants.is_empty() && t.decided.is_none())
            .map(|(g, t)| PaxosOpenEntry {
                gtx: *g,
                participants: t.participants.clone(),
            })
            .collect()
    }

    /// The noted decision for `gtx`, if any.
    pub fn decision(&self, gtx: GlobalTxnId) -> Option<GlobalVerdict> {
        self.txns.get(&gtx).and_then(|t| t.decided)
    }

    /// The registered participant set of `gtx` (None when this acceptor
    /// never saw the registration).
    pub fn participants(&self, gtx: GlobalTxnId) -> Option<&[SiteId]> {
        self.txns
            .get(&gtx)
            .filter(|t| !t.participants.is_empty())
            .map(|t| t.participants.as_slice())
    }

    /// The highest promised ballot for `gtx` (Ballot::ZERO if untouched).
    pub fn promised(&self, gtx: GlobalTxnId) -> Ballot {
        self.txns.get(&gtx).map(|t| t.promised).unwrap_or_default()
    }

    /// The accepted value of instance `(gtx, site)`, if any.
    pub fn accepted(&self, gtx: GlobalTxnId, site: SiteId) -> Option<(Ballot, bool)> {
        self.txns
            .get(&gtx)
            .and_then(|t| t.accepted.get(&site))
            .copied()
    }
}

/// An acceptor whose log lives in an [`amc_wal::RecordFile`].
///
/// Invariant: a method returns only after the record it implies has been
/// appended — and, unless deferred-sync mode is on, **fsynced** — so the
/// caller may release the network reply the moment the method returns. In
/// deferred-sync mode the *host* owns the durability barrier: it batches
/// the fsyncs of concurrent appenders through a group-commit linger and
/// must not release any reply before the record's frame is covered by a
/// completed fsync on [`DurableAcceptor::sync_handle`].
#[derive(Debug)]
pub struct DurableAcceptor {
    state: AcceptorState,
    file: RecordFile<Record>,
    deferred_sync: bool,
}

impl DurableAcceptor {
    /// Open (or create) the acceptor log at `path` and replay it (torn
    /// tail truncated, real corruption fatal — see [`RecordFile::open`]).
    pub fn open(path: impl AsRef<Path>) -> AmcResult<DurableAcceptor> {
        let (file, records) = RecordFile::open(path)?;
        Ok(DurableAcceptor {
            state: AcceptorState::replay(&records),
            file,
            deferred_sync: false,
        })
    }

    /// Hand the fsync responsibility to an external group-syncer:
    /// `persist` appends without syncing, and the host fsyncs batches via
    /// [`DurableAcceptor::sync_handle`]. See the struct docs' contract.
    pub(crate) fn set_deferred_sync(&mut self, deferred: bool) {
        self.deferred_sync = deferred;
    }

    /// A second handle to the log file for issuing batched fsyncs from
    /// the group-syncer while this acceptor keeps appending.
    pub fn sync_handle(&self) -> std::io::Result<std::fs::File> {
        self.file.file().sync_handle()
    }

    fn persist(&mut self, rec: Option<Record>) {
        if let Some(rec) = rec {
            self.file.append(&rec);
            if !self.deferred_sync {
                self.file.sync();
            }
        }
    }

    /// See [`AcceptorState::register`].
    pub fn register(&mut self, gtx: GlobalTxnId, participants: &[SiteId]) {
        let rec = self.state.register(gtx, participants);
        self.persist(rec);
    }

    /// See [`AcceptorState::promise`].
    pub fn promise(&mut self, gtx: GlobalTxnId, ballot: Ballot) -> PromiseOutcome {
        let (out, rec) = self.state.promise(gtx, ballot);
        self.persist(rec);
        out
    }

    /// See [`AcceptorState::accept`].
    pub fn accept(
        &mut self,
        gtx: GlobalTxnId,
        site: SiteId,
        ballot: Ballot,
        prepared: bool,
    ) -> bool {
        let (ok, rec) = self.state.accept(gtx, site, ballot, prepared);
        self.persist(rec);
        ok
    }

    /// See [`AcceptorState::note_decision`].
    pub fn note_decision(&mut self, gtx: GlobalTxnId, verdict: GlobalVerdict) {
        let rec = self.state.note_decision(gtx, verdict);
        self.persist(rec);
    }

    /// The in-memory state (for queries).
    pub fn state(&self) -> &AcceptorState {
        &self.state
    }

    /// Number of durable log frames (tests).
    pub fn frame_count(&self) -> usize {
        self.file.file().frame_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gtx(n: u64) -> GlobalTxnId {
        GlobalTxnId::new(n)
    }
    fn site(n: u32) -> SiteId {
        SiteId::new(n)
    }

    #[test]
    fn records_round_trip() {
        let recs = vec![
            Record::Register {
                gtx: gtx(9),
                participants: vec![site(1), site(2), site(3)],
            },
            Record::Promise {
                gtx: gtx(9),
                ballot: Ballot::new(1, 2),
            },
            Record::Accept {
                gtx: gtx(9),
                site: site(2),
                ballot: Ballot::ZERO,
                prepared: true,
            },
            Record::Decision {
                gtx: gtx(9),
                verdict: GlobalVerdict::Abort,
            },
        ];
        for r in recs {
            assert_eq!(Record::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Record::decode(&[]).is_err());
        assert!(Record::decode(&[99, 0, 0]).is_err());
        // Hostile participant count.
        let mut buf = Record::Register {
            gtx: gtx(7),
            participants: vec![],
        }
        .encode();
        let count_at = buf.len() - 4;
        buf[count_at..].fill(0xFF);
        assert!(Record::decode(&buf).is_err());
        // Trailing bytes.
        let mut ok = Record::Decision {
            gtx: gtx(1),
            verdict: GlobalVerdict::Commit,
        }
        .encode();
        ok.push(0);
        assert!(Record::decode(&ok).is_err());
    }

    #[test]
    fn ballot_zero_vote_then_recovery_promise_blocks_late_votes() {
        let mut a = AcceptorState::new();
        a.register(gtx(1), &[site(1), site(2)]);
        // Site 1's yes vote lands as a ballot-0 accept.
        let (ok, rec) = a.accept(gtx(1), site(1), Ballot::ZERO, true);
        assert!(ok && rec.is_some());
        // A recovery replica opens ballot (1, 7).
        let b = Ballot::new(1, 7);
        let (out, _) = a.promise(gtx(1), b);
        assert!(out.promised);
        assert_eq!(out.accepted, vec![(site(1), Ballot::ZERO, true)]);
        assert_eq!(out.participants, vec![site(1), site(2)]);
        // Site 2's vote arrives late: ballot 0 is now refused, so the
        // recovery leader's Aborted choice can never be contradicted.
        let (ok, rec) = a.accept(gtx(1), site(2), Ballot::ZERO, true);
        assert!(!ok && rec.is_none());
        // The recovery leader's own phase 2a succeeds.
        let (ok, _) = a.accept(gtx(1), site(2), b, false);
        assert!(ok);
    }

    #[test]
    fn lower_promise_is_refused_and_reports_the_winner() {
        let mut a = AcceptorState::new();
        let hi = Ballot::new(3, 1);
        let (out, _) = a.promise(gtx(4), hi);
        assert!(out.promised);
        let (out, rec) = a.promise(gtx(4), Ballot::new(2, 9));
        assert!(!out.promised);
        assert_eq!(out.promised_up_to, hi);
        assert!(rec.is_none());
    }

    #[test]
    fn open_entries_skip_decided_and_unregistered() {
        let mut a = AcceptorState::new();
        a.register(gtx(1), &[site(1)]);
        a.register(gtx(2), &[site(1), site(2)]);
        a.note_decision(gtx(2), GlobalVerdict::Commit);
        // A bare promise without registration is not "open" — the replica
        // that knows the registration will report it.
        a.promise(gtx(3), Ballot::new(1, 1));
        let open = a.open_entries();
        assert_eq!(open.len(), 1);
        assert_eq!(open[0].gtx, gtx(1));
        assert_eq!(open[0].participants, vec![site(1)]);
    }

    #[test]
    fn register_and_decision_are_idempotent() {
        let mut a = AcceptorState::new();
        assert!(a.register(gtx(1), &[site(1)]).is_some());
        assert!(a.register(gtx(1), &[site(9)]).is_none());
        assert_eq!(a.open_entries()[0].participants, vec![site(1)]);
        assert!(a.note_decision(gtx(1), GlobalVerdict::Commit).is_some());
        assert!(a.note_decision(gtx(1), GlobalVerdict::Commit).is_none());
        // A decision for a transaction this acceptor never touched is not
        // logged — presume-abort covers it.
        assert!(a.note_decision(gtx(77), GlobalVerdict::Abort).is_none());
    }

    #[test]
    fn durable_acceptor_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("amc-paxos-acc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("acceptor.log");
        let _ = std::fs::remove_file(&path);
        {
            let mut a = DurableAcceptor::open(&path).unwrap();
            a.register(gtx(5), &[site(1), site(2)]);
            a.accept(gtx(5), site(1), Ballot::ZERO, true);
            a.promise(gtx(5), Ballot::new(1, 2));
            assert_eq!(a.frame_count(), 3);
        }
        let a = DurableAcceptor::open(&path).unwrap();
        assert_eq!(a.state().promised(gtx(5)), Ballot::new(1, 2));
        assert_eq!(
            a.state().accepted(gtx(5), site(1)),
            Some((Ballot::ZERO, true))
        );
        assert_eq!(a.state().open_entries().len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn duplicate_accept_writes_no_second_frame() {
        let dir = std::env::temp_dir().join(format!("amc-paxos-dup-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dup.log");
        let _ = std::fs::remove_file(&path);
        let mut a = DurableAcceptor::open(&path).unwrap();
        assert!(a.accept(gtx(1), site(1), Ballot::ZERO, true));
        let frames = a.frame_count();
        assert!(a.accept(gtx(1), site(1), Ballot::ZERO, true));
        assert_eq!(a.frame_count(), frames);
        let _ = std::fs::remove_file(&path);
    }
}
