//! The event taxonomy: one typed variant per significant protocol
//! transition, stamped with virtual time and a global sequence number.

use amc_types::{GlobalTxnId, GlobalVerdict, LocalVote, SimTime, SiteId};
use std::fmt;

/// Why the router refused to deliver a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropCause {
    /// The source or destination endpoint was crashed.
    EndpointDown,
    /// A directed partition covered the link.
    Partitioned,
    /// Random loss (configured probability or a nemesis loss burst).
    Loss,
}

impl fmt::Display for DropCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DropCause::EndpointDown => "endpoint-down",
            DropCause::Partitioned => "partitioned",
            DropCause::Loss => "loss",
        })
    }
}

/// The typed payload of an observability [`Event`].
///
/// Variants mirror the transitions the paper reasons about in §3 and §5:
/// the vote/decide rounds of the three protocols, WAL forces, redo/undo
/// repetition, 2PC blocking windows, and the fault-plan events that
/// perturb them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// The central system admitted a new global transaction.
    TxnStart,
    /// The router accepted a message for delivery.
    MsgSend {
        /// Payload label (e.g. `submit`, `vote`, `decision`).
        label: &'static str,
        /// Sender.
        from: SiteId,
        /// Receiver.
        to: SiteId,
    },
    /// The router dropped a message.
    MsgDrop {
        /// Payload label.
        label: &'static str,
        /// Sender.
        from: SiteId,
        /// Intended receiver.
        to: SiteId,
        /// Why it was dropped.
        cause: DropCause,
    },
    /// A message reached its destination site.
    MsgDeliver {
        /// Payload label.
        label: &'static str,
        /// Sender.
        from: SiteId,
    },
    /// The coordinator recorded a participant's vote.
    Vote {
        /// The participant that voted.
        from: SiteId,
        /// The vote itself.
        vote: LocalVote,
    },
    /// The coordinator reached a global decision.
    Decide {
        /// The verdict.
        verdict: GlobalVerdict,
    },
    /// The coordinator finished the protocol (all acks in).
    Done {
        /// The final verdict.
        verdict: GlobalVerdict,
    },
    /// The coordinator re-inquired a silent participant.
    Inquiry {
        /// The participant being probed.
        to: SiteId,
    },
    /// A restarted central system rebuilt this transaction's coordinator.
    Resume {
        /// The decision found in the central decision log; `None` means
        /// no decision record survived and the coordinator presumes abort.
        logged: Option<GlobalVerdict>,
    },
    /// A WAL force made the volatile tail stable.
    LogForce {
        /// Records made stable by this force.
        records: u64,
        /// Bytes made stable by this force.
        bytes: u64,
    },
    /// A group-commit leader forced the shared tail for a whole batch of
    /// committers (amortizing one physical force over `commits` acks).
    GroupForce {
        /// Commit acknowledgements this force covered.
        commits: u64,
        /// Records made stable by this force.
        records: u64,
        /// Bytes made stable by this force.
        bytes: u64,
    },
    /// One execution attempt of a commit-after redo transaction (§3.2).
    RedoRun {
        /// 1-based attempt number within this repetition chain.
        attempt: u64,
    },
    /// One execution attempt of a commit-before inverse transaction (§3.3).
    UndoRun {
        /// 1-based attempt number within this repetition chain.
        attempt: u64,
    },
    /// A 2PC participant entered the in-doubt window (prepared, vote sent,
    /// decision unknown) — the blocking the paper's §5 holds against 2PC.
    BlockEnter,
    /// The in-doubt window closed: the decision arrived and was applied.
    BlockExit {
        /// The decision that released the participant.
        verdict: GlobalVerdict,
    },
    /// A fault-plan crash hit this site (or the central system).
    Crash {
        /// Whether the crash tore the WAL tail mid-force.
        torn: bool,
    },
    /// A fault-plan restart recovered this site.
    Restart,
    /// An RPC request to a site failed (timeout, refused connection, bad
    /// reply) and the client is about to back off and try again.
    RpcRetry {
        /// The site being called.
        to: SiteId,
        /// 1-based attempt number that just failed.
        attempt: u32,
    },
    /// The RPC client discarded a broken connection and dialled a fresh
    /// one to the site.
    RpcReconnect {
        /// The site reconnected to.
        to: SiteId,
    },
    /// The site deliberately shed the request under load (`BufferExhausted`
    /// reply from an event-loop server past its in-flight cap). Distinct
    /// from [`EventKind::RpcRetry`]: the site is healthy and answered; the
    /// request was rejected as backpressure, not lost in transit.
    RpcShed {
        /// The site that shed the request.
        to: SiteId,
        /// 1-based attempt number that was shed.
        attempt: u32,
    },
    /// Restart recovery began replaying a durable log.
    RecoveryStart {
        /// Stable records found in the durable log at open.
        records: u64,
    },
    /// Recovery re-applied one durable log record to the store (redo or
    /// undo pass).
    ReplayedRecord {
        /// Log sequence number of the replayed record.
        lsn: u64,
    },
    /// A recovered in-doubt transaction learned its fate from the
    /// coordinator's final-state reply (§3.1's ready state resolving).
    InDoubtResolved {
        /// The verdict that settled the transaction.
        verdict: GlobalVerdict,
    },
}

impl EventKind {
    /// Short label for rendering and grouping.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::TxnStart => "txn-start",
            EventKind::MsgSend { .. } => "msg-send",
            EventKind::MsgDrop { .. } => "msg-drop",
            EventKind::MsgDeliver { .. } => "msg-deliver",
            EventKind::Vote { .. } => "vote",
            EventKind::Decide { .. } => "decide",
            EventKind::Done { .. } => "done",
            EventKind::Inquiry { .. } => "inquiry",
            EventKind::Resume { .. } => "resume",
            EventKind::LogForce { .. } => "log-force",
            EventKind::GroupForce { .. } => "group-force",
            EventKind::RedoRun { .. } => "redo-run",
            EventKind::UndoRun { .. } => "undo-run",
            EventKind::BlockEnter => "block-enter",
            EventKind::BlockExit { .. } => "block-exit",
            EventKind::Crash { .. } => "crash",
            EventKind::Restart => "restart",
            EventKind::RpcRetry { .. } => "rpc-retry",
            EventKind::RpcReconnect { .. } => "rpc-reconnect",
            EventKind::RpcShed { .. } => "rpc-shed",
            EventKind::RecoveryStart { .. } => "recovery-start",
            EventKind::ReplayedRecord { .. } => "replayed-record",
            EventKind::InDoubtResolved { .. } => "in-doubt-resolved",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKind::TxnStart => write!(f, "txn-start"),
            EventKind::MsgSend { label, from, to } => {
                write!(f, "msg-send {label}:{from}->{to}")
            }
            EventKind::MsgDrop {
                label,
                from,
                to,
                cause,
            } => write!(f, "msg-drop {label}:{from}->{to} ({cause})"),
            EventKind::MsgDeliver { label, from } => {
                write!(f, "msg-deliver {label} from {from}")
            }
            EventKind::Vote { from, vote } => write!(f, "vote {vote:?} from {from}"),
            EventKind::Decide { verdict } => write!(f, "decide {verdict}"),
            EventKind::Done { verdict } => write!(f, "done {verdict}"),
            EventKind::Inquiry { to } => write!(f, "inquiry -> {to}"),
            EventKind::Resume { logged: Some(v) } => {
                write!(f, "resume (decision log: {v})")
            }
            EventKind::Resume { logged: None } => {
                write!(f, "resume (no decision record: presume abort)")
            }
            EventKind::LogForce { records, bytes } => {
                write!(f, "log-force {records} records / {bytes} bytes")
            }
            EventKind::GroupForce {
                commits,
                records,
                bytes,
            } => {
                write!(
                    f,
                    "group-force {commits} commits / {records} records / {bytes} bytes"
                )
            }
            EventKind::RedoRun { attempt } => write!(f, "redo-run attempt {attempt}"),
            EventKind::UndoRun { attempt } => write!(f, "undo-run attempt {attempt}"),
            EventKind::BlockEnter => write!(f, "block-enter (in doubt)"),
            EventKind::BlockExit { verdict } => write!(f, "block-exit ({verdict})"),
            EventKind::Crash { torn: true } => write!(f, "crash (torn WAL tail)"),
            EventKind::Crash { torn: false } => write!(f, "crash"),
            EventKind::Restart => write!(f, "restart"),
            EventKind::RpcRetry { to, attempt } => {
                write!(f, "rpc-retry -> {to} (attempt {attempt} failed)")
            }
            EventKind::RpcReconnect { to } => write!(f, "rpc-reconnect -> {to}"),
            EventKind::RpcShed { to, attempt } => {
                write!(f, "rpc-shed -> {to} (attempt {attempt} load-shed)")
            }
            EventKind::RecoveryStart { records } => {
                write!(f, "recovery-start ({records} stable records)")
            }
            EventKind::ReplayedRecord { lsn } => write!(f, "replayed-record lsn {lsn}"),
            EventKind::InDoubtResolved { verdict } => {
                write!(f, "in-doubt-resolved ({verdict})")
            }
        }
    }
}

/// One observability event: *when* (virtual time + sequence number),
/// *who* (transaction, site), *what* ([`EventKind`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number, monotonically increasing per run. Breaks
    /// ties between events at the same virtual instant deterministically.
    pub seq: u64,
    /// Virtual time of the emission (`SimTime::ZERO` outside simulation).
    pub at: SimTime,
    /// The global transaction involved, if any (crashes/restarts have none).
    pub txn: Option<GlobalTxnId>,
    /// The site where the transition happened (`SiteId(0)` = central).
    pub site: SiteId,
    /// What happened.
    pub kind: EventKind,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let txn = match self.txn {
            Some(g) => g.to_string(),
            None => "-".to_string(),
        };
        write!(
            f,
            "[{:>5}] {:<12} {:<6} {:<7} {}",
            self.seq,
            self.at.to_string(),
            txn,
            self.site.to_string(),
            self.kind
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_stable() {
        let e = Event {
            seq: 7,
            at: SimTime(1500),
            txn: Some(GlobalTxnId::new(3)),
            site: SiteId::new(0),
            kind: EventKind::Decide {
                verdict: GlobalVerdict::Commit,
            },
        };
        let s = e.to_string();
        assert!(s.contains("t+1500us"), "{s}");
        assert!(s.contains("G3"), "{s}");
        assert!(s.contains("decide commit"), "{s}");
    }

    #[test]
    fn labels_cover_all_kinds() {
        assert_eq!(EventKind::TxnStart.label(), "txn-start");
        assert_eq!(EventKind::BlockEnter.label(), "block-enter");
        assert_eq!(
            EventKind::Crash { torn: true }.label(),
            EventKind::Crash { torn: false }.label()
        );
        assert_eq!(
            EventKind::RpcRetry {
                to: SiteId::new(2),
                attempt: 3
            }
            .label(),
            "rpc-retry"
        );
        assert_eq!(
            EventKind::RpcReconnect { to: SiteId::new(1) }.label(),
            "rpc-reconnect"
        );
        assert_eq!(
            EventKind::RecoveryStart { records: 4 }.label(),
            "recovery-start"
        );
        assert_eq!(
            EventKind::ReplayedRecord { lsn: 9 }.label(),
            "replayed-record"
        );
        assert_eq!(
            EventKind::InDoubtResolved {
                verdict: GlobalVerdict::Commit
            }
            .label(),
            "in-doubt-resolved"
        );
    }
}
