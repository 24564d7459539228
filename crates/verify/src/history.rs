//! Operation histories and the conflict-graph serializability check.
//!
//! The federation records every operation it executes as an [`OpEvent`]
//! with a per-site sequence number (the local execution order). Global
//! conflict-serializability then reduces to acyclicity of the graph with an
//! edge `Ti -> Tj` whenever an operation of `Ti` precedes a *non-commuting*
//! operation of `Tj` at some site — the multi-level L1 conflict definition
//! of §4.1 (use read/write conflicts instead and you get the classical
//! check; both are supported).

use amc_types::{GlobalTxnId, GlobalVerdict, Operation, SiteId};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One executed operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpEvent {
    /// Owning global transaction.
    pub gtx: GlobalTxnId,
    /// Site it ran on.
    pub site: SiteId,
    /// Per-site execution sequence number (monotone within a site).
    pub seq: u64,
    /// The operation.
    pub op: Operation,
}

/// Why a history is not serializable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SerializabilityError {
    /// A cycle in the conflict graph, as a list of transactions.
    pub cycle: Vec<GlobalTxnId>,
}

impl std::fmt::Display for SerializabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "conflict cycle: ")?;
        for (i, t) in self.cycle.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

/// How conflicts are defined for the check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictDefinition {
    /// Semantic: non-commuting operations conflict (§4.1).
    Commutativity,
    /// Classical read/write conflicts (increments treated as writes).
    ReadWrite,
}

impl ConflictDefinition {
    fn conflicts(&self, a: &Operation, b: &Operation) -> bool {
        match self {
            ConflictDefinition::Commutativity => !a.commutes_with(b),
            ConflictDefinition::ReadWrite => {
                a.object() == b.object() && (a.is_update() || b.is_update())
            }
        }
    }
}

/// A recorded execution history.
#[derive(Debug, Clone, Default)]
pub struct History {
    events: Vec<OpEvent>,
    outcomes: HashMap<GlobalTxnId, GlobalVerdict>,
}

impl History {
    /// Empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an executed operation.
    pub fn record_op(&mut self, event: OpEvent) {
        self.events.push(event);
    }

    /// True when `gtx` already has recorded events at `site`.
    ///
    /// Vote replies are idempotent: a coordinator inquiry can re-fetch a
    /// site's cached yes vote, and recording the site's operations a
    /// second time (with fresh sequence numbers) would fabricate conflict
    /// edges in both directions — a phantom cycle the serializability
    /// oracle then reports. Recorders must check this before appending.
    pub fn has_events_for(&self, gtx: GlobalTxnId, site: SiteId) -> bool {
        self.events.iter().any(|e| e.gtx == gtx && e.site == site)
    }

    /// Record a global transaction's final verdict.
    pub fn set_outcome(&mut self, gtx: GlobalTxnId, verdict: GlobalVerdict) {
        self.outcomes.insert(gtx, verdict);
    }

    /// All events (record order).
    pub fn events(&self) -> &[OpEvent] {
        &self.events
    }

    /// Outcome of a transaction, if decided.
    pub fn outcome(&self, gtx: GlobalTxnId) -> Option<GlobalVerdict> {
        self.outcomes.get(&gtx).copied()
    }

    /// Committed transactions, ascending.
    pub fn committed(&self) -> Vec<GlobalTxnId> {
        let mut out: Vec<GlobalTxnId> = self
            .outcomes
            .iter()
            .filter(|(_, v)| **v == GlobalVerdict::Commit)
            .map(|(g, _)| *g)
            .collect();
        out.sort();
        out
    }

    /// Build the conflict graph over **committed** transactions.
    pub(crate) fn conflict_edges(
        &self,
        def: ConflictDefinition,
    ) -> BTreeSet<(GlobalTxnId, GlobalTxnId)> {
        let committed: BTreeSet<GlobalTxnId> = self.committed().into_iter().collect();
        // Group events per site, ordered by seq.
        let mut per_site: BTreeMap<SiteId, Vec<&OpEvent>> = BTreeMap::new();
        for e in &self.events {
            if committed.contains(&e.gtx) {
                per_site.entry(e.site).or_default().push(e);
            }
        }
        let mut edges = BTreeSet::new();
        for events in per_site.values_mut() {
            events.sort_by_key(|e| e.seq);
            for (i, a) in events.iter().enumerate() {
                for b in events.iter().skip(i + 1) {
                    if a.gtx != b.gtx && def.conflicts(&a.op, &b.op) {
                        edges.insert((a.gtx, b.gtx));
                    }
                }
            }
        }
        edges
    }

    /// Check conflict-serializability of the committed transactions.
    /// Returns a valid serialization order on success.
    pub fn check_serializable(
        &self,
        def: ConflictDefinition,
    ) -> Result<Vec<GlobalTxnId>, SerializabilityError> {
        let nodes = self.committed();
        let edges = self.conflict_edges(def);
        let mut adj: BTreeMap<GlobalTxnId, Vec<GlobalTxnId>> = BTreeMap::new();
        let mut indegree: BTreeMap<GlobalTxnId, usize> = nodes.iter().map(|n| (*n, 0)).collect();
        for (a, b) in &edges {
            adj.entry(*a).or_default().push(*b);
            *indegree.entry(*b).or_insert(0) += 1;
        }
        // Kahn's algorithm; deterministic by picking the smallest id first.
        let mut order = Vec::with_capacity(nodes.len());
        let mut ready: BTreeSet<GlobalTxnId> = indegree
            .iter()
            .filter(|(_, d)| **d == 0)
            .map(|(n, _)| *n)
            .collect();
        while let Some(&n) = ready.iter().next() {
            ready.remove(&n);
            order.push(n);
            for m in adj.get(&n).cloned().unwrap_or_default() {
                let d = indegree.get_mut(&m).expect("edge endpoint is a node");
                *d -= 1;
                if *d == 0 {
                    ready.insert(m);
                }
            }
        }
        if order.len() == nodes.len() {
            Ok(order)
        } else {
            // Extract one cycle for the report: walk successors among the
            // unresolved nodes.
            let stuck: BTreeSet<GlobalTxnId> = nodes
                .iter()
                .copied()
                .filter(|n| !order.contains(n))
                .collect();
            let mut cycle = Vec::new();
            if let Some(&start) = stuck.iter().next() {
                let mut cur = start;
                loop {
                    cycle.push(cur);
                    let next = adj
                        .get(&cur)
                        .into_iter()
                        .flatten()
                        .copied()
                        .find(|m| stuck.contains(m));
                    match next {
                        Some(n) if cycle.contains(&n) => break,
                        Some(n) => cur = n,
                        None => break,
                    }
                }
            }
            Err(SerializabilityError { cycle })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_types::Value;

    fn gtx(n: u64) -> GlobalTxnId {
        GlobalTxnId::new(n)
    }
    fn site(n: u32) -> SiteId {
        SiteId::new(n)
    }
    fn obj(n: u64) -> amc_types::ObjectId {
        amc_types::ObjectId::new(n)
    }

    fn ev(g: u64, s: u32, seq: u64, op: Operation) -> OpEvent {
        OpEvent {
            gtx: gtx(g),
            site: site(s),
            seq,
            op,
        }
    }

    fn read(o: u64) -> Operation {
        Operation::Read { obj: obj(o) }
    }
    fn write(o: u64) -> Operation {
        Operation::Write {
            obj: obj(o),
            value: Value::ZERO,
        }
    }
    fn incr(o: u64) -> Operation {
        Operation::Increment {
            obj: obj(o),
            delta: 1,
        }
    }

    fn committed_history(events: Vec<OpEvent>) -> History {
        let mut h = History::new();
        let mut seen = BTreeSet::new();
        for e in &events {
            seen.insert(e.gtx);
        }
        for e in events {
            h.record_op(e);
        }
        for g in seen {
            h.set_outcome(g, GlobalVerdict::Commit);
        }
        h
    }

    #[test]
    fn serial_history_is_serializable() {
        let h = committed_history(vec![
            ev(1, 1, 1, write(1)),
            ev(1, 2, 1, write(2)),
            ev(2, 1, 2, write(1)),
            ev(2, 2, 2, write(2)),
        ]);
        let order = h
            .check_serializable(ConflictDefinition::Commutativity)
            .unwrap();
        assert_eq!(order, vec![gtx(1), gtx(2)]);
    }

    #[test]
    fn crossed_order_across_sites_is_a_cycle() {
        // Site 1 orders T1 before T2 on x; site 2 orders T2 before T1 on y.
        let h = committed_history(vec![
            ev(1, 1, 1, write(1)),
            ev(2, 1, 2, write(1)),
            ev(2, 2, 1, write(2)),
            ev(1, 2, 2, write(2)),
        ]);
        let err = h
            .check_serializable(ConflictDefinition::Commutativity)
            .unwrap_err();
        assert!(
            err.cycle.contains(&gtx(1)) && err.cycle.contains(&gtx(2)),
            "{err}"
        );
    }

    #[test]
    fn commuting_increments_create_no_edges() {
        // The Fig. 8 interleaving: crossed increments commute, so the same
        // crossed pattern that fails for writes passes for increments.
        let h = committed_history(vec![
            ev(1, 1, 1, incr(1)),
            ev(2, 1, 2, incr(1)),
            ev(2, 2, 1, incr(2)),
            ev(1, 2, 2, incr(2)),
        ]);
        assert!(h
            .conflict_edges(ConflictDefinition::Commutativity)
            .is_empty());
        h.check_serializable(ConflictDefinition::Commutativity)
            .unwrap();
        // Under the classical definition the same history is rejected —
        // semantic conflicts strictly enlarge the admissible set (§4.1).
        assert!(h.check_serializable(ConflictDefinition::ReadWrite).is_err());
    }

    #[test]
    fn reads_do_not_conflict_with_reads() {
        let h = committed_history(vec![
            ev(1, 1, 1, read(1)),
            ev(2, 1, 2, read(1)),
            ev(2, 2, 1, read(2)),
            ev(1, 2, 2, read(2)),
        ]);
        assert!(h.conflict_edges(ConflictDefinition::ReadWrite).is_empty());
    }

    #[test]
    fn aborted_transactions_are_excluded() {
        let mut h = History::new();
        h.record_op(ev(1, 1, 1, write(1)));
        h.record_op(ev(2, 1, 2, write(1)));
        h.set_outcome(gtx(1), GlobalVerdict::Commit);
        h.set_outcome(gtx(2), GlobalVerdict::Abort);
        assert!(h
            .conflict_edges(ConflictDefinition::Commutativity)
            .is_empty());
        assert_eq!(h.committed(), vec![gtx(1)]);
        assert_eq!(h.outcome(gtx(2)), Some(GlobalVerdict::Abort));
    }

    #[test]
    fn three_cycle_detected() {
        let h = committed_history(vec![
            // T1 < T2 on site 1, T2 < T3 on site 2, T3 < T1 on site 3.
            ev(1, 1, 1, write(1)),
            ev(2, 1, 2, write(1)),
            ev(2, 2, 1, write(2)),
            ev(3, 2, 2, write(2)),
            ev(3, 3, 1, write(3)),
            ev(1, 3, 2, write(3)),
        ]);
        let err = h
            .check_serializable(ConflictDefinition::Commutativity)
            .unwrap_err();
        assert_eq!(err.cycle.len(), 3, "{err}");
    }

    #[test]
    fn empty_history_is_trivially_serializable() {
        let h = History::new();
        assert_eq!(
            h.check_serializable(ConflictDefinition::Commutativity)
                .unwrap(),
            Vec::<GlobalTxnId>::new()
        );
    }
}
