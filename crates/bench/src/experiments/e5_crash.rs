//! **E5 — behaviour under site crashes** (§3.2/§3.3 failure handling,
//! [Ske 81] blocking discussion).
//!
//! A participant crashes at a swept point inside the protocol window and
//! restarts after a fixed outage. Measured per protocol: did the
//! transaction resolve, to which verdict, how long resolution took in
//! virtual time, and how many retransmissions the coordinator needed. The
//! shapes: commit-before resolves every case right after restart (markers
//! answer the inquiry); commit-after repairs commit decisions via `Redo`;
//! 2PC resolves too but its recovered participant sits *in doubt*, holding
//! page locks until the decision arrives (demonstrated separately by the
//! blocking probe in the integration suite).

use crate::setup::load;
use crate::table::{opt2, section, verdict, TextTable};
use amc_core::{FederationConfig, Program, SimConfig, SimFederation};
use amc_net::NetStats;
use amc_sim::{generate_faults, FaultPlan, NemesisConfig};
use amc_types::{GlobalVerdict, ProtocolKind, SimDuration, SimTime, SiteId};
use amc_workload::{object, transfer, INITIAL_PER_OBJECT as PER_OBJ};

/// One measured crash scenario.
#[derive(Debug, Clone)]
pub struct Row {
    /// Protocol.
    pub protocol: ProtocolKind,
    /// Virtual time the crash struck (µs after start).
    pub crash_at_us: u64,
    /// Verdict (`None` = unresolved at horizon — a blocking failure).
    pub verdict: Option<GlobalVerdict>,
    /// Virtual resolution time (ms); `None` when unresolved.
    pub resolution_ms: Option<f64>,
    /// Longest §5 blocking window (ms): a 2PC participant sitting prepared
    /// with locks held until the decision arrived. `None` for the portable
    /// protocols — they never enter the in-doubt state.
    pub blocking_ms: Option<f64>,
    /// Coordinator retransmissions needed.
    pub retransmissions: u64,
    /// Whether final state is atomic (both sites agree on all-or-nothing).
    pub atomic: bool,
}

/// Sweep crash times for each protocol: site 2 crashes `crash_times_us`
/// virtual microseconds after transaction start, for `outage_ms`.
pub fn run(crash_times_us: &[u64], outage_ms: u64) -> Vec<Row> {
    sweep(SiteId::new(2), crash_times_us, outage_ms)
}

/// Central-system crash sweep (extension: coordinator-side recovery with
/// a forced decision log and presumed abort).
pub(crate) fn run_central(crash_times_us: &[u64], outage_ms: u64) -> Vec<Row> {
    sweep(SiteId::CENTRAL, crash_times_us, outage_ms)
}

fn sweep(victim: SiteId, crash_times_us: &[u64], outage_ms: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for protocol in ProtocolKind::ALL {
        for &crash_at in crash_times_us {
            let mut cfg = SimConfig::new(FederationConfig::uniform(2, protocol));
            cfg.faults = FaultPlan::none().outage(
                victim,
                SimTime(crash_at),
                SimDuration::from_millis(outage_ms),
            );
            cfg.horizon = SimDuration::from_millis(5_000);
            let fed = SimFederation::new(cfg);
            let (s1, s2) = (SiteId::new(1), SiteId::new(2));
            let federation = fed.federation();
            load(&federation, 1);
            let program = transfer(object(s1, 0), object(s2, 0), 30);
            let report = fed.run(vec![(SimDuration::ZERO, program)]);
            let gtx = amc_types::GlobalTxnId::new(1);
            let verdict = report.outcomes.get(&gtx).copied();
            let dumps = federation.dumps().unwrap();
            let v1 = dumps[&s1][&object(s1, 0)].counter;
            let v2 = dumps[&s2][&object(s2, 0)].counter;
            let atomic = match verdict {
                Some(GlobalVerdict::Commit) => v1 == 70 && v2 == 130,
                Some(GlobalVerdict::Abort) => v1 == 100 && v2 == 100,
                None => false,
            };
            rows.push(Row {
                protocol,
                crash_at_us: crash_at,
                verdict,
                resolution_ms: report.resolution.get(&gtx).map(|d| d.micros() as f64 / 1e3),
                blocking_ms: report
                    .events
                    .derive()
                    .blocking_window_us
                    .max()
                    .map(|us| us as f64 / 1e3),
                retransmissions: report.retransmissions,
                atomic,
            });
        }
    }
    rows
}

const SITE_TITLE: &str =
    "E5 — participant crash sweep (site 2 crashes mid-protocol, restarts later)";
const CENTRAL_TITLE: &str = "E5b — central-system crash sweep (coordinator crashes \
                             mid-protocol; decision log + presumed abort)";

/// Render a crash sweep's report table under `title`.
fn table(title: &str, rows: &[Row]) -> TextTable {
    let mut t = TextTable::new(
        title,
        &[
            "protocol",
            "crash at us",
            "verdict",
            "resolution ms",
            "block ms",
            "retransmits",
            "atomic",
        ],
    );
    for r in rows {
        t.row(vec![
            r.protocol.label().to_string(),
            r.crash_at_us.to_string(),
            r.verdict
                .map_or("UNRESOLVED".to_string(), |v| v.to_string()),
            opt2(r.resolution_ms),
            opt2(r.blocking_ms),
            r.retransmissions.to_string(),
            if r.atomic { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t
}

/// Shape checks for the central sweep.
pub(crate) fn central_verdicts(rows: &[Row]) -> Vec<String> {
    let mut out = Vec::new();
    out.push(verdict(
        rows.iter().all(|r| r.atomic),
        "E5b-1: every central-crash scenario resolves atomically",
    ));
    // Undecided-at-crash transactions must end aborted (presumed abort).
    let early = rows.iter().filter(|r| r.crash_at_us <= 200);
    let presumed = early
        .clone()
        .all(|r| r.verdict == Some(GlobalVerdict::Abort));
    out.push(verdict(
        presumed,
        "E5b-2: crashes before any decision end in presumed abort",
    ));
    // Commit-before with local commits done before the crash still commits
    // when the decision was logged.
    let cb_late = rows.iter().any(|r| {
        r.protocol == ProtocolKind::CommitBefore
            && r.crash_at_us >= 1_500
            && r.verdict == Some(GlobalVerdict::Commit)
    });
    out.push(verdict(
        cb_late,
        "E5b-3: a logged commit-before decision survives the coordinator crash",
    ));
    out
}

/// One nemesis chaos scenario (E5c): a seeded composed fault schedule
/// (crashes with torn WAL tails, directed partitions, loss bursts) against
/// five staggered disjoint transfers.
#[derive(Debug, Clone)]
pub struct NemesisRow {
    /// Protocol.
    pub protocol: ProtocolKind,
    /// Generator seed (reproduces the schedule and the run).
    pub seed: u64,
    /// Fault events in the generated schedule.
    pub fault_events: usize,
    /// Transfers that committed.
    pub committed: usize,
    /// Transfers that aborted.
    pub aborted: usize,
    /// Transfers unresolved at the horizon.
    pub unresolved: usize,
    /// Oracle violations (exactly-once per verdict + conservation).
    pub violations: usize,
    /// Coordinator retransmissions needed.
    pub retransmissions: u64,
    /// Full router accounting.
    pub net: NetStats,
    /// Median start→done virtual latency over resolved transfers (ms).
    pub resolve_p50_ms: Option<f64>,
    /// Tail (p99) start→done virtual latency (ms).
    pub resolve_p99_ms: Option<f64>,
    /// Longest §5 blocking window (2PC in-doubt participants) in ms.
    pub blocking_ms: Option<f64>,
}

/// Transfers in one nemesis scenario, each over its own object pair.
pub const NEMESIS_TXNS: u64 = 5;

/// One nemesis scenario's inputs (E5c and `explain --seed`): the schedule
/// `seed` generates, the loaded two-site federation it strikes, and the
/// staggered disjoint transfers it strikes it under.
pub fn nemesis_scenario(
    protocol: ProtocolKind,
    seed: u64,
    unsafe_skip_decision_log: bool,
) -> (FaultPlan, SimFederation, Vec<(SimDuration, Program)>) {
    // The transfers are all submitted inside the first ~100 ms of virtual
    // time; squeeze the fault horizon onto that span so the schedules
    // land on live transactions instead of an idle federation.
    let nemesis = NemesisConfig {
        fault_horizon: SimTime(120_000),
        max_hold: SimDuration::from_micros(60_000),
        ..NemesisConfig::default()
    };
    let plan = generate_faults(&nemesis, seed);
    let mut cfg = SimConfig::new(FederationConfig::uniform(2, protocol));
    cfg.seed = seed;
    cfg.faults = plan.clone();
    cfg.retransmit_every = SimDuration::from_millis(5);
    cfg.horizon = SimDuration::from_millis(30_000);
    cfg.unsafe_skip_decision_log = unsafe_skip_decision_log;
    let fed = SimFederation::new(cfg);
    let (s1, s2) = (SiteId::new(1), SiteId::new(2));
    load(&fed.federation(), NEMESIS_TXNS);
    let programs = (0..NEMESIS_TXNS)
        .map(|i| {
            (
                SimDuration::from_millis(i * 20),
                transfer(object(s1, i), object(s2, i), 10),
            )
        })
        .collect();
    (plan, fed, programs)
}

/// Run the nemesis sweep: one generated schedule per `(protocol, seed)`.
pub fn run_nemesis(seeds: &[u64]) -> Vec<NemesisRow> {
    const OBJS: u64 = NEMESIS_TXNS;
    let (s1, s2) = (SiteId::new(1), SiteId::new(2));
    let mut rows = Vec::new();
    for protocol in ProtocolKind::ALL {
        for &seed in seeds {
            let (plan, fed, programs) = nemesis_scenario(protocol, seed, false);
            let federation = fed.federation();
            let report = fed.run(programs);
            let dumps = federation.dumps().unwrap();
            let (mut committed, mut aborted, mut violations) = (0usize, 0usize, 0usize);
            let mut total = 0i64;
            for i in 0..OBJS {
                let gtx = amc_types::GlobalTxnId::new(i + 1);
                let v1 = dumps[&s1][&object(s1, i)].counter;
                let v2 = dumps[&s2][&object(s2, i)].counter;
                total += v1 + v2;
                match report.outcomes.get(&gtx) {
                    Some(GlobalVerdict::Commit) => {
                        committed += 1;
                        if (v1, v2) != (PER_OBJ - 10, PER_OBJ + 10) {
                            violations += 1;
                        }
                    }
                    Some(GlobalVerdict::Abort) => {
                        aborted += 1;
                        if (v1, v2) != (PER_OBJ, PER_OBJ) {
                            violations += 1;
                        }
                    }
                    None => {}
                }
            }
            if total != 2 * OBJS as i64 * PER_OBJ {
                violations += 1;
            }
            let derived = report.events.derive();
            rows.push(NemesisRow {
                protocol,
                seed,
                fault_events: plan.len(),
                committed,
                aborted,
                unresolved: report.unresolved.len(),
                violations,
                retransmissions: report.retransmissions,
                net: report.net,
                resolve_p50_ms: derived.resolve_latency_us.p50().map(|us| us as f64 / 1e3),
                resolve_p99_ms: derived.resolve_latency_us.p99().map(|us| us as f64 / 1e3),
                blocking_ms: derived.blocking_window_us.max().map(|us| us as f64 / 1e3),
            });
        }
    }
    rows
}

/// Render the nemesis sweep table.
pub(crate) fn nemesis_table(rows: &[NemesisRow]) -> TextTable {
    let mut t = TextTable::new(
        "E5c — nemesis chaos sweep (seeded composed crash/torn-tail/partition/loss-burst schedules)",
        &[
            "protocol",
            "seed",
            "faults",
            "commit",
            "abort",
            "unresolved",
            "violations",
            "retransmits",
            "res p50 ms",
            "res p99 ms",
            "block ms",
            "net sent/drop/part/dup",
        ],
    );
    for r in rows {
        t.row(vec![
            r.protocol.label().to_string(),
            r.seed.to_string(),
            r.fault_events.to_string(),
            r.committed.to_string(),
            r.aborted.to_string(),
            r.unresolved.to_string(),
            r.violations.to_string(),
            r.retransmissions.to_string(),
            opt2(r.resolve_p50_ms),
            opt2(r.resolve_p99_ms),
            opt2(r.blocking_ms),
            format!(
                "{}/{}/{}/{}",
                r.net.sent, r.net.dropped, r.net.partitioned_drops, r.net.duplicated
            ),
        ]);
    }
    t
}

/// Shape checks for the nemesis sweep.
pub(crate) fn nemesis_verdicts(rows: &[NemesisRow]) -> Vec<String> {
    let mut out = Vec::new();
    let clean = rows.iter().all(|r| r.violations == 0);
    out.push(verdict(
        clean,
        "E5c-1: zero atomicity/conservation violations across the sweep",
    ));
    let resolved = rows.iter().all(|r| r.unresolved == 0);
    out.push(verdict(
        resolved,
        "E5c-2: every transfer resolves once the faults are over",
    ));
    let faults_bit = rows
        .iter()
        .any(|r| r.net.dropped > 0 || r.net.partitioned_drops > 0 || r.retransmissions > 0);
    out.push(verdict(
        faults_bit,
        "E5c-3: the schedules actually perturbed the runs (drops/partitions/retransmits observed)",
    ));
    out
}

/// Shape checks.
pub fn verdicts(rows: &[Row]) -> Vec<String> {
    let mut out = Vec::new();
    let all_resolved = rows.iter().all(|r| r.verdict.is_some());
    out.push(verdict(
        all_resolved,
        "E5-1: every crash scenario resolves before the horizon",
    ));
    let all_atomic = rows.iter().all(|r| r.atomic);
    out.push(verdict(
        all_atomic,
        "E5-2: atomicity holds in every scenario (all-or-nothing at both sites)",
    ));
    let crashes_need_timer = rows
        .iter()
        .filter(|r| r.verdict.is_some())
        .any(|r| r.retransmissions > 0);
    out.push(verdict(
        crashes_need_timer,
        "E5-3: recovery is driven by coordinator retransmission (observed in at least one case)",
    ));
    out
}

/// The report section: site crashes, central crashes, the nemesis sweep.
pub fn report(quick: bool) -> String {
    let crash_times: &[u64] = if quick {
        &[100, 1_500]
    } else {
        &[100, 400, 800, 1_200, 1_600, 2_400]
    };
    let seeds: Vec<u64> = (0..if quick { 4 } else { 20 }).collect();
    let (site, central, nemesis) = (
        run(crash_times, 40),
        run_central(crash_times, 40),
        run_nemesis(&seeds),
    );
    [
        section(&[table(SITE_TITLE, &site)], &verdicts(&site)),
        section(
            &[table(CENTRAL_TITLE, &central)],
            &central_verdicts(&central),
        ),
        section(&[nemesis_table(&nemesis)], &nemesis_verdicts(&nemesis)),
    ]
    .join("\n")
}
