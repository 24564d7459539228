//! The contention-aware workload engine: production-shaped transaction
//! mixes over a seeded Zipfian key stream.
//!
//! The paper's trade-offs (C2: commit-before wins concurrency under
//! contention; C3: commit-after's edge is intended aborts; C4: semantic
//! commutativity beats read/write locking) only separate once skew,
//! contention and transaction *shape* are varied. This module provides the
//! mixes that vary them, one [`MixGen`] per [`MixKind`]:
//!
//! * **transfer** — balanced 2-site money transfers (the uniform baseline
//!   every earlier experiment ran);
//! * **zipf** — the generic read/increment/write mix over a Zipfian hot
//!   set, with a tunable intended-abort rate;
//! * **hotkey** — sum-conserving increment/decrement pairs on a small hot
//!   counter set: pure commutative updates, where MLT's semantic L1 modes
//!   should shine (claim C4 under real skew);
//! * **tpcc-lite** — a `NewOrder`-shaped multi-op/multi-site profile:
//!   5–15 operations over 1–3 sites mixing escrow stock [`Reserve`]s,
//!   balance/ytd increments, an order-record write and item reads;
//! * **read-heavy** — long read-only scans interleaved with short
//!   sum-neutral writer transactions (the analytics-next-to-OLTP shape).
//!
//! **Determinism contract (DESIGN.md §14).** A generator is a pure
//! function of `(kind, spec, seed)`: the program stream is bit-for-bit
//! identical across runs, machines, and runtimes — the DES path, the
//! threaded in-process path, and the networked `amc-loadgen` path all
//! consume the *same* stream for the same seed. [`fingerprint`] hashes a
//! stream into one `u64` so tests can pin that.
//!
//! [`Reserve`]: amc_types::Operation::Reserve

use crate::program::{self, initial_counters, object, GlobalProgram};
use amc_sim::SimRng;
use amc_types::{Operation, SiteId, Value};
use std::collections::BTreeMap;

/// Which contention-aware mix a [`MixGen`] produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixKind {
    /// Balanced 2-site transfers (uniform-ish baseline; theta still
    /// skews the account choice).
    Transfer,
    /// Generic read/increment/write mix over a Zipfian hot set.
    Zipf,
    /// Sum-conserving hot-key increment/decrement counter pairs.
    HotKey,
    /// `NewOrder`-shaped multi-op/multi-site profile with escrow reserves.
    TpccLite,
    /// Long read-only scans interleaved with short writers.
    ReadHeavy,
}

impl MixKind {
    /// Every mix, in table order.
    pub const ALL: [MixKind; 5] = [
        MixKind::Transfer,
        MixKind::Zipf,
        MixKind::HotKey,
        MixKind::TpccLite,
        MixKind::ReadHeavy,
    ];

    /// The flag/report label (`amc-loadgen --workload <label>`).
    pub fn label(self) -> &'static str {
        match self {
            MixKind::Transfer => "transfer",
            MixKind::Zipf => "zipf",
            MixKind::HotKey => "hotkey",
            MixKind::TpccLite => "tpcc-lite",
            MixKind::ReadHeavy => "read-heavy",
        }
    }

    /// Parse a `--workload` flag value.
    pub fn parse(s: &str) -> Option<MixKind> {
        MixKind::ALL.into_iter().find(|k| k.label() == s)
    }
}

/// Shared parameters of every mix.
#[derive(Debug, Clone)]
pub struct MixSpec {
    /// Number of local sites (1-based ids).
    pub sites: u32,
    /// Counters pre-loaded per site, each starting at
    /// [`MixSpec::INITIAL_PER_OBJECT`].
    pub objects_per_site: u64,
    /// Zipf skew over key choice (0 = uniform; 0.9–1.2 = hot).
    pub theta: f64,
    /// Probability a program aborts through its own logic (a read of an
    /// object that does not exist — the §3.2/§3.3 intended-abort path).
    pub intended_abort_prob: f64,
    /// Fan-out cap: participating sites per transaction for the
    /// multi-site mixes (clamped to `sites`; tpcc-lite draws 1..=cap).
    pub max_fanout: u32,
}

impl MixSpec {
    /// Every pre-loaded counter starts at this value.
    pub const INITIAL_PER_OBJECT: i64 = program::INITIAL_PER_OBJECT;

    /// The initial data one site must be loaded with.
    pub fn initial_data(&self, site: SiteId) -> Vec<(amc_types::ObjectId, Value)> {
        initial_counters(site, self.objects_per_site)
    }

    /// The federation-wide initial counter sum (for conservation checks).
    pub fn initial_sum(&self) -> i64 {
        i64::from(self.sites) * self.objects_per_site as i64 * Self::INITIAL_PER_OBJECT
    }
}

impl Default for MixSpec {
    fn default() -> Self {
        MixSpec {
            sites: 3,
            objects_per_site: 256,
            theta: 0.6,
            intended_abort_prob: 0.0,
            max_fanout: 3,
        }
    }
}

/// Stateful generator for one [`MixKind`].
///
/// The tpcc-lite profile builder draws 5–15 operations over 1–3 sites per
/// program — escrow stock reserves, balance increments, an order-record
/// write and item reads:
///
/// ```
/// use amc_workload::{MixGen, MixKind, MixSpec};
///
/// let mut gen = MixGen::new(MixKind::TpccLite, MixSpec::default(), 42);
/// for _ in 0..50 {
///     let order = gen.next_program();
///     assert!((5..=15).contains(&order.op_count()), "5–15 ops per NewOrder");
///     assert!((1..=3).contains(&order.sites().len()), "1–3 participating sites");
///     order.check_placement().unwrap();
/// }
///
/// // Pure function of (kind, spec, seed): the stream replays bit for bit.
/// let a = MixGen::new(MixKind::TpccLite, MixSpec::default(), 7).programs(20);
/// let b = MixGen::new(MixKind::TpccLite, MixSpec::default(), 7).programs(20);
/// assert_eq!(a, b);
/// ```
#[derive(Debug)]
pub struct MixGen {
    kind: MixKind,
    spec: MixSpec,
    rng: SimRng,
    /// Monotone program counter — gives the read-heavy mix its
    /// deterministic writer cadence and tpcc-lite its order-slot cursor.
    produced: u64,
}

impl MixGen {
    /// Generator over `spec`, seeded deterministically.
    pub fn new(kind: MixKind, spec: MixSpec, seed: u64) -> Self {
        assert!(spec.sites >= 1, "a federation needs at least one site");
        assert!(spec.objects_per_site >= 8, "mixes need a few objects");
        MixGen {
            kind,
            spec,
            rng: SimRng::new(seed),
            produced: 0,
        }
    }

    /// The mix this generator produces.
    pub fn kind(&self) -> MixKind {
        self.kind
    }

    /// The spec in use.
    pub fn spec(&self) -> &MixSpec {
        &self.spec
    }

    fn draw_site(&mut self) -> SiteId {
        SiteId::new(1 + self.rng.below(u64::from(self.spec.sites)) as u32)
    }

    fn draw_key(&mut self) -> u64 {
        self.rng.zipf(self.spec.objects_per_site, self.spec.theta)
    }

    /// Append the intended-abort trigger when the spec's dice say so: a
    /// read of an object beyond the loaded range, filed at the first
    /// participating site, so the abort travels the transaction's own
    /// logic path.
    fn maybe_poison(&mut self, per_site: &mut BTreeMap<SiteId, Vec<Operation>>) -> bool {
        if !self.rng.chance(self.spec.intended_abort_prob) {
            return false;
        }
        let site = *per_site.keys().next().expect("programs are never empty");
        per_site.entry(site).or_default().push(Operation::Read {
            obj: object(site, self.spec.objects_per_site + 1_000_000),
        });
        true
    }

    /// Generate the next program of the mix.
    pub fn next_program(&mut self) -> GlobalProgram {
        self.produced += 1;
        let mut per_site = match self.kind {
            MixKind::Transfer => self.transfer(),
            MixKind::Zipf => self.zipf_mix(),
            MixKind::HotKey => self.hotkey(),
            MixKind::TpccLite => self.tpcc_lite(),
            MixKind::ReadHeavy => self.read_heavy(),
        };
        let intends_abort = self.maybe_poison(&mut per_site);
        GlobalProgram {
            per_site,
            intends_abort,
        }
    }

    /// Generate a batch.
    pub fn programs(&mut self, n: usize) -> Vec<GlobalProgram> {
        (0..n).map(|_| self.next_program()).collect()
    }

    /// Balanced transfer: `-amount` at one site, `+amount` at another
    /// (same site twice when the federation has only one).
    fn transfer(&mut self) -> BTreeMap<SiteId, Vec<Operation>> {
        let from = self.draw_site();
        let to = if self.spec.sites == 1 {
            from
        } else {
            loop {
                let t = self.draw_site();
                if t != from {
                    break t;
                }
            }
        };
        let amount = 1 + self.rng.below(8) as i64;
        let from_obj = object(from, self.draw_key());
        let to_obj = object(to, self.draw_key());
        program::transfer(from_obj, to_obj, amount)
    }

    /// Generic skewed mix: 6 ops over up to `max_fanout` sites — 20%
    /// writes, 40% increments, the rest reads.
    fn zipf_mix(&mut self) -> BTreeMap<SiteId, Vec<Operation>> {
        let fanout = self.spec.max_fanout.clamp(1, self.spec.sites).min(2);
        let sites = self.distinct_sites(fanout);
        let mut per_site: BTreeMap<SiteId, Vec<Operation>> = BTreeMap::new();
        for i in 0..6usize {
            let site = sites[i % sites.len()];
            let obj = object(site, self.draw_key());
            let roll = self.rng.unit();
            let op = if roll < 0.2 {
                Operation::Write {
                    obj,
                    value: Value::counter(self.rng.below(1_000) as i64),
                }
            } else if roll < 0.6 {
                Operation::Increment {
                    obj,
                    delta: 1 + self.rng.below(10) as i64,
                }
            } else {
                Operation::Read { obj }
            };
            per_site.entry(site).or_default().push(op);
        }
        per_site
    }

    /// Hot-key counter pair: `+d` on one hot counter, `-d` on another —
    /// pure commuting increments, federation sum invariant. Three in four
    /// are cross-site (when possible); the rest land both legs on one
    /// site.
    fn hotkey(&mut self) -> BTreeMap<SiteId, Vec<Operation>> {
        let a = self.draw_site();
        let cross = self.spec.sites > 1 && !self.rng.chance(0.25);
        let b = if cross {
            loop {
                let s = self.draw_site();
                if s != a {
                    break s;
                }
            }
        } else {
            a
        };
        let delta = 1 + self.rng.below(5) as i64;
        let up = object(a, self.draw_key());
        let down = object(b, self.draw_key());
        let mut per_site: BTreeMap<SiteId, Vec<Operation>> = BTreeMap::new();
        per_site
            .entry(a)
            .or_default()
            .push(Operation::Increment { obj: up, delta });
        per_site.entry(b).or_default().push(Operation::Increment {
            obj: down,
            delta: -delta,
        });
        per_site
    }

    /// `NewOrder`-shaped: one customer read + one district-ytd increment
    /// at the home site, then 2–11 order lines — each an escrow stock
    /// [`Operation::Reserve`] preceded (for every third line) by an item
    /// read — spread over 1..=`max_fanout` sites, closed by one
    /// order-record write at the home site. Total 5–15 operations.
    fn tpcc_lite(&mut self) -> BTreeMap<SiteId, Vec<Operation>> {
        let fanout = 1 + self.rng.below(u64::from(
            self.spec.max_fanout.clamp(1, 3).min(self.spec.sites),
        )) as u32;
        let sites = self.distinct_sites(fanout);
        let home = sites[0];
        let mut per_site: BTreeMap<SiteId, Vec<Operation>> = BTreeMap::new();

        // Customer read + district ytd increment at the home site.
        let customer = object(home, self.draw_key());
        per_site
            .entry(home)
            .or_default()
            .push(Operation::Read { obj: customer });
        let district = object(home, self.draw_key());
        per_site
            .entry(home)
            .or_default()
            .push(Operation::Increment {
                obj: district,
                delta: 1 + self.rng.below(20) as i64,
            });

        // 2..=11 order lines: escrow stock reserves at remote warehouses,
        // every third line preceded by an item read. Budget: 2 header ops
        // + lines + reads + 1 order write <= 15.
        let lines = 2 + self.rng.below(8) as usize; // 2..=9
        let mut emitted = 0usize;
        for line in 0..lines {
            if 2 + emitted + 2 >= 15 {
                break;
            }
            let warehouse = sites[self.rng.below(sites.len() as u64) as usize];
            let stock = object(warehouse, self.draw_key());
            if line % 3 == 2 {
                per_site
                    .entry(warehouse)
                    .or_default()
                    .push(Operation::Read { obj: stock });
                emitted += 1;
            }
            per_site
                .entry(warehouse)
                .or_default()
                .push(Operation::Reserve {
                    obj: stock,
                    amount: 1 + self.rng.below(3),
                });
            emitted += 1;
        }

        // Order record: overwrite the program's private order slot in the
        // home site's order region (uniform — order slots are not hot).
        let slot = self.rng.below(self.spec.objects_per_site);
        per_site.entry(home).or_default().push(Operation::Write {
            obj: object(home, slot),
            value: Value::counter(self.produced as i64),
        });
        per_site
    }

    /// Read-heavy: every fourth program is a short sum-neutral writer
    /// (one `+d`/`-d` increment pair on one site); the rest are long
    /// read-only scans of 12–24 hot keys over up to two sites.
    fn read_heavy(&mut self) -> BTreeMap<SiteId, Vec<Operation>> {
        if self.produced.is_multiple_of(4) {
            let site = self.draw_site();
            let delta = 1 + self.rng.below(5) as i64;
            let up = object(site, self.draw_key());
            let down = object(site, self.draw_key());
            return BTreeMap::from([(
                site,
                vec![
                    Operation::Increment { obj: up, delta },
                    Operation::Increment {
                        obj: down,
                        delta: -delta,
                    },
                ],
            )]);
        }
        let fanout = 2.min(self.spec.sites);
        let sites = self.distinct_sites(fanout);
        let len = 12 + self.rng.below(13) as usize; // 12..=24
        let mut per_site: BTreeMap<SiteId, Vec<Operation>> = BTreeMap::new();
        for i in 0..len {
            let site = sites[i % sites.len()];
            per_site.entry(site).or_default().push(Operation::Read {
                obj: object(site, self.draw_key()),
            });
        }
        per_site
    }

    /// `n` distinct participant sites, first one first-drawn (the "home"
    /// site of the multi-op mixes).
    fn distinct_sites(&mut self, n: u32) -> Vec<SiteId> {
        let n = n.clamp(1, self.spec.sites) as usize;
        let mut sites = Vec::with_capacity(n);
        while sites.len() < n {
            let s = self.draw_site();
            if !sites.contains(&s) {
                sites.push(s);
            }
        }
        sites
    }
}

/// FNV-1a fingerprint of a program stream — the determinism witness the
/// workload tests pin per `(kind, spec, seed)`. Two streams fingerprint
/// equal iff every program, site assignment and operation matches.
pub fn fingerprint(programs: &[GlobalProgram]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for p in programs {
        eat(&[u8::from(p.intends_abort)]);
        for (site, ops) in &p.per_site {
            eat(&site.raw().to_le_bytes());
            for op in ops {
                eat(op.to_string().as_bytes());
            }
        }
        eat(b"|");
    }
    h
}

#[cfg(test)]
impl MixKind {
    /// Whether every non-aborting program of this mix preserves the
    /// federation-wide counter sum (the conservation oracle applies).
    pub(crate) fn conserves_sum(self) -> bool {
        matches!(
            self,
            MixKind::Transfer | MixKind::HotKey | MixKind::ReadHeavy
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for k in MixKind::ALL {
            assert_eq!(MixKind::parse(k.label()), Some(k));
        }
        assert_eq!(MixKind::parse("nope"), None);
    }

    #[test]
    fn every_mix_respects_placement() {
        for kind in MixKind::ALL {
            let mut g = MixGen::new(kind, MixSpec::default(), 3);
            for p in g.programs(100) {
                p.check_placement().unwrap();
                assert!(p.op_count() >= 1);
            }
        }
    }

    #[test]
    fn conserving_mixes_are_sum_neutral() {
        for kind in MixKind::ALL.into_iter().filter(|k| k.conserves_sum()) {
            let mut g = MixGen::new(kind, MixSpec::default(), 9);
            for p in g.programs(300) {
                let delta: i64 = p
                    .merged_ops()
                    .iter()
                    .map(|op| match op {
                        Operation::Increment { delta, .. } => *delta,
                        Operation::Read { .. } => 0,
                        other => panic!("{kind:?} produced non-conserving {other}"),
                    })
                    .sum();
                assert_eq!(delta, 0, "{kind:?} produced an unbalanced program");
            }
        }
    }

    #[test]
    fn hotkey_is_pure_increments() {
        let mut g = MixGen::new(MixKind::HotKey, MixSpec::default(), 5);
        for p in g.programs(200) {
            assert!(p
                .merged_ops()
                .iter()
                .all(|op| matches!(op, Operation::Increment { .. })));
        }
    }

    #[test]
    fn tpcc_lite_reserves_and_bounds() {
        let mut g = MixGen::new(MixKind::TpccLite, MixSpec::default(), 11);
        let mut saw_reserve = false;
        let mut fanouts = std::collections::BTreeSet::new();
        for p in g.programs(300) {
            assert!((5..=15).contains(&p.op_count()), "got {}", p.op_count());
            assert!((1..=3).contains(&p.sites().len()));
            fanouts.insert(p.sites().len());
            saw_reserve |= p
                .merged_ops()
                .iter()
                .any(|op| matches!(op, Operation::Reserve { .. }));
        }
        assert!(saw_reserve, "NewOrder without stock reserves");
        assert!(fanouts.len() >= 2, "fan-out never varied: {fanouts:?}");
    }

    #[test]
    fn read_heavy_interleaves_writers() {
        let mut g = MixGen::new(MixKind::ReadHeavy, MixSpec::default(), 2);
        let ps = g.programs(40);
        let writers = ps
            .iter()
            .filter(|p| p.merged_ops().iter().any(Operation::is_update))
            .count();
        let scans = ps.iter().filter(|p| p.op_count() >= 12).count();
        assert_eq!(writers, 10, "every fourth program writes");
        assert_eq!(scans, 30, "the rest are long scans");
    }

    #[test]
    fn intended_abort_rate_is_respected() {
        let spec = MixSpec {
            intended_abort_prob: 0.3,
            ..MixSpec::default()
        };
        let mut g = MixGen::new(MixKind::TpccLite, spec, 17);
        let n = 2000;
        let aborts = g.programs(n).iter().filter(|p| p.intends_abort).count();
        let rate = aborts as f64 / n as f64;
        assert!((0.25..0.35).contains(&rate), "rate {rate}");
    }

    #[test]
    fn abort_programs_touch_a_missing_object() {
        let spec = MixSpec {
            intended_abort_prob: 1.0,
            ..MixSpec::default()
        };
        for kind in MixKind::ALL {
            let p = MixGen::new(kind, spec.clone(), 3).next_program();
            assert!(p.intends_abort);
            let missing = p.merged_ops().iter().any(|op| {
                matches!(op, Operation::Read { obj }
                    if obj.raw() % program::OBJECTS_PER_SITE_STRIDE >= spec.objects_per_site)
            });
            assert!(missing, "{kind:?} aborts without a missing read");
        }
    }

    #[test]
    fn skew_concentrates_accesses() {
        let spec = MixSpec {
            sites: 1,
            objects_per_site: 1000,
            theta: 0.99,
            ..MixSpec::default()
        };
        let mut hot = MixGen::new(MixKind::Zipf, spec, 5);
        let (mut head, mut total) = (0usize, 0usize);
        for p in hot.programs(500) {
            for op in p.merged_ops() {
                total += 1;
                head += usize::from(op.object().raw() % program::OBJECTS_PER_SITE_STRIDE < 20);
            }
        }
        assert!(head * 3 > total, "hot head got {head}/{total} accesses");
    }

    #[test]
    fn initial_data_covers_every_site_and_sums_to_initial_sum() {
        let spec = MixSpec {
            objects_per_site: 10,
            ..MixSpec::default()
        };
        let rows: Vec<_> = (1..=spec.sites)
            .flat_map(|s| spec.initial_data(SiteId::new(s)))
            .collect();
        assert_eq!(rows.len(), 30);
        assert!(rows
            .iter()
            .any(|(obj, _)| *obj == object(SiteId::new(3), 9)));
        let sum: i64 = rows.iter().map(|(_, v)| v.counter).sum();
        assert_eq!(sum, spec.initial_sum());
    }

    /// The shape E2, E6 and E15's abort lane run: 6 reads, increments and writes over
    /// at most two sites, whatever the fan-out cap.
    #[test]
    fn zipf_mix_is_six_ops_over_at_most_two_sites() {
        let mut g = MixGen::new(MixKind::Zipf, MixSpec::default(), 8);
        let mut kinds = [0usize; 3];
        for p in g.programs(300) {
            assert_eq!(p.op_count(), 6);
            assert!((1..=2).contains(&p.sites().len()));
            for op in p.merged_ops() {
                kinds[match op {
                    Operation::Write { .. } => 0,
                    Operation::Increment { .. } => 1,
                    Operation::Read { .. } => 2,
                    other => panic!("zipf produced {other}"),
                }] += 1;
            }
        }
        assert!(
            kinds.iter().all(|&n| n > 0),
            "a class never drawn: {kinds:?}"
        );
        assert!(
            kinds[0] < kinds[1],
            "fewer writes than increments: {kinds:?}"
        );
    }

    /// The shape E9, E10 and E15's contention lane run: a `+d`/`-d` pair, three in four
    /// across two sites, the rest on one.
    #[test]
    fn hotkey_pairs_cross_sites_three_times_in_four() {
        let mut g = MixGen::new(MixKind::HotKey, MixSpec::default(), 6);
        let n = 2000;
        let mut cross = 0usize;
        for p in g.programs(n) {
            assert_eq!(p.op_count(), 2);
            cross += usize::from(p.sites().len() == 2);
        }
        let rate = cross as f64 / n as f64;
        assert!((0.7..0.8).contains(&rate), "cross-site rate {rate}");
    }

    #[test]
    fn fingerprint_detects_any_divergence() {
        let a = MixGen::new(MixKind::HotKey, MixSpec::default(), 1).programs(50);
        let b = MixGen::new(MixKind::HotKey, MixSpec::default(), 1).programs(50);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        let c = MixGen::new(MixKind::HotKey, MixSpec::default(), 2).programs(50);
        assert_ne!(fingerprint(&a), fingerprint(&c));
        let mut mutated = a.clone();
        mutated[49].intends_abort = true;
        assert_ne!(fingerprint(&a), fingerprint(&mutated));
    }

    #[test]
    fn single_site_federation_works_for_every_mix() {
        let spec = MixSpec {
            sites: 1,
            ..MixSpec::default()
        };
        for kind in MixKind::ALL {
            let mut g = MixGen::new(kind, spec.clone(), 4);
            for p in g.programs(50) {
                assert_eq!(p.sites().len(), 1);
                p.check_placement().unwrap();
            }
        }
    }
}
