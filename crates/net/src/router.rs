//! The deterministic simulated network.
//!
//! The router owns no event queue: the simulation driver asks it to *admit*
//! a message and gets back either `Deliver(after)` — schedule delivery
//! `after` later — or `Dropped` (destination down, or loss injected). This
//! keeps the router reusable: the DES driver schedules real events, unit
//! tests just inspect decisions.
//!
//! Invariants enforced here:
//! * star topology (Fig. 1) — non-central ↔ non-central traffic is a bug,
//!   not a droppable condition;
//! * messages *to* a down site vanish (its communication manager is dead);
//! * messages *from* a down site cannot be sent (the driver shouldn't ask,
//!   but a defensive drop keeps crash races honest);
//! * messages crossing a **severed link** vanish while both endpoints stay
//!   live — the partition fault the nemesis composes with crashes. Links
//!   are directed, so an asymmetric partition (site hears the central, the
//!   central never hears the site) is expressible.

use crate::message::Envelope;
use amc_obs::{DropCause, EventKind, ObsSink};
use amc_sim::{LatencyModel, SimRng};
use amc_types::{SimDuration, SiteId};
use std::collections::HashSet;

/// Router behaviour knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Latency applied to every delivered message.
    pub latency: LatencyModel,
    /// Independent loss probability per message.
    pub loss_probability: f64,
    /// Probability a delivered message is *duplicated* (at-least-once
    /// delivery — retransmitting transports do this; the protocols must
    /// tolerate it, which is what the markers and tombstones are for).
    pub duplicate_probability: f64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            latency: LatencyModel::Fixed(SimDuration::from_micros(500)),
            loss_probability: 0.0,
            duplicate_probability: 0.0,
        }
    }
}

/// The router's verdict on one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// Deliver after this delay.
    Deliver(SimDuration),
    /// Deliver twice, after each delay (duplication injected).
    DeliverTwice(SimDuration, SimDuration),
    /// Silently dropped (loss or down destination).
    Dropped,
}

/// Network traffic accounting, per router lifetime.
///
/// Replaces the old `(sent, dropped)` tuple so new drop causes can be
/// accounted without breaking every caller again.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages admitted (including ones subsequently dropped).
    pub sent: u64,
    /// Messages dropped for any reason (down endpoint, severed link, loss).
    pub dropped: u64,
    /// Messages delivered twice (duplication injected).
    pub duplicated: u64,
    /// Subset of `dropped` caused by a severed link (partition), as opposed
    /// to a down endpoint or random loss.
    pub partitioned_drops: u64,
}

/// Deterministic star network.
#[derive(Debug)]
pub struct Router {
    cfg: RouterConfig,
    rng: SimRng,
    down: HashSet<SiteId>,
    /// Severed directed links: a message `from -> to` listed here vanishes
    /// even though both endpoints are live.
    partitioned: HashSet<(SiteId, SiteId)>,
    /// While set, overrides `cfg.loss_probability` (a nemesis loss burst).
    burst_loss: Option<f64>,
    stats: NetStats,
    obs: ObsSink,
}

impl Router {
    /// New router with its own RNG stream.
    pub fn new(cfg: RouterConfig, rng: SimRng) -> Self {
        Router {
            cfg,
            rng,
            down: HashSet::new(),
            partitioned: HashSet::new(),
            burst_loss: None,
            stats: NetStats::default(),
            obs: ObsSink::disabled(),
        }
    }

    /// Attach an observability sink; every admitted message emits a
    /// `MsgSend` (or `MsgDrop` with its cause) event.
    pub fn attach_obs(&mut self, sink: ObsSink) {
        self.obs = sink;
    }

    /// Mark a site down (crash).
    pub fn site_down(&mut self, site: SiteId) {
        self.down.insert(site);
    }

    /// Mark a site up again (restart).
    pub fn site_up(&mut self, site: SiteId) {
        self.down.remove(&site);
    }

    /// Whether a site is currently down.
    pub fn is_down(&self, site: SiteId) -> bool {
        self.down.contains(&site)
    }

    /// Sever the directed link `from -> to`: messages in that direction are
    /// dropped while both endpoints stay live. Idempotent.
    pub fn partition(&mut self, from: SiteId, to: SiteId) {
        self.partitioned.insert((from, to));
    }

    /// Heal the directed link `from -> to`. Idempotent.
    pub fn heal(&mut self, from: SiteId, to: SiteId) {
        self.partitioned.remove(&(from, to));
    }

    /// Sever both directions between `a` and `b`.
    pub fn partition_both(&mut self, a: SiteId, b: SiteId) {
        self.partition(a, b);
        self.partition(b, a);
    }

    /// Heal both directions between `a` and `b`.
    pub fn heal_both(&mut self, a: SiteId, b: SiteId) {
        self.heal(a, b);
        self.heal(b, a);
    }

    /// Begin a loss burst: until [`Router::clear_loss_burst`], every message
    /// is lost with `probability` instead of the configured baseline.
    pub fn set_loss_burst(&mut self, probability: f64) {
        self.burst_loss = Some(probability.clamp(0.0, 1.0));
    }

    /// End a loss burst, restoring the configured loss probability.
    pub fn clear_loss_burst(&mut self) {
        self.burst_loss = None;
    }

    /// Decide what happens to `env`.
    ///
    /// # Panics
    /// On a star-topology violation — that is a protocol bug, never a
    /// runtime condition.
    pub fn route(&mut self, env: &Envelope) -> Routing {
        assert!(
            env.respects_star_topology(),
            "star topology violated: {env}"
        );
        self.stats.sent += 1;
        if self.down.contains(&env.from) || self.down.contains(&env.to) {
            self.stats.dropped += 1;
            self.emit_drop(env, DropCause::EndpointDown);
            return Routing::Dropped;
        }
        if self.partitioned.contains(&(env.from, env.to)) {
            self.stats.dropped += 1;
            self.stats.partitioned_drops += 1;
            self.emit_drop(env, DropCause::Partitioned);
            return Routing::Dropped;
        }
        let loss = self.burst_loss.unwrap_or(self.cfg.loss_probability);
        if loss > 0.0 && self.rng.chance(loss) {
            self.stats.dropped += 1;
            self.emit_drop(env, DropCause::Loss);
            return Routing::Dropped;
        }
        if self.obs.is_enabled() {
            self.obs.emit(
                Some(env.payload.gtx()),
                env.from,
                EventKind::MsgSend {
                    label: env.payload.label(),
                    from: env.from,
                    to: env.to,
                },
            );
        }
        let first = self.cfg.latency.sample(&mut self.rng);
        if self.cfg.duplicate_probability > 0.0 && self.rng.chance(self.cfg.duplicate_probability) {
            self.stats.duplicated += 1;
            let second = self.cfg.latency.sample(&mut self.rng);
            return Routing::DeliverTwice(first, second);
        }
        Routing::Deliver(first)
    }

    fn emit_drop(&self, env: &Envelope, cause: DropCause) {
        if self.obs.is_enabled() {
            self.obs.emit(
                Some(env.payload.gtx()),
                env.from,
                EventKind::MsgDrop {
                    label: env.payload.label(),
                    from: env.from,
                    to: env.to,
                    cause,
                },
            );
        }
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }
}

#[cfg(test)]
impl Router {
    /// Whether the directed link `from -> to` is currently severed.
    pub fn is_partitioned(&self, from: SiteId, to: SiteId) -> bool {
        self.partitioned.contains(&(from, to))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Payload;
    use amc_types::GlobalTxnId;

    impl Router {
        /// Zero the traffic counters.
        fn reset_stats(&mut self) {
            self.stats = NetStats::default();
        }
    }

    fn env(from: u32, to: u32) -> Envelope {
        Envelope::new(
            SiteId::new(from),
            SiteId::new(to),
            Payload::Prepare {
                gtx: GlobalTxnId::new(1),
            },
        )
    }

    #[test]
    fn fixed_latency_delivery() {
        let mut r = Router::new(RouterConfig::default(), SimRng::new(1));
        assert_eq!(
            r.route(&env(0, 1)),
            Routing::Deliver(SimDuration::from_micros(500))
        );
        assert_eq!(
            r.stats(),
            NetStats {
                sent: 1,
                ..NetStats::default()
            }
        );
    }

    #[test]
    fn down_destination_drops() {
        let mut r = Router::new(RouterConfig::default(), SimRng::new(1));
        r.site_down(SiteId::new(1));
        assert_eq!(r.route(&env(0, 1)), Routing::Dropped);
        assert!(r.is_down(SiteId::new(1)));
        r.site_up(SiteId::new(1));
        assert!(matches!(r.route(&env(0, 1)), Routing::Deliver(_)));
        let s = r.stats();
        assert_eq!((s.sent, s.dropped), (2, 1));
        assert_eq!(s.partitioned_drops, 0, "down endpoint is not a partition");
    }

    #[test]
    fn down_sender_drops() {
        let mut r = Router::new(RouterConfig::default(), SimRng::new(1));
        r.site_down(SiteId::new(1));
        assert_eq!(r.route(&env(1, 0)), Routing::Dropped);
    }

    #[test]
    #[should_panic(expected = "star topology")]
    fn local_to_local_panics() {
        let mut r = Router::new(RouterConfig::default(), SimRng::new(1));
        r.route(&env(1, 2));
    }

    #[test]
    fn loss_probability_drops_some() {
        let mut r = Router::new(
            RouterConfig {
                loss_probability: 0.5,
                ..RouterConfig::default()
            },
            SimRng::new(7),
        );
        let mut delivered = 0;
        for _ in 0..200 {
            if matches!(r.route(&env(0, 1)), Routing::Deliver(_)) {
                delivered += 1;
            }
        }
        assert!((50..150).contains(&delivered), "delivered {delivered}");
    }

    #[test]
    fn duplication_delivers_twice() {
        let mut r = Router::new(
            RouterConfig {
                duplicate_probability: 1.0,
                ..RouterConfig::default()
            },
            SimRng::new(3),
        );
        assert!(matches!(r.route(&env(0, 1)), Routing::DeliverTwice(_, _)));
        assert_eq!(r.stats().duplicated, 1);
    }

    #[test]
    fn severed_link_drops_one_direction_only() {
        let mut r = Router::new(RouterConfig::default(), SimRng::new(1));
        r.partition(SiteId::new(1), SiteId::new(0));
        assert_eq!(r.route(&env(1, 0)), Routing::Dropped, "severed direction");
        assert!(
            matches!(r.route(&env(0, 1)), Routing::Deliver(_)),
            "reverse link intact"
        );
        assert!(r.is_partitioned(SiteId::new(1), SiteId::new(0)));
        assert!(!r.is_partitioned(SiteId::new(0), SiteId::new(1)));
        let s = r.stats();
        assert_eq!(s.partitioned_drops, 1);
        assert_eq!(s.dropped, 1);
    }

    #[test]
    fn heal_restores_the_link() {
        let mut r = Router::new(RouterConfig::default(), SimRng::new(1));
        r.partition_both(SiteId::new(0), SiteId::new(2));
        assert_eq!(r.route(&env(0, 2)), Routing::Dropped);
        assert_eq!(r.route(&env(2, 0)), Routing::Dropped);
        r.heal_both(SiteId::new(0), SiteId::new(2));
        assert!(matches!(r.route(&env(0, 2)), Routing::Deliver(_)));
        assert!(matches!(r.route(&env(2, 0)), Routing::Deliver(_)));
        assert_eq!(r.stats().partitioned_drops, 2);
    }

    #[test]
    fn loss_burst_overrides_baseline_and_clears() {
        let mut r = Router::new(RouterConfig::default(), SimRng::new(9));
        r.set_loss_burst(1.0);
        for _ in 0..10 {
            assert_eq!(r.route(&env(0, 1)), Routing::Dropped);
        }
        r.clear_loss_burst();
        assert!(matches!(r.route(&env(0, 1)), Routing::Deliver(_)));
        let s = r.stats();
        assert_eq!((s.sent, s.dropped), (11, 10));
        assert_eq!(s.partitioned_drops, 0, "burst loss is not a partition");
    }

    #[test]
    fn reused_router_does_not_carry_counters_across_runs() {
        // Regression: a sweep reusing one router must not attribute run 1's
        // traffic to run 2 — either reset between runs or diff snapshots.
        let mut r = Router::new(RouterConfig::default(), SimRng::new(1));
        r.site_down(SiteId::new(1));
        r.route(&env(0, 1)); // run 1: one send, one drop
        let run1 = r.stats();
        assert_eq!((run1.sent, run1.dropped), (1, 1));

        // Snapshot-delta view of run 2.
        r.site_up(SiteId::new(1));
        r.route(&env(0, 1));
        let run2 = r.stats();
        let delta = (run2.sent - run1.sent, run2.dropped - run1.dropped);
        assert_eq!(delta, (1, 0), "delta is per-run");

        // Reset view of run 3.
        r.reset_stats();
        assert_eq!(r.stats(), NetStats::default());
        r.route(&env(0, 1));
        let run3 = r.stats();
        assert_eq!((run3.sent, run3.dropped), (1, 0), "reset is per-run");
    }

    #[test]
    fn obs_sink_sees_sends_and_drop_causes() {
        let sink = amc_obs::ObsSink::enabled(16);
        let mut r = Router::new(RouterConfig::default(), SimRng::new(1));
        r.attach_obs(sink.clone());
        r.route(&env(0, 1));
        r.partition(SiteId::new(0), SiteId::new(1));
        r.route(&env(0, 1));
        r.site_down(SiteId::new(1));
        r.route(&env(0, 1));
        let log = sink.snapshot();
        let kinds: Vec<&'static str> = log.events().map(|e| e.kind.label()).collect();
        assert_eq!(kinds, vec!["msg-send", "msg-drop", "msg-drop"]);
        let causes: Vec<DropCause> = log
            .events()
            .filter_map(|e| match e.kind {
                EventKind::MsgDrop { cause, .. } => Some(cause),
                _ => None,
            })
            .collect();
        assert_eq!(
            causes,
            vec![DropCause::Partitioned, DropCause::EndpointDown]
        );
        assert!(log.events().all(|e| e.txn == Some(GlobalTxnId::new(1))));
    }

    #[test]
    fn same_seed_same_decisions() {
        let cfg = RouterConfig {
            loss_probability: 0.3,
            latency: LatencyModel::Uniform(SimDuration(100), SimDuration(900)),
            duplicate_probability: 0.2,
        };
        let mut a = Router::new(cfg.clone(), SimRng::new(5));
        let mut b = Router::new(cfg, SimRng::new(5));
        for _ in 0..100 {
            assert_eq!(a.route(&env(0, 1)), b.route(&env(0, 1)));
        }
    }
}
