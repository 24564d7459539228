//! The one loopback fleet builder under every deployment: the same seeded
//! program stream through both [`Wire`]s leaves the same state behind,
//! and a dropped [`Fleet`] leaves nothing behind.
//!
//! This is the property every wire comparison in EXPERIMENTS.md rests on:
//! two cells built by `Fleet::spawn` differ in their wire and in nothing
//! else — same engines, same managers, same submit mode, same programs.

use amc::core::{Federation, FederationConfig, ProtocolKind, TxnOutcome};
use amc::net::marker::is_marker;
use amc::obs::ObsSink;
use amc::rpc::{Fleet, RetryPolicy, Wire};
use amc::types::{ObjectId, SiteId, Value};
use amc::workload::{fingerprint, MixGen, MixKind, MixSpec};
use std::collections::BTreeMap;
use std::net::TcpStream;

/// The pinned stream: 40 transfers of seed 0xF1EE7. A change here means
/// the generator (or `shims/rand`) changed, not the wires.
const STREAM_FP: u64 = 16_384_289_685_051_538_364;

fn spec() -> MixSpec {
    MixSpec {
        sites: 3,
        objects_per_site: 16,
        theta: 0.6,
        intended_abort_prob: 0.0,
        max_fanout: 2,
    }
}

type Dumps = BTreeMap<SiteId, BTreeMap<ObjectId, Value>>;

/// Run the stream, one transaction at a time, over a fresh fleet on
/// `wire`; return the final dumps and the addresses the fleet listened on.
fn run_over(wire: Wire, protocol: ProtocolKind) -> (Dumps, Vec<std::net::SocketAddr>) {
    let spec = spec();
    let cfg = FederationConfig::uniform(spec.sites, protocol);
    let fleet =
        Fleet::spawn(&cfg, wire, RetryPolicy::default(), ObsSink::disabled()).expect("bind");
    let addrs: Vec<_> = fleet.addrs().into_values().collect();
    assert_eq!(addrs.len(), if wire.is_tcp() { 3 } else { 0 }, "{wire:?}");

    let fed = Federation::with_transport(cfg, fleet.transport());
    for site in (1..=spec.sites).map(SiteId::new) {
        fed.load_site(site, &spec.initial_data(site)).unwrap();
    }
    let programs = MixGen::new(MixKind::Transfer, spec, 0xF1EE7).programs(40);
    assert_eq!(fingerprint(&programs), STREAM_FP, "the pinned stream moved");
    for p in &programs {
        let report = fed.run_transaction(&p.per_site).unwrap();
        assert_eq!(report.outcome, TxnOutcome::Committed, "{wire:?}");
    }
    let dumps = fed.dumps().unwrap();
    // Every listener answers while the fleet lives...
    for addr in &addrs {
        TcpStream::connect(addr).expect("a live fleet accepts");
    }
    drop(fed);
    drop(fleet);
    (dumps, addrs)
}

#[test]
fn every_wire_runs_the_same_stream_to_the_same_state() {
    for wire in Wire::ALL {
        assert_eq!(Wire::parse(wire.label()), Some(wire));
    }
    assert_eq!(Wire::parse("tcp"), None);

    for protocol in ProtocolKind::ALL {
        let (reference, _) = run_over(Wire::InProcess, protocol);
        let sum: i64 = reference
            .values()
            .flat_map(|d| d.iter())
            .filter(|(o, _)| !is_marker(**o))
            .map(|(_, v)| v.counter)
            .sum();
        assert_eq!(sum, spec().initial_sum(), "{protocol}: sum drifted");

        for wire in Wire::ALL.into_iter().filter(|w| w.is_tcp()) {
            let (dumps, addrs) = run_over(wire, protocol);
            assert_eq!(dumps, reference, "{protocol} over {}", wire.label());
            // ...and none after it is dropped: every server thread was
            // joined, so nothing is left to accept.
            for addr in addrs {
                let err = TcpStream::connect(addr).expect_err("listener outlived its fleet");
                assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused, "{addr}");
            }
        }
    }
}
