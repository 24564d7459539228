//! Quickstart: build a three-site federation, run one global transaction
//! under the paper's commit-before protocol, and inspect the message flow.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use amc::core::{Federation, FederationConfig, ProtocolKind, TxnOutcome};
use amc::types::{ObjectId, Operation, SiteId, Value};
use std::collections::BTreeMap;

fn main() {
    // Three "existing" database systems behind sealed begin/commit/abort
    // interfaces, coordinated by a central system (Fig. 1 of the paper).
    let mut federation = Federation::new(FederationConfig::uniform(3, ProtocolKind::CommitBefore));
    // Keep the message trace this example prints at the end (recording is
    // opt-in: a federation that only runs transactions keeps nothing).
    federation.set_recording(true, true);

    // Each site owns a slice of the object space. Load an account per site.
    let account = |site: u32| ObjectId::new(u64::from(site) * (1 << 32));
    for s in 1..=3u32 {
        federation
            .load_site(SiteId::new(s), &[(account(s), Value::counter(1_000))])
            .expect("load");
    }

    // A global transaction: move 250 from site 1's account to site 3's,
    // and audit site 2's balance along the way.
    let program: BTreeMap<SiteId, Vec<Operation>> = BTreeMap::from([
        (
            SiteId::new(1),
            vec![Operation::Increment {
                obj: account(1),
                delta: -250,
            }],
        ),
        (SiteId::new(2), vec![Operation::Read { obj: account(2) }]),
        (
            SiteId::new(3),
            vec![Operation::Increment {
                obj: account(3),
                delta: 250,
            }],
        ),
    ]);

    let report = federation.run_transaction(&program).expect("protocol run");
    assert_eq!(report.outcome, TxnOutcome::Committed);

    println!("outcome      : {:?}", report.outcome);
    println!("messages     : {}", report.messages);
    println!("latency      : {:?}", report.latency);
    println!();
    println!("message flow (note: no decision round on the commit path —");
    println!("locals committed before the global decision, §3.3):");
    for message in federation.events().message_labels(report.gtx) {
        println!("  {message}");
    }
    println!();

    let dumps = federation.dumps().expect("dump");
    for s in 1..=3u32 {
        let balance = dumps[&SiteId::new(s)][&account(s)];
        println!("site {s} account balance: {balance}");
    }
    assert_eq!(dumps[&SiteId::new(1)][&account(1)], Value::counter(750));
    assert_eq!(dumps[&SiteId::new(3)][&account(3)], Value::counter(1_250));
}
