//! # amc-rpc
//!
//! The networked federation runtime: the paper's integrated system as it
//! actually deploys — a central coordinator talking to independent local
//! systems over a network, not over function calls.
//!
//! * [`wire`] — the length-prefixed framed codec (version byte + binary
//!   body), its layout declared once per type in one table, over the
//!   `amc-net` [`amc_net::Payload`] vocabulary, so the simulator and the
//!   networked runtime share one message grammar;
//! * [`server`] — the one blocking accept/serve/reap/shutdown runtime
//!   (thread-per-connection, parameterised by a frame handler) and the
//!   **site server** on it: each request dispatched to the same
//!   `LocalCommManager` the in-process runtime uses. Malformed frames
//!   kill their connection, never the server;
//! * [`event_loop`] — the **event-loop site server**: symmetric threads
//!   on one one-shot epoll set, the thread that reads a request running
//!   the *same* site handler and writing the reply, incremental frame
//!   decode, and explicit per-connection backpressure (excess requests
//!   are shed with `BufferExhausted`, not queued). Same spawn surface and
//!   wire vocabulary as [`server`]; not deployed — the benchmark's
//!   `tcp-mux` workload measures it;
//! * [`coord`] — the TCP **coordinator server** + client: one
//!   [`amc_core::Federation`] shard slot behind the blocking runtime
//!   speaking the coordinator frames (kinds `5`/`6`), so a remote router
//!   or load generator drives whole global transactions in one round
//!   trip;
//! * [`client`] — the one **request core**: request ids, per-request
//!   deadlines, capped jittered exponential-backoff retries (transport
//!   failures and load-sheds alike), automatic reconnect, all surfaced
//!   as `amc-obs` events so `explain` works on networked runs — plus the
//!   pooled link (a connection checked out per request) behind
//!   [`RpcClient`];
//! * [`mux`] — the multiplexed pipelining link behind [`MuxClient`]: one
//!   shared connection per site, any number of concurrent callers, a
//!   waiting caller reading everyone's replies, matched by request id in
//!   whatever order the server finishes them, until its own is in; not
//!   deployed — the client half of the benchmark's `tcp-mux` workload;
//! * [`transport`] — the [`amc_net::transport::FederationTransport`] impl
//!   putting one request core per site under
//!   `amc_core::Federation::with_transport`;
//! * [`fleet`] — the deployment axis ([`Wire`]: in-process, or
//!   thread-per-connection site servers under the pooled client) and the
//!   one loopback builder ([`Fleet`]) the experiments and the process
//!   tests deploy through, over the sites `amc_core::Site::open` builds
//!   and `amc_core::Site::restart` restarts;
//! * [`cli`] — the bodies of the `amc-site-server`, `amc-loadgen`,
//!   `amc-coord-server` and `amc-paxos-coord` binaries (declared by the
//!   root package), which run the same pieces as separate OS processes;
//!   experiment E10 measures what the wire costs relative to the
//!   in-process dispatcher.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cli;
pub mod client;
pub mod coord;
pub mod event_loop;
pub mod fleet;
pub mod mux;
pub mod server;
pub mod transport;
pub mod wire;

pub use client::{RetryPolicy, RpcClient};
pub use coord::{CoordClient, CoordInfo, CoordServer};
pub use event_loop::{EventServer, EventServerStats, MAX_IN_FLIGHT_PER_CONN};
pub use fleet::{Fleet, Wire};
pub use mux::MuxClient;
pub use server::SiteServer;
pub use transport::TcpTransport;
pub use wire::{Frame, FrameBuffer, FrameReadError, WireError, WIRE_VERSION};
