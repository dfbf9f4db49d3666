//! `dwqa-server` — the integrated QA system as a long-lived,
//! multi-client network service.
//!
//! The paper's model ends at a single analyst feeding answers back into
//! the warehouse; this crate turns that into a shared service. A
//! [`QaServer`] owns an [`dwqa_engine::QaEngine`] (concurrent read path,
//! answer cache) plus the [`dwqa_core::IntegrationPipeline`] write path,
//! and speaks a JSON-lines protocol over TCP:
//!
//! * **`ask` / `batch`** — answer questions through the engine's read
//!   path (cached, deadline-bounded, fault-hardened);
//! * **`feedback`** — answer *and* feed the results into the warehouse
//!   through the serialized transactional write path;
//! * **`stats`** — the shared metrics registry as one name → value
//!   snapshot: server, engine, retrieval, warehouse, store and
//!   replication counters, gauges and latency summaries;
//! * **`replicas`** — replication role, position, and peer status;
//! * **`promote`** — promote a warm standby to primary;
//! * **`drain`** — begin graceful shutdown.
//!
//! The service degrades explicitly instead of collapsing under load:
//!
//! * a **bounded admission queue** — when full, requests are shed with a
//!   `busy` response carrying a retry-after hint, never silently queued
//!   without bound;
//! * **per-client token buckets** — one client cannot starve the rest;
//! * **fair round-robin dequeue** across clients;
//! * **deadline propagation** — a request's `deadline_ms` rides into the
//!   engine as the per-question wall-clock budget;
//! * **graceful drain** — new work is rejected, every admitted question
//!   completes (feedback transactions commit or roll back, never
//!   half-apply), then sockets close and [`QaServer::join`] hands the
//!   warehouse back.
//!
//! Every admission decision (admitted / shed / rate-limited / drained)
//! is a `dwqa-obs` counter, and each request runs under a `request`
//! span when tracing is enabled.
//!
//! For high availability, a primary [`QaServer`] can ship its durable
//! WAL frames to warm standbys that serve reads and take over —
//! losslessly, under sync replication — when the primary dies: see
//! [`repl`] and DESIGN.md §15.
//!
//! ```no_run
//! use dwqa_server::{QaClient, QaServer, ServerConfig};
//!
//! let pipeline = dwqa_bench::build_fixture(Default::default()).pipeline;
//! let cfg = ServerConfig::builder().workers(2).build().unwrap();
//! let server = QaServer::start(pipeline, cfg, "127.0.0.1:0").unwrap();
//! let mut client = QaClient::connect(server.local_addr()).unwrap();
//! let response = client.ask("what is the temperature in Madrid?").unwrap();
//! client.drain().unwrap();
//! let _warehouse = server.join(); // Some(pipeline): nothing was lost
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod bucket;
pub mod client;
pub mod config;
pub mod protocol;
pub mod queue;
pub mod repl;
pub mod server;

pub use bucket::TokenBucket;
pub use client::QaClient;
pub use config::{ServerConfig, ServerConfigBuilder};
pub use protocol::{
    BusyReason, Command, PeerStatus, ProtocolError, ReplicasReport, Request, Response, Status,
};
pub use repl::{ReplicationConfig, ReplicationConfigBuilder, ReplicationMode, Role};
pub use server::QaServer;
