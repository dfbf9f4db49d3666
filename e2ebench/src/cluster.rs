//! Set-up shared by the TCP workloads: the seeded corpus, a durable
//! `dwqa-server` primary and one sync standby, both in this process.

use dwqa_bench::{build_fixture, daily_questions, FixtureConfig};
use dwqa_common::Month;
use dwqa_core::IntegrationPipeline;
use dwqa_corpus::GroundTruth;
use dwqa_server::{QaClient, QaServer, ReplicationConfig, ReplicationMode, ServerConfig};
use dwqa_store::{FsyncPolicy, StoreConfig};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The WAL flush policy of the primary's store: `fdatasync` after every
/// 8th append.
pub const FSYNC_EVERY: u32 = 8;

/// Server worker threads (the host has 2 CPUs).
pub const WORKERS: usize = 2;

/// The months a fixture of `n` months covers, from January 2004.
pub fn months(n: usize) -> Vec<(i32, Month)> {
    (0..n)
        .map(|i| {
            let month = Month::ALL[i % 12];
            (2004 + (i / 12) as i32, month)
        })
        .collect()
}

/// The paper's per-day questions over every distinct city and month of
/// the fixture, with the `(city, date)` point each one asks about.
pub fn questions(months: &[(i32, Month)]) -> Vec<(String, (String, dwqa_common::Date))> {
    let mut cities: Vec<&str> = dwqa_corpus::default_cities()
        .iter()
        .map(|c| c.city)
        .collect();
    cities.dedup();
    let mut out = Vec::new();
    for &(year, month) in months {
        for city in &cities {
            let days = dwqa_common::Date::month_days(year, month);
            for (q, day) in daily_questions(city, year, month).into_iter().zip(days) {
                out.push((q, ((*city).to_owned(), day)));
            }
        }
    }
    out
}

/// A running primary with one subscribed sync standby.
pub struct Cluster {
    /// The durable primary the load generator talks to.
    pub primary: QaServer,
    /// The warm standby applying the primary's WAL frames.
    pub standby: QaServer,
    /// The corpus ground truth.
    pub truth: GroundTruth,
    store_dir: PathBuf,
}

fn server_config() -> ServerConfig {
    ServerConfig::builder()
        .workers(WORKERS)
        .queue_capacity(1024)
        // One load-generating client: no rate limit applies.
        .rate_burst(1 << 20)
        .rate_per_sec(1.0e9)
        .tracing(false)
        .build()
        .expect("server config is valid")
}

fn repl_config() -> ReplicationConfig {
    ReplicationConfig::builder()
        .mode(ReplicationMode::Sync { quorum: 1 })
        .build()
        .expect("replication config is valid")
}

fn pipeline(seed: u64, months: &[(i32, Month)]) -> (IntegrationPipeline, GroundTruth) {
    let fixture = build_fixture(FixtureConfig {
        seed,
        months: months.to_vec(),
        ..FixtureConfig::default()
    });
    (fixture.pipeline, fixture.truth)
}

impl Cluster {
    /// Builds both pipelines from the seeded corpus, attaches the
    /// primary's store under `store_dir`, starts both servers and waits
    /// until the standby has subscribed.
    pub fn start(seed: u64, months: &[(i32, Month)], store_dir: &Path) -> Cluster {
        let _ = std::fs::remove_dir_all(store_dir);
        let (mut primary_pipe, truth) = pipeline(seed, months);
        let (standby_pipe, _) = pipeline(seed, months);
        let store_cfg = StoreConfig::builder()
            .fsync(FsyncPolicy::EveryN(FSYNC_EVERY))
            .build()
            .expect("store config is valid");
        primary_pipe
            .attach_store_with(store_dir, store_cfg)
            .unwrap_or_else(|e| panic!("attach store at {}: {e}", store_dir.display()));
        let primary = QaServer::start_primary(
            primary_pipe,
            server_config(),
            "127.0.0.1:0",
            "127.0.0.1:0",
            repl_config(),
        )
        .unwrap_or_else(|e| panic!("start primary: {e}"));
        let repl_addr = primary
            .replication_addr()
            .expect("a primary has a replication address");
        let standby = QaServer::start_standby(
            standby_pipe,
            server_config(),
            "127.0.0.1:0",
            &repl_addr.to_string(),
            repl_config(),
        )
        .unwrap_or_else(|e| panic!("start standby: {e}"));
        let cluster = Cluster {
            primary,
            standby,
            truth,
            store_dir: store_dir.to_owned(),
        };
        cluster.await_subscribed();
        cluster
    }

    fn await_subscribed(&self) {
        let mut client = QaClient::connect(self.primary.local_addr())
            .unwrap_or_else(|e| panic!("connect to primary: {e}"));
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let report = client
                .replicas()
                .unwrap_or_else(|e| panic!("replicas: {e}"))
                .replicas
                .expect("a replicas reply carries a report");
            if report.peers.iter().any(|p| p.connected) {
                return;
            }
            assert!(Instant::now() < deadline, "standby never subscribed");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Waits until the standby has applied everything the primary
    /// committed, then drains both servers and hands back their
    /// pipelines (primary, standby). The store directory is removed.
    pub fn stop(self) -> (IntegrationPipeline, IntegrationPipeline) {
        let mut client = QaClient::connect(self.primary.local_addr())
            .unwrap_or_else(|e| panic!("connect to primary: {e}"));
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let report = client
                .replicas()
                .unwrap_or_else(|e| panic!("replicas: {e}"))
                .replicas
                .expect("a replicas reply carries a report");
            let caught_up = report
                .peers
                .iter()
                .all(|p| p.connected && p.acked_seq >= report.next_seq);
            if caught_up {
                break;
            }
            assert!(Instant::now() < deadline, "standby never caught up");
            std::thread::sleep(Duration::from_millis(2));
        }
        drop(client);
        let primary = self
            .primary
            .join()
            .expect("drained primary keeps its pipeline");
        let standby = self
            .standby
            .join()
            .expect("drained standby keeps its pipeline");
        let _ = std::fs::remove_dir_all(&self.store_dir);
        (primary, standby)
    }
}
