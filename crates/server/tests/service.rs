//! End-to-end service tests over real sockets: concurrency equivalence
//! with the batch engine, explicit backpressure, deadline propagation,
//! and the drain guarantee (every admitted question completes; feedback
//! transactions never half-apply).

use dwqa_bench::{build_fixture, daily_questions, monthly_question, FixtureConfig};
use dwqa_common::Month;
use dwqa_core::IntegrationPipeline;
use dwqa_corpus::PageStyle;
use dwqa_engine::QaEngine;
use dwqa_qa::Answer;
use dwqa_server::{BusyReason, QaClient, QaServer, Request, ServerConfig, Status};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io::Write;
use std::net::SocketAddr;
use std::sync::OnceLock;
use std::time::Duration;

fn small_fixture() -> IntegrationPipeline {
    build_fixture(FixtureConfig {
        styles: vec![PageStyle::Prose],
        distractors: 4,
        ..FixtureConfig::default()
    })
    .pipeline
}

fn question_pool() -> Vec<String> {
    let mut pool = Vec::new();
    for city in ["Barcelona", "Madrid", "New York"] {
        pool.extend(
            daily_questions(city, 2004, Month::January)
                .into_iter()
                .take(4),
        );
        pool.push(monthly_question(city, 2004, Month::January));
    }
    pool
}

/// One shared ask-only server plus the reference answers a sequential
/// engine produces over an identical fixture. Reused across proptest
/// cases: `ask` never mutates the warehouse, so the server is as
/// deterministic on the hundredth case as on the first.
struct SharedServer {
    addr: SocketAddr,
    expected: BTreeMap<String, Vec<Answer>>,
}

fn shared_server() -> &'static SharedServer {
    static SHARED: OnceLock<SharedServer> = OnceLock::new();
    SHARED.get_or_init(|| {
        let reference = small_fixture();
        let engine = QaEngine::new(&reference).with_workers(1);
        let expected = question_pool()
            .into_iter()
            .map(|q| {
                let answers = engine.answer(&q);
                (q, answers)
            })
            .collect();
        let cfg = ServerConfig::builder()
            .workers(3)
            .queue_capacity(64)
            .rate_burst(1024)
            .rate_per_sec(100_000.0)
            .build()
            .unwrap();
        let server = QaServer::start(small_fixture(), cfg, "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        // Keep the service alive for the whole test binary.
        std::mem::forget(server);
        SharedServer { addr, expected }
    })
}

fn permutation(n: usize, seed: u64) -> Vec<usize> {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    idx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any interleaving of N concurrent clients asking a permuted
    /// subset of the pool yields exactly the answers one engine
    /// produces for the same questions: admission order, client count
    /// and round-robin scheduling are invisible in the results.
    #[test]
    fn concurrent_clients_see_single_engine_answers(
        subset in proptest::sample::subsequence(question_pool(), 1..=9),
        clients in 2usize..=4,
        seed in 0u64..1_000_000,
    ) {
        let shared = shared_server();
        let order = permutation(subset.len(), seed);
        let questions: Vec<String> = order.iter().map(|&i| subset[i].clone()).collect();
        // Deal the permuted questions round-robin across the clients.
        let mut per_client: Vec<Vec<String>> = vec![Vec::new(); clients];
        for (i, q) in questions.iter().enumerate() {
            per_client[i % clients].push(q.clone());
        }
        let results: Vec<(String, Vec<Answer>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = per_client
                .into_iter()
                .map(|mine| {
                    scope.spawn(move || {
                        let mut client = QaClient::connect(shared.addr).unwrap();
                        mine.into_iter()
                            .map(|q| {
                                let resp = client.ask_with_retry(&q, 50).unwrap();
                                assert_eq!(resp.status, Status::Ok, "{resp:?}");
                                let answers = resp.answers.unwrap().remove(0);
                                (q, answers)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        prop_assert_eq!(results.len(), questions.len());
        for (question, answers) in results {
            prop_assert_eq!(
                &answers,
                shared.expected.get(&question).unwrap(),
                "answers diverged for {}",
                question
            );
        }
    }
}

/// A full admission queue sheds with an explicit `busy` + retry hint:
/// nothing is silently dropped, nothing queues without bound.
#[test]
fn saturation_sheds_with_busy_and_retry_hint() {
    let cfg = ServerConfig::builder()
        .workers(1)
        .queue_capacity(1)
        .rate_burst(1024)
        .rate_per_sec(100_000.0)
        .build()
        .unwrap();
    let server = QaServer::start(small_fixture(), cfg, "127.0.0.1:0").unwrap();
    let mut client = QaClient::connect(server.local_addr()).unwrap();

    // One pipelined burst of distinct (uncacheable) questions, far
    // faster than one worker can execute them.
    let questions = question_pool();
    for (i, q) in questions.iter().enumerate() {
        client.send(&Request::ask(i as u64 + 1, q)).unwrap();
    }
    let mut ok = 0;
    let mut shed = 0;
    for _ in 0..questions.len() {
        let resp = client.recv().unwrap();
        match resp.status {
            Status::Ok => ok += 1,
            Status::Busy => {
                assert_eq!(resp.reason, Some(BusyReason::Shed));
                assert!(resp.retry_after_ms.unwrap() >= 1);
                shed += 1;
            }
            Status::Error => panic!("unexpected error: {resp:?}"),
        }
    }
    // Every request was answered one way or the other, and the burst
    // overwhelmed a capacity-1 queue.
    assert_eq!(ok + shed, questions.len());
    assert!(ok >= 1, "at least the first request is admitted");
    assert!(shed >= 1, "a capacity-1 queue must shed under a burst");

    let shed_counter = server.metrics().counter_value(dwqa_obs::names::SERVER_SHED);
    assert_eq!(shed_counter, shed as u64);
    assert!(server.join().is_some());
}

/// An empty token bucket refuses with `RateLimited` and a hint sized
/// by the refill rate; other clients are unaffected.
#[test]
fn token_bucket_limits_one_client_without_starving_another() {
    let cfg = ServerConfig::builder()
        .workers(1)
        .queue_capacity(16)
        .rate_burst(2)
        .rate_per_sec(0.5)
        .build()
        .unwrap();
    let server = QaServer::start(small_fixture(), cfg, "127.0.0.1:0").unwrap();
    let q = monthly_question("Barcelona", 2004, Month::January);

    let mut greedy = QaClient::connect(server.local_addr()).unwrap();
    assert_eq!(greedy.ask(&q).unwrap().status, Status::Ok);
    assert_eq!(greedy.ask(&q).unwrap().status, Status::Ok);
    let third = greedy.ask(&q).unwrap();
    assert_eq!(third.status, Status::Busy);
    assert_eq!(third.reason, Some(BusyReason::RateLimited));
    // Half a token per second: the missing token is ~2s away.
    assert!(third.retry_after_ms.unwrap() >= 1_000);

    // A fresh client has its own bucket and sails through.
    let mut polite = QaClient::connect(server.local_addr()).unwrap();
    assert_eq!(polite.ask(&q).unwrap().status, Status::Ok);
    assert!(server.join().is_some());
}

/// `deadline_ms` rides from the request into the engine: a zero budget
/// expires before the pipeline runs and comes back `timed-out`.
#[test]
fn request_deadlines_propagate_into_the_engine() {
    let cfg = ServerConfig::builder().workers(1).build().unwrap();
    let server = QaServer::start(small_fixture(), cfg, "127.0.0.1:0").unwrap();
    let mut client = QaClient::connect(server.local_addr()).unwrap();
    let q = monthly_question("Madrid", 2004, Month::January);

    let resp = client.ask_with_deadline(&q, 0).unwrap();
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(resp.outcomes.unwrap(), vec!["timed-out".to_owned()]);
    assert!(resp.answers.unwrap()[0].is_empty());

    // Without the zero budget the same question answers cleanly.
    let resp = client.ask(&q).unwrap();
    assert_eq!(resp.outcomes.unwrap(), vec!["ok".to_owned()]);
    assert!(!resp.answers.unwrap()[0].is_empty());

    // The clean answer landed in the answer cache, and the stats verb
    // reports its entry count.
    let stats = client.stats().unwrap().stats.unwrap();
    assert!(stats.cache_entries >= 1, "answer should be cached");
    assert!(server.join().is_some());
}

/// Malformed and invalid lines get `error` responses naming the
/// problem; the connection survives and keeps serving.
#[test]
fn protocol_errors_are_reported_not_fatal() {
    let cfg = ServerConfig::builder()
        .workers(1)
        .max_batch(2)
        .build()
        .unwrap();
    let server = QaServer::start(small_fixture(), cfg, "127.0.0.1:0").unwrap();
    let mut client = QaClient::connect(server.local_addr()).unwrap();

    // Raw garbage on the socket.
    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    drop(raw.write_all(b"this is not json\n"));
    drop(raw);

    let resp = client
        .request(&Request {
            id: 7,
            kind: "sing".to_owned(),
            question: None,
            questions: None,
            deadline_ms: None,
        })
        .unwrap();
    assert_eq!(resp.status, Status::Error);
    assert!(resp.detail.unwrap().contains("unknown request kind"));

    let too_big: Vec<String> = (0..3).map(|i| format!("q{i}")).collect();
    let resp = client.batch(&too_big).unwrap();
    assert_eq!(resp.status, Status::Error);
    assert!(resp.detail.unwrap().contains("exceeds the limit"));

    // Still serving: stats works on the same connection.
    let resp = client.stats().unwrap();
    assert_eq!(resp.status, Status::Ok);
    let stats = resp.stats.unwrap();
    assert!(stats.protocol_errors >= 2);
    assert!(server.join().is_some());
}

/// The drain guarantee: every admitted feedback transaction commits
/// before sockets close, the drained warehouse holds exactly the rows
/// the responses reported, and post-drain work is refused, not lost
/// silently.
#[test]
fn drain_completes_every_admitted_question_and_returns_the_warehouse() {
    let cfg = ServerConfig::builder()
        .workers(1)
        .queue_capacity(16)
        .rate_burst(64)
        .rate_per_sec(100_000.0)
        .drain_grace(Duration::from_secs(30))
        .build()
        .unwrap();
    let server = QaServer::start(small_fixture(), cfg, "127.0.0.1:0").unwrap();
    let mut client = QaClient::connect(server.local_addr()).unwrap();

    // Pipeline four feedback transactions and the drain behind them,
    // in one burst: the drain must not cut off the admitted four.
    let batches: Vec<Vec<String>> = vec![
        daily_questions("Barcelona", 2004, Month::January)[..3].to_vec(),
        daily_questions("Madrid", 2004, Month::January)[..3].to_vec(),
        daily_questions("New York", 2004, Month::January)[..2].to_vec(),
        vec![monthly_question("Barcelona", 2004, Month::January)],
    ];
    for (i, batch) in batches.iter().enumerate() {
        client
            .send(&Request::feedback(i as u64 + 1, batch))
            .unwrap();
    }
    client.send(&Request::drain(99)).unwrap();

    // Five responses arrive (in any order — the ack is written by the
    // connection thread, the transactions by the worker).
    let mut loaded_total = 0u64;
    let mut seen = Vec::new();
    for _ in 0..5 {
        let resp = client.recv().unwrap();
        seen.push(resp.id);
        if resp.id == 99 {
            assert_eq!(resp.status, Status::Ok);
        } else {
            assert_eq!(resp.status, Status::Ok, "admitted feedback lost: {resp:?}");
            loaded_total += resp.loaded.unwrap();
        }
    }
    seen.sort_unstable();
    assert_eq!(seen, vec![1, 2, 3, 4, 99]);
    assert!(loaded_total > 0);

    // The server hands the pipeline back, and the warehouse holds
    // exactly what the committed transactions reported.
    let pipeline = server.join().unwrap();
    assert_eq!(
        pipeline.warehouse.fact("City Weather").unwrap().len(),
        loaded_total as usize
    );
}

/// New work arriving while a drain is in progress is refused with an
/// explicit `Draining` busy, never silently dropped.
#[test]
fn work_during_drain_is_refused_with_draining() {
    let cfg = ServerConfig::builder()
        .workers(1)
        .queue_capacity(16)
        .rate_burst(64)
        .rate_per_sec(100_000.0)
        .cache_capacity(0) // recompute every question: keeps the worker busy
        .drain_grace(Duration::from_secs(30))
        .build()
        .unwrap();
    let server = QaServer::start(small_fixture(), cfg, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let mut client = QaClient::connect(addr).unwrap();

    // Occupy the single worker with a long uncached batch, wait until
    // it is actually admitted, then start the drain underneath it.
    let slow: Vec<String> = std::iter::repeat(question_pool())
        .take(4)
        .flatten()
        .collect();
    client.send(&Request::batch(1, &slow)).unwrap();
    let admitted = || {
        server
            .metrics()
            .counter_value(dwqa_obs::names::SERVER_ADMITTED)
    };
    while admitted() == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    server.drain();
    // Give the accept loop a beat to flip the queue into draining.
    std::thread::sleep(Duration::from_millis(20));

    // The already-admitted batch completes; fresh work is refused
    // while it runs.
    client.send(&Request::ask(2, &slow[0])).unwrap();
    let mut by_id = BTreeMap::new();
    for _ in 0..2 {
        let resp = client.recv().unwrap();
        by_id.insert(resp.id, resp);
    }
    assert_eq!(by_id[&1].status, Status::Ok, "admitted batch must finish");
    let refused = &by_id[&2];
    assert_eq!(refused.status, Status::Busy);
    assert_eq!(refused.reason, Some(BusyReason::Draining));

    assert!(server.join().is_some());
    // And the listener is gone.
    assert!(
        std::net::TcpStream::connect(addr).is_err() || {
            // Some platforms accept then reset; either way no service.
            let mut c = QaClient::connect(addr).unwrap();
            c.stats().is_err()
        }
    );
}

/// The read deadline drops idle (or hung) clients: the connection
/// thread exits, the client gauge falls back to zero, and a drain is
/// never stalled by a socket that will not speak.
#[test]
fn idle_clients_are_disconnected_by_the_read_deadline() {
    let cfg = ServerConfig::builder()
        .workers(1)
        .read_timeout(Some(Duration::from_millis(100)))
        .build()
        .unwrap();
    let server = QaServer::start(small_fixture(), cfg, "127.0.0.1:0").unwrap();
    let mut idle = QaClient::connect(server.local_addr()).unwrap();
    let q = monthly_question("Barcelona", 2004, Month::January);
    assert_eq!(idle.ask(&q).unwrap().status, Status::Ok);

    // Go silent. The server must hang up on its own.
    let clients = || {
        server
            .metrics()
            .gauge_value(dwqa_obs::names::SERVER_CLIENTS)
    };
    assert_eq!(clients(), 1);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while clients() != 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(clients(), 0, "idle connection was not disconnected");
    // A fresh client is served normally afterwards.
    let mut fresh = QaClient::connect(server.local_addr()).unwrap();
    assert_eq!(fresh.ask(&q).unwrap().status, Status::Ok);
    assert!(server.join().is_some());
}

/// Durability across a restart: feedback acknowledged `ok` by a
/// durable service survives losing the process — a fresh pipeline
/// recovering from the same store directory holds the fed rows and
/// treats a replayed feedback request as pure duplicates.
#[test]
fn durable_feedback_survives_a_service_restart() {
    let dir = std::env::temp_dir().join(format!("dwqa-service-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut pipeline = small_fixture();
    pipeline.attach_store_at(&dir).unwrap();
    let cfg = ServerConfig::builder().workers(2).build().unwrap();
    let server = QaServer::start(pipeline, cfg.clone(), "127.0.0.1:0").unwrap();
    let mut client = QaClient::connect(server.local_addr()).unwrap();
    let questions = vec![monthly_question("Barcelona", 2004, Month::January)];
    let resp = client.feedback(&questions).unwrap();
    assert_eq!(resp.status, Status::Ok);
    assert!(resp.loaded.unwrap() > 0);
    let stats = client.stats().unwrap().stats.unwrap();
    assert!(stats.durable, "service should report the attached store");
    assert!(stats.wal_appends >= 1, "the commit was WAL-logged");
    let fed_json = server.join().unwrap().warehouse.to_json();

    // "Crash": a brand-new process rebuilds the seed fixture and
    // recovers checkpoint + WAL from the store directory.
    let mut fresh = small_fixture();
    let report = fresh.attach_store_at(&dir).unwrap();
    assert!(report.checkpoint_loaded);
    assert_eq!(report.transactions_replayed, 1);
    assert_eq!(
        fresh.warehouse.to_json(),
        fed_json,
        "recovery reproduces state"
    );

    // The recovered service sees the same feedback as duplicates only.
    let server = QaServer::start(fresh, cfg, "127.0.0.1:0").unwrap();
    let mut client = QaClient::connect(server.local_addr()).unwrap();
    let resp = client.feedback(&questions).unwrap();
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(resp.loaded, Some(0));
    assert!(resp.duplicates.unwrap() > 0);
    assert!(server.join().is_some());
}
