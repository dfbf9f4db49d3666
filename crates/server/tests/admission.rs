//! Admission-control invariants: the token bucket can never admit more
//! than `burst + rate · elapsed` requests no matter how takes are timed
//! (property test), and a flood of malformed frames is answered line by
//! line without killing the connection or starving other clients.

use dwqa_bench::{build_fixture, monthly_question, FixtureConfig};
use dwqa_common::Month;
use dwqa_corpus::PageStyle;
use dwqa_server::{QaClient, QaServer, ServerConfig, Status, TokenBucket};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::time::{Duration, Instant};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For any take schedule, the number of admitted requests never
    /// exceeds the bucket's mathematical ceiling `burst + rate·elapsed`
    /// — the invariant that makes per-client rate limiting a guarantee
    /// rather than a suggestion.
    #[test]
    fn prop_admissions_never_exceed_burst_plus_refill(
        burst in 1u32..16,
        rate_tenths in 1u64..500, // 0.1 ..= 49.9 tokens/sec
        deltas_ms in proptest::collection::vec(0u64..400, 1..60),
    ) {
        let rate = rate_tenths as f64 / 10.0;
        let t0 = Instant::now();
        let mut bucket = TokenBucket::new(burst, rate, t0);
        let mut now_ms = 0u64;
        let mut admitted = 0u64;
        for &delta in &deltas_ms {
            now_ms += delta;
            let now = t0 + Duration::from_millis(now_ms);
            if bucket.try_take(now).is_ok() {
                admitted += 1;
            }
            let ceiling = f64::from(burst) + rate * (now_ms as f64 / 1000.0);
            prop_assert!(
                admitted as f64 <= ceiling + 1e-6,
                "admitted {admitted} > burst {burst} + {rate}/s over {now_ms}ms"
            );
        }
    }

    /// A refusal's retry hint is honest: waiting exactly that long (plus
    /// a rounding microsecond) always yields a token.
    #[test]
    fn prop_retry_hints_are_sufficient(
        burst in 1u32..8,
        rate_tenths in 1u64..500,
        drains in 1u32..20,
    ) {
        let rate = rate_tenths as f64 / 10.0;
        let t0 = Instant::now();
        let mut bucket = TokenBucket::new(burst, rate, t0);
        for _ in 0..drains {
            let _ = bucket.try_take(t0);
        }
        if let Err(wait) = bucket.clone().try_take(t0) {
            let retry = t0 + wait + Duration::from_micros(1);
            prop_assert!(
                bucket.try_take(retry).is_ok(),
                "hint {wait:?} did not cover the deficit"
            );
        }
    }
}

/// ~200 garbage lines on a raw socket: every line is answered with a
/// typed error response on that same connection, the connection then
/// still serves a well-formed request, and a concurrent client's
/// question is never starved behind the flood.
#[test]
fn malformed_frame_flood_is_survivable_and_fair() {
    let fixture = build_fixture(FixtureConfig {
        styles: vec![PageStyle::Prose],
        distractors: 2,
        ..FixtureConfig::default()
    })
    .pipeline;
    let cfg = ServerConfig::builder()
        .workers(1)
        .queue_capacity(16)
        .rate_burst(64)
        .rate_per_sec(100_000.0)
        .build()
        .unwrap();
    let server = QaServer::start(fixture, cfg, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // The polite client runs concurrently with the flood.
    let polite = std::thread::spawn(move || {
        let mut client = QaClient::connect(addr).unwrap();
        let q = monthly_question("Barcelona", 2004, Month::January);
        client.ask_with_retry(&q, 50).unwrap()
    });

    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let garbage: &[&str] = &[
        "this is not json",
        "{\"id\":",
        "{}",
        "[1,2,3]",
        "{\"id\":\"not a number\",\"kind\":\"ask\"}",
        "\u{0}\u{1}\u{2}binary noise",
        "{\"id\":5,\"kind\":\"no-such-kind\"}",
        "{\"id\":6,\"kind\":\"ask\"}", // ask without a question
    ];
    let floods = 200usize;
    for i in 0..floods {
        let line = garbage[i % garbage.len()];
        raw.write_all(line.as_bytes()).unwrap();
        raw.write_all(b"\n").unwrap();
    }
    raw.flush().unwrap();

    // Every flooded line comes back as a per-line error, in order, on
    // the same connection — none of them fatal.
    for i in 0..floods {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.contains("\"Error\""),
            "flood line {i} got a non-error response: {line}"
        );
    }

    // The connection survives: a hand-written well-formed frame is
    // served normally.
    raw.write_all(b"{\"id\":1,\"kind\":\"stats\"}\n").unwrap();
    raw.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"Ok\""), "stats after flood failed: {line}");
    assert!(line.contains("\"server.protocol_errors\":"), "{line}");
    drop(raw);

    // The flood never starved the concurrent client.
    let resp = polite.join().unwrap();
    assert_eq!(resp.status, Status::Ok);
    assert!(!resp.answers.unwrap()[0].is_empty());

    let errors = server
        .metrics()
        .counter_value(dwqa_obs::names::SERVER_PROTOCOL_ERRORS);
    assert!(errors >= floods as u64, "counted {errors} protocol errors");
    assert!(server.join().is_some());
}
