//! The load generators.
//!
//! * [`pipelined`]: open-loop arrivals on one pipelined connection, a
//!   sender thread writing each request at its intended time and a
//!   receiver thread matching replies by `id`.
//! * [`closed_and_trickle`]: a closed loop and an open-loop trickle, each
//!   on a [`Serial`] connection of its own that carries one request at a
//!   time.
//!
//! Every open-loop request is timed from its *intended* send time, so a
//! stall that delays the sender or the server also counts against every
//! request queued behind it. Closed-loop requests have no schedule and
//! are timed from the moment they are sent.

use crate::spans::SpanLog;
use dwqa_server::{Request, Response};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A request kind; each gets its own latency distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One question through the read path.
    Ask,
    /// Several questions through the read path.
    Batch,
    /// Questions answered and fed into the warehouse.
    Feedback,
}

/// One request to send.
#[derive(Debug, Clone)]
pub struct Op {
    /// The verb.
    pub kind: Kind,
    /// The question(s) it carries.
    pub questions: Vec<String>,
}

impl Op {
    fn line(&self, id: u64) -> String {
        let request = match self.kind {
            Kind::Ask => Request::ask(id, &self.questions[0]),
            Kind::Batch => Request::batch(id, &self.questions),
            Kind::Feedback => Request::feedback(id, &self.questions),
        };
        let mut line = serde_json::to_string(&request)
            .unwrap_or_else(|e| panic!("request {id} does not serialize: {e}"));
        line.push('\n');
        line
    }
}

/// An open-loop arrival.
#[derive(Debug, Clone)]
pub struct Scheduled {
    /// Intended send time, from the run's origin.
    pub at: Duration,
    /// What to send.
    pub op: Op,
}

/// Arrivals at a fixed `rate` per second over `length`, built by `op(i)`.
pub fn fixed_rate(rate: f64, length: Duration, op: impl FnMut(usize) -> Op) -> Vec<Scheduled> {
    let n = (rate * length.as_secs_f64()).round() as usize;
    (0..n)
        .map(op)
        .enumerate()
        .map(|(i, op)| Scheduled {
            at: Duration::from_secs_f64(i as f64 / rate),
            op,
        })
        .collect()
}

/// Alternating traced windows: odd windows of `length` are traced, even
/// ones are not; `toggle` switches tracing on and off.
pub struct TraceWindows {
    /// Window length.
    pub length: Duration,
    /// Switches the server's (and the benchmark's) tracing.
    pub toggle: Box<dyn Fn(bool) + Send + Sync>,
}

fn traced_at(windows: Option<&TraceWindows>, origin: Instant, at: Instant) -> bool {
    windows.is_some_and(|w| {
        let offset = at.saturating_duration_since(origin);
        (offset.as_nanos() / w.length.as_nanos()) % 2 == 1
    })
}

/// Flips traced windows until `done()` or `give_up`, then leaves tracing
/// off. Runs on the calling thread while load threads work.
fn watch(
    windows: Option<&TraceWindows>,
    origin: Instant,
    end: Instant,
    give_up: Instant,
    done: impl Fn() -> bool,
) {
    let mut traced = false;
    loop {
        let now = Instant::now();
        if let Some(w) = windows {
            let on = traced_at(windows, origin, now) && now < end;
            if on != traced {
                traced = on;
                (w.toggle)(on);
            }
        }
        if done() || now >= give_up {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    if traced {
        if let Some(w) = windows {
            (w.toggle)(false);
        }
    }
}

/// One request's fate.
#[derive(Debug, Clone)]
pub struct Record {
    /// The verb.
    pub kind: Kind,
    /// Correlation id (per connection).
    pub id: u64,
    /// Intended send time (open loop) or send time (closed loop), from
    /// the run's origin.
    pub at: Duration,
    /// From intended send time to reply; `None` when no reply came.
    pub latency: Option<Duration>,
    /// From the actual send to the reply (the client round trip).
    pub round_trip: Option<Duration>,
    /// The reply, if one came.
    pub response: Option<Response>,
    /// The question(s) sent.
    pub questions: Vec<String>,
    /// Whether the request fell in a traced window.
    pub traced: bool,
}

/// Everything a run produced.
pub struct RunLog {
    /// One record per request sent, in send order.
    pub records: Vec<Record>,
    /// How late the sender ran for each open-loop arrival, µs.
    pub send_lag_us: Vec<u64>,
}

struct Pending {
    op: Op,
    intended: Instant,
    sent: Instant,
    root: u64,
    traced: bool,
}

/// The clock and span bookkeeping both generators share.
struct Clock<'a> {
    origin: Instant,
    windows: Option<&'a TraceWindows>,
    spans: &'a SpanLog,
}

impl Clock<'_> {
    fn record(
        &self,
        id: u64,
        p: Pending,
        response: Option<Response>,
        at: Option<Instant>,
    ) -> Record {
        if let (true, Some(at)) = (p.root != 0, at) {
            self.spans
                .record_reserved(p.root, "client.request", id, None, p.intended, at);
        }
        Record {
            kind: p.op.kind,
            id,
            at: p.intended.saturating_duration_since(self.origin),
            latency: at.map(|at| at.saturating_duration_since(p.intended)),
            round_trip: at.map(|at| at.saturating_duration_since(p.sent)),
            response,
            questions: p.op.questions,
            traced: p.traced,
        }
    }

    /// Writes `op` as request `id`; returns its pending entry and
    /// whether the write succeeded.
    fn send(&self, writer: &mut TcpStream, id: u64, op: Op, intended: Instant) -> (Pending, bool) {
        let line = op.line(id);
        let traced = traced_at(self.windows, self.origin, intended);
        let root = if traced { self.spans.reserve() } else { 0 };
        let sent = Instant::now();
        let written = writer.write_all(line.as_bytes()).is_ok();
        if root != 0 {
            self.spans
                .record("client.send", id, Some(root), sent, Instant::now());
        }
        let p = Pending {
            op,
            intended,
            sent,
            root,
            traced,
        };
        (p, written)
    }

    fn received(&self, id: u64, p: &Pending, at: Instant) {
        if p.root != 0 {
            self.spans
                .record("client.recv", id, Some(p.root), at, Instant::now());
        }
    }
}

fn parse(line: &str) -> Response {
    serde_json::from_str(line.trim_end())
        .unwrap_or_else(|e| panic!("unparseable reply line {line:?}: {e}"))
}

fn sleep_until(due: Instant) -> u64 {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
    Instant::now().saturating_duration_since(due).as_micros() as u64
}

/// Runs the open-loop `arrivals` (due before `end`, measured from an
/// origin just after the call) over one pipelined connection to `addr`,
/// waiting up to `drain_timeout` after `end` for outstanding replies;
/// requests still unanswered then count as timed out.
pub fn pipelined(
    addr: SocketAddr,
    arrivals: Vec<Scheduled>,
    end: Duration,
    drain_timeout: Duration,
    windows: Option<&TraceWindows>,
    spans: &SpanLog,
) -> std::io::Result<RunLog> {
    let mut writer = TcpStream::connect(addr)?;
    writer.set_nodelay(true)?;
    let reader = writer.try_clone()?;
    let control = writer.try_clone()?;
    // A short lead so both threads run before the first arrival is due.
    let origin = Instant::now() + Duration::from_millis(20);
    let clock = Clock {
        origin,
        windows,
        spans,
    };
    let pending: Mutex<HashMap<u64, Pending>> = Mutex::new(HashMap::new());
    let done: Mutex<Vec<Record>> = Mutex::new(Vec::new());
    let sender_done = AtomicBool::new(false);

    let send_lag_us = std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut reader = BufReader::new(reader);
            let mut line = String::new();
            while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
                let at = Instant::now();
                let response = parse(&line);
                line.clear();
                let id = response.id;
                let p = pending
                    .lock()
                    .expect("pending map poisoned")
                    .remove(&id)
                    .unwrap_or_else(|| panic!("reply to unknown request id {id}"));
                clock.received(id, &p, at);
                let record = clock.record(id, p, Some(response), Some(at));
                done.lock().expect("records poisoned").push(record);
            }
        });
        let sender = scope.spawn(|| {
            let mut lags = Vec::with_capacity(arrivals.len());
            for (i, s) in arrivals.into_iter().enumerate() {
                let due = origin + s.at;
                lags.push(sleep_until(due));
                let id = i as u64 + 1;
                // Registered before the reply can arrive.
                let mut map = pending.lock().expect("pending map poisoned");
                let (p, written) = clock.send(&mut writer, id, s.op, due);
                if written {
                    map.insert(id, p);
                } else {
                    drop(map);
                    let record = clock.record(id, p, None, None);
                    done.lock().expect("records poisoned").push(record);
                }
            }
            sender_done.store(true, Ordering::SeqCst);
            lags
        });
        watch(
            windows,
            origin,
            origin + end,
            origin + end + drain_timeout,
            || {
                sender_done.load(Ordering::SeqCst)
                    && pending.lock().expect("pending map poisoned").is_empty()
            },
        );
        // Unblock the receiver; anything still pending timed out.
        let _ = control.shutdown(Shutdown::Both);
        sender.join().expect("sender thread panicked")
    });

    let mut records = done.into_inner().expect("records poisoned");
    for (id, p) in pending.into_inner().expect("pending map poisoned") {
        records.push(clock.record(id, p, None, None));
    }
    records.sort_by_key(|r| r.id);
    Ok(RunLog {
        records,
        send_lag_us,
    })
}

/// A connection that carries one request at a time.
pub struct Serial<'a> {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    clock: Clock<'a>,
    next_id: u64,
    line: String,
}

impl<'a> Serial<'a> {
    /// Connects to `addr`; request ids count up from `first_id`, and
    /// intended times are measured from `origin`.
    pub fn connect(
        addr: SocketAddr,
        first_id: u64,
        origin: Instant,
        windows: Option<&'a TraceWindows>,
        spans: &'a SpanLog,
    ) -> std::io::Result<Serial<'a>> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Serial {
            writer,
            reader,
            clock: Clock {
                origin,
                windows,
                spans,
            },
            next_id: first_id,
            line: String::new(),
        })
    }

    /// Sends `op`, timed from `intended`, and waits for its reply. An I/O
    /// failure records the request as unanswered.
    pub fn call(&mut self, op: Op, intended: Instant) -> Record {
        let id = self.next_id;
        self.next_id += 1;
        let (p, written) = self.clock.send(&mut self.writer, id, op, intended);
        self.line.clear();
        if !written || !self.reader.read_line(&mut self.line).is_ok_and(|n| n > 0) {
            return self.clock.record(id, p, None, None);
        }
        let at = Instant::now();
        let response = parse(&self.line);
        assert_eq!(response.id, id, "reply out of order on a serial connection");
        self.clock.received(id, &p, at);
        self.clock.record(id, p, Some(response), Some(at))
    }
}

/// The first request id of the open-loop stream in [`closed_and_trickle`].
pub const TRICKLE_IDS: u64 = 1_000_000_000;

/// Runs a closed loop (`closed` gives the next request each time the
/// previous one is answered, until it returns `None` or `end` passes) and
/// the open-loop `arrivals` (sent one at a time, none before its intended
/// time) on two serial connections to `addr`, one thread each. The
/// origin is just after the call; the calling thread flips traced
/// windows.
pub fn closed_and_trickle(
    addr: SocketAddr,
    mut closed: impl FnMut() -> Option<Op> + Send,
    arrivals: Vec<Scheduled>,
    end: Duration,
    windows: Option<&TraceWindows>,
    spans: &SpanLog,
) -> std::io::Result<RunLog> {
    let origin = Instant::now() + Duration::from_millis(20);
    let end = origin + end;
    // Distinct id ranges keep the two streams' spans apart.
    let mut looped = Serial::connect(addr, 1, origin, windows, spans)?;
    let mut trickle = Serial::connect(addr, TRICKLE_IDS, origin, windows, spans)?;
    let finished = AtomicU64::new(0);
    let (mut records, send_lag_us) = std::thread::scope(|scope| {
        let closed_thread = scope.spawn(|| {
            let mut records = Vec::new();
            while Instant::now() < end {
                let Some(op) = closed() else { break };
                records.push(looped.call(op, Instant::now()));
            }
            finished.fetch_add(1, Ordering::SeqCst);
            records
        });
        let open_thread = scope.spawn(|| {
            let mut records = Vec::with_capacity(arrivals.len());
            let mut lags = Vec::with_capacity(arrivals.len());
            for s in arrivals {
                let due = origin + s.at;
                lags.push(sleep_until(due));
                records.push(trickle.call(s.op, due));
            }
            finished.fetch_add(1, Ordering::SeqCst);
            (records, lags)
        });
        // Both threads stop on their own; the watch only flips windows.
        watch(
            windows,
            origin,
            end,
            end + Duration::from_secs(3600),
            || finished.load(Ordering::SeqCst) == 2,
        );
        let mut records = closed_thread.join().expect("closed-loop thread panicked");
        let (open, lags) = open_thread.join().expect("open-loop thread panicked");
        records.extend(open);
        (records, lags)
    });
    records.sort_by_key(|r| r.at);
    Ok(RunLog {
        records,
        send_lag_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::Arc;

    /// A JSON-lines responder that answers every request in order with
    /// an empty `ok`, stalling once for `stall` before reply `stall_at`
    /// (counted from 1 across its connections; 0 never stalls).
    fn responder(connections: usize, stall_at: u64, stall: Duration) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let served = Arc::new(AtomicU64::new(0));
        std::thread::spawn(move || {
            for _ in 0..connections {
                let (stream, _) = listener.accept().expect("accept");
                let served = Arc::clone(&served);
                std::thread::spawn(move || {
                    let mut writer = stream.try_clone().expect("clone");
                    let mut reader = BufReader::new(stream);
                    let mut line = String::new();
                    while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
                        let request: Request =
                            serde_json::from_str(line.trim_end()).expect("request");
                        line.clear();
                        if served.fetch_add(1, Ordering::SeqCst) + 1 == stall_at {
                            std::thread::sleep(stall);
                        }
                        let response = Response::answers(
                            request.id,
                            vec![Vec::new()],
                            vec!["ok".to_owned()],
                            None,
                        );
                        let mut out = serde_json::to_string(&response).expect("response");
                        out.push('\n');
                        if writer.write_all(out.as_bytes()).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        addr
    }

    fn ask(i: usize) -> Op {
        Op {
            kind: Kind::Ask,
            questions: vec![format!("question {i}")],
        }
    }

    #[test]
    fn a_stall_raises_the_latency_of_requests_queued_behind_it() {
        // 60 arrivals 10 ms apart; the responder stalls 300 ms before
        // reply 5 (due at 40 ms), until about 340 ms.
        let addr = responder(1, 5, Duration::from_millis(300));
        let arrivals = fixed_rate(100.0, Duration::from_millis(600), ask);
        assert_eq!(arrivals.len(), 60);
        let spans = SpanLog::new(Instant::now());
        let end = Duration::from_millis(600);
        let log = pipelined(addr, arrivals, end, Duration::from_secs(5), None, &spans)
            .expect("pipelined run");
        assert_eq!(log.records.len(), 60);
        assert_eq!(log.send_lag_us.len(), 60);
        let latency_ms = |i: usize| {
            log.records[i]
                .latency
                .expect("every request answered")
                .as_secs_f64()
                * 1e3
        };
        // Requests due during the stall waited for it to end: request
        // i (due at 10·i ms) is answered no earlier than ~340 ms.
        for i in 5..30 {
            let floor = 340.0 - 10.0 * i as f64 - 15.0;
            assert!(
                latency_ms(i) >= floor,
                "request {i}: {:.1} ms < {floor:.1} ms",
                latency_ms(i)
            );
        }
        // The sender itself was never held up: the wait is the
        // responder's, charged from each request's intended time.
        assert!(log.send_lag_us.iter().all(|&lag| lag < 50_000));
        // Once the backlog clears, latency falls back to normal.
        assert!(
            latency_ms(59) < 50.0,
            "last request {:.1} ms",
            latency_ms(59)
        );
    }

    #[test]
    fn a_serial_trickle_charges_a_stall_to_the_requests_due_during_it() {
        // A 10 ms trickle alone on its connection; reply 5 (due at
        // 40 ms) stalls 200 ms, so the arrivals due until ~240 ms are
        // sent late and answered no earlier than the stall's end.
        let addr = responder(2, 5, Duration::from_millis(200));
        let arrivals = fixed_rate(100.0, Duration::from_millis(400), ask);
        let spans = SpanLog::new(Instant::now());
        let end = Duration::from_millis(400);
        let log =
            closed_and_trickle(addr, || None, arrivals, end, None, &spans).expect("serial run");
        assert_eq!(log.records.len(), 40);
        let latency_ms = |i: usize| {
            log.records[i]
                .latency
                .expect("every request answered")
                .as_secs_f64()
                * 1e3
        };
        for i in 5..20 {
            let floor = 240.0 - 10.0 * i as f64 - 15.0;
            assert!(
                latency_ms(i) >= floor,
                "request {i}: {:.1} ms < {floor:.1} ms",
                latency_ms(i)
            );
        }
        // The generator ran late during the stall and says so.
        assert!(
            log.send_lag_us[10] >= 100_000,
            "lag {}",
            log.send_lag_us[10]
        );
        assert!(
            latency_ms(39) < 50.0,
            "last request {:.1} ms",
            latency_ms(39)
        );
    }

    #[test]
    fn the_closed_loop_sends_its_next_request_on_each_reply() {
        let addr = responder(2, 0, Duration::ZERO);
        let mut left = 25;
        let closed = move || {
            left -= 1;
            (left >= 0).then(|| Op {
                kind: Kind::Feedback,
                questions: vec!["q".to_owned()],
            })
        };
        let arrivals = fixed_rate(100.0, Duration::from_millis(100), ask);
        let spans = SpanLog::new(Instant::now());
        let log = closed_and_trickle(addr, closed, arrivals, Duration::from_secs(5), None, &spans)
            .expect("serial run");
        let feedbacks = log
            .records
            .iter()
            .filter(|r| r.kind == Kind::Feedback)
            .count();
        assert_eq!(feedbacks, 25);
        assert_eq!(log.records.len(), 35);
        assert!(log.records.iter().all(|r| r.latency.is_some()));
    }
}
