//! The shared metric-name taxonomy (DESIGN.md §10).
//!
//! Every instrumented crate records against these constants so the
//! server's `stats` verb, the REPL `:stats` table, and the experiment
//! binaries all read the same names. Dotted segments group
//! by subsystem: `engine.*` (stage latencies, cache, outcomes),
//! `retrieval.*` (index pruning), `source.*` (fault layer), `feed.*`
//! (ETL dispositions).

/// Stage latency histogram: question analysis.
pub const STAGE_ANALYZE: &str = "engine.stage.analyze";
/// Stage latency histogram: passage retrieval (incl. acquisition).
pub const STAGE_PASSAGES: &str = "engine.stage.passages";
/// Stage latency histogram: answer extraction + validation.
pub const STAGE_EXTRACT: &str = "engine.stage.extract";
/// Stage latency histogram: feedback ETL batches.
pub const STAGE_FEED: &str = "engine.stage.feed";

/// Counter: questions answered (incl. failures).
pub const QUESTIONS: &str = "engine.questions";
/// Counter: batches submitted.
pub const BATCHES: &str = "engine.batches";
/// Counter: answer-cache hits.
pub const CACHE_HITS: &str = "engine.cache.hits";
/// Counter: answer-cache misses.
pub const CACHE_MISSES: &str = "engine.cache.misses";
/// Gauge: entries held by the answer cache (sampled by the server's
/// `stats` verb).
pub const CACHE_ENTRIES: &str = "engine.cache.entries";
/// Counter prefix for per-outcome totals; the outcome label is
/// appended, e.g. `engine.outcome.degraded`.
pub const OUTCOME_PREFIX: &str = "engine.outcome.";
/// Counter: feedback batches rolled back.
pub const ROLLBACKS: &str = "engine.feed.rollbacks";
/// Counter: worker panics caught.
pub const WORKER_DEATHS: &str = "engine.worker.deaths";

/// Counter: retrieval queries executed against the pruned index.
pub const RETRIEVAL_COUNT: &str = "retrieval.count";
/// Counter: documents in the corpus at query time (summed per query).
pub const RETRIEVAL_DOCS_TOTAL: &str = "retrieval.docs.total";
/// Counter: candidate documents gathered from postings (summed).
pub const RETRIEVAL_DOCS_CANDIDATE: &str = "retrieval.docs.candidate";
/// Counter: documents pruned without scoring (summed).
pub const RETRIEVAL_DOCS_PRUNED: &str = "retrieval.docs.pruned";
/// Counter: passage windows actually scored (summed).
pub const RETRIEVAL_WINDOWS_SCORED: &str = "retrieval.windows.scored";

/// Gauge: retry attempts performed by the resilient source (mirrored
/// from the source's own cumulative health counters).
pub const SOURCE_RETRIES: &str = "source.retries";
/// Gauge: circuit-breaker trips (closed → open).
pub const SOURCE_BREAKER_TRIPS: &str = "source.breaker.trips";
/// Gauge: fetches rejected by an open breaker.
pub const SOURCE_BREAKER_REJECTIONS: &str = "source.breaker.rejections";
/// Gauge: fetches that exhausted every attempt.
pub const SOURCE_FAILURES: &str = "source.failures";

/// Gauge: 1 when the pipeline has a durable feedback store attached, so
/// feedback commits are WAL-logged before they are acknowledged
/// (sampled by the server's `stats` verb).
pub const STORE_DURABLE: &str = "store.durable";
/// Counter: WAL records appended by the feedback store (`dwqa-store`).
pub const STORE_WAL_APPENDS: &str = "store.wal.appends";
/// Counter: WAL payload + header bytes written.
pub const STORE_WAL_BYTES: &str = "store.wal.bytes";
/// Counter: fsync calls issued by the WAL writer.
pub const STORE_WAL_FSYNCS: &str = "store.wal.fsyncs";
/// Histogram: wall time of one WAL append (encode + write + policy
/// fsync).
pub const STORE_WAL_APPEND_TIME: &str = "store.wal.append_time";
/// Counter: checkpoints written (snapshot serialized, WAL truncated).
pub const STORE_CHECKPOINTS: &str = "store.checkpoints";
/// Counter: checkpoint attempts that failed and left the previous
/// checkpoint + WAL authoritative.
pub const STORE_CHECKPOINT_FAILURES: &str = "store.checkpoint.failures";
/// Histogram: wall time of one checkpoint (serialize + fsync + rename
/// + truncate).
pub const STORE_CHECKPOINT_TIME: &str = "store.checkpoint.time";
/// Counter: torn-write faults injected by the `TornWriter` layer.
pub const STORE_TORN_FAULTS: &str = "store.torn.faults";
/// Counter: WAL records dropped on recovery as a torn / stale tail.
pub const STORE_RECOVERY_TRUNCATED: &str = "store.recovery.truncated";

/// Gauge: warehouse revision visible on the read path (sampled by the
/// server's `stats` verb).
pub const WAREHOUSE_REVISION: &str = "warehouse.revision";
/// Counter: fact rows walked by compiled roll-up scans (summed;
/// `dwqa-warehouse`).
pub const WAREHOUSE_ROWS_SCANNED: &str = "warehouse.rows.scanned";
/// Counter: groups materialised by compiled roll-up scans (summed).
pub const WAREHOUSE_GROUPS: &str = "warehouse.groups";
/// Counter: roll-up *result* cache hits (`dwqa-core`).
pub const WAREHOUSE_ROLLUP_HITS: &str = "warehouse.rollup.hits";
/// Counter: roll-up result cache misses (query executed).
pub const WAREHOUSE_ROLLUP_MISSES: &str = "warehouse.rollup.misses";
/// Counter: materialized roll-up entries that absorbed a commit's delta
/// in place (incremental maintenance, `dwqa-core`).
pub const WAREHOUSE_DELTA_APPLIED: &str = "warehouse.delta.applied";
/// Counter: materialized roll-up entries demoted to recompute-on-next-
/// read because a delta could not be absorbed.
pub const WAREHOUSE_DELTA_DEMOTED: &str = "warehouse.delta.demoted";
/// Counter: fact rows folded incrementally into live materialized
/// roll-ups (summed over entries).
pub const WAREHOUSE_DELTA_ROWS: &str = "warehouse.delta.rows";

/// Counter: requests received by the QA service, every kind and
/// disposition (`dwqa-server`).
pub const SERVER_REQUESTS: &str = "server.requests";
/// Counter: work requests admitted into the service queue.
pub const SERVER_ADMITTED: &str = "server.admitted";
/// Counter: work requests shed with `busy` because the admission queue
/// was at capacity.
pub const SERVER_SHED: &str = "server.shed";
/// Counter: work requests rejected by a client's token bucket.
pub const SERVER_RATE_LIMITED: &str = "server.rate_limited";
/// Counter: work requests rejected because the server was draining.
pub const SERVER_DRAINED: &str = "server.drained";
/// Counter: admitted requests completed (response written).
pub const SERVER_COMPLETED: &str = "server.completed";
/// Counter: request lines that failed to parse or validate.
pub const SERVER_PROTOCOL_ERRORS: &str = "server.protocol_errors";
/// Histogram: admission-to-dispatch queue wait per admitted request.
pub const SERVER_QUEUE_WAIT: &str = "server.queue.wait";
/// Gauge: work requests currently queued (admitted, not yet running;
/// sampled by the server's `stats` verb).
pub const SERVER_QUEUE_DEPTH: &str = "server.queue.depth";
/// Gauge: connected clients.
pub const SERVER_CLIENTS: &str = "server.clients";
/// Histogram: admission-to-response-written latency per admitted
/// request (queue wait + execution), the service-side view of what an
/// admitted client experiences.
pub const SERVER_SERVICE_TIME: &str = "server.service_time";
/// Counter: client connections dropped because a read timed out before
/// a full request line arrived (slow-loris defence).
pub const SERVER_DISCONNECTS_TIMEOUT: &str = "server.disconnects.timeout";

/// Counter: WAL/checkpoint frames shipped to replication peers
/// (`dwqa-server`'s primary hub; one count per peer per frame).
pub const REPL_FRAMES_SHIPPED: &str = "repl.frames.shipped";
/// Counter: replicated frames applied by a standby's pipeline.
pub const REPL_FRAMES_APPLIED: &str = "repl.frames.applied";
/// Counter: replicated frames skipped by a standby as already-applied
/// sequence numbers (link duplicates, resends after resubscribe).
pub const REPL_FRAMES_DUPLICATE: &str = "repl.frames.duplicate";
/// Counter: replication streams abandoned on an undecodable (torn or
/// corrupted) frame; the follower resubscribes from its own offset.
pub const REPL_FRAMES_TORN: &str = "repl.frames.torn";
/// Counter: replicated frames ignored as a stale (fenced-out)
/// generation.
pub const REPL_FRAMES_STALE: &str = "repl.frames.stale";
/// Counter: ack frames received by the primary from standbys.
pub const REPL_ACKS: &str = "repl.acks";
/// Counter: heartbeat frames received by a standby.
pub const REPL_HEARTBEATS: &str = "repl.heartbeats";
/// Counter: frames dropped by the seeded link-fault layer.
pub const REPL_LINK_DROPS: &str = "repl.link.drops";
/// Counter: frames torn mid-write by the seeded link-fault layer.
pub const REPL_LINK_TEARS: &str = "repl.link.tears";
/// Counter: half-open stalls injected by the seeded link-fault layer.
pub const REPL_LINK_HALF_OPEN: &str = "repl.link.half_open";
/// Counter: follower reconnect + resubscribe cycles (after the first
/// connect).
pub const REPL_RECONNECTS: &str = "repl.reconnects";
/// Counter: backlog frames shipped on subscribe (catch-up reads from
/// the primary's checkpoint + WAL).
pub const REPL_CATCHUP_FRAMES: &str = "repl.catchup.frames";
/// Counter: standby promotions to primary (drain-handoff or failure
/// detector).
pub const REPL_PROMOTIONS: &str = "repl.promotions";
/// Counter: sync-mode feedback commits that timed out waiting for the
/// ack quorum (committed locally, reported `busy` for the client to
/// retry).
pub const REPL_QUORUM_TIMEOUTS: &str = "repl.quorum.timeouts";
/// Gauge: replication lag in frames — on the primary, the worst
/// connected peer's unacked span; on a standby, the primary's position
/// minus its own.
pub const REPL_LAG: &str = "repl.lag.frames";
