//! Sweep-as-a-service: the long-running mode behind `experiments -- serve`.
//!
//! The server accepts line-delimited JSON requests over TCP, validates them
//! through the same [`ProtocolRegistry`]/[`Family::parse`]/
//! [`StackSpec::parse`] paths the CLI uses, runs the cells through
//! [`run_batch_with_stores`] — so every answer consults the
//! content-addressed [`ResultStore`] first (hot set, then disk) and
//! computes only absent cells — and writes one JSON response line per
//! request. A request naming a catalog scenario shares its result keys
//! with the batch sweep, so a store warmed by `experiments -- scenarios`
//! answers the same cells here without recomputing anything (and vice
//! versa).
//!
//! ## Concurrency
//!
//! The serving side is an **accept pool**: `accept_threads` connection-
//! handler threads all accept on the same (non-blocking) listener, so a
//! slow or stalled client occupies one handler and never serializes the
//! listener. Handlers share one persistent [`WorkPool`] of
//! `config.threads` compute workers — a request's missing cells are
//! submitted there as one work-item set, and concurrent requests
//! interleave their cells on the pool's FIFO queue. Counters
//! (requests/served/computed and the store's hits/misses) are atomics;
//! each response's own `hits`/`computed` fields come from the batch
//! runner's per-item accounting, not from global counter deltas, so
//! per-response numbers sum exactly to the `stats` totals no matter how
//! requests overlap. Because every record is a pure function of its
//! [`ResultKey`](crate::results::ResultKey), responses are byte-identical
//! to a serial single-client run — concurrency changes scheduling, never
//! bytes.
//!
//! ## Wire protocol
//!
//! One request object per line, one response per line:
//!
//! * `{"cmd":"run","scenario":"grid32-trivial"}` — run a catalog scenario
//!   (default or xl sweep) by name; optional `"seeds":[…]` narrows the
//!   seed list (keys are per-cell, so partial seed lists still warm the
//!   store for the full sweep).
//! * `{"cmd":"run","family":"grid","size":1024,"protocol":"trivial_bfs",
//!   "stack":"abstract","seeds":[0,1]}` — an ad-hoc cell grid; `stack`
//!   defaults to `abstract`, `seeds` to `[0]`, and optional
//!   `"active":[…]` restricts the protocol's active set (a distinct result
//!   key — restricted runs never alias full-set runs). Optional `"name"`
//!   sets the scenario coordinate of the key (default `adhoc`).
//! * `{"cmd":"run","batch":[{…},{…}]}` — a **batched** request: each
//!   element is a run object of either shape above. All items are
//!   validated before anything computes (an invalid item refuses the whole
//!   request, naming the offending index), then every missing cell across
//!   every item is scheduled as one work-item set. The response is
//!   `{"ok":true,"batch":[{"records":[…],"hits":…,"computed":…},…],
//!   "hits":H,"computed":C}` — one entry per item, in request order, plus
//!   request-level totals.
//! * `{"cmd":"stats"}` — hit/miss/hot-hit/served/computed/request/
//!   connection counters plus store size (a walk over the store directory
//!   that counts the servable artifacts).
//! * `{"cmd":"shutdown"}` — acknowledge, stop accepting, and let in-flight
//!   requests finish their responses.
//!
//! Single-scenario run responses keep the PR 8 shape:
//! `{"ok":true,"records":[…],"hits":H,"computed":C}`. Both response shapes
//! write their records through one helper that emits each record with
//! [`record_json_object`] — byte-identical to the same record's line in a
//! sweep JSON file.
//!
//! The catalog that named requests resolve against (the default sweep,
//! then the xl sweep) is built once per [`serve`] call.
//!
//! ## Fault containment
//!
//! Every failure is structured, and none is fatal: unparsable or non-UTF-8
//! lines, unknown scenarios/families/stacks, specs the registry rejects,
//! and capability mismatches all answer `{"ok":false,"error":…,"code":2}`
//! (mirroring the CLI's exit-2 contract) and keep the connection; a
//! request line longer than [`MAX_LINE_BYTES`] answers the same way and
//! then drops the connection (its framing can no longer be trusted);
//! nesting bombs are cut off by the JSON parser's depth cap; a client that
//! disconnects mid-request or stalls after connect costs one handler a
//! poll tick, never the listener. The accept pool itself only exits on
//! `shutdown`.
//!
//! [`ProtocolRegistry`]: radio_protocols::protocol::ProtocolRegistry
//! [`WorkPool`]: crate::pool::WorkPool

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use radio_graph::dataset::DatasetCache;

use crate::json::{escape, Json};
use crate::pool::WorkPool;
use crate::results::ResultStore;
use crate::scenarios::{
    default_scenarios, panic_message, record_json_object, run_batch_with_stores, xl_scenarios,
    BatchItem, BatchOutcome, Family, Protocol, RunnerConfig, Scenario, ScenarioRecord, StackSpec,
};

/// Hard cap on one request line. A line that exceeds it is answered with a
/// structured error and the connection is dropped — past this point the
/// line framing cannot be re-synchronized cheaply, and no legitimate
/// request is anywhere near this size.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Cap on the number of items in one batched request.
pub const MAX_BATCH_ITEMS: usize = 256;

/// How long a blocked read waits before re-checking the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(100);

/// How long an idle accept thread sleeps between accept polls. Short
/// enough that connection setup is never the visible latency (a freshly
/// connecting client waits at most one tick for a free handler), long
/// enough that an idle pool costs a few hundred wakeups per second.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// How long a response write may stall before the client is dropped (a
/// client that never drains its socket must not pin a handler forever).
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Serving knobs of [`serve`], separate from the compute-side
/// [`RunnerConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeOptions {
    /// Connection-handler threads sharing the listener. Each handles one
    /// connection at a time; all share the one compute pool. Clamped to
    /// ≥ 1.
    pub accept_threads: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { accept_threads: 4 }
    }
}

/// What a serve session did, returned when the accept pool exits on a
/// `shutdown` request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests answered (including error responses).
    pub requests: u64,
    /// Records returned across all `run` responses.
    pub served: u64,
    /// Records that had to be computed (store misses healed by running).
    pub computed: u64,
    /// Connections accepted.
    pub connections: u64,
}

/// Everything the connection handlers share: the read-only run
/// configuration, the scenario catalog, the stores, the one persistent
/// compute pool, the summary counters, and the shutdown flag.
struct ServerShared<'a> {
    config: &'a RunnerConfig,
    /// The named scenarios a `run` request may ask for: the default sweep
    /// first, then the xl sweep.
    catalog: Vec<Scenario>,
    datasets: Option<&'a DatasetCache>,
    results: &'a ResultStore,
    pool: WorkPool,
    requests: AtomicU64,
    served: AtomicU64,
    computed: AtomicU64,
    connections: AtomicU64,
    shutdown: AtomicBool,
}

impl<'a> ServerShared<'a> {
    fn new(
        config: &'a RunnerConfig,
        datasets: Option<&'a DatasetCache>,
        results: &'a ResultStore,
    ) -> Self {
        let catalog = default_scenarios()
            .into_iter()
            .chain(xl_scenarios())
            .collect();
        ServerShared {
            config,
            catalog,
            datasets,
            results,
            pool: WorkPool::new(config.threads),
            requests: AtomicU64::new(0),
            served: AtomicU64::new(0),
            computed: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        }
    }

    fn summary(&self) -> ServeSummary {
        ServeSummary {
            requests: self.requests.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            computed: self.computed.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
        }
    }
}

/// A request-level failure, rendered as the structured error response.
struct Refusal(String);

fn refuse<T>(msg: impl Into<String>) -> Result<T, Refusal> {
    Err(Refusal(msg.into()))
}

fn u64_list(value: &Json, what: &str) -> Result<Vec<u64>, Refusal> {
    let items = value
        .as_array()
        .ok_or_else(|| Refusal(format!("{what} must be an array of non-negative integers")))?;
    items
        .iter()
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| Refusal(format!("{what} must hold non-negative integers")))
        })
        .collect()
}

/// Decodes one `run` object into the scenario to execute plus its optional
/// restricted active set, validating every coordinate through the same
/// parsers the CLI uses; a scenario name resolves against `catalog`.
fn decode_run(
    request: &Json,
    catalog: &[Scenario],
) -> Result<(Scenario, Option<Vec<usize>>), Refusal> {
    let mut scenario = match request.get("scenario") {
        Some(name) => {
            let name = name
                .as_str()
                .ok_or_else(|| Refusal("scenario must be a string".into()))?;
            catalog
                .iter()
                .find(|s| s.name == name)
                .cloned()
                .ok_or_else(|| Refusal(format!("unknown scenario {name:?} (not in the catalog)")))?
        }
        None => {
            let family_label = request
                .get("family")
                .and_then(Json::as_str)
                .ok_or_else(|| Refusal("run needs \"scenario\" or \"family\"".into()))?;
            let family = Family::parse(family_label)
                .ok_or_else(|| Refusal(format!("unknown family {family_label:?}")))?;
            let sizes: Vec<usize> = match (request.get("size"), request.get("sizes")) {
                (Some(one), None) => vec![one
                    .as_u64()
                    .ok_or_else(|| Refusal("size must be a non-negative integer".into()))?
                    as usize],
                (None, Some(many)) => u64_list(many, "sizes")?
                    .into_iter()
                    .map(|s| s as usize)
                    .collect(),
                (None, None) => return refuse("ad-hoc run needs \"size\" or \"sizes\""),
                (Some(_), Some(_)) => return refuse("give \"size\" or \"sizes\", not both"),
            };
            let spec = request
                .get("protocol")
                .and_then(Json::as_str)
                .ok_or_else(|| Refusal("ad-hoc run needs a \"protocol\" spec".into()))?;
            let protocol = Protocol::from_spec(spec, &energy_bfs::protocol::registry())
                .map_err(|e| Refusal(e.to_string()))?;
            let stack = match request.get("stack") {
                None => StackSpec::Abstract,
                Some(label) => {
                    let label = label
                        .as_str()
                        .ok_or_else(|| Refusal("stack must be a string label".into()))?;
                    StackSpec::parse(label)
                        .ok_or_else(|| Refusal(format!("unknown stack {label:?}")))?
                }
            };
            let name = match request.get("name") {
                None => "adhoc".to_string(),
                Some(n) => n
                    .as_str()
                    .ok_or_else(|| Refusal("name must be a string".into()))?
                    .to_string(),
            };
            Scenario {
                name,
                family,
                sizes,
                seeds: vec![0],
                protocol,
                stack,
            }
        }
    };
    if let Some(seeds) = request.get("seeds") {
        scenario.seeds = u64_list(seeds, "seeds")?;
    }
    let active = match request.get("active") {
        None => None,
        Some(list) => Some(
            u64_list(list, "active")?
                .into_iter()
                .map(|v| v as usize)
                .collect::<Vec<usize>>(),
        ),
    };
    Ok((scenario, active))
}

/// Decodes a `run` request into its batch items: either the single run
/// object itself, or every element of `"batch"`. **All** items validate
/// before any cell computes — an invalid element refuses the whole
/// request, naming its index.
fn decode_items(request: &Json, catalog: &[Scenario]) -> Result<(Vec<BatchItem>, bool), Refusal> {
    let Some(batch) = request.get("batch") else {
        let (scenario, active) = decode_run(request, catalog)?;
        return Ok((vec![BatchItem { scenario, active }], false));
    };
    if request.get("scenario").is_some() || request.get("family").is_some() {
        return refuse("give \"batch\" or a single scenario/family run, not both");
    }
    let entries = batch
        .as_array()
        .ok_or_else(|| Refusal("batch must be an array of run objects".into()))?;
    if entries.is_empty() {
        return refuse("batch must hold at least one run object");
    }
    if entries.len() > MAX_BATCH_ITEMS {
        return refuse(format!(
            "batch holds {} items (limit {MAX_BATCH_ITEMS})",
            entries.len()
        ));
    }
    let items = entries
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            if !matches!(entry, Json::Obj(_)) {
                return refuse(format!("batch[{i}] must be a run object"));
            }
            let (scenario, active) = decode_run(entry, catalog)
                .map_err(|Refusal(msg)| Refusal(format!("batch[{i}]: {msg}")))?;
            Ok(BatchItem { scenario, active })
        })
        .collect::<Result<Vec<BatchItem>, Refusal>>()?;
    Ok((items, true))
}

/// Runs the decoded items as one work-item set on the shared pool,
/// catching the runner's capability-mismatch panic so a bad request
/// degrades to a structured error instead of killing the handler.
fn execute(items: &[BatchItem], shared: &ServerShared<'_>) -> Result<Vec<BatchOutcome>, Refusal> {
    catch_unwind(AssertUnwindSafe(|| {
        run_batch_with_stores(
            items,
            shared.config,
            shared.datasets,
            Some(shared.results),
            Some(&shared.pool),
        )
    }))
    .map_err(|panic| Refusal(panic_message(panic)))
}

fn error_response(msg: &str) -> String {
    format!("{{\"ok\":false,\"error\":\"{}\",\"code\":2}}", escape(msg))
}

/// The `"records":[…],"hits":H,"computed":C` fields shared by a
/// single-run response and every item of a batch response.
fn records_fields(records: &[ScenarioRecord], hits: u64, computed: u64) -> String {
    let body: Vec<String> = records.iter().map(record_json_object).collect();
    format!(
        "\"records\":[{}],\"hits\":{hits},\"computed\":{computed}",
        body.join(",")
    )
}

/// Answers one request line. Returns the response line and whether the
/// server should shut down afterwards.
fn handle_request(line: &str, shared: &ServerShared<'_>) -> (String, bool) {
    shared.requests.fetch_add(1, Ordering::Relaxed);
    let outcome: Result<(String, bool), Refusal> = (|| {
        let request = Json::parse(line).map_err(|e| Refusal(e.to_string()))?;
        let cmd = request
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or_else(|| Refusal("request needs a string \"cmd\"".into()))?;
        match cmd {
            "run" => {
                let (items, batched) = decode_items(&request, &shared.catalog)?;
                let outcomes = execute(&items, shared)?;
                let served: u64 = outcomes.iter().map(|o| o.records.len() as u64).sum();
                let hits: u64 = outcomes.iter().map(|o| o.hits).sum();
                let computed: u64 = outcomes.iter().map(|o| o.computed).sum();
                shared.served.fetch_add(served, Ordering::Relaxed);
                shared.computed.fetch_add(computed, Ordering::Relaxed);
                let response = if batched {
                    let parts: Vec<String> = outcomes
                        .iter()
                        .map(|o| format!("{{{}}}", records_fields(&o.records, o.hits, o.computed)))
                        .collect();
                    format!(
                        "{{\"ok\":true,\"batch\":[{}],\"hits\":{hits},\"computed\":{computed}}}",
                        parts.join(",")
                    )
                } else {
                    let fields = records_fields(&outcomes[0].records, hits, computed);
                    format!("{{\"ok\":true,{fields}}}")
                };
                Ok((response, false))
            }
            "stats" => {
                let size = shared.results.size();
                Ok((
                    format!(
                        "{{\"ok\":true,\"hits\":{},\"misses\":{},\"hot_hits\":{},\
                         \"served\":{},\"computed\":{},\"requests\":{},\
                         \"connections\":{},\"entries\":{},\"bytes\":{}}}",
                        shared.results.hits(),
                        shared.results.misses(),
                        shared.results.hot_hits(),
                        shared.served.load(Ordering::Relaxed),
                        shared.computed.load(Ordering::Relaxed),
                        shared.requests.load(Ordering::Relaxed),
                        shared.connections.load(Ordering::Relaxed),
                        size.entries,
                        size.bytes
                    ),
                    false,
                ))
            }
            "shutdown" => {
                shared.shutdown.store(true, Ordering::SeqCst);
                Ok(("{\"ok\":true,\"shutdown\":true}".into(), true))
            }
            other => refuse(format!("unknown cmd {other:?} (run, stats, shutdown)")),
        }
    })();
    match outcome {
        Ok(done) => done,
        Err(Refusal(msg)) => (error_response(&msg), false),
    }
}

/// What one bounded line read produced.
enum LineOutcome {
    /// `buf` holds a complete line (newline stripped).
    Line,
    /// Clean end of stream; `buf` may hold a final unterminated line.
    Eof,
    /// The line exceeded [`MAX_LINE_BYTES`] — framing is lost.
    Oversized,
    /// The server is shutting down; stop reading.
    Shutdown,
}

/// Reads one newline-terminated line into `buf` with a hard size cap,
/// re-checking the shutdown flag on every read-timeout tick. Unlike
/// `BufRead::lines`, this never buffers unboundedly (the cap is checked
/// per `fill_buf` chunk) and never errors on invalid UTF-8 — byte
/// validation is the caller's, so a garbage line gets a structured
/// response instead of a dropped connection.
fn read_line_bounded(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    shared: &ServerShared<'_>,
) -> std::io::Result<LineOutcome> {
    loop {
        let available = match reader.fill_buf() {
            Ok(bytes) => bytes,
            // Linux reports a hit SO_RCVTIMEO as WouldBlock; other
            // platforms say TimedOut. Either way: poll the flag, retry.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return Ok(LineOutcome::Shutdown);
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(LineOutcome::Eof);
        }
        if let Some(pos) = available.iter().position(|&b| b == b'\n') {
            buf.extend_from_slice(&available[..pos]);
            reader.consume(pos + 1);
            return Ok(if buf.len() > MAX_LINE_BYTES {
                LineOutcome::Oversized
            } else {
                LineOutcome::Line
            });
        }
        let len = available.len();
        buf.extend_from_slice(available);
        reader.consume(len);
        if buf.len() > MAX_LINE_BYTES {
            return Ok(LineOutcome::Oversized);
        }
    }
}

fn write_response(writer: &mut TcpStream, response: &str) -> std::io::Result<()> {
    // One write + TCP_NODELAY per response: the request/response ping-pong
    // otherwise trips Nagle against delayed ACKs, turning a sub-millisecond
    // warm store read into a ~40ms round trip.
    let mut line = String::with_capacity(response.len() + 1);
    line.push_str(response);
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// Serves one accepted connection to completion: request lines in,
/// response lines out, until the peer closes, the server shuts down, or
/// the connection forfeits its framing (oversized line) or its socket
/// (I/O error, surfaced to the accept loop as `Err`).
fn handle_connection(stream: TcpStream, shared: &ServerShared<'_>) -> std::io::Result<()> {
    // The listener is non-blocking (accept threads poll it); the accepted
    // stream must not inherit that — reads are governed by READ_POLL.
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_POLL))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        buf.clear();
        let outcome = read_line_bounded(&mut reader, &mut buf, shared)?;
        let at_eof = matches!(outcome, LineOutcome::Eof);
        match outcome {
            LineOutcome::Shutdown => return Ok(()),
            LineOutcome::Oversized => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                let msg = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                write_response(&mut writer, &error_response(&msg))?;
                return Ok(());
            }
            LineOutcome::Line | LineOutcome::Eof => {
                let Ok(text) = std::str::from_utf8(&buf) else {
                    shared.requests.fetch_add(1, Ordering::Relaxed);
                    write_response(&mut writer, &error_response("request is not valid UTF-8"))?;
                    if at_eof {
                        return Ok(());
                    }
                    // The newline framing held; keep serving this client.
                    continue;
                };
                if text.trim().is_empty() {
                    if at_eof {
                        return Ok(());
                    }
                    continue;
                }
                let (response, shutdown) = handle_request(text, shared);
                write_response(&mut writer, &response)?;
                if shutdown || at_eof || shared.shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
            }
        }
    }
}

/// One accept thread: poll-accept until shutdown, handling each accepted
/// connection to completion. Per-connection I/O errors drop that
/// connection and keep serving; accept errors are logged and retried.
fn accept_loop(listener: &TcpListener, shared: &ServerShared<'_>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.connections.fetch_add(1, Ordering::Relaxed);
                if let Err(e) = handle_connection(stream, shared) {
                    eprintln!("[serve] connection error: {e}");
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => {
                eprintln!("[serve] accept error: {e}");
                std::thread::sleep(ACCEPT_POLL);
            }
        }
    }
}

/// Runs the server until a `shutdown` request: an accept pool of
/// `options.accept_threads` handler threads over one non-blocking
/// listener, all sharing one persistent compute pool of `config.threads`
/// workers. The returned summary is what the `experiments` binary prints
/// on exit. Handlers finish their in-flight request (and its response)
/// before exiting, so shutdown under load is clean.
pub fn serve(
    listener: TcpListener,
    config: &RunnerConfig,
    datasets: Option<&DatasetCache>,
    results: &ResultStore,
    options: &ServeOptions,
) -> std::io::Result<ServeSummary> {
    listener.set_nonblocking(true)?;
    let shared = ServerShared::new(config, datasets, results);
    std::thread::scope(|scope| {
        for _ in 0..options.accept_threads.max(1) {
            scope.spawn(|| accept_loop(&listener, &shared));
        }
    });
    Ok(shared.summary())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::run_scenarios_with_stores;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "radio-bench-server-{tag}-{}-{}",
            std::process::id(),
            line!()
        ));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    /// One in-process round trip over an ephemeral port: compute, re-answer
    /// from the store, stats, a structured spec error, then shutdown.
    #[test]
    fn server_round_trips_over_an_ephemeral_port() {
        let dir = scratch("roundtrip");
        let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
        let addr = listener.local_addr().expect("local addr");
        let results_dir = dir.clone();
        let server = std::thread::spawn(move || {
            let results = ResultStore::new(results_dir).with_hot_set(64);
            serve(
                listener,
                &RunnerConfig::serial(),
                None,
                &results,
                &ServeOptions::default(),
            )
            .expect("serve")
        });

        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let mut ask = |request: &str| -> Json {
            writer.write_all(request.as_bytes()).expect("send");
            writer.write_all(b"\n").expect("send newline");
            writer.flush().expect("flush");
            let mut line = String::new();
            reader.read_line(&mut line).expect("response");
            Json::parse(line.trim()).expect("response is JSON")
        };

        // Cold: every cell computed.
        let run =
            r#"{"cmd":"run","family":"path","size":24,"protocol":"trivial_bfs","seeds":[0,1]}"#;
        let cold = ask(run);
        assert_eq!(cold.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(cold.get("computed").and_then(Json::as_u64), Some(2));
        assert_eq!(cold.get("hits").and_then(Json::as_u64), Some(0));
        let records = cold
            .get("records")
            .and_then(Json::as_array)
            .expect("records");
        assert_eq!(records.len(), 2);
        assert_eq!(
            records[0].get("outcome").and_then(Json::as_u64),
            Some(24),
            "trivial BFS labels the whole path"
        );

        // Warm: the identical request is answered from the store (and,
        // with the hot set on, from memory).
        let warm = ask(run);
        assert_eq!(warm.get("computed").and_then(Json::as_u64), Some(0));
        assert_eq!(warm.get("hits").and_then(Json::as_u64), Some(2));
        assert_eq!(warm.get("records"), cold.get("records"));

        // A restricted active set is a different key: computed again, and
        // the wavefront stops at the boundary.
        let restricted = ask(
            r#"{"cmd":"run","family":"path","size":24,"protocol":"trivial_bfs","seeds":[0],"active":[0,1,2,3,4,5,6,7,8,9,10,11]}"#,
        );
        assert_eq!(restricted.get("computed").and_then(Json::as_u64), Some(1));
        let rec = &restricted.get("records").and_then(Json::as_array).unwrap()[0];
        assert_eq!(rec.get("outcome").and_then(Json::as_u64), Some(12));

        // Stats carry the cumulative counters and a non-empty store. The
        // two warm hits were hot-set hits (the cold request populated it).
        let stats = ask(r#"{"cmd":"stats"}"#);
        assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(stats.get("hits").and_then(Json::as_u64), Some(2));
        assert_eq!(stats.get("hot_hits").and_then(Json::as_u64), Some(2));
        assert_eq!(stats.get("served").and_then(Json::as_u64), Some(5));
        assert_eq!(stats.get("computed").and_then(Json::as_u64), Some(3));
        assert_eq!(stats.get("entries").and_then(Json::as_u64), Some(3));
        assert_eq!(stats.get("connections").and_then(Json::as_u64), Some(1));

        // An unknown protocol spec is the registry's structured error, not
        // a dropped connection.
        let err = ask(r#"{"cmd":"run","family":"path","size":8,"protocol":"warp_drive"}"#);
        assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(err.get("code").and_then(Json::as_u64), Some(2));
        assert!(
            err.get("error")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .contains("warp_drive"),
            "error names the bad spec: {err:?}"
        );

        // And malformed JSON likewise.
        let bad = ask("{\"cmd\":");
        assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));

        let bye = ask(r#"{"cmd":"shutdown"}"#);
        assert_eq!(bye.get("shutdown").and_then(Json::as_bool), Some(true));
        let summary = server.join().expect("server thread");
        assert_eq!(summary.served, 5);
        assert_eq!(summary.computed, 3);
        assert_eq!(summary.connections, 1);
        assert!(summary.requests >= 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A batched request answers every item in request order, as one
    /// response, with per-item and request-level accounting that agree.
    #[test]
    fn batched_requests_answer_items_in_order_with_exact_accounting() {
        let dir = scratch("batch");
        let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
        let addr = listener.local_addr().expect("local addr");
        let results_dir = dir.clone();
        let server = std::thread::spawn(move || {
            let results = ResultStore::new(results_dir).with_hot_set(64);
            serve(
                listener,
                &RunnerConfig::serial(),
                None,
                &results,
                &ServeOptions::default(),
            )
            .expect("serve")
        });
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let mut ask = |request: &str| -> Json {
            writer.write_all(request.as_bytes()).expect("send");
            writer.write_all(b"\n").expect("newline");
            writer.flush().expect("flush");
            let mut line = String::new();
            reader.read_line(&mut line).expect("response");
            Json::parse(line.trim()).expect("response is JSON")
        };

        // Warm one item's cells first, so the batch mixes hits and
        // computes across items.
        let single = ask(
            r#"{"cmd":"run","family":"path","size":16,"protocol":"trivial_bfs","seeds":[0,1]}"#,
        );
        assert_eq!(single.get("computed").and_then(Json::as_u64), Some(2));

        let batch = ask(
            r#"{"cmd":"run","batch":[{"family":"path","size":16,"protocol":"trivial_bfs","seeds":[0,1]},{"family":"cycle","size":12,"protocol":"trivial_bfs","seeds":[0]},{"family":"path","size":16,"protocol":"trivial_bfs","seeds":[0,1,2]}]}"#,
        );
        assert_eq!(batch.get("ok").and_then(Json::as_bool), Some(true));
        let items = batch.get("batch").and_then(Json::as_array).expect("batch");
        assert_eq!(items.len(), 3);
        // Item 0: fully warm. Item 1: fully cold. Item 2: two warm cells
        // plus one cold seed.
        assert_eq!(items[0].get("hits").and_then(Json::as_u64), Some(2));
        assert_eq!(items[0].get("computed").and_then(Json::as_u64), Some(0));
        assert_eq!(items[1].get("hits").and_then(Json::as_u64), Some(0));
        assert_eq!(items[1].get("computed").and_then(Json::as_u64), Some(1));
        assert_eq!(items[2].get("hits").and_then(Json::as_u64), Some(2));
        assert_eq!(items[2].get("computed").and_then(Json::as_u64), Some(1));
        // Request totals are the exact sums of the items.
        assert_eq!(batch.get("hits").and_then(Json::as_u64), Some(4));
        assert_eq!(batch.get("computed").and_then(Json::as_u64), Some(2));
        // The warm item's records are byte-wise the records of the single
        // request that warmed them.
        assert_eq!(items[0].get("records"), single.get("records"));
        // And item records are in cell order: the extra seed comes last.
        let third = items[2].get("records").and_then(Json::as_array).unwrap();
        let seeds: Vec<u64> = third
            .iter()
            .filter_map(|r| r.get("seed").and_then(Json::as_u64))
            .collect();
        assert_eq!(seeds, vec![0, 1, 2]);

        // An invalid element refuses the whole request by index; nothing
        // about the server state changes.
        let refused = ask(
            r#"{"cmd":"run","batch":[{"family":"path","size":8,"protocol":"trivial_bfs"},{"family":"warp","size":8,"protocol":"trivial_bfs"}]}"#,
        );
        assert_eq!(refused.get("ok").and_then(Json::as_bool), Some(false));
        assert!(
            refused
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .contains("batch[1]"),
            "error names the offending item: {refused:?}"
        );

        let bye = ask(r#"{"cmd":"shutdown"}"#);
        assert_eq!(bye.get("shutdown").and_then(Json::as_bool), Some(true));
        let summary = server.join().expect("server thread");
        assert_eq!(summary.served, 2 + 6);
        assert_eq!(summary.computed, 2 + 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A named catalog request shares keys with the batch sweep: warming
    /// the store through the runner makes the served request all-hits.
    #[test]
    fn named_catalog_requests_cross_warm_with_batch_sweeps() {
        let dir = scratch("crosswarm");
        let results = ResultStore::new(dir.clone());
        let scenario = default_scenarios()
            .into_iter()
            .find(|s| s.name == "grid32-trivial")
            .expect("catalog name");
        run_scenarios_with_stores(
            std::slice::from_ref(&scenario),
            &RunnerConfig::serial(),
            None,
            Some(&results),
        );
        let warmed_misses = results.misses();

        let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
        let addr = listener.local_addr().expect("local addr");
        let server = std::thread::spawn(move || {
            serve(
                listener,
                &RunnerConfig::serial(),
                None,
                &results,
                &ServeOptions::default(),
            )
            .expect("serve")
        });
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        for request in [
            r#"{"cmd":"run","scenario":"grid32-trivial"}"#,
            r#"{"cmd":"shutdown"}"#,
        ] {
            writer.write_all(request.as_bytes()).expect("send");
            writer.write_all(b"\n").expect("newline");
        }
        writer.flush().expect("flush");
        let mut line = String::new();
        reader.read_line(&mut line).expect("run response");
        let run = Json::parse(line.trim()).expect("JSON");
        assert_eq!(
            run.get("computed").and_then(Json::as_u64),
            Some(0),
            "a sweep-warmed store must answer the named request without recomputing"
        );
        assert_eq!(
            run.get("hits").and_then(Json::as_u64),
            Some(scenario.seeds.len() as u64)
        );
        let summary = server.join().expect("server thread");
        assert_eq!(summary.computed, 0, "misses stayed at {warmed_misses}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Requests that panic inside the runner (a CD protocol on a no-CD
    /// stack) come back as structured errors and the server keeps going.
    #[test]
    fn capability_mismatches_are_structured_errors_not_crashes() {
        let dir = scratch("caps");
        let results = ResultStore::new(dir.clone());
        let cfg = RunnerConfig::serial();
        let shared = ServerShared::new(&cfg, None, &results);
        let (response, shutdown) = handle_request(
            r#"{"cmd":"run","family":"path","size":8,"protocol":"trivial_bfs_cd","stack":"physical"}"#,
            &shared,
        );
        assert!(!shutdown);
        let v = Json::parse(&response).expect("JSON error response");
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert!(
            v.get("error")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .contains("collision detection"),
            "error names the missing capability: {response}"
        );
        // The server is still able to answer a good request afterwards —
        // the panicking cell neither killed a pool worker nor wedged the
        // batch countdown.
        let (ok_response, _) = handle_request(
            r#"{"cmd":"run","family":"path","size":8,"protocol":"trivial_bfs"}"#,
            &shared,
        );
        let ok = Json::parse(&ok_response).expect("JSON");
        assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
        // A capability mismatch inside a *batch* refuses the batch but
        // leaves the pool healthy too.
        let (mixed, _) = handle_request(
            r#"{"cmd":"run","batch":[{"family":"path","size":8,"protocol":"trivial_bfs","seeds":[7]},{"family":"path","size":8,"protocol":"trivial_bfs_cd","stack":"physical"}]}"#,
            &shared,
        );
        let mixed = Json::parse(&mixed).expect("JSON");
        assert_eq!(mixed.get("ok").and_then(Json::as_bool), Some(false));
        let (after, _) = handle_request(
            r#"{"cmd":"run","family":"path","size":8,"protocol":"trivial_bfs","seeds":[7]}"#,
            &shared,
        );
        let after = Json::parse(&after).expect("JSON");
        assert_eq!(after.get("ok").and_then(Json::as_bool), Some(true));
        std::fs::remove_dir_all(&dir).ok();
    }
}
