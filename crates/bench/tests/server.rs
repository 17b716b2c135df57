//! Concurrency and fault conformance suite for the sweep server.
//!
//! The contracts pinned here are the serve-mode acceptance surface:
//!
//! * **Concurrency conformance** — several clients issuing overlapping
//!   cold and warm requests get responses byte-identical to the same
//!   scripts run serially against a fresh server, and the per-response
//!   `hits`/`computed` fields sum exactly to the `stats` totals.
//! * **Fault injection** — truncated lines, binary garbage, nesting
//!   bombs, oversized payloads, mid-request disconnects, and stalled
//!   clients each get a structured error or a dropped connection; none
//!   kills the server or wedges the accept pool (pinned by a healthy
//!   follow-up request after every fault).
//! * **Liveness regression** — a second client connects AND is served
//!   while the first is deep inside a long cold 2^18 cell. The PR 8
//!   single-connection loop failed exactly this.
//! * **Restart / hot-set identity** — a restarted server over the same
//!   store serves the same warm bytes and reports the same store size, and
//!   a tiny hot-set cap (eviction on every insert) serves the same bytes
//!   as hot-set-off.
//! * **Soak** — a bounded seeded loop of randomized batched requests
//!   from concurrent clients: zero errored responses, monotone stats,
//!   clean shutdown with requests in flight.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

use radio_bench::json::Json;
use radio_bench::results::ResultStore;
use radio_bench::scenarios::RunnerConfig;
use radio_bench::server::{serve, ServeOptions, ServeSummary, MAX_LINE_BYTES};

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("server")
        .join(format!("{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Starts a server on an ephemeral port over `dir` and returns its address
/// plus the join handle yielding the exit summary.
fn spawn_server(
    dir: &Path,
    accept_threads: usize,
    hot_cap: usize,
) -> (std::net::SocketAddr, std::thread::JoinHandle<ServeSummary>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
    let addr = listener.local_addr().expect("local addr");
    let dir = dir.to_path_buf();
    let handle = std::thread::spawn(move || {
        let results = ResultStore::new(dir).with_hot_set(hot_cap);
        serve(
            listener,
            &RunnerConfig::serial(),
            None,
            &results,
            &ServeOptions { accept_threads },
        )
        .expect("serve")
    });
    (addr, handle)
}

/// One line-protocol client. Each open client pins one accept-pool
/// handler, so tests must keep `open clients ≤ accept_threads` or close
/// earlier ones before connecting more.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("read timeout");
        let writer = stream.try_clone().expect("clone stream");
        Client {
            writer,
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send newline");
        self.writer.flush().expect("flush");
    }

    /// Reads one raw response line (trailing newline stripped). `None`
    /// means the server closed or reset the connection — an allowed
    /// outcome for faulted or shut-down peers, never a test hang (reads
    /// time out loudly).
    fn recv(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(line.trim_end_matches('\n').to_string()),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::ConnectionReset
                        | ErrorKind::ConnectionAborted
                        | ErrorKind::BrokenPipe
                        | ErrorKind::UnexpectedEof
                ) =>
            {
                None
            }
            Err(e) => panic!("read response: {e}"),
        }
    }

    fn ask(&mut self, line: &str) -> String {
        self.send(line);
        self.recv().expect("response line")
    }

    fn ask_json(&mut self, line: &str) -> Json {
        let raw = self.ask(line);
        Json::parse(&raw).unwrap_or_else(|e| panic!("response not JSON ({e}): {raw}"))
    }

    /// A request that tolerates the server going away mid-exchange (soak
    /// traffic racing shutdown): `None` on any write/read failure.
    fn try_ask(&mut self, line: &str) -> Option<String> {
        self.writer.write_all(line.as_bytes()).ok()?;
        self.writer.write_all(b"\n").ok()?;
        self.writer.flush().ok()?;
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) | Err(_) => None,
            Ok(_) => Some(response.trim_end_matches('\n').to_string()),
        }
    }

    fn shutdown(&mut self) {
        let bye = self.ask_json(r#"{"cmd":"shutdown"}"#);
        assert_eq!(bye.get("shutdown").and_then(Json::as_bool), Some(true));
    }
}

fn u(v: &Json, key: &str) -> u64 {
    v.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing u64 {key:?} in {v:?}"))
}

fn is_ok(v: &Json) -> bool {
    v.get("ok").and_then(Json::as_bool) == Some(true)
}

fn error_text(v: &Json) -> &str {
    v.get("error").and_then(Json::as_str).unwrap_or_default()
}

fn response_record_count(v: &Json) -> u64 {
    if let Some(items) = v.get("batch").and_then(Json::as_array) {
        items
            .iter()
            .map(|item| {
                item.get("records")
                    .and_then(Json::as_array)
                    .map_or(0, |r| r.len() as u64)
            })
            .sum()
    } else {
        v.get("records")
            .and_then(Json::as_array)
            .map_or(0, |r| r.len() as u64)
    }
}

/// The shared warm mix: a batch and two single requests over small cells
/// (7 distinct cells, 10 record occurrences).
fn shared_mix() -> Vec<String> {
    vec![
        r#"{"cmd":"run","family":"path","size":48,"protocol":"trivial_bfs","seeds":[0,1,2]}"#.into(),
        r#"{"cmd":"run","batch":[{"family":"grid","size":64,"protocol":"trivial_bfs","seeds":[0,1]},{"family":"cycle","size":40,"protocol":"trivial_bfs","seeds":[0]},{"family":"path","size":48,"protocol":"trivial_bfs","seeds":[1,2]}]}"#.into(),
        r#"{"cmd":"run","family":"tree3","size":40,"protocol":"decay_bfs","seeds":[0]}"#.into(),
    ]
}

/// Client `i`'s private cold request: seeds nobody else touches, so its
/// `hits`/`computed` split is deterministic under any interleaving.
fn cold_mix(i: usize) -> String {
    format!(
        r#"{{"cmd":"run","family":"path","size":48,"protocol":"trivial_bfs","seeds":[{},{}]}}"#,
        100 + 10 * i,
        101 + 10 * i
    )
}

/// Runs client `i`'s full script against `addr` and returns its responses
/// in order: private cold cells, the shared warm mix twice, the private
/// cells again (now warm) — overlapping cold and warm traffic.
fn client_script(addr: std::net::SocketAddr, i: usize) -> Vec<String> {
    let mut client = Client::connect(addr);
    let mut responses = Vec::new();
    responses.push(client.ask(&cold_mix(i)));
    for request in shared_mix().iter().chain(shared_mix().iter()) {
        responses.push(client.ask(request));
    }
    responses.push(client.ask(&cold_mix(i)));
    responses
}

/// Pre-warms the shared mix over one short-lived connection and returns
/// the cold responses.
fn prewarm(addr: std::net::SocketAddr) -> Vec<String> {
    let mut warmer = Client::connect(addr);
    let responses: Vec<String> = shared_mix().iter().map(|r| warmer.ask(r)).collect();
    for raw in &responses {
        assert!(
            is_ok(&Json::parse(raw).expect("pre-warm JSON")),
            "pre-warm failed: {raw}"
        );
    }
    responses
}

#[test]
fn concurrent_clients_are_byte_identical_to_serial_with_exact_counter_sums() {
    const CLIENTS: usize = 4;

    // Serial reference: one client at a time, fresh store, after the same
    // pre-warm of the shared mix.
    let serial_dir = scratch("conform-serial");
    let (addr, server) = spawn_server(&serial_dir, 1, 64);
    prewarm(addr);
    let serial: Vec<Vec<String>> = (0..CLIENTS).map(|i| client_script(addr, i)).collect();
    Client::connect(addr).shutdown();
    server.join().expect("serial server");

    // Concurrent run: same pre-warm, same scripts, four clients at once on
    // a four-handler accept pool.
    let dir = scratch("conform-concurrent");
    let (addr, server) = spawn_server(&dir, CLIENTS, 64);
    let prewarm_responses = prewarm(addr);
    let concurrent: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| scope.spawn(move || client_script(addr, i)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });

    // Every response of every client is byte-identical to the serial run.
    for (i, (serial_responses, concurrent_responses)) in
        serial.iter().zip(concurrent.iter()).enumerate()
    {
        assert_eq!(serial_responses.len(), concurrent_responses.len());
        for (j, (s, c)) in serial_responses
            .iter()
            .zip(concurrent_responses.iter())
            .enumerate()
        {
            assert_eq!(s, c, "client {i} response {j} diverged under concurrency");
        }
    }

    // Per-response accounting sums exactly to the stats totals: every run
    // response the server emitted (pre-warm + all concurrent clients) is
    // in our tallies, and `stats`/`shutdown` requests touch none of the
    // run counters.
    let mut hits = 0u64;
    let mut computed = 0u64;
    let mut served = 0u64;
    for raw in prewarm_responses.iter().chain(concurrent.iter().flatten()) {
        let v = Json::parse(raw).expect("response JSON");
        assert!(is_ok(&v), "errored response under concurrency: {raw}");
        hits += u(&v, "hits");
        computed += u(&v, "computed");
        served += response_record_count(&v);
    }
    let mut last = Client::connect(addr);
    let stats = last.ask_json(r#"{"cmd":"stats"}"#);
    assert_eq!(u(&stats, "hits"), hits, "probe hits must sum exactly");
    assert_eq!(
        u(&stats, "computed"),
        computed,
        "computed cells must sum exactly"
    );
    assert_eq!(
        u(&stats, "served"),
        served,
        "served records must sum exactly"
    );
    last.shutdown();
    let summary = server.join().expect("concurrent server");
    assert_eq!(summary.connections as usize, CLIENTS + 2);
    assert_eq!(summary.served, served);
    assert_eq!(summary.computed, computed);
    std::fs::remove_dir_all(&serial_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn protocol_faults_get_structured_errors_and_never_wedge_the_accept_pool() {
    let dir = scratch("faults");
    let (addr, server) = spawn_server(&dir, 2, 16);
    let healthy = r#"{"cmd":"run","family":"path","size":16,"protocol":"trivial_bfs"}"#;

    // A stalled client (connects, never sends) pins one handler for the
    // whole test; everything below must still be served by the other.
    let staller = TcpStream::connect(addr).expect("staller connects");

    // Truncated request (the newline made it, the JSON didn't).
    let mut client = Client::connect(addr);
    let v = client.ask_json(r#"{"cmd":"run","fam"#);
    assert!(!is_ok(&v));
    assert_eq!(u(&v, "code"), 2);
    // The connection survives a malformed line: framing held.
    assert!(is_ok(&client.ask_json(healthy)));

    // Binary garbage, including invalid UTF-8.
    client
        .writer
        .write_all(&[0xff, 0xfe, 0x00, 0x80, b'{', 0xc3, 0x28, b'\n'])
        .expect("garbage");
    client.writer.flush().expect("flush");
    let raw = client.recv().expect("garbage gets a response");
    let v = Json::parse(&raw).expect("structured error");
    assert!(!is_ok(&v));
    assert!(error_text(&v).contains("UTF-8"), "{raw}");
    assert!(is_ok(&client.ask_json(healthy)));

    // A nesting bomb is cut off by the parser's depth cap, not the stack.
    let bomb = format!("{}{}", "[".repeat(4096), "]".repeat(4096));
    let v = client.ask_json(&bomb);
    assert!(!is_ok(&v));
    assert!(error_text(&v).contains("nesting"), "{v:?}");
    assert!(is_ok(&client.ask_json(healthy)));

    // An oversized line (> 1 MiB) forfeits the connection: the server
    // sends a structured refusal if the socket still allows it, then
    // drops. Either way the client ends disconnected, never hung.
    let mut big = String::with_capacity(MAX_LINE_BYTES + 64);
    big.push_str(r#"{"cmd":"run","family":""#);
    while big.len() <= MAX_LINE_BYTES {
        big.push('x');
    }
    big.push_str("\"}");
    client.send(&big);
    if let Some(raw) = client.recv() {
        let v = Json::parse(&raw).expect("refusal is JSON");
        assert!(!is_ok(&v));
        assert!(error_text(&v).contains("exceeds"), "{raw}");
    }
    assert_eq!(client.recv(), None, "oversized line drops the connection");

    // Mid-request disconnect: half a request, then the socket dies.
    {
        let mut dropper = Client::connect(addr);
        dropper
            .writer
            .write_all(br#"{"cmd":"run","family":"pa"#)
            .expect("partial");
        dropper.writer.flush().expect("flush");
    }

    // The accept pool is still healthy after every fault above: a fresh
    // connection gets a correct answer and working stats.
    let mut after = Client::connect(addr);
    let v = after.ask_json(healthy);
    assert!(is_ok(&v));
    assert_eq!(u(&v, "hits") + u(&v, "computed"), 1);
    let stats = after.ask_json(r#"{"cmd":"stats"}"#);
    assert!(is_ok(&stats));
    after.shutdown();
    drop(staller);
    let summary = server.join().expect("server survives the fault battery");
    assert!(summary.requests >= 8, "requests={}", summary.requests);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_second_client_is_served_while_the_first_computes_a_cold_xl_cell() {
    // The PR 8 regression: `serve` handled one connection at a time, so a
    // client whose request was computing held the listener and every other
    // client hung until the first disconnected. Pin the fix
    // deterministically: client A starts a long cold 2^18 cell and B then
    // completes full round trips while A's connection is still open and
    // mid-request — impossible under a single-connection loop, no timing
    // assumptions needed.
    let dir = scratch("liveness");
    let (addr, server) = spawn_server(&dir, 2, 16);

    let small = r#"{"cmd":"run","family":"path","size":16,"protocol":"trivial_bfs"}"#;
    {
        let mut warm = Client::connect(addr);
        assert!(is_ok(&warm.ask_json(small)));
    }

    let mut a = Client::connect(addr);
    a.send(
        r#"{"cmd":"run","family":"path","size":262144,"protocol":"trivial_bfs:depth=64","seeds":[0]}"#,
    );
    // B's requests deliberately avoid the compute pool (warm run, stats, a
    // structured error), so they are served even while A's cell owns the
    // only compute worker.
    let mut b = Client::connect(addr);
    let warm_run = b.ask_json(small);
    assert!(is_ok(&warm_run));
    assert_eq!(u(&warm_run, "hits"), 1, "B's run is a pure store hit");
    let stats = b.ask_json(r#"{"cmd":"stats"}"#);
    assert!(is_ok(&stats));
    let err = b.ask_json(r#"{"cmd":"nope"}"#);
    assert!(!is_ok(&err));

    // Only now collect A's response; it must still be correct.
    let a_raw = a.recv().expect("A's response");
    let a_response = Json::parse(&a_raw).expect("A's response is JSON");
    assert!(is_ok(&a_response), "{a_raw}");
    assert_eq!(u(&a_response, "computed"), 1);
    assert_eq!(
        a_response
            .get("records")
            .and_then(Json::as_array)
            .map(|r| r.len()),
        Some(1)
    );

    b.shutdown();
    drop(a);
    server.join().expect("server");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restarts_and_tiny_hot_set_caps_serve_identical_bytes() {
    let dir = scratch("restart");
    let mix = shared_mix();

    // Cold pass with the hot set off: populate the store and take the
    // reference warm bytes.
    let (addr, server) = spawn_server(&dir, 2, 0);
    let mut client = Client::connect(addr);
    for request in &mix {
        assert!(is_ok(&client.ask_json(request)));
    }
    let reference: Vec<String> = mix.iter().map(|r| client.ask(r)).collect();
    let stats = client.ask_json(r#"{"cmd":"stats"}"#);
    let entries = u(&stats, "entries");
    let bytes = u(&stats, "bytes");
    assert!(entries >= 7, "the mix stores at least its distinct cells");
    client.shutdown();
    server.join().expect("cold server");

    // A restarted server over the same store serves the same bytes and
    // reports the same store size. A tiny hot-set cap (eviction on every
    // insert) pins that hot-vs-disk reads are byte-identical too.
    for hot_cap in [2, 0] {
        let (addr, server) = spawn_server(&dir, 2, hot_cap);
        let mut client = Client::connect(addr);
        let warm: Vec<String> = mix.iter().map(|r| client.ask(r)).collect();
        assert_eq!(warm, reference, "cap {hot_cap}: warm bytes diverged");
        let stats = client.ask_json(r#"{"cmd":"stats"}"#);
        assert_eq!(u(&stats, "entries"), entries, "cap {hot_cap}: entries");
        assert_eq!(u(&stats, "bytes"), bytes, "cap {hot_cap}: bytes");
        assert_eq!(
            u(&stats, "computed"),
            0,
            "cap {hot_cap}: a restart never forces recomputes"
        );
        client.shutdown();
        server.join().expect("restarted server");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn seeded_soak_of_randomized_batches_stays_clean_through_shutdown() {
    use rand::Rng;
    const CLIENTS: usize = 3;
    const REQUESTS_PER_CLIENT: usize = 12;

    let dir = scratch("soak");
    // One handler per soak client plus one for the stats monitor.
    let (addr, server) = spawn_server(&dir, CLIENTS + 1, 8);

    // Each client draws randomized batched requests from a deterministic
    // per-client stream over a shared cell pool, so cold/warm traffic
    // overlaps across clients and racing puts on the same key happen.
    let families = ["path", "cycle", "grid", "tree3"];
    let counts: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut r = radio_bench::rng(9000 + c as u64);
                    let mut client = Client::connect(addr);
                    let mut answered = 0u64;
                    let mut records = 0u64;
                    for _ in 0..REQUESTS_PER_CLIENT {
                        let items: Vec<String> = (0..r.gen_range(1..4))
                            .map(|_| {
                                format!(
                                    r#"{{"family":"{}","size":{},"protocol":"trivial_bfs","seeds":[{}]}}"#,
                                    families[r.gen_range(0..families.len())],
                                    [16, 25, 36][r.gen_range(0..3usize)],
                                    r.gen_range(0..4)
                                )
                            })
                            .collect();
                        let request = format!(r#"{{"cmd":"run","batch":[{}]}}"#, items.join(","));
                        let Some(raw) = client.try_ask(&request) else {
                            // The server shut down between our write and
                            // its read — an allowed end for in-flight
                            // soak traffic.
                            break;
                        };
                        let v = Json::parse(&raw).expect("soak response is JSON");
                        assert!(is_ok(&v), "soak got an errored response: {raw}");
                        answered += 1;
                        records += response_record_count(&v);
                    }
                    (answered, records)
                })
            })
            .collect();

        // While the soak traffic is in flight, poll stats from a separate
        // connection and assert monotonicity; then shut down with requests
        // still going.
        let mut monitor = Client::connect(addr);
        let mut last = 0u64;
        loop {
            let stats = monitor.ask_json(r#"{"cmd":"stats"}"#);
            let requests = u(&stats, "requests");
            assert!(requests >= last, "stats went backwards");
            last = requests;
            if requests >= (CLIENTS * REQUESTS_PER_CLIENT / 2) as u64 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        monitor.shutdown();
        handles
            .into_iter()
            .map(|h| h.join().expect("soak client"))
            .collect()
    });

    let summary = server.join().expect("soak server exits cleanly");
    let answered: u64 = counts.iter().map(|(a, _)| a).sum();
    let records: u64 = counts.iter().map(|(_, r)| r).sum();
    assert!(answered > 0, "the soak must answer traffic before shutdown");
    assert!(
        summary.served >= records,
        "served {} < records seen by clients {records}",
        summary.served
    );
    assert!(summary.requests > answered, "stats polls count as requests");
    std::fs::remove_dir_all(&dir).ok();
}
