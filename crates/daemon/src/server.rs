//! The daemon server: control listener, metrics listener, addr file,
//! event log.
//!
//! `serve` binds two `std::net` TCP listeners on localhost — the
//! line-delimited JSON control protocol and a minimal HTTP responder
//! for `GET /metrics` — writes both addresses to the addr file
//! (atomically, tmp + rename, so a polling client never reads a torn
//! write), and blocks until a `Shutdown` request on any connection.
//! `--port 0` works: the kernel picks an ephemeral port and the addr
//! file is how clients learn it, so parallel daemons (CI!) never
//! collide.
//!
//! Every control connection is served on a thread of its own and is
//! closed after [`CONTROL_IDLE_TIMEOUT`] of silence, so a client that
//! connects and says nothing costs a thread for a while, never another
//! client's turn. The requests of all connections still form one total
//! order: the twin and the event log sit behind one lock, and a request
//! is applied, recorded and answered under it.
//!
//! Durability: every successfully applied mutating request is appended
//! to the event log (one JSON line, flushed) *after* it succeeded, and
//! replayed on the next start — a restarted daemon reaches the
//! identical twin state, which the restart tests assert snapshot- and
//! tree-exactly. A record torn by a crash mid-write is cut off the
//! log's tail at the next start ([`EventLog::replay`]), and a request
//! that panics inside the twin answers an error and leaves the twin as
//! it was ([`guarded`]).

use std::collections::HashMap;
use std::fs;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::protocol::{self, DaemonAddrs, Request, Response};
use crate::twin::Twin;

/// Where the daemon should listen and persist.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Control port (0 = ephemeral).
    pub port: u16,
    /// Metrics port (0 = ephemeral).
    pub metrics_port: u16,
    /// Addr file announcing the bound addresses to clients.
    pub addr_file: PathBuf,
    /// Event log for restart replay (`None` = volatile daemon).
    pub event_log: Option<PathBuf>,
}

/// Append-only event log: one encoded mutating [`Request`] per line.
#[derive(Debug)]
pub struct EventLog {
    file: fs::File,
}

impl EventLog {
    /// Opens (creating if absent) the log for appending.
    pub fn open(path: &Path) -> Result<EventLog, String> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("open event log {}: {e}", path.display()))?;
        Ok(EventLog { file })
    }

    /// Appends one applied request, flushed before the caller answers
    /// the client.
    pub fn record(&mut self, req: &Request) -> Result<(), String> {
        let line = format!("{}\n", protocol::encode(req));
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| format!("append event log: {e}"))
    }

    /// Replays a log into a fresh twin; a missing file is an empty
    /// log. Every replayed event must apply cleanly — the log only
    /// ever records *successful* mutations, so an error here means the
    /// log does not belong to this topology (or was corrupted), and
    /// starting from it would silently diverge.
    ///
    /// The exception is a **torn tail**. A record is written with its
    /// newline in one go and acknowledged afterwards, so bytes after
    /// the last newline are what a daemon killed mid-write leaves, of
    /// an event nobody was told about: they are truncated off the
    /// file, loudly, and the daemon starts from the prefix.
    pub fn replay(path: &Path, twin: &mut Twin) -> Result<usize, String> {
        let at = path.display();
        let mut bytes = match fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(format!("read event log {at}: {e}")),
        };
        let whole = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |end| end + 1);
        if whole < bytes.len() {
            let file = fs::OpenOptions::new().write(true).open(path);
            file.and_then(|file| file.set_len(whole as u64))
                .map_err(|e| format!("truncate event log {at}: {e}"))?;
            let torn = bytes.len() - whole;
            eprintln!("pr-daemon: event log {at}: truncated {torn} bytes of a torn final record");
            bytes.truncate(whole);
        }
        let mut replayed = 0;
        for (i, line) in String::from_utf8_lossy(&bytes).lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let at = || format!("event log {at} line {}", i + 1);
            let req: Request = protocol::decode(line).map_err(|e| format!("{}: {e}", at()))?;
            if let Response::Error { message } = twin.handle(&req) {
                return Err(format!("{} does not apply: {message}", at()));
            }
            replayed += 1;
        }
        Ok(replayed)
    }
}

/// Writes the addr file atomically (tmp + rename).
fn write_addr_file(path: &Path, addrs: &DaemonAddrs) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let tmp = path.with_extension("addr.tmp");
    fs::write(&tmp, protocol::encode(addrs))
        .map_err(|e| format!("write {}: {e}", tmp.display()))?;
    fs::rename(&tmp, path).map_err(|e| format!("publish {}: {e}", path.display()))
}

/// How long a control connection may stay silent — no byte of a
/// request arriving — before the daemon closes it. `pr ctl` and the
/// daemon's own clients send their request as soon as they connect; a
/// client that holds a connection across a longer pause reconnects.
pub const CONTROL_IDLE_TIMEOUT: Duration = Duration::from_secs(60);

/// The idle timeout in force.
fn idle_timeout() -> Duration {
    #[cfg(test)]
    if let ms @ 1.. = IDLE_TIMEOUT_MS.load(Ordering::SeqCst) {
        return Duration::from_millis(ms);
    }
    CONTROL_IDLE_TIMEOUT
}

/// What the connections share, behind one lock: the twin, the log of
/// the events applied to it — so an event is applied and recorded in
/// one step, and the log holds events in the order clients were
/// answered — and the control plane's own counters.
struct Plane {
    twin: Twin,
    log: Option<EventLog>,
    /// Control connections closed for staying silent past the idle
    /// timeout.
    idle_closed: u64,
    /// Set once a `Shutdown` is answered: what any connection asks
    /// after it is refused, so no event lands after the daemon stops.
    closing: bool,
}

/// Runs the daemon: replays the event log, binds both listeners,
/// publishes the addr file, then serves control connections, each on
/// its own thread, until a `Shutdown` request on any of them. Returns
/// after a clean shutdown (addr file removed, every connection closed,
/// every thread joined).
pub fn serve(mut twin: Twin, config: &DaemonConfig) -> Result<(), String> {
    let mut log = None;
    if let Some(path) = &config.event_log {
        let replayed = EventLog::replay(path, &mut twin)?;
        if replayed > 0 {
            println!("pr-daemon: replayed {replayed} events from {}", path.display());
        }
        log = Some(EventLog::open(path)?);
    }

    let control = TcpListener::bind(("127.0.0.1", config.port))
        .map_err(|e| format!("bind control port {}: {e}", config.port))?;
    let metrics = TcpListener::bind(("127.0.0.1", config.metrics_port))
        .map_err(|e| format!("bind metrics port {}: {e}", config.metrics_port))?;
    let control_addr = control.local_addr().map_err(|e| format!("control addr: {e}"))?;
    let metrics_addr = metrics.local_addr().map_err(|e| format!("metrics addr: {e}"))?;
    let addrs =
        DaemonAddrs { control: control_addr.to_string(), metrics: metrics_addr.to_string() };
    write_addr_file(&config.addr_file, &addrs)?;
    println!("pr-daemon: control {control_addr}");
    println!("pr-daemon: metrics http://{metrics_addr}/metrics");
    println!("pr-daemon: ready ({})", config.addr_file.display());

    let plane = Mutex::new(Plane { twin, log, idle_closed: 0, closing: false });
    let stop = AtomicBool::new(false);
    // The control connections being served, by accept order: what
    // shutdown closes, so that no thread outlives `serve`.
    let open = Mutex::new(HashMap::new());
    let registry = || open.lock().expect("the connection registry is never held across a panic");
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for stream in metrics.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = stream {
                    let _ = serve_metrics_conn(stream, &plane);
                }
            }
        });

        for (id, stream) in control.incoming().enumerate() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let Ok(handle) = stream.try_clone() else { continue };
            registry().insert(id, handle);
            let (plane, stop, registry) = (&plane, &stop, &registry);
            scope.spawn(move || {
                let bye = serve_control_conn(stream, plane).unwrap_or(false);
                registry().remove(&id);
                if bye {
                    stop.store(true, Ordering::SeqCst);
                    // Unblock the accept loop so it can observe stop.
                    let _ = TcpStream::connect(control_addr);
                }
            });
        }

        // A connection still open — an idle client's — is closed now,
        // not at its timeout; the metrics accept loop is woken like the
        // control one. The scope joins every thread.
        for stream in registry().values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let _ = TcpStream::connect(metrics_addr);
    });
    let _ = fs::remove_file(&config.addr_file);
    println!("pr-daemon: bye");
    Ok(())
}

/// Locks the shared state. Nothing unwinds while holding it: every
/// request runs under [`guarded`].
fn lock(plane: &Mutex<Plane>) -> std::sync::MutexGuard<'_, Plane> {
    plane.lock().expect("no request unwinds past its guard")
}

/// Runs `f` on the twin — how both listeners reach it, under the lock
/// — so that a panic inside it costs one request, not the daemon: the
/// twin is put back as it was ([`Twin::surviving`]) while the lock is
/// still held, so the mutex is never poisoned.
fn guarded<R>(twin: &mut Twin, f: impl FnOnce(&mut Twin) -> R) -> Result<R, String> {
    twin.surviving(f).map_err(|panic| {
        let what = panic.downcast_ref::<String>().map(String::as_str);
        let what = what.or(panic.downcast_ref::<&str>().copied()).unwrap_or("?");
        format!("request panicked, twin restored: {what}")
    })
}

/// Answers one decoded request under the lock: handled under
/// [`guarded`], and — a mutation that succeeded — appended to the event
/// log before it is acknowledged.
fn answer(plane: &Mutex<Plane>, req: &Request) -> Response {
    let mut plane = lock(plane);
    let Plane { twin, log, closing, .. } = &mut *plane;
    if *closing {
        return Response::Error { message: "the daemon is shutting down".into() };
    }
    let resp = guarded(twin, |twin| twin.handle(req))
        .unwrap_or_else(|message| Response::Error { message });
    if let (true, Some(log)) = (req.mutates() && !resp.is_error(), log) {
        if let Err(message) = log.record(req) {
            // An unrecordable event must not be acknowledged: a
            // restart would lose it.
            return Response::Error { message };
        }
    }
    *closing = matches!(resp, Response::Bye);
    resp
}

/// The longest request line a control client may send. The largest
/// request in the protocol is under 200 bytes; a client that streams
/// bytes without a newline must not grow the daemon's buffer with them.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Serves one control connection; returns `true` on `Shutdown`. A
/// request line over [`MAX_REQUEST_LINE`] is answered with an error
/// and the connection closed: what follows it cannot be framed. A
/// connection silent for the idle timeout is closed and counted.
fn serve_control_conn(stream: TcpStream, plane: &Mutex<Plane>) -> std::io::Result<bool> {
    // Replies are one small segment each and the client waits for every
    // one: Nagle's algorithm would only add its delayed-ACK stall.
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(idle_timeout()))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    // One `write_all` per reply: a reply split over two segments makes
    // the second wait for the client's delayed ACK of the first.
    let mut reply = |resp: &Response| {
        let mut line = protocol::encode(resp);
        line.push('\n');
        writer.write_all(line.as_bytes())
    };
    let mut line = Vec::new();
    loop {
        line.clear();
        let limit = MAX_REQUEST_LINE as u64 + 1;
        match (&mut reader).take(limit).read_until(b'\n', &mut line) {
            Ok(0) => return Ok(false),
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // Counted while the socket is still open: a client that
                // reads the close finds it counted.
                lock(plane).idle_closed += 1;
                return Ok(false);
            }
            Err(e) => return Err(e),
        }
        if line.len() > MAX_REQUEST_LINE && !line.ends_with(b"\n") {
            let message = format!("request line exceeds {MAX_REQUEST_LINE} bytes");
            reply(&Response::Error { message })?;
            return Ok(false);
        }
        let resp = match std::str::from_utf8(&line) {
            Ok(text) if text.trim().is_empty() => continue,
            Ok(text) => match protocol::decode::<Request>(text) {
                Err(message) => Response::Error { message },
                Ok(req) => answer(plane, &req),
            },
            Err(e) => Response::Error {
                message: format!("request is not UTF-8 at byte {}", e.valid_up_to()),
            },
        };
        reply(&resp)?;
        if matches!(resp, Response::Bye) {
            return Ok(true);
        }
    }
}

/// Renders the metrics page under the lock, the twin's read-outs and
/// the control plane's counter.
fn page(plane: &Mutex<Plane>) -> Result<String, String> {
    let mut plane = lock(plane);
    let idle_closed = plane.idle_closed;
    guarded(&mut plane.twin, |twin| crate::metrics::render(twin, idle_closed))
}

/// Serves one metrics connection: `GET /metrics` renders the page,
/// anything else is 404/405. HTTP/1.0-level framing with
/// `Connection: close` — exactly what a Prometheus scraper needs.
fn serve_metrics_conn(stream: TcpStream, plane: &Mutex<Plane>) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 || header.trim().is_empty() {
            break;
        }
    }
    let mut writer = stream;
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    match (method, path) {
        ("GET", "/metrics") => match page(plane) {
            Ok(body) => http_respond(&mut writer, "200 OK", "text/plain; version=0.0.4", &body),
            Err(message) => {
                http_respond(&mut writer, "500 Internal Server Error", "text/plain", &message)
            }
        },
        ("GET", _) => http_respond(&mut writer, "404 Not Found", "text/plain", "not found\n"),
        _ => http_respond(&mut writer, "405 Method Not Allowed", "text/plain", "GET only\n"),
    }
}

fn http_respond(
    writer: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        writer,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    writer.flush()
}

/// Reads a published addr file.
pub fn read_addr_file(path: &Path) -> Result<DaemonAddrs, String> {
    let text = fs::read_to_string(path)
        .map_err(|e| format!("read addr file {}: {e} (is the daemon running?)", path.display()))?;
    protocol::decode(&text)
}

/// Polls for an addr file to appear (a starting daemon publishes it
/// once both listeners are bound), up to `timeout`.
pub fn wait_for_addr_file(path: &Path, timeout: Duration) -> Result<DaemonAddrs, String> {
    let deadline = std::time::Instant::now() + timeout;
    loop {
        if path.is_file() {
            if let Ok(addrs) = read_addr_file(path) {
                return Ok(addrs);
            }
        }
        if std::time::Instant::now() >= deadline {
            return Err(format!("daemon did not publish {} within {timeout:?}", path.display()));
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// A control-protocol client: one connection, serial request/response.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a daemon's control address (`host:port`).
    pub fn connect(addr: &str) -> Result<Client, String> {
        let addr: SocketAddr =
            addr.parse().map_err(|e| format!("bad control address {addr:?}: {e}"))?;
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("set TCP_NODELAY: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Client { reader, writer: stream })
    }

    /// Sends one request and reads its response line.
    pub fn request(&mut self, req: &Request) -> Result<Response, String> {
        let line = format!("{}\n", protocol::encode(req));
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply).map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".to_string());
        }
        protocol::decode(&reply)
    }
}

/// One-shot request against an addr-file-published daemon.
pub fn request_via(addr_file: &Path, req: &Request) -> Result<Response, String> {
    let addrs = read_addr_file(addr_file)?;
    Client::connect(&addrs.control)?.request(req)
}

/// Scrapes `GET /metrics` from a daemon's metrics address, returning
/// the page body (errors on any non-200 status).
pub fn scrape_metrics(addr: &str) -> Result<String, String> {
    let sock: SocketAddr =
        addr.parse().map_err(|e| format!("bad metrics address {addr:?}: {e}"))?;
    let mut stream = TcpStream::connect_timeout(&sock, Duration::from_secs(10))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    write!(stream, "GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
        .map_err(|e| format!("send: {e}"))?;
    stream.flush().map_err(|e| format!("send: {e}"))?;
    let mut page = String::new();
    std::io::Read::read_to_string(&mut stream, &mut page).map_err(|e| format!("receive: {e}"))?;
    let (head, body) = page
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed HTTP response from {addr}"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains("200") {
        return Err(format!("metrics scrape failed: {status}"));
    }
    Ok(body.to_string())
}

/// A shorter idle timeout in milliseconds for this crate's unit tests
/// (0: [`CONTROL_IDLE_TIMEOUT`]).
#[cfg(test)]
static IDLE_TIMEOUT_MS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::QueryKind;
    use crate::twin::{cold_recompile, DemandSpec, PANIC_IN_NEXT_RELABEL};
    use pr_core::{DiscriminatorKind, PrMode, PrNetwork};
    use pr_graph::Graph;

    fn abilene_twin() -> (Graph, Twin) {
        let graph =
            pr_topologies::load(pr_topologies::Isp::Abilene, pr_topologies::Weighting::Distance);
        let rot = pr_embedding::heuristics::thorough(&graph, 2010, 4, 10_000);
        let emb = pr_embedding::CellularEmbedding::new(&graph, rot).expect("embedding");
        let net =
            PrNetwork::compile(&graph, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
        let twin = Twin::new(graph.clone(), net, DemandSpec::gravity(), 1).expect("twin");
        (graph, twin)
    }

    /// The `"A-B"` name of the `i`-th link.
    fn link(graph: &Graph, i: usize) -> String {
        let (a, b) = graph.endpoints(graph.links().nth(i).expect("link"));
        format!("{}-{}", graph.node_name(a), graph.node_name(b))
    }

    #[test]
    fn a_request_that_panics_costs_one_answer_and_nothing_else() {
        let (graph, twin) = abilene_twin();
        let path = std::env::temp_dir().join(format!("pr-daemon-panic-{}.log", std::process::id()));
        let _ = fs::remove_file(&path);
        let log = Some(EventLog::open(&path).expect("open log"));
        let plane = Mutex::new(Plane { twin, log, idle_closed: 0, closing: false });
        let link = |i| link(&graph, i);
        let ask = |req: &Request| answer(&plane, req);

        assert!(!ask(&Request::LinkDown { link: link(0) }).is_error());
        ask(&Request::Query { what: QueryKind::Traffic });
        let before = ask(&Request::Snapshot);

        // The failed set has the link, `live` does not know yet.
        PANIC_IN_NEXT_RELABEL.set(true);
        let down = Request::LinkDown { link: link(4) };
        match ask(&down) {
            Response::Error { message } => assert!(message.contains("injected"), "{message}"),
            other => panic!("expected an error, got {other:?}"),
        }
        assert!(!plane.is_poisoned());
        assert_eq!(ask(&Request::Snapshot), before, "state, gauges and counters as they were");
        {
            let twin = &plane.lock().unwrap().twin;
            assert_eq!(twin.failed_set().len(), 1);
            let cold = cold_recompile(&graph, twin.failed_set());
            for dest in graph.nodes() {
                assert_eq!(twin.live_tree(dest), cold.live.towards(dest), "tree towards {dest}");
            }
        }
        // The scrape side goes through the same guard.
        PANIC_IN_NEXT_RELABEL.set(true);
        let scraped = guarded(&mut lock(&plane).twin, |twin| {
            twin.handle(&down);
            crate::metrics::render(twin, 0)
        });
        assert!(scraped.is_err() && !plane.is_poisoned());
        assert_eq!(ask(&Request::Snapshot), before);

        // The same request again succeeds, and is the only one of the
        // three attempts the log holds.
        assert!(!ask(&down).is_error());
        let logged = fs::read_to_string(&path).expect("log");
        let want = [Request::LinkDown { link: link(0) }, down];
        assert_eq!(logged, want.map(|req| protocol::encode(&req) + "\n").concat());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn an_idle_control_client_is_cut_off_and_blocks_nobody() {
        const TIMEOUT: Duration = Duration::from_millis(1500);
        IDLE_TIMEOUT_MS.store(TIMEOUT.as_millis() as u64, Ordering::SeqCst);
        let (graph, twin) = abilene_twin();
        let dir = std::env::temp_dir().join(format!("pr-daemon-idle-{}", std::process::id()));
        let addr_file = dir.join("daemon.addr");
        let config = DaemonConfig {
            port: 0,
            metrics_port: 0,
            addr_file: addr_file.clone(),
            event_log: None,
        };
        let daemon = std::thread::spawn(move || serve(twin, &config).expect("serve"));
        let addrs = wait_for_addr_file(&addr_file, Duration::from_secs(30)).expect("daemon up");

        // A connects first and says nothing.
        let mut silent = TcpStream::connect(&addrs.control).expect("connect A");
        let connected = std::time::Instant::now();
        // B is answered all the same, within the time A is allowed: a
        // daemon that waited on A would fail this, not hang it.
        let busy = TcpStream::connect(&addrs.control).expect("connect B");
        busy.set_read_timeout(Some(TIMEOUT)).expect("client timeout");
        let mut replies = BufReader::new(busy.try_clone().expect("clone"));
        let mut busy = busy;
        for req in [
            Request::LinkDown { link: link(&graph, 3) },
            Request::Query { what: QueryKind::Traffic },
            Request::LinkUp { link: link(&graph, 3) },
        ] {
            busy.write_all(format!("{}\n", protocol::encode(&req)).as_bytes()).expect("send");
            let mut reply = String::new();
            replies.read_line(&mut reply).expect("B is answered while A sits idle");
            let resp: Response = protocol::decode(&reply).expect("a reply");
            assert!(!resp.is_error(), "{req:?}: {resp:?}");
        }
        assert!(connected.elapsed() < TIMEOUT, "B was answered while A sat idle and open");
        drop((busy, replies));

        // After the timeout, A reads the end of the stream.
        silent.set_read_timeout(Some(10 * TIMEOUT)).expect("client timeout");
        let mut byte = [0u8; 1];
        assert_eq!(silent.read(&mut byte).expect("A reads the close"), 0);
        assert!(connected.elapsed() >= TIMEOUT);
        let page = scrape_metrics(&addrs.metrics).expect("scrape");
        assert!(page.contains("\npr_control_idle_closed_total 1\n"), "{page}");

        // A client still idle at shutdown is closed by it, not left to
        // its timeout: `serve` returns with no connection thread alive.
        let mut lingering = TcpStream::connect(&addrs.control).expect("connect C");
        let connected = std::time::Instant::now();
        let bye = request_via(&addr_file, &Request::Shutdown).expect("shutdown");
        assert!(matches!(bye, Response::Bye), "{bye:?}");
        daemon.join().expect("clean exit");
        assert!(connected.elapsed() < TIMEOUT, "serve waited for C's timeout");
        assert_eq!(lingering.read(&mut byte).expect("C reads the close"), 0);
        fs::remove_dir_all(&dir).ok();
    }
}
