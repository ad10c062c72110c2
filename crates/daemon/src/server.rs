//! The daemon server: control listener, metrics listener, addr file,
//! event log.
//!
//! `serve` binds two `std::net` TCP listeners on localhost — the
//! line-delimited JSON control protocol and a minimal HTTP responder
//! for `GET /metrics` — writes both addresses to the addr file
//! (atomically, tmp + rename, so a polling client never reads a torn
//! write), and blocks until a `Shutdown` request. `--port 0` works:
//! the kernel picks an ephemeral port and the addr file is how clients
//! learn it, so parallel daemons (CI!) never collide.
//!
//! Durability: every successfully applied mutating request is appended
//! to the event log (one JSON line, flushed) *after* it succeeded, and
//! replayed on the next start — a restarted daemon reaches the
//! identical twin state, which the restart tests assert snapshot- and
//! tree-exactly.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
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
    pub fn replay(path: &Path, twin: &mut Twin) -> Result<usize, String> {
        let text = match fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(format!("read event log {}: {e}", path.display())),
        };
        let mut replayed = 0;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let req: Request = protocol::decode(line)
                .map_err(|e| format!("event log {} line {}: {e}", path.display(), i + 1))?;
            let resp = twin.handle(&req);
            if let Response::Error { message } = resp {
                return Err(format!(
                    "event log {} line {} does not apply: {message}",
                    path.display(),
                    i + 1
                ));
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

/// Runs the daemon: replays the event log, binds both listeners,
/// publishes the addr file, then serves control connections until a
/// `Shutdown` request. Returns after a clean shutdown (addr file
/// removed, metrics thread joined).
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

    let twin = Arc::new(Mutex::new(twin));
    let stop = Arc::new(AtomicBool::new(false));
    let metrics_thread = {
        let twin = Arc::clone(&twin);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            for stream in metrics.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = stream {
                    let _ = serve_metrics_conn(stream, &twin);
                }
            }
        })
    };

    let mut shutdown = false;
    while !shutdown {
        let stream = match control.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        // One connection at a time: the control plane is a serial
        // event stream by design (events and queries must interleave
        // in a client-visible total order for determinism).
        shutdown = serve_control_conn(stream, &twin, log.as_mut()).unwrap_or(false);
    }

    stop.store(true, Ordering::SeqCst);
    // Unblock the metrics accept loop so the thread can observe stop.
    let _ = TcpStream::connect(metrics_addr);
    let _ = metrics_thread.join();
    let _ = fs::remove_file(&config.addr_file);
    println!("pr-daemon: bye");
    Ok(())
}

/// Serves one control connection; returns `true` on `Shutdown`.
fn serve_control_conn(
    stream: TcpStream,
    twin: &Arc<Mutex<Twin>>,
    mut log: Option<&mut EventLog>,
) -> std::io::Result<bool> {
    // Replies are one small segment each and the client waits for every
    // one: Nagle's algorithm would only add its delayed-ACK stall.
    stream.set_nodelay(true)?;
    let reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    // One `write_all` per reply: a reply split over two segments makes
    // the second wait for the client's delayed ACK of the first.
    let mut reply = |resp: &Response| {
        let mut line = protocol::encode(resp);
        line.push('\n');
        writer.write_all(line.as_bytes())
    };
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let mut quit = false;
        let resp = match protocol::decode::<Request>(&line) {
            Err(message) => Response::Error { message },
            Ok(req) => {
                let resp = twin.lock().expect("twin lock").handle(&req);
                if req.mutates() && !resp.is_error() {
                    if let Some(log) = log.as_deref_mut() {
                        if let Err(message) = log.record(&req) {
                            // An unrecordable event must not be
                            // acknowledged: a restart would lose it.
                            reply(&Response::Error { message })?;
                            continue;
                        }
                    }
                }
                quit = matches!(req, Request::Shutdown);
                resp
            }
        };
        reply(&resp)?;
        if quit {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Serves one metrics connection: `GET /metrics` renders the page,
/// anything else is 404/405. HTTP/1.0-level framing with
/// `Connection: close` — exactly what a Prometheus scraper needs.
fn serve_metrics_conn(stream: TcpStream, twin: &Arc<Mutex<Twin>>) -> std::io::Result<()> {
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
        ("GET", "/metrics") => {
            let body = crate::metrics::render(&mut twin.lock().expect("twin lock"));
            http_respond(&mut writer, "200 OK", "text/plain; version=0.0.4", &body)
        }
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
