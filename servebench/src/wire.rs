//! The client side: a `chasectl serve` child, persistent unix-socket
//! connections, and the open- and closed-loop drivers.
//!
//! Hygiene the server needs from its clients: every connection is
//! closed before `shutdown` is sent (an idle open connection keeps the
//! server alive after `shutdown_ack`), and the wait for exit is bounded.

use std::collections::{BinaryHeap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use chase_telemetry::json::{parse_line, Scalar};

use crate::gen::{Generator, Req};
use crate::oracle::ResultFields;

/// Retries of an `overloaded` request before it counts as failed.
const MAX_RETRIES: u32 = 8;

/// How long a client waits for any reply line before giving up.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `chasectl serve` child. Dropping it kills the child and
/// waits for it, so no error path leaves a server behind.
pub struct ServerProc {
    child: Option<Child>,
    socket: PathBuf,
}

impl ServerProc {
    /// Spawns `chasectl serve --runners 2` on a unix socket and waits
    /// until it answers `ping`.
    pub fn spawn(chasectl: &Path, socket: &Path) -> Result<ServerProc, String> {
        let _ = std::fs::remove_file(socket);
        let mut child = Command::new(chasectl)
            .arg("serve")
            .arg("--socket")
            .arg(format!("unix:{}", socket.display()))
            .arg("--runners")
            .arg("2")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", chasectl.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = ServerProc {
            child: Some(child),
            socket: socket.to_path_buf(),
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("server stdout: {e}"))?;
        if !line.starts_with("chase-server: listening") {
            server.kill();
            return Err(format!("server did not start: {line:?}"));
        }
        let mut conn = server.connect()?;
        conn.send("{\"op\":\"ping\"}")?;
        let reply = conn.read_line()?;
        if !reply.contains("\"pong\"") {
            return Err(format!("unexpected ping reply {reply}"));
        }
        Ok(server)
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().expect("server is running").id()
    }

    /// Opens a persistent connection.
    pub fn connect(&self) -> Result<Conn, String> {
        let stream = UnixStream::connect(&self.socket)
            .map_err(|e| format!("connect {}: {e}", self.socket.display()))?;
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader =
            BufReader::with_capacity(1 << 16, stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            stream,
            reader,
            buf: String::new(),
        })
    }

    /// The server's user+system CPU time so far (`/proc/<pid>/stat`,
    /// in the kernel's fixed 100 Hz user clock).
    pub fn cpu_time(&self) -> Result<Duration, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .map_err(|e| format!("read server stat: {e}"))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = &stat[stat.rfind(')').ok_or("malformed stat")? + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks: u64 = fields[11].parse::<u64>().map_err(|e| e.to_string())?
            + fields[12].parse::<u64>().map_err(|e| e.to_string())?;
        Ok(Duration::from_millis(ticks * 10))
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("read server status: {e}"))?;
        let kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM in server status")?;
        Ok(kib / 1024.0)
    }

    /// Sends `shutdown` on a fresh connection (all others must already
    /// be closed), closes it, and waits a bounded time for exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        {
            let mut conn = self.connect()?;
            conn.send("{\"op\":\"shutdown\"}")?;
            let ack = conn.read_line()?;
            if !ack.contains("shutdown_ack") {
                return Err(format!("unexpected shutdown reply {ack}"));
            }
        }
        let mut child = self.child.take().expect("server is running");
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server did not exit within 20 s of shutdown".into());
                }
            }
        }
    }

    fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// One persistent client connection.
pub struct Conn {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
    buf: String,
}

impl Conn {
    /// Writes one request line in a single write.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.stream
            .write_all(&bytes)
            .map_err(|e| format!("send: {e}"))
    }

    /// Reads one reply line (without its newline).
    pub fn read_line(&mut self) -> Result<String, String> {
        self.buf.clear();
        match self.reader.read_line(&mut self.buf) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(self.buf.trim_end().to_string()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    fn split(self) -> (UnixStream, BufReader<UnixStream>) {
        (self.stream, self.reader)
    }
}

/// What a client saw of one request.
#[derive(Debug, Clone)]
pub struct Record {
    /// Index in the measured stream.
    pub index: u64,
    /// When it was due (open loop) or first sent (closed loop).
    pub due: Instant,
    /// When it was first sent.
    pub sent: Instant,
    /// When the last `accepted` arrived (traced runs only).
    pub accepted: Option<Instant>,
    /// When the terminal reply arrived.
    pub done: Instant,
    /// Telemetry event lines received.
    pub events: u64,
    /// Resends after `overloaded` or `unknown_program`.
    pub retries: u32,
    /// `overloaded` replies among those.
    pub shed: u32,
    /// Bytes of the request lines sent.
    pub bytes: u64,
    /// The `result` fields, or why there is none.
    pub result: Result<ResultFields, String>,
}

impl Record {
    /// End-to-end latency: due (open loop) or sent (closed loop) until
    /// the terminal reply.
    pub fn latency(&self) -> Duration {
        self.done.saturating_duration_since(self.due)
    }
}

/// A parsed reply line.
enum ReplyLine {
    Event(String),
    Accepted(String),
    Result(String, ResultFields),
    Overloaded(String, u64),
    UnknownProgram(String),
    Failed(String, String),
    Other,
}

const EVENT_PREFIX: &str = "{\"type\":\"event\",\"id\":\"";

fn parse_reply(line: &str) -> ReplyLine {
    // Event lines dominate telemetry sessions; take their id without a
    // full parse.
    if let Some(rest) = line.strip_prefix(EVENT_PREFIX) {
        return ReplyLine::Event(rest[..rest.find('"').unwrap_or(0)].to_string());
    }
    let Ok(map) = parse_line(line) else {
        return ReplyLine::Other;
    };
    let s = |k: &str| {
        map.get(k)
            .and_then(Scalar::as_str)
            .unwrap_or("")
            .to_string()
    };
    let n = |k: &str| map.get(k).and_then(Scalar::as_num).unwrap_or(0);
    let id = s("id");
    match s("type").as_str() {
        "accepted" => ReplyLine::Accepted(id),
        "result" => ReplyLine::Result(
            id,
            ResultFields {
                status: s("status"),
                outcome: s("outcome"),
                steps: n("steps"),
                atoms: n("atoms"),
                fingerprint: s("fingerprint"),
                verdict: s("verdict"),
                cached: map.get("cached").and_then(Scalar::as_bool).unwrap_or(false),
            },
        ),
        "overloaded" => ReplyLine::Overloaded(id, n("retry_after_ms")),
        "unknown_program" => ReplyLine::UnknownProgram(id),
        "error" | "shutting_down" if !id.is_empty() => {
            ReplyLine::Failed(id, format!("{} {}", s("type"), s("message")))
        }
        _ => ReplyLine::Other,
    }
}

fn session_id(index: u64) -> String {
    format!("r{index}")
}

fn index_of(id: &str) -> Option<u64> {
    id.strip_prefix('r')?.parse().ok()
}

/// Sends `req` and reads until its terminal reply, resending on
/// `overloaded` (after the hinted wait) and on `unknown_program` (with
/// the source). `trace` records the `accepted` instant.
pub fn round_trip(conn: &mut Conn, req: &Req, index: u64, trace: bool) -> Result<Record, String> {
    round_trip_then(conn, req, index, trace, || {})
}

/// [`round_trip`], calling `meanwhile` once after the first send, while
/// the server works (the closed loop prepares its next request there).
pub fn round_trip_then(
    conn: &mut Conn,
    req: &Req,
    index: u64,
    trace: bool,
    meanwhile: impl FnOnce(),
) -> Result<Record, String> {
    let mut meanwhile = Some(meanwhile);
    let id = session_id(index);
    let sent = Instant::now();
    let mut rec = Record {
        index,
        due: sent,
        sent,
        accepted: None,
        done: sent,
        events: 0,
        retries: 0,
        shed: 0,
        bytes: 0,
        result: Err("no result".into()),
    };
    let mut force_source = false;
    loop {
        let line = req.line(&id, force_source);
        rec.bytes += line.len() as u64 + 1;
        conn.send(&line)?;
        if let Some(f) = meanwhile.take() {
            f();
        }
        let resend = loop {
            let reply = conn.read_line()?;
            match parse_reply(&reply) {
                ReplyLine::Event(ref i) if *i == id => rec.events += 1,
                ReplyLine::Accepted(ref i) if *i == id && trace => {
                    rec.accepted = Some(Instant::now())
                }
                ReplyLine::Result(ref i, fields) if *i == id => {
                    rec.done = Instant::now();
                    rec.result = Ok(fields);
                    return Ok(rec);
                }
                ReplyLine::Overloaded(ref i, wait) if *i == id => {
                    rec.shed += 1;
                    break Some(Duration::from_millis(wait));
                }
                ReplyLine::UnknownProgram(ref i) if *i == id => {
                    force_source = true;
                    break None;
                }
                ReplyLine::Failed(ref i, why) if *i == id => {
                    rec.done = Instant::now();
                    rec.result = Err(why);
                    return Ok(rec);
                }
                _ => {}
            }
        };
        rec.retries += 1;
        if rec.shed > MAX_RETRIES {
            rec.done = Instant::now();
            rec.result = Err("overloaded after retries".into());
            return Ok(rec);
        }
        if let Some(wait) = resend {
            std::thread::sleep(wait);
        }
    }
}

/// The outcome of one measured window.
pub struct Window {
    /// One record per request, in stream order.
    pub records: Vec<Record>,
    /// The requests, parallel to `records`.
    pub reqs: Vec<Req>,
    /// Window start.
    pub start: Instant,
    /// Last terminal reply.
    pub end: Instant,
    /// How late each scheduled send ran (open loop), or the client's
    /// gap from a result to its next send (closed loop).
    pub late: Vec<Duration>,
}

/// One closed-loop client's requests with their records, and its gaps
/// from a result to the next send.
type ClientOutput = (Vec<(Req, Record)>, Vec<Duration>);

/// Runs `clients` closed-loop clients, each on its own connection,
/// issuing stream indices from `first` until `seconds` have passed.
pub fn closed_loop(
    server: &ServerProc,
    gen: &Generator,
    clients: usize,
    first: u64,
    seconds: f64,
    trace: bool,
) -> Result<Window, String> {
    let next = AtomicU64::new(first);
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let per_client: Vec<Result<ClientOutput, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut conn = server.connect()?;
                    let mut out = Vec::new();
                    let mut late = Vec::new();
                    let mut last_done: Option<Instant> = None;
                    let take = || {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        (i, gen.request(i))
                    };
                    let mut upcoming = take();
                    while Instant::now() < stop {
                        let (i, req) = upcoming;
                        let mut prepared = None;
                        let rec = round_trip_then(&mut conn, &req, i, trace, || {
                            prepared = Some(take());
                        })?;
                        upcoming = prepared.expect("prepared during the round trip");
                        if let Some(prev) = last_done {
                            late.push(rec.sent.saturating_duration_since(prev));
                        }
                        last_done = Some(rec.done);
                        out.push((req, rec));
                    }
                    Ok((out, late))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut pairs = Vec::new();
    let mut late = Vec::new();
    for r in per_client {
        let (p, l) = r?;
        pairs.extend(p);
        late.extend(l);
    }
    pairs.sort_by_key(|(_, rec)| rec.index);
    let end = pairs.iter().map(|(_, r)| r.done).max().unwrap_or(start);
    let (reqs, records) = pairs.into_iter().unzip();
    Ok(Window {
        records,
        reqs,
        start,
        end,
        late,
    })
}

/// Arrival offsets of a Poisson process at `rate` per second over
/// `seconds`, from the generator's seed.
pub fn arrivals(seed: u64, rate: f64, seconds: f64) -> Vec<Duration> {
    let mut rng = crate::gen::Rng::new(seed, u64::MAX);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// A request's terminal reply: when, what, and what came before it.
type Terminal = (Instant, Result<ResultFields, String>, Pending);

/// Per-request state the open-loop reader keeps.
struct Pending {
    accepted: Option<Instant>,
    events: u64,
    shed: u32,
    retries: u32,
}

/// Sends `reqs` over one connection at the offsets in `schedule`,
/// whether or not earlier requests have returned; a second thread
/// reads replies. Latency runs from when a request was due.
pub fn open_loop(
    server: &ServerProc,
    reqs: Vec<Req>,
    first: u64,
    schedule: &[Duration],
    trace: bool,
) -> Result<Window, String> {
    assert_eq!(reqs.len(), schedule.len());
    let n = reqs.len();
    let (mut writer, mut reader) = server.connect()?.split();
    let (retry_tx, retry_rx) = mpsc::channel::<(usize, Instant, bool)>();
    let start = Instant::now() + Duration::from_millis(5);
    let (sent, results) = std::thread::scope(|s| {
        let reader_thread = s.spawn(move || {
            let mut pending: HashMap<usize, Pending> = HashMap::new();
            let mut done: Vec<Option<Terminal>> = (0..n).map(|_| None).collect();
            let mut finished = 0;
            let mut line = String::new();
            while finished < n {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                let now = Instant::now();
                let reply = parse_reply(line.trim_end());
                let id = match &reply {
                    ReplyLine::Event(id)
                    | ReplyLine::Accepted(id)
                    | ReplyLine::Result(id, _)
                    | ReplyLine::Overloaded(id, _)
                    | ReplyLine::UnknownProgram(id)
                    | ReplyLine::Failed(id, _) => id,
                    ReplyLine::Other => continue,
                };
                let Some(k) = index_of(id)
                    .map(|i| (i - first) as usize)
                    .filter(|&k| k < n)
                else {
                    continue;
                };
                let p = pending.entry(k).or_insert(Pending {
                    accepted: None,
                    events: 0,
                    shed: 0,
                    retries: 0,
                });
                let terminal = match reply {
                    ReplyLine::Event(_) => {
                        p.events += 1;
                        None
                    }
                    ReplyLine::Accepted(_) => {
                        if trace {
                            p.accepted = Some(now);
                        }
                        None
                    }
                    ReplyLine::Result(_, fields) => Some(Ok(fields)),
                    ReplyLine::Failed(_, why) => Some(Err(why)),
                    ReplyLine::Overloaded(_, wait) => {
                        p.shed += 1;
                        p.retries += 1;
                        if p.shed > MAX_RETRIES {
                            Some(Err("overloaded after retries".to_string()))
                        } else {
                            let _ = retry_tx.send((k, now + Duration::from_millis(wait), false));
                            None
                        }
                    }
                    ReplyLine::UnknownProgram(_) => {
                        p.retries += 1;
                        let _ = retry_tx.send((k, now, true));
                        None
                    }
                    ReplyLine::Other => None,
                };
                if let Some(result) = terminal {
                    let p = pending.remove(&k).expect("entry inserted above");
                    done[k] = Some((now, result, p));
                    finished += 1;
                }
            }
            // Dropping the retry sender tells the sender thread that
            // no more resends will come.
            drop(retry_tx);
            done
        });

        // Sender: due requests in schedule order, resends in time order.
        let mut sent: Vec<(Instant, u64)> = vec![(start, 0); n];
        let mut late = Vec::with_capacity(n);
        let mut resends: BinaryHeap<std::cmp::Reverse<(Instant, usize, bool)>> = BinaryHeap::new();
        let mut next = 0;
        let mut reader_done = false;
        let send_result: Result<(), String> = (|| loop {
            while let Ok((k, at, force)) = retry_rx.try_recv() {
                resends.push(std::cmp::Reverse((at, k, force)));
            }
            let sched = (next < n).then(|| start + schedule[next]);
            let resend = resends.peek().map(|r| r.0 .0);
            let due = match (sched, resend) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) if reader_done => return Ok(()),
                (None, None) => {
                    match retry_rx.recv() {
                        Ok((k, at, force)) => resends.push(std::cmp::Reverse((at, k, force))),
                        Err(_) => reader_done = true,
                    }
                    continue;
                }
            };
            let now = Instant::now();
            if due > now {
                match retry_rx.recv_timeout(due - now) {
                    Ok((k, at, force)) => resends.push(std::cmp::Reverse((at, k, force))),
                    Err(mpsc::RecvTimeoutError::Disconnected) => reader_done = true,
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                }
                if reader_done && next >= n && resends.is_empty() {
                    return Ok(());
                }
                continue;
            }
            let (k, force) = if sched == Some(due) {
                next += 1;
                (next - 1, false)
            } else {
                let std::cmp::Reverse((_, k, force)) = resends.pop().expect("peeked above");
                (k, force)
            };
            let line = reqs[k].line(&session_id(first + k as u64), force);
            let at = Instant::now();
            if sched == Some(due) && !force {
                sent[k].0 = at;
                late.push(at.saturating_duration_since(due));
            }
            sent[k].1 += line.len() as u64 + 1;
            let mut bytes = line.into_bytes();
            bytes.push(b'\n');
            writer.write_all(&bytes).map_err(|e| format!("send: {e}"))?;
        })();
        let done = reader_thread.join().expect("reader thread panicked");
        (send_result.map(|()| (sent, late)), done)
    });
    let (sent, late) = sent?;
    let mut records = Vec::with_capacity(n);
    for (k, slot) in results.into_iter().enumerate() {
        let due = start + schedule[k];
        let rec = match slot {
            Some((at, result, p)) => Record {
                index: first + k as u64,
                due,
                sent: sent[k].0,
                accepted: p.accepted,
                done: at,
                events: p.events,
                retries: p.retries,
                shed: p.shed,
                bytes: sent[k].1,
                result,
            },
            None => Record {
                index: first + k as u64,
                due,
                sent: sent[k].0,
                accepted: None,
                done: due,
                events: 0,
                retries: 0,
                shed: 0,
                bytes: sent[k].1,
                result: Err("no result".into()),
            },
        };
        records.push(rec);
    }
    let end = records.iter().map(|r| r.done).max().unwrap_or(start);
    Ok(Window {
        records,
        reqs,
        start,
        end,
        late,
    })
}
