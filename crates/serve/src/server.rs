//! The long-running broker service.
//!
//! One dedicated thread owns the [`Broker`] (it is single-threaded by
//! design — determinism falls out of the total order of commands) and
//! runs the commands pool threads send it: each is a closure over the
//! broker, made by `ask` for a read or a submit and by `drain` for the
//! one shutdown path. Between commands it advances the broker's virtual
//! clock one quantum event at a time, so arrivals always preempt
//! simulated work at an event boundary. Connections are framed
//! NDJSON (see [`crate::protocol`]) served on a [`ThreadPool`], whose
//! threads build and encode every [`Response`].
//!
//! The connection loop reads bounded lines: a line over
//! [`MAX_LINE_BYTES`] gets a typed error and the reader resyncs at the
//! next newline instead of hanging up, and a line that is not UTF-8 gets
//! a typed error too. Pool workers run each connection under
//! `catch_unwind`, count panics in `serve/pool/panics`, and a respawn
//! guard keeps the pool at size if a panic escapes anyway.

use crate::broker::Broker;
use crate::job::SubmitOutcome;
use crate::pool::{PoolMetrics, ThreadPool};
use crate::protocol::{Request, Response};
use arcs_metrics::MetricsRegistry;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Work for the broker thread; `Break` stops the thread after it.
type Command = Box<dyn FnOnce(&mut Broker) -> ControlFlow<()> + Send>;

/// Run `f` on the broker thread and wait for its answer; `None` once the
/// broker is shut down.
fn ask<T: Send + 'static>(
    cmds: &Sender<Command>,
    f: impl FnOnce(&mut Broker) -> T + Send + 'static,
) -> Option<T> {
    let (tx, rx) = std::sync::mpsc::channel();
    cmds.send(Box::new(move |broker: &mut Broker| {
        let _ = tx.send(f(broker));
        ControlFlow::Continue(())
    }))
    .ok()?;
    rx.recv().ok()
}

/// Drain every admitted job, then stop the broker thread. Returns once
/// the drain is done (or the broker was already gone), so whoever waits
/// on it knows every admitted job completed and was traced.
fn drain(cmds: &Sender<Command>) {
    let (tx, rx) = std::sync::mpsc::channel();
    let cmd: Command = Box::new(move |broker| {
        broker.run_until_idle();
        let _ = tx.send(());
        ControlFlow::Break(())
    });
    if cmds.send(cmd).is_ok() {
        let _ = rx.recv();
    }
}

fn broker_loop(mut broker: Broker, rx: Receiver<Command>) {
    loop {
        // While quantum events are pending, poll for commands so new
        // arrivals land between events; otherwise block until one comes.
        let cmd = if broker.has_pending_events() {
            match rx.try_recv() {
                Ok(cmd) => Some(cmd),
                Err(TryRecvError::Empty) => None,
                Err(TryRecvError::Disconnected) => return,
            }
        } else {
            match rx.recv() {
                Ok(cmd) => Some(cmd),
                Err(_) => return,
            }
        };
        match cmd {
            Some(cmd) => {
                if cmd(&mut broker).is_break() {
                    return;
                }
            }
            None => {
                broker.step();
            }
        }
    }
}

/// Answer one request line; `None` when the broker is shut down.
fn handle_request(
    req: &Request,
    cmds: &Sender<Command>,
    stopping: &AtomicBool,
    registry: &MetricsRegistry,
) -> Option<Response> {
    let mut resp = Response::empty_ok();
    match req.op.as_str() {
        "submit" => {
            let spec = match req.to_spec() {
                Ok(spec) => spec,
                Err(reason) => return Some(Response::err(reason)),
            };
            match ask(cmds, move |broker| broker.submit(spec))? {
                SubmitOutcome::Admitted(job) => {
                    resp.job = Some(job);
                    resp.accepted = Some(true);
                }
                SubmitOutcome::Rejected { job, reason } => {
                    resp.job = Some(job);
                    resp.accepted = Some(false);
                    resp.reason = Some(reason);
                }
                SubmitOutcome::Shed { job, reason, retry_after_s, queue_depth } => {
                    resp.job = Some(job);
                    resp.accepted = Some(false);
                    resp.reason = Some(reason);
                    resp.retry_after_s = Some(retry_after_s);
                    resp.queue_depth = Some(queue_depth);
                }
            }
        }
        "status" => {
            let Some(job) = req.job else {
                return Some(Response::err("status requires a job id"));
            };
            let (state, done, reason) = ask(cmds, move |broker| {
                let done = broker.completed_jobs().get(&job).cloned();
                (broker.job_state(job), done, broker.rejection_reason(job).map(str::to_string))
            })?;
            let Some(state) = state else {
                return Some(Response::err(format!("unknown job {job}")));
            };
            resp.job = Some(job);
            resp.state = Some(state.to_string());
            resp.reason = reason;
            if let Some(done) = done {
                resp.status = Some(done.status.to_string());
                resp.time_s = Some(done.time_s);
                resp.energy_j = Some(done.energy_j);
            }
        }
        "stats" => {
            // Counters and telemetry from the same broker instant, so
            // they can never disagree about queue depths.
            let (stats, telemetry) = ask(cmds, |broker| (broker.counters(), broker.telemetry()))?;
            resp.stats = Some(stats);
            resp.telemetry = Some(telemetry);
        }
        // Rendered straight from the shared registry — no broker
        // roundtrip, so scrapes stay cheap even mid-quantum.
        "metrics" => resp.metrics = Some(registry.snapshot().to_prometheus()),
        "shutdown" => {
            // The ack goes out only after the broker drained all
            // admitted jobs, so a client that waits for this response
            // knows its work is done and traced.
            drain(cmds);
            stopping.store(true, Ordering::SeqCst);
        }
        other => return Some(Response::err(format!("unknown op {other:?}"))),
    }
    Some(resp)
}

/// Stream telemetry snapshots to one `watch` subscriber as raw NDJSON
/// lines. Returns when the client hangs up, the broker goes away, or
/// the server starts stopping.
fn stream_watch(writer: &mut TcpStream, cmds: &Sender<Command>, stopping: &AtomicBool, every: u64) {
    let (tx, rx) = std::sync::mpsc::channel();
    if ask(cmds, move |broker| broker.watch(every, tx)).is_none() {
        return;
    }
    loop {
        if stopping.load(Ordering::SeqCst) {
            return;
        }
        match rx.recv_timeout(std::time::Duration::from_millis(200)) {
            Ok(snap) => {
                let mut line = serde_json::to_string(&snap).expect("snapshots always serialize");
                line.push('\n');
                if writer.write_all(line.as_bytes()).is_err() || writer.flush().is_err() {
                    // Dropping `rx` makes the broker's next push fail,
                    // which unsubscribes this watcher.
                    return;
                }
            }
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Longest request line the server will buffer. Every legitimate op
/// fits in a few hundred bytes; anything near this bound is a broken or
/// hostile client, and an unbounded `read_until` would let one
/// connection grow the buffer without limit.
pub const MAX_LINE_BYTES: usize = 256 * 1024;

/// A read that ended on the short socket timeout rather than an error:
/// the caller checks the stop flag and reads on.
fn timed_out(err: &std::io::Error) -> bool {
    matches!(err.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

fn write_response(writer: &mut TcpStream, resp: &Response) -> bool {
    let mut out = serde_json::to_string(resp).expect("responses always serialize");
    out.push('\n');
    writer.write_all(out.as_bytes()).is_ok() && writer.flush().is_ok()
}

fn serve_connection(
    stream: TcpStream,
    cmds: Sender<Command>,
    stopping: Arc<AtomicBool>,
    registry: Arc<MetricsRegistry>,
) {
    // Short read timeouts keep idle keep-alive connections from pinning
    // their pool worker past shutdown — each timeout is a chance to see
    // the stop flag and bow out.
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(200)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // Persistent byte buffer: a timeout mid-line keeps what was read.
    // Bytes (not `String`) so a line that is not valid UTF-8 becomes a
    // typed error response instead of a dropped connection.
    let mut buf: Vec<u8> = Vec::new();
    loop {
        if stopping.load(Ordering::SeqCst) {
            return;
        }
        // Read at most one byte past the cap: hitting the limit without
        // a newline is the oversized-line signal.
        let budget = (MAX_LINE_BYTES + 1 - buf.len()) as u64;
        match reader.by_ref().take(budget).read_until(b'\n', &mut buf) {
            Ok(0) => return, // client hung up (possibly mid-line)
            Ok(_) => {
                let complete = buf.ends_with(b"\n");
                if buf.len() > MAX_LINE_BYTES {
                    // Resync by discarding to the next newline. The tail
                    // is thrown away chunk by chunk, so memory stays
                    // bounded no matter how long the line runs.
                    let mut synced = complete;
                    while !synced {
                        buf.clear();
                        match reader.by_ref().take(64 * 1024).read_until(b'\n', &mut buf) {
                            Ok(0) => return,
                            Ok(_) => synced = buf.ends_with(b"\n"),
                            Err(err) if timed_out(&err) => {
                                if stopping.load(Ordering::SeqCst) {
                                    return;
                                }
                            }
                            Err(_) => return,
                        }
                    }
                    buf.clear();
                    let resp =
                        Response::err(format!("bad request: line exceeds {MAX_LINE_BYTES} bytes"));
                    if !write_response(&mut writer, &resp) {
                        return;
                    }
                    continue;
                }
                if !complete {
                    // EOF with a truncated final line: the request was
                    // never finished, so there is nothing to answer.
                    return;
                }
                let resp = match std::str::from_utf8(&buf) {
                    Ok(text) if text.trim().is_empty() => {
                        buf.clear();
                        continue;
                    }
                    Ok(text) => match serde_json::from_str::<Request>(text.trim()) {
                        Ok(req) if req.op == "watch" => {
                            // `watch` flips the connection into push mode:
                            // from here on the server writes raw snapshot
                            // lines, never `Response` frames.
                            let every = req.every.unwrap_or(1).max(1);
                            stream_watch(&mut writer, &cmds, &stopping, every);
                            return;
                        }
                        Ok(req) => handle_request(&req, &cmds, &stopping, &registry)
                            .unwrap_or_else(|| Response::err("broker is shut down")),
                        Err(err) => Response::err(format!("bad request: {err}")),
                    },
                    Err(_) => Response::err("bad request: line is not valid UTF-8"),
                };
                if !write_response(&mut writer, &resp) {
                    return;
                }
                buf.clear();
            }
            Err(err) if timed_out(&err) => continue,
            Err(_) => return,
        }
    }
}

/// A running broker service bound to a TCP address.
pub struct Server;

pub struct ServerHandle {
    addr: std::net::SocketAddr,
    cmds: Sender<Command>,
    stopping: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    broker: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and serve `broker`
    /// until a client sends `shutdown`.
    pub fn start(broker: Broker, addr: &str, pool_threads: usize) -> std::io::Result<ServerHandle> {
        Server::start_with(broker, addr, pool_threads, broker_loop)
    }

    /// [`Server::start`] with the broker thread's loop given by the
    /// caller, so a test can serve a socket from a broker that only moves
    /// when told to.
    fn start_with(
        broker: Broker,
        addr: &str,
        pool_threads: usize,
        run: fn(Broker, Receiver<Command>),
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        // The broker thread owns the broker, but the registry is shared:
        // `metrics` scrapes and pool instrumentation read/write it
        // without a broker roundtrip.
        let registry = broker.registry();
        let (cmd_tx, cmd_rx) = std::sync::mpsc::channel();
        let broker_thread = std::thread::Builder::new()
            .name("arcs-serve-broker".into())
            .spawn(move || run(broker, cmd_rx))
            .expect("spawning the broker thread");

        let stopping = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stopping = Arc::clone(&stopping);
            let cmd_tx = cmd_tx.clone();
            let registry = Arc::clone(&registry);
            std::thread::Builder::new()
                .name("arcs-serve-acceptor".into())
                .spawn(move || {
                    let pool = ThreadPool::new(pool_threads, PoolMetrics::resolve(&registry));
                    for stream in listener.incoming() {
                        if stopping.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let cmds = cmd_tx.clone();
                        let stopping = Arc::clone(&stopping);
                        let registry = Arc::clone(&registry);
                        pool.execute(move || serve_connection(stream, cmds, stopping, registry));
                    }
                    // Dropping the pool joins in-flight connections;
                    // dropping cmd_tx lets an idle broker loop exit.
                })
                .expect("spawning the acceptor thread")
        };
        Ok(ServerHandle {
            addr: local,
            cmds: cmd_tx,
            stopping,
            acceptor: Some(acceptor),
            broker: Some(broker_thread),
        })
    }
}

impl ServerHandle {
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Block until some client sends `shutdown`, then join the threads.
    pub fn wait(mut self) {
        if let Some(broker) = self.broker.take() {
            let _ = broker.join();
        }
        // The handler that relayed `shutdown` also raises this flag, but
        // possibly after we observed the broker exit — store it here so
        // the wake-up connection below cannot race past a still-false
        // flag and leave the acceptor parked forever.
        self.stopping.store(true, Ordering::SeqCst);
        // Unblock the acceptor if it is still parked in `incoming()`.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }

    /// Ask the server to drain and stop, then join its threads. Goes
    /// straight to the broker's command channel (not over TCP), so it
    /// works even when every pool worker is pinned by an open
    /// connection. Safe to call after a client already sent `shutdown`:
    /// the broker is then gone and the drain returns at once.
    pub fn shutdown(self) {
        drain(&self.cmds);
        self.wait();
    }
}

/// A minimal blocking NDJSON client over one connection.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        Ok(Client::over(TcpStream::connect(addr)?))
    }

    pub fn over(stream: TcpStream) -> Self {
        let writer = stream.try_clone().expect("cloning a TCP stream");
        Client { writer, reader: BufReader::new(stream) }
    }

    pub fn roundtrip(&mut self, req: &Request) -> std::io::Result<Response> {
        let mut line = serde_json::to_string(req)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        let mut reply = String::new();
        self.reader.read_line(&mut reply)?;
        if reply.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        serde_json::from_str(&reply)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::BrokerConfig;
    use crate::job::{JobSpec, JobState};
    use arcs_powersim::{Fleet, Machine};
    use arcs_trace::{NullSink, TraceEvent, VecSink};

    fn test_server(sink: Arc<VecSink>) -> ServerHandle {
        let fleet = Fleet::homogeneous(Machine::crill(), 2);
        let mut cfg = BrokerConfig::new(400.0);
        cfg.quantum_timesteps = 2;
        let broker = Broker::new(fleet, cfg, sink);
        Server::start(broker, "127.0.0.1:0", 2).expect("binding an ephemeral port")
    }

    #[test]
    fn submit_status_stats_shutdown_over_tcp() {
        let sink = Arc::new(VecSink::new());
        let handle = test_server(Arc::clone(&sink));
        let addr = handle.addr().to_string();
        let mut client = Client::connect(&addr).unwrap();

        let spec = JobSpec::new("acme", "sp.S").timesteps(4);
        let resp = client.roundtrip(&Request::submit(&spec)).unwrap();
        assert!(resp.ok);
        assert_eq!(resp.accepted, Some(true));
        let job = resp.job.unwrap();

        let reject = client.roundtrip(&Request::submit(&spec.clone().floor_w(9000.0))).unwrap();
        assert_eq!(reject.accepted, Some(false));
        assert!(reject.reason.unwrap().contains("every node"));

        // A second connection sees the same broker.
        let mut other = Client::connect(&addr).unwrap();
        let stats = other.roundtrip(&Request::op_only("stats")).unwrap().stats.unwrap();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.rejected, 1);
        assert!((stats.budget_w - 400.0).abs() < 1e-9);

        // Shutdown drains the admitted job before acking.
        let bye = other.roundtrip(&Request::op_only("shutdown")).unwrap();
        assert!(bye.ok);
        handle.shutdown();

        let records = sink.drain();
        assert!(records
            .iter()
            .any(|r| matches!(&r.event, TraceEvent::JobCompleted { job: j, .. } if *j == job)));
        assert!(records.iter().any(|r| matches!(r.event, TraceEvent::JobRejected { .. })));
    }

    /// A job too long to ever drain is refused typed at the door, so one
    /// `submit` cannot wedge the server's shutdown.
    #[test]
    fn an_endless_job_is_rejected_over_tcp() {
        let handle = test_server(Arc::new(VecSink::new()));
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();
        let endless = JobSpec::new("acme", "sp.S").timesteps(1_000_000_000_000);
        let resp = client.roundtrip(&Request::submit(&endless)).unwrap();
        assert!(resp.ok);
        assert_eq!(resp.accepted, Some(false));
        let reason = resp.reason.unwrap();
        assert!(reason.contains("1000000000000 timesteps exceed the per-job limit"), "{reason}");
        let status = client.roundtrip(&Request::status(resp.job.unwrap())).unwrap();
        assert_eq!(status.state, Some(JobState::Rejected.to_string()));
        assert!(client.roundtrip(&Request::op_only("shutdown")).unwrap().ok);
        handle.shutdown();
    }

    #[test]
    fn bad_lines_get_errors_not_hangups() {
        let handle = {
            let fleet = Fleet::homogeneous(Machine::crill(), 1);
            let broker = Broker::new(fleet, BrokerConfig::new(230.0), Arc::new(NullSink));
            Server::start(broker, "127.0.0.1:0", 1).unwrap()
        };
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut client = Client::over(stream);

        let garbage = {
            client.writer.write_all(b"not json at all\n").unwrap();
            let mut reply = String::new();
            client.reader.read_line(&mut reply).unwrap();
            serde_json::from_str::<Response>(&reply).unwrap()
        };
        assert!(!garbage.ok);
        assert!(garbage.error.unwrap().contains("bad request"));

        let unknown = client.roundtrip(&Request::op_only("dance")).unwrap();
        assert!(!unknown.ok);

        let missing = client.roundtrip(&Request::op_only("submit")).unwrap();
        assert!(!missing.ok);

        let absent = client.roundtrip(&Request::status(99)).unwrap();
        assert!(!absent.ok);
        handle.shutdown();
    }

    #[test]
    fn non_finite_numbers_are_refused_by_name() {
        let handle = {
            let fleet = Fleet::homogeneous(Machine::crill(), 1);
            let broker = Broker::new(fleet, BrokerConfig::new(230.0), Arc::new(NullSink));
            Server::start(broker, "127.0.0.1:0", 1).unwrap()
        };
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();
        // What a hand-written client can send: JSON reads 1e999 as +inf.
        for field in ["floor_w", "weight"] {
            let line = format!(
                "{{\"op\":\"submit\",\"tenant\":\"t\",\"workload\":\"sp.S\",\"{field}\":1e999}}\n"
            );
            client.writer.write_all(line.as_bytes()).unwrap();
            let mut reply = String::new();
            client.reader.read_line(&mut reply).unwrap();
            let resp: Response = serde_json::from_str(&reply).unwrap();
            assert!(!resp.ok, "{reply}");
            assert!(resp.error.unwrap().contains(field), "{reply}");
        }
        let stats = client.roundtrip(&Request::op_only("stats")).unwrap().stats.unwrap();
        assert_eq!(stats.submitted, 0, "a refused line never reaches the broker");
        handle.shutdown();
    }

    #[test]
    fn malformed_bytes_get_typed_errors_and_the_connection_survives() {
        let handle = {
            let fleet = Fleet::homogeneous(Machine::crill(), 1);
            let broker = Broker::new(fleet, BrokerConfig::new(230.0), Arc::new(NullSink));
            Server::start(broker, "127.0.0.1:0", 1).unwrap()
        };
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut client = Client::over(stream);

        // A line that is not valid UTF-8 gets a typed error line, not a
        // hangup.
        client.writer.write_all(b"\xff\xfe{\"op\":\"stats\"}\n").unwrap();
        let mut reply = String::new();
        client.reader.read_line(&mut reply).unwrap();
        let bad: Response = serde_json::from_str(&reply).unwrap();
        assert!(!bad.ok);
        assert!(bad.error.unwrap().contains("not valid UTF-8"));

        // An oversized but newline-terminated line: typed error, stream
        // stays synced, and the next request still works.
        let mut big = vec![b'x'; MAX_LINE_BYTES + 10];
        big.push(b'\n');
        client.writer.write_all(&big).unwrap();
        let mut reply = String::new();
        client.reader.read_line(&mut reply).unwrap();
        let oversized: Response = serde_json::from_str(&reply).unwrap();
        assert!(!oversized.ok);
        assert!(oversized.error.unwrap().contains("exceeds"));

        let stats = client.roundtrip(&Request::op_only("stats")).unwrap();
        assert!(stats.ok, "the connection must survive both bad lines");
        handle.shutdown();
    }

    #[test]
    fn shed_submissions_carry_backpressure_hints_over_the_wire() {
        // A broker thread that answers commands but never steps on its
        // own: how much virtual time passes between two round trips is
        // then zero, not whatever the scheduler allowed, so the queue
        // holds exactly what the three submits put there.
        fn commands_only(mut broker: Broker, rx: Receiver<Command>) {
            for cmd in rx {
                if cmd(&mut broker).is_break() {
                    return;
                }
            }
        }
        let handle = {
            let fleet = Fleet::homogeneous(Machine::crill(), 1);
            let mut cfg = BrokerConfig::new(230.0);
            cfg.quantum_timesteps = 2;
            cfg.max_queue = Some(1); // one waiter beyond the running job
            let broker = Broker::new(fleet, cfg, Arc::new(NullSink));
            Server::start_with(broker, "127.0.0.1:0", 1, commands_only).unwrap()
        };
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();
        let spec = JobSpec::new("acme", "sp.S").timesteps(4);
        let first = client.roundtrip(&Request::submit(&spec)).unwrap();
        assert_eq!(first.accepted, Some(true), "an empty broker admits");
        let second = client.roundtrip(&Request::submit(&spec)).unwrap();
        assert_eq!(second.accepted, Some(true), "one waiter fits the queue");
        let third = client.roundtrip(&Request::submit(&spec)).unwrap();
        assert_eq!(third.accepted, Some(false));
        assert!(third.reason.unwrap().contains("queue full"));
        assert!(third.retry_after_s.unwrap() > 0.0);
        assert_eq!(third.queue_depth, Some(1));
        handle.shutdown();
    }
}
