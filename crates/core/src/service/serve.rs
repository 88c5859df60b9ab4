//! Serving a [`SynthesisService`] over TCP.
//!
//! [`serve`] runs an accept loop on a `std::net::TcpListener`: each
//! connection carries one protocol request ([`wire`](super::wire)) and is
//! handled on its own thread, so a blocking `result` fetch never starves
//! `status` polls or new submits. A `shutdown` verb stops the loop (and the
//! service) cleanly; a `drain` verb stops it *gracefully* — no new jobs,
//! every accepted one finishes first. [`ServeOptions`] adds an optional
//! shared-token authentication check.
//!
//! Submitted jobs are tee'd into a per-job event log, so the `events` verb
//! can replay a job's stream from the beginning at any time — including
//! after the job finished.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use crate::events::{EventSink, SynthesisEvent};
use crate::request::SynthesisRequest;
use crate::summary::SynthesisSummary;

use super::wire;
use super::{JobStatus, ServiceError, SynthesisService};

/// Buffers a job's events so late subscribers can replay the stream.
struct EventLog {
    events: Mutex<Vec<SynthesisEvent>>,
    grown: Condvar,
}

impl EventLog {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            events: Mutex::new(Vec::new()),
            grown: Condvar::new(),
        })
    }
}

impl EventSink for EventLog {
    fn emit(&self, event: SynthesisEvent) {
        self.events.lock().expect("event log").push(event);
        self.grown.notify_all();
    }
}

/// Daemon-side serving policy, beyond the service itself.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Suppress per-connection log lines on stderr (the script-facing
    /// `listening on <addr>` line prints regardless).
    pub quiet: bool,
    /// Shared-secret authentication: when set, every request line must
    /// carry a matching `"token"` field; mismatches are answered with an
    /// `auth_failed` error reply. `None` (the default) serves openly —
    /// bind loopback or a trusted network.
    pub token: Option<String>,
}

impl ServeOptions {
    /// Open, chatty serving (the defaults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets stderr chattiness.
    #[must_use]
    pub fn with_quiet(mut self, quiet: bool) -> Self {
        self.quiet = quiet;
        self
    }

    /// Requires this shared secret on every request.
    #[must_use]
    pub fn with_token(mut self, token: impl Into<String>) -> Self {
        self.token = Some(token.into());
        self
    }
}

struct ServerShared {
    service: Arc<SynthesisService>,
    configure: Box<dyn Fn(&mut SynthesisRequest) + Send + Sync>,
    logs: Mutex<std::collections::HashMap<u64, Arc<EventLog>>>,
    stop: AtomicBool,
    addr: SocketAddr,
    quiet: bool,
    token: Option<String>,
}

impl ServerShared {
    fn note(&self, message: &str) {
        if !self.quiet {
            eprintln!("pimsyn serve: {message}");
        }
    }
}

/// Runs `service` behind `listener` until a `shutdown` or `drain` verb
/// arrives, blocking the calling thread. `configure` overlays server-side
/// policy (evaluation backend, cache file) onto every submitted request —
/// socket clients describe *what* to synthesize, the daemon decides *how*.
///
/// On startup the actually-bound address — including the kernel-resolved
/// port when the listener was bound to port 0 — is printed to stderr as
/// `pimsyn serve: listening on <addr>` regardless of
/// [`quiet`](ServeOptions::quiet), so scripts and tests can bind port 0
/// instead of racing for free ports.
///
/// # Errors
///
/// Propagates listener-level IO errors (failure to read the local address
/// or accept connections); per-connection errors only drop that connection.
pub fn serve<F>(
    listener: TcpListener,
    service: Arc<SynthesisService>,
    configure: F,
    options: ServeOptions,
) -> std::io::Result<()>
where
    F: Fn(&mut SynthesisRequest) + Send + Sync + 'static,
{
    let addr = listener.local_addr()?;
    let shared = Arc::new(ServerShared {
        service,
        configure: Box::new(configure),
        logs: Mutex::new(std::collections::HashMap::new()),
        stop: AtomicBool::new(false),
        addr,
        quiet: options.quiet,
        token: options.token,
    });
    // Unconditional: the script-facing bound-address line (see above).
    eprintln!("pimsyn serve: listening on {addr}");
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(&shared);
        thread::spawn(move || handle_connection(&shared, stream));
    }
    shared.note("stopped");
    Ok(())
}

/// Handle to a server running on a background thread (in-process embeddings
/// and tests; the CLI's `pimsyn serve` blocks on [`serve`] directly).
#[derive(Debug)]
pub struct ServeHandle {
    addr: SocketAddr,
    thread: thread::JoinHandle<std::io::Result<()>>,
}

impl ServeHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the server to stop (a `shutdown` verb) and returns its
    /// exit result.
    ///
    /// # Panics
    ///
    /// Panics if the server thread itself panicked (a bug).
    pub fn join(self) -> std::io::Result<()> {
        self.thread.join().expect("serve thread panicked")
    }
}

/// [`serve`] on a background thread, returning immediately with a handle.
///
/// # Errors
///
/// Propagates the listener's local-address lookup failure.
pub fn serve_in_background<F>(
    listener: TcpListener,
    service: Arc<SynthesisService>,
    configure: F,
    options: ServeOptions,
) -> std::io::Result<ServeHandle>
where
    F: Fn(&mut SynthesisRequest) + Send + Sync + 'static,
{
    let addr = listener.local_addr()?;
    let thread = thread::spawn(move || serve(listener, service, configure, options));
    Ok(ServeHandle { addr, thread })
}

/// Self-connects to a listener to unblock its blocking accept loop after a
/// stop flag was set. A wildcard bind address (`0.0.0.0` / `::`) is not
/// connectable on every platform, so it is rewritten to the matching
/// loopback address first.
fn poke_listener(addr: SocketAddr) {
    let mut target = addr;
    if target.ip().is_unspecified() {
        target.set_ip(match target {
            SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
            SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
        });
    }
    if TcpStream::connect(target).is_err() {
        eprintln!(
            "pimsyn: cannot poke the listener on {addr} to finish shutdown; \
             it will stop on its next accepted connection"
        );
    }
}

fn reply(stream: &mut TcpStream, line: &str) {
    let _ = writeln!(stream, "{line}");
    let _ = stream.flush();
}

fn handle_connection(shared: &Arc<ServerShared>, mut stream: TcpStream) {
    let mut line = String::new();
    {
        let Ok(peer) = stream.try_clone() else { return };
        let mut reader = BufReader::new(peer);
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => {}
            _ => return, // peer hung up before sending anything
        }
    }
    let (verb, peer_token) = match wire::parse_verb(line.trim()) {
        Ok(parsed) => parsed,
        Err(e) => {
            let (code, detail) = e.reply_parts();
            reply(&mut stream, &wire::error_reply(code, &detail));
            return;
        }
    };
    if shared.token.is_some() && shared.token != peer_token {
        reply(
            &mut stream,
            &wire::error_reply("auth_failed", "bad or missing token"),
        );
        return;
    }
    match verb {
        wire::WireVerb::Submit(request) => {
            let mut request = *request;
            (shared.configure)(&mut request);
            let log = EventLog::new();
            match shared
                .service
                .submit_observed(request, Arc::clone(&log) as Arc<dyn EventSink>)
            {
                Ok(handle) => {
                    let id = handle.id();
                    let mut logs = shared.logs.lock().expect("server logs");
                    // Event logs live exactly as long as the service still
                    // knows the job: once a finished job is evicted past
                    // the retention bound, its (potentially large) event
                    // log goes too — a daemon must not grow without bound.
                    logs.retain(|id, _| shared.service.status_of(*id).is_some());
                    logs.insert(id, log);
                    drop(logs);
                    shared.note(&format!("job {id} submitted"));
                    reply(&mut stream, &wire::submit_reply(id));
                }
                Err(e @ ServiceError::QueueFull { .. }) => reply(
                    &mut stream,
                    &wire::error_reply("queue_full", &e.to_string()),
                ),
                Err(e @ ServiceError::QuotaExceeded { .. }) => reply(
                    &mut stream,
                    &wire::error_reply("quota_exceeded", &e.to_string()),
                ),
                Err(e @ ServiceError::Draining) => {
                    reply(&mut stream, &wire::error_reply("draining", &e.to_string()))
                }
                Err(e) => reply(&mut stream, &wire::error_reply("shut_down", &e.to_string())),
            }
        }
        wire::WireVerb::Status { id } => match shared.service.status_of(id) {
            Some(status) => reply(&mut stream, &wire::status_reply(id, &status.to_string())),
            None => reply(
                &mut stream,
                &wire::error_reply("unknown_job", &format!("no job with id {id}")),
            ),
        },
        wire::WireVerb::Cancel { id } => {
            if shared.service.cancel_by_id(id) {
                reply(&mut stream, &wire::cancel_reply(id));
            } else {
                reply(
                    &mut stream,
                    &wire::error_reply("unknown_job", &format!("no job with id {id}")),
                );
            }
        }
        wire::WireVerb::Result { id } => match shared.service.await_result_by_id(id) {
            Some(Ok(result)) => reply(
                &mut stream,
                &wire::result_reply(id, SynthesisSummary::from_result(&result).to_json()),
            ),
            Some(Err(e)) => reply(
                &mut stream,
                &wire::error_reply("job_failed", &e.to_string()),
            ),
            None => reply(
                &mut stream,
                &wire::error_reply("unknown_job", &format!("no job with id {id}")),
            ),
        },
        wire::WireVerb::Events { id } => {
            let log = shared.logs.lock().expect("server logs").get(&id).cloned();
            match log {
                Some(log) => stream_events(shared, &mut stream, id, &log),
                None => reply(
                    &mut stream,
                    &wire::error_reply("unknown_job", &format!("no job with id {id}")),
                ),
            }
        }
        wire::WireVerb::Drain => {
            shared.note("drain requested");
            reply(&mut stream, &wire::drain_reply());
            // Blocks this connection's thread (not the accept loop) until
            // every accepted job has finished: status/result/events
            // connections keep being served throughout the drain.
            shared.service.drain();
            shared.note("drained");
            shared.stop.store(true, Ordering::SeqCst);
            poke_listener(shared.addr);
        }
        wire::WireVerb::Shutdown => {
            shared.note("shutdown requested");
            reply(&mut stream, &wire::shutdown_reply());
            shared.stop.store(true, Ordering::SeqCst);
            shared.service.shutdown();
            // Unblock the accept loop so `serve` can observe the stop flag.
            poke_listener(shared.addr);
        }
    }
}

/// Replays a job's event log from the start and follows it live until the
/// job finishes (a cancelled-while-queued job emits nothing; its finished
/// status alone ends the stream).
fn stream_events(shared: &Arc<ServerShared>, stream: &mut TcpStream, id: u64, log: &EventLog) {
    let mut cursor = 0usize;
    loop {
        let batch: Vec<SynthesisEvent> = {
            let mut events = log.events.lock().expect("event log");
            while events.len() == cursor
                && shared.service.status_of(id) != Some(JobStatus::Finished)
            {
                // A bounded wait so a job that finishes *without* a final
                // event (cancelled while queued) still ends the stream.
                let (guard, _) = log
                    .grown
                    .wait_timeout(events, Duration::from_millis(100))
                    .expect("event log");
                events = guard;
            }
            events[cursor..].to_vec()
        };
        cursor += batch.len();
        let mut finished = false;
        for event in &batch {
            finished |= matches!(event, SynthesisEvent::Finished { .. });
            let line = wire::event_reply(event);
            if writeln!(stream, "{line}").is_err() {
                return; // subscriber hung up
            }
        }
        let _ = stream.flush();
        if finished
            || (batch.is_empty() && shared.service.status_of(id) == Some(JobStatus::Finished))
        {
            reply(stream, &wire::events_done_reply());
            return;
        }
    }
}
