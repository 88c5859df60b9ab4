//! The `pimsyn --worker` evaluation server.
//!
//! A worker is a child process of the
//! [`SubprocessBackend`](pimsyn_dse::SubprocessBackend): it reads the
//! versioned JSON-lines protocol of [`pimsyn_dse::backend::protocol`] from
//! stdin — an `init` message fixing a run's model, hardware, power, macro
//! mode and objective, then a stream of `score` requests — and answers each
//! request with the candidate's score on stdout. Scoring runs the same
//! [`EvalCore`] pipeline as in-process evaluation, so worker scores are
//! bit-identical to inline ones (floats cross the pipe as `f64::to_bits`
//! hex).
//!
//! A worker process outlives any single run: a later `init` message
//! *re-opens the session* — the model/hardware/power are re-ingested, a
//! fresh `ready` line acknowledges them, and scoring continues under the
//! new run's parameters. This is what lets a long-lived
//! [`WorkerPool`](pimsyn_dse::WorkerPool) recycle processes across
//! synthesis jobs instead of spawning a fresh complement per run.
//!
//! The worker exits when its stdin closes (the parent dropped it) and on
//! the first malformed message (after writing a diagnostic `error` line the
//! parent surfaces); the parent recomputes any in-flight work inline, so a
//! dying worker never changes results.
//!
//! Sessions are also reachable over TCP: [`serve_workers`] runs the same
//! loop behind `pimsyn worker-serve`, one session per accepted connection,
//! guarded by the protocol's transport handshake (version check plus an
//! optional shared auth token). The
//! [`RemoteBackend`](pimsyn_dse::RemoteBackend) is the dialing side.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use crate::service::registry;

use pimsyn_arch::{hardware_config, CrossbarConfig, DacConfig, Watts};
use pimsyn_dse::backend::protocol::{
    bye_line, decode_score_batch, encode_score_reply, error_line, parse_bye, parse_handshake,
    peer_max_version, read_frame, ready_line, ready_line_with_max, stop_line, welcome_line,
    write_frame, ScoreResponse, TcpHandshake, WorkerInit, WorkerRequest, FRAME_ERROR,
    FRAME_SCORE_BATCH, FRAME_SCORE_REPLY, NO_FREE_SLOTS, PROTOCOL_VERSION, PROTOCOL_VERSION_MAX,
};
use pimsyn_dse::{CandidateScore, DesignPoint, EvalCore, MacAllocGene};
use pimsyn_ir::Dataflow;
use pimsyn_model::onnx;

/// Dataflow-identity of a score request: `(xb_size, cell_bits, dac_bits,
/// wt_dup)` — everything `Dataflow::compile` consumes besides the model.
type DataflowKey = (usize, u32, u32, Vec<usize>);

/// One inbound protocol unit, distinguished by peeking the first byte: a
/// JSON line starts with `{`, a v2 binary frame with a frame-kind byte
/// (which never collides with `{`).
enum Incoming {
    /// The transport closed cleanly.
    Eof,
    /// One JSON protocol line (init, or a v1 score request).
    Line(String),
    /// One v2 binary frame.
    Frame(u8, Vec<u8>),
}

/// Reads the next protocol unit. Frames are only recognized when
/// `allow_frames` is set (a negotiated v2 session); otherwise every byte
/// stream is treated as JSON lines, exactly like a v1-only build.
fn read_incoming(input: &mut impl BufRead, allow_frames: bool) -> Result<Incoming, String> {
    loop {
        let first = {
            let buf = input
                .fill_buf()
                .map_err(|e| format!("stdin read failed: {e}"))?;
            if buf.is_empty() {
                return Ok(Incoming::Eof);
            }
            buf[0]
        };
        if allow_frames && matches!(first, FRAME_SCORE_BATCH | FRAME_SCORE_REPLY | FRAME_ERROR) {
            let (kind, payload) =
                read_frame(input).map_err(|e| format!("frame read failed: {e}"))?;
            return Ok(Incoming::Frame(kind, payload));
        }
        let mut line = String::new();
        let n = input
            .read_line(&mut line)
            .map_err(|e| format!("stdin read failed: {e}"))?;
        if n == 0 {
            return Ok(Incoming::Eof);
        }
        if line.trim().is_empty() {
            continue;
        }
        return Ok(Incoming::Line(line));
    }
}

/// Serves one worker session over the given streams at the newest protocol
/// version this build speaks; returns the protocol error that ended it, if
/// any. Repeated `init` messages re-open the session with new run
/// parameters (each acknowledged by its own `ready` line).
///
/// # Errors
///
/// A human-readable message (already reported to the peer as an `error`
/// line or frame) for malformed messages or an un-ingestable init payload.
pub fn run_worker(input: impl BufRead, output: impl Write) -> Result<(), String> {
    run_worker_with(input, output, PROTOCOL_VERSION_MAX)
}

/// [`run_worker`] capped at `max_version`: sessions negotiate down to at
/// most this protocol version. `max_version = 1` reproduces a v1-only
/// build bit-for-bit (plain `ready` lines, JSON score lines only) — used
/// by downgrade tests and the v1-vs-v2 bench.
///
/// # Errors
///
/// Same as [`run_worker`].
pub fn run_worker_with(
    input: impl BufRead,
    output: impl Write,
    max_version: u32,
) -> Result<(), String> {
    run_worker_session(input, output, max_version, &FaultInjection::default())
}

/// The session engine behind [`run_worker_with`], with `faults` applied to
/// every score exchange (see [`FaultInjection`]; the default injects
/// nothing and is bit-for-bit the old behavior).
fn run_worker_session(
    mut input: impl BufRead,
    mut output: impl Write,
    max_version: u32,
    faults: &FaultInjection,
) -> Result<(), String> {
    // Score exchanges answered on this connection so far (1-based), the
    // clock the stall/drop faults tick on.
    let mut exchanges = 0usize;
    let fail = |output: &mut dyn Write, detail: String| -> Result<(), String> {
        let _ = writeln!(output, "{}", error_line(&detail));
        let _ = output.flush();
        Err(detail)
    };
    // In a v2 session the peer reads frames, so errors must travel as an
    // error *frame* — a JSON error line would be misread as a frame header.
    let fail_frame = |output: &mut dyn Write, detail: String| -> Result<(), String> {
        let _ = write_frame(output, FRAME_ERROR, detail.as_bytes());
        let _ = output.flush();
        Err(detail)
    };
    let own_max = max_version.clamp(PROTOCOL_VERSION, PROTOCOL_VERSION_MAX);

    // The first message is a JSON init line in every protocol version.
    let first = match read_incoming(&mut input, false)? {
        Incoming::Eof => return Ok(()), // empty session: nothing to do
        Incoming::Line(line) => line,
        Incoming::Frame(..) => unreachable!("frames are not recognized before init"),
    };
    let mut pending = match WorkerRequest::parse(first.trim()) {
        Ok(WorkerRequest::Init(init)) => Some((init, peer_max_version(first.trim()))),
        Ok(_) => return fail(&mut output, "first message must be `init`".to_string()),
        Err(e) => return fail(&mut output, e),
    };

    // One iteration per session: ingest the init, acknowledge, then score
    // until stdin closes or another init re-opens the session.
    while let Some((init, peer_max)) = pending.take() {
        let version = peer_max.min(own_max);
        let WorkerInit {
            model_json,
            hw_json,
            power_bits,
            macro_mode,
            objective,
        } = init;
        let model = match onnx::parse_model(&model_json) {
            Ok(m) => m,
            Err(e) => return fail(&mut output, format!("cannot ingest model: {e}")),
        };
        let hw = match hardware_config::from_json_exact(&hw_json) {
            Ok(hw) => hw,
            Err(e) => return fail(&mut output, format!("cannot ingest hardware params: {e}")),
        };
        let core = EvalCore::new(
            &model,
            Watts(f64::from_bits(power_bits)),
            &hw,
            macro_mode,
            objective,
        );
        // A v1 peer (or a v1-capped build) gets the plain v1 ready; a v2
        // session acknowledges with the negotiated version.
        let ack = if version >= 2 {
            ready_line_with_max(version)
        } else {
            ready_line()
        };
        writeln!(output, "{ack}").map_err(|e| format!("stdout write failed: {e}"))?;
        output
            .flush()
            .map_err(|e| format!("stdout flush failed: {e}"))?;

        // Requests of one batch share a dataflow; cache the last compiled
        // one (per session — the model changed, so it cannot carry over).
        let mut compiled: Option<(DataflowKey, Dataflow)> = None;
        // Scores one candidate through the same pipeline as in-process
        // evaluation; anything uncompilable is INFEASIBLE, never an error.
        let score_one = |compiled: &mut Option<(DataflowKey, Dataflow)>,
                         ratio_bits: u64,
                         xb_size: usize,
                         cell_bits: u32,
                         dac_bits: u32,
                         wt_dup: Vec<usize>,
                         gene: Vec<u32>|
         -> CandidateScore {
            (|| -> Option<CandidateScore> {
                let crossbar = CrossbarConfig::new(xb_size, cell_bits).ok()?;
                let dac = DacConfig::new(dac_bits).ok()?;
                let df_key = (xb_size, cell_bits, dac_bits, wt_dup);
                if compiled.as_ref().map(|(k, _)| k) != Some(&df_key) {
                    let df = Dataflow::compile(&model, crossbar, dac, &df_key.3).ok()?;
                    *compiled = Some((df_key, df));
                }
                let (_, df) = compiled.as_ref().expect("just compiled");
                let gene = MacAllocGene::from_raw(gene).ok()?;
                let point = DesignPoint {
                    ratio_rram: f64::from_bits(ratio_bits),
                    crossbar,
                };
                Some(core.score(df, point, &gene))
            })()
            .unwrap_or(CandidateScore::INFEASIBLE)
        };
        loop {
            match read_incoming(&mut input, version >= 2)? {
                Incoming::Eof => break,
                Incoming::Line(line) => {
                    match WorkerRequest::parse(line.trim()) {
                        Ok(WorkerRequest::Score(request)) => {
                            exchanges += 1;
                            if faults.should_drop(exchanges) {
                                return Ok(()); // injected fault: die mid-chunk
                            }
                            let score = score_one(
                                &mut compiled,
                                request.ratio_bits,
                                request.xb_size,
                                request.cell_bits,
                                request.dac_bits,
                                request.wt_dup,
                                request.gene,
                            );
                            faults.delay_reply(exchanges, 1);
                            let response = ScoreResponse {
                                id: request.id,
                                score,
                            };
                            writeln!(output, "{}", response.to_line())
                                .map_err(|e| format!("stdout write failed: {e}"))?;
                            output
                                .flush()
                                .map_err(|e| format!("stdout flush failed: {e}"))?;
                        }
                        Ok(WorkerRequest::Init(next)) => {
                            // Session re-open: a new run leased this
                            // process. The re-init renegotiates the
                            // version (the new run may be a v1 client).
                            pending = Some((next, peer_max_version(line.trim())));
                            break;
                        }
                        Err(e) => return fail(&mut output, e),
                    }
                }
                Incoming::Frame(FRAME_SCORE_BATCH, payload) => {
                    let (id_base, items) = match decode_score_batch(&payload) {
                        Ok(batch) => batch,
                        Err(e) => return fail_frame(&mut output, e),
                    };
                    exchanges += 1;
                    if faults.should_drop(exchanges) {
                        return Ok(()); // injected fault: die mid-chunk
                    }
                    let jobs = items.len();
                    let scores: Vec<CandidateScore> = items
                        .into_iter()
                        .map(|item| {
                            score_one(
                                &mut compiled,
                                item.ratio_bits,
                                item.xb_size as usize,
                                item.cell_bits,
                                item.dac_bits,
                                item.wt_dup.into_iter().map(|d| d as usize).collect(),
                                item.gene,
                            )
                        })
                        .collect();
                    faults.delay_reply(exchanges, jobs);
                    write_frame(
                        &mut output,
                        FRAME_SCORE_REPLY,
                        &encode_score_reply(id_base, &scores),
                    )
                    .map_err(|e| format!("stdout write failed: {e}"))?;
                    output
                        .flush()
                        .map_err(|e| format!("stdout flush failed: {e}"))?;
                }
                Incoming::Frame(kind, _) => {
                    return fail_frame(&mut output, format!("unexpected frame kind 0x{kind:02x}"))
                }
            }
        }
    }
    Ok(())
}

/// The `pimsyn --worker` entry point: serves stdin/stdout until EOF.
pub fn run_worker_stdio() -> ExitCode {
    let stdin = std::io::stdin().lock();
    let stdout = std::io::stdout().lock();
    match run_worker(stdin, stdout) {
        Ok(()) => ExitCode::SUCCESS,
        Err(_) => ExitCode::FAILURE,
    }
}

/// Artificial worker misbehavior, injected into served sessions for chaos
/// tests, CI smokes, and the straggler-scheduling bench. All off by
/// default (and in every production path): faults only run when a test
/// sets them on [`WorkerServeConfig`] directly or the `worker-serve` CLI
/// picks them up from `PIMSYN_FAULT_*` environment variables.
///
/// The injected faults model the real failure shapes the adaptive chunker
/// must stay bit-identical under:
///
/// - **Per-batch / per-job delay** — a uniformly slow worker (loaded box,
///   cold cache). `PIMSYN_FAULT_BATCH_DELAY_MS` sleeps once per score
///   exchange; `PIMSYN_FAULT_JOB_DELAY_US` sleeps once per candidate, so
///   the slowdown scales with chunk size like real compute does.
/// - **Mid-run stall** — a worker that degrades after warmup.
///   `PIMSYN_FAULT_STALL_AFTER` lets that many score exchanges answer
///   normally, then every later reply is delayed `PIMSYN_FAULT_STALL_MS`
///   (default 5000).
/// - **Connection drop** — a worker that dies mid-chunk. With
///   `PIMSYN_FAULT_DROP_EVERY=n`, every nth score exchange on a
///   connection closes the socket instead of answering; the dialing
///   backend recomputes the chunk inline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultInjection {
    /// Sleep before answering each score exchange.
    pub batch_delay: Option<Duration>,
    /// Sleep per candidate in each score exchange.
    pub job_delay: Option<Duration>,
    /// Score exchanges answered normally before stalling kicks in.
    pub stall_after: Option<usize>,
    /// The per-reply stall once [`stall_after`](Self::stall_after) is
    /// exceeded.
    pub stall_delay: Duration,
    /// Close the connection instead of answering every nth exchange.
    pub drop_every: Option<usize>,
}

impl FaultInjection {
    /// Reads the `PIMSYN_FAULT_*` variables (unset, empty, unparsable and
    /// zero all mean "off"). Used by the `worker-serve` CLI so test
    /// harnesses can misconfigure a stock binary without new flags.
    pub fn from_env() -> Self {
        let read = |name: &str| -> Option<u64> {
            std::env::var(name)
                .ok()?
                .trim()
                .parse()
                .ok()
                .filter(|&v| v > 0)
        };
        Self {
            batch_delay: read("PIMSYN_FAULT_BATCH_DELAY_MS").map(Duration::from_millis),
            job_delay: read("PIMSYN_FAULT_JOB_DELAY_US").map(Duration::from_micros),
            stall_after: read("PIMSYN_FAULT_STALL_AFTER").map(|v| v as usize),
            stall_delay: read("PIMSYN_FAULT_STALL_MS")
                .map(Duration::from_millis)
                .unwrap_or(Duration::from_secs(5)),
            drop_every: read("PIMSYN_FAULT_DROP_EVERY").map(|v| v as usize),
        }
    }

    /// Whether any fault is configured.
    pub fn is_active(&self) -> bool {
        self.batch_delay.is_some()
            || self.job_delay.is_some()
            || self.stall_after.is_some()
            || self.drop_every.is_some()
    }

    /// Whether the `exchange`th (1-based) score exchange on a connection
    /// should close the socket instead of answering.
    fn should_drop(&self, exchange: usize) -> bool {
        self.drop_every
            .is_some_and(|n| n > 0 && exchange.is_multiple_of(n))
    }

    /// Injects the configured delays before the reply to the `exchange`th
    /// (1-based) score exchange carrying `jobs` candidates.
    fn delay_reply(&self, exchange: usize, jobs: usize) {
        if let Some(delay) = self.batch_delay {
            std::thread::sleep(delay);
        }
        if let Some(delay) = self.job_delay {
            std::thread::sleep(delay.saturating_mul(jobs.min(u32::MAX as usize) as u32));
        }
        if self.stall_after.is_some_and(|n| exchange > n) {
            std::thread::sleep(self.stall_delay);
        }
    }
}

/// Configuration of a [`serve_workers`] daemon.
#[derive(Debug, Clone, Default)]
pub struct WorkerServeConfig {
    /// Concurrent worker sessions served (`0` = one per available core).
    /// Connections past the cap are answered with an `error` frame and
    /// closed; the dialing backend scores those chunks inline.
    pub slots: usize,
    /// Shared auth token. When set, a `hello` (or `stop`) frame must carry
    /// the same token or the connection is rejected.
    pub token: Option<String>,
    /// Suppress per-connection log lines on stderr. The one `listening on
    /// <addr>` startup line prints regardless — it is the script-facing
    /// way to learn the bound port when listening on port 0.
    pub quiet: bool,
    /// Cap on the negotiated worker protocol version (`None` = the newest
    /// this build speaks). `Some(1)` reproduces a v1-only daemon — for
    /// downgrade tests and the v1-vs-v2 bench.
    pub protocol_max: Option<u32>,
    /// A worker registry (`HOST:PORT` of a `pimsyn serve`/`pimsyn gateway`
    /// started with `--worker-registry`) to announce this daemon to. While
    /// serving, a background thread keeps the registration alive with
    /// heartbeats and deregisters gracefully when the daemon stops.
    pub announce: Option<String>,
    /// Artificial misbehavior injected into every served session — the
    /// chaos-test harness. [`FaultInjection::default`] (all off) in any
    /// production configuration.
    pub faults: FaultInjection,
}

impl WorkerServeConfig {
    fn resolved_slots(&self) -> usize {
        if self.slots == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            self.slots
        }
    }
}

/// How long a dialing peer gets to send its handshake frame before the
/// connection is dropped (keeps port scanners and wedged peers from
/// pinning sessions open).
const TCP_HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Bounded dial for [`stop_worker_server`], matching the remote backend's
/// own connect timeout.
const STOP_CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Per-read idle bound on an open worker session. A healthy dialer sends
/// batches continuously while a run is live and closes the connection when
/// it ends, so a session silent this long is a half-open peer (power-
/// failed client, NAT silently dropping the flow) — without the bound it
/// would pin one of the daemon's slots until restart. A dialer that does
/// trip it just reconnects and re-opens its session on the next batch;
/// scoring is pure, so results are unaffected.
const SESSION_IDLE_TIMEOUT: Duration = Duration::from_secs(15 * 60);

struct WorkerServeState {
    slots: usize,
    token: Option<String>,
    quiet: bool,
    addr: SocketAddr,
    protocol_max: u32,
    faults: FaultInjection,
    active: AtomicUsize,
    stop: AtomicBool,
}

impl WorkerServeState {
    fn note(&self, message: &str) {
        if !self.quiet {
            eprintln!("pimsyn worker-serve: {message}");
        }
    }
}

fn reply_frame(stream: &mut TcpStream, line: &str) {
    let _ = writeln!(stream, "{line}");
    let _ = stream.flush();
}

/// Self-connects to a listener to unblock its blocking accept loop after a
/// stop flag was set. A wildcard bind address (`0.0.0.0` / `::`) is not
/// connectable on every platform, so it is rewritten to the matching
/// loopback address first.
pub(crate) fn poke_listener(addr: SocketAddr) {
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

/// Serves evaluation-worker sessions over TCP until a `stop` frame
/// arrives, blocking the calling thread. Each accepted connection is
/// handshaked (protocol version, optional auth token, free-slot check) and
/// then handed to [`run_worker`] on its own thread — one connection is one
/// worker session, ended by the peer closing the socket.
///
/// On startup the actually-bound address — including the kernel-resolved
/// port when the listener was bound to port 0 — is printed to stderr as
/// `pimsyn worker-serve: listening on <addr>` regardless of `quiet`, so
/// scripts and tests can bind port 0 instead of racing for free ports.
///
/// A `stop` ends the accept loop only; sessions still in flight are cut
/// when the process exits, and their dialing backends recompute the
/// affected chunks inline (results are unaffected — scoring is pure).
///
/// # Errors
///
/// Propagates listener-level IO errors (failure to read the local address
/// or accept connections); per-connection errors only drop that
/// connection.
pub fn serve_workers(listener: TcpListener, config: WorkerServeConfig) -> std::io::Result<()> {
    let addr = listener.local_addr()?;
    let state = Arc::new(WorkerServeState {
        slots: config.resolved_slots(),
        token: config.token.clone(),
        quiet: config.quiet,
        addr,
        protocol_max: config
            .protocol_max
            .unwrap_or(PROTOCOL_VERSION_MAX)
            .clamp(PROTOCOL_VERSION, PROTOCOL_VERSION_MAX),
        faults: config.faults.clone(),
        active: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
    });
    if state.faults.is_active() {
        // Loud by design: a daemon that deliberately misbehaves must never
        // pass for a healthy one in a log.
        eprintln!(
            "pimsyn worker-serve: FAULT INJECTION ACTIVE: {:?}",
            state.faults
        );
    }
    // Unconditional: the script-facing bound-address line (see above).
    eprintln!("pimsyn worker-serve: listening on {addr}");
    let announcer = config.announce.map(|registry| {
        start_announcer(
            registry,
            config.token,
            addr,
            state.slots,
            state.protocol_max,
            config.quiet,
        )
    });
    for stream in listener.incoming() {
        if state.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let state = Arc::clone(&state);
        std::thread::spawn(move || handle_worker_connection(&state, stream));
    }
    if let Some(announcer) = announcer {
        announcer.stop(); // deregisters gracefully (a drain message)
    }
    state.note("stopped");
    Ok(())
}

/// Bounded dial for the registry announce path, matching the remote
/// backend's own connect timeout.
const ANNOUNCE_CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// How long the announcer waits for the registry's replies.
const ANNOUNCE_REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// How long the announcer waits before redialing a registry it cannot
/// reach (or that hung up on it).
const ANNOUNCE_REDIAL_BACKOFF: Duration = Duration::from_secs(2);

/// Handle to the registry-announce thread of a worker daemon.
struct Announcer {
    tx: mpsc::Sender<()>,
    thread: std::thread::JoinHandle<()>,
}

impl Announcer {
    /// Signals the announce thread to deregister (a graceful `drain`
    /// message) and waits for it to finish.
    fn stop(self) {
        let _ = self.tx.send(());
        let _ = self.thread.join();
    }
}

/// Starts the background thread that keeps this daemon registered with a
/// worker registry: announce once, heartbeat at the registry-assigned
/// interval, redial with backoff on connection loss, deregister on stop.
fn start_announcer(
    registry: String,
    token: Option<String>,
    listen: SocketAddr,
    slots: usize,
    protocol_max: u32,
    quiet: bool,
) -> Announcer {
    let (tx, rx) = mpsc::channel();
    let thread = std::thread::spawn(move || {
        run_announcer(
            &registry,
            token.as_deref(),
            listen,
            slots,
            protocol_max,
            quiet,
            &rx,
        );
    });
    Announcer { tx, thread }
}

/// Dials the registry and announces this daemon. Returns the open
/// connection (heartbeats reuse it), the address that was advertised, and
/// the registry-assigned heartbeat interval.
fn announce_once(
    registry: &str,
    token: Option<&str>,
    listen: SocketAddr,
    slots: usize,
    protocol_max: u32,
) -> Result<(TcpStream, String, Duration), String> {
    let mut stream = pimsyn_dse::backend::dial_bounded(registry, ANNOUNCE_CONNECT_TIMEOUT)?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(ANNOUNCE_REPLY_TIMEOUT));
    // A daemon listening on a wildcard address advertises the concrete
    // interface this very connection reached the registry over — the one
    // address the registry's service is known to be able to dial back.
    let mut advertised = listen;
    if advertised.ip().is_unspecified() {
        let local = stream
            .local_addr()
            .map_err(|e| format!("cannot resolve the announce source address: {e}"))?;
        advertised.set_ip(local.ip());
    }
    let advertised = advertised.to_string();
    writeln!(
        stream,
        "{}",
        registry::announce_line(&advertised, slots, protocol_max, token)
    )
    .and_then(|()| stream.flush())
    .map_err(|e| format!("cannot announce to {registry}: {e}"))?;
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("cannot clone the registry stream: {e}"))?,
    );
    let mut line = String::new();
    let interval = match reader.read_line(&mut line) {
        Ok(n) if n > 0 => match registry::parse_registry_reply(line.trim())? {
            registry::RegistryReply::Registered { interval } => interval,
            registry::RegistryReply::Bye => {
                return Err(format!("{registry} answered an announce with a bye"))
            }
        },
        Ok(_) => return Err(format!("{registry} closed the connection without replying")),
        Err(e) => {
            return Err(format!(
                "cannot read the announce reply from {registry}: {e}"
            ))
        }
    };
    Ok((stream, advertised, interval))
}

/// The announce thread body: keep one registration alive until `stop`
/// fires, then deregister gracefully.
fn run_announcer(
    registry: &str,
    token: Option<&str>,
    listen: SocketAddr,
    slots: usize,
    protocol_max: u32,
    quiet: bool,
    stop: &mpsc::Receiver<()>,
) {
    let note = |message: &str| {
        if !quiet {
            eprintln!("pimsyn worker-serve: {message}");
        }
    };
    loop {
        match announce_once(registry, token, listen, slots, protocol_max) {
            Ok((mut stream, advertised, interval)) => {
                note(&format!(
                    "announced {advertised} to registry {registry} (heartbeat every {}s)",
                    interval.as_secs().max(1)
                ));
                loop {
                    match stop.recv_timeout(interval) {
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            let beat =
                                registry::heartbeat_line(&advertised, slots, protocol_max, token);
                            if writeln!(stream, "{beat}")
                                .and_then(|()| stream.flush())
                                .is_err()
                            {
                                note("lost the registry connection; redialing");
                                break; // back to the outer redial loop
                            }
                        }
                        _ => {
                            // Graceful deregistration; the reply is read
                            // best-effort — the daemon is exiting anyway.
                            let _ =
                                writeln!(stream, "{}", registry::drain_line(&advertised, token))
                                    .and_then(|()| stream.flush());
                            let mut reader = BufReader::new(&stream);
                            let mut line = String::new();
                            let _ = reader.read_line(&mut line);
                            note("deregistered from the registry");
                            return;
                        }
                    }
                }
            }
            Err(e) => {
                note(&format!("registry announce failed: {e}; retrying"));
                if !matches!(
                    stop.recv_timeout(ANNOUNCE_REDIAL_BACKOFF),
                    Err(mpsc::RecvTimeoutError::Timeout)
                ) {
                    return;
                }
            }
        }
    }
}

/// Decrements the active-session counter even if the session panics.
struct SessionGuard<'a>(&'a WorkerServeState);

impl Drop for SessionGuard<'_> {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::SeqCst);
    }
}

fn handle_worker_connection(state: &Arc<WorkerServeState>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(TCP_HANDSHAKE_TIMEOUT));
    let Ok(peer) = stream.try_clone() else { return };
    let mut reader = BufReader::new(peer);
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(n) if n > 0 => {}
        _ => return, // peer hung up (or stalled) before the handshake
    }
    let handshake = match parse_handshake(line.trim()) {
        Ok(handshake) => handshake,
        Err(detail) => {
            reply_frame(&mut stream, &error_line(&detail));
            return;
        }
    };
    let token = match &handshake {
        TcpHandshake::Hello { token } | TcpHandshake::Stop { token } => token,
    };
    if state.token.is_some() && state.token != *token {
        state.note("rejected a connection: bad or missing auth token");
        reply_frame(
            &mut stream,
            &error_line("authentication failed: bad or missing token"),
        );
        return;
    }
    match handshake {
        TcpHandshake::Stop { .. } => {
            state.note("stop requested");
            reply_frame(&mut stream, &bye_line());
            state.stop.store(true, Ordering::SeqCst);
            // Unblock the accept loop so `serve_workers` observes the flag.
            poke_listener(state.addr);
        }
        TcpHandshake::Hello { .. } => {
            let prior = state.active.fetch_add(1, Ordering::SeqCst);
            if prior >= state.slots {
                state.active.fetch_sub(1, Ordering::SeqCst);
                reply_frame(
                    &mut stream,
                    &error_line(&format!("{NO_FREE_SLOTS} ({} in use)", state.slots)),
                );
                return;
            }
            let _guard = SessionGuard(state);
            // Advertise the sessions still available to this peer at
            // handshake time (including this one), so a daemon shared by
            // several runs throttles each to what actually remains
            // instead of inviting rejections.
            reply_frame(&mut stream, &welcome_line(state.slots - prior));
            // Sessions get a generous idle bound instead of no timeout:
            // healthy backends send batches continuously, and a half-open
            // peer must not pin this slot forever.
            let _ = stream.set_read_timeout(Some(SESSION_IDLE_TIMEOUT));
            state.note("session opened");
            let _ = run_worker_session(reader, &mut stream, state.protocol_max, &state.faults);
            state.note("session closed");
        }
    }
}

/// Handle to a worker daemon running on a background thread (in-process
/// embeddings and tests; the CLI's `pimsyn worker-serve` blocks on
/// [`serve_workers`] directly).
#[derive(Debug)]
pub struct WorkerServeHandle {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl WorkerServeHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the daemon to stop (a `stop` frame) and returns its exit
    /// result.
    ///
    /// # Panics
    ///
    /// Panics if the daemon thread itself panicked (a bug).
    pub fn join(self) -> std::io::Result<()> {
        self.thread.join().expect("worker-serve thread panicked")
    }
}

/// [`serve_workers`] on a background thread, returning immediately with a
/// handle.
///
/// # Errors
///
/// Propagates the listener's local-address lookup failure.
pub fn serve_workers_in_background(
    listener: TcpListener,
    config: WorkerServeConfig,
) -> std::io::Result<WorkerServeHandle> {
    let addr = listener.local_addr()?;
    let thread = std::thread::spawn(move || serve_workers(listener, config));
    Ok(WorkerServeHandle { addr, thread })
}

/// Asks the worker daemon at `addr` to stop, authenticating with `token`
/// when given (required when the daemon was started with an auth token).
///
/// # Errors
///
/// Transport failures, or the daemon's refusal (bad token).
pub fn stop_worker_server(addr: &str, token: Option<&str>) -> Result<(), String> {
    // Bounded connect (trying every resolved address), so a script
    // sweeping a roster of daemons never hangs on a dead host for the OS
    // default TCP timeout.
    let mut stream = pimsyn_dse::backend::dial_bounded(addr, STOP_CONNECT_TIMEOUT)?;
    let _ = stream.set_read_timeout(Some(TCP_HANDSHAKE_TIMEOUT));
    writeln!(stream, "{}", stop_line(token))
        .and_then(|()| stream.flush())
        .map_err(|e| format!("cannot send stop to {addr}: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(n) if n > 0 => parse_bye(line.trim()),
        Ok(_) => Err(format!("{addr} closed the connection without replying")),
        Err(e) => Err(format!("cannot read the stop reply from {addr}: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsyn_arch::{HardwareParams, MacroMode};
    use pimsyn_dse::backend::protocol::{parse_ready, ScoreRequest};
    use pimsyn_dse::Objective;
    use pimsyn_model::zoo;

    fn init_line(model_power: f64) -> String {
        let model = zoo::alexnet_cifar(10);
        WorkerInit {
            model_json: onnx::to_json(&model),
            hw_json: hardware_config::to_json_exact(&HardwareParams::date24()),
            power_bits: model_power.to_bits(),
            macro_mode: MacroMode::Specialized,
            objective: Objective::PowerEfficiency,
        }
        .to_line()
    }

    fn score_request(id: u64, macros: usize) -> (ScoreRequest, DesignPoint, Vec<usize>) {
        let model = zoo::alexnet_cifar(10);
        let l = model.weight_layer_count();
        let xb = CrossbarConfig::new(128, 2).unwrap();
        let dup = vec![1usize; l];
        let gene = MacAllocGene::encode(&vec![macros; l], &vec![None; l]);
        let point = DesignPoint {
            ratio_rram: 0.3,
            crossbar: xb,
        };
        (
            ScoreRequest {
                id,
                ratio_bits: point.ratio_rram.to_bits(),
                xb_size: xb.size(),
                cell_bits: xb.cell_bits(),
                dac_bits: 1,
                wt_dup: dup.clone(),
                gene: gene.as_slice().to_vec(),
            },
            point,
            dup,
        )
    }

    #[test]
    fn worker_session_scores_bit_identically_to_inline() {
        let model = zoo::alexnet_cifar(10);
        let hw = HardwareParams::date24();
        let l = model.weight_layer_count();
        let xb = CrossbarConfig::new(128, 2).unwrap();
        let dac = DacConfig::new(1).unwrap();
        let dup = vec![1usize; l];
        let df = Dataflow::compile(&model, xb, dac, &dup).unwrap();
        let point = DesignPoint {
            ratio_rram: 0.3,
            crossbar: xb,
        };
        let genes: Vec<MacAllocGene> = (1..=3)
            .map(|m| MacAllocGene::encode(&vec![m; l], &vec![None; l]))
            .collect();

        // Drive a full session through in-memory pipes.
        let mut session = String::new();
        session.push_str(&init_line(9.0));
        session.push('\n');
        for (id, gene) in genes.iter().enumerate() {
            let request = ScoreRequest {
                id: id as u64,
                ratio_bits: point.ratio_rram.to_bits(),
                xb_size: xb.size(),
                cell_bits: xb.cell_bits(),
                dac_bits: dac.bits(),
                wt_dup: dup.clone(),
                gene: gene.as_slice().to_vec(),
            };
            session.push_str(&request.to_line());
            session.push('\n');
        }
        let mut output = Vec::new();
        run_worker(session.as_bytes(), &mut output).expect("clean session");
        let text = String::from_utf8(output).unwrap();
        let mut lines = text.lines();
        parse_ready(lines.next().expect("ready line")).expect("valid ready");

        // Compare against in-process scoring, bit for bit.
        let core = EvalCore::new(
            &model,
            Watts(9.0),
            &hw,
            MacroMode::Specialized,
            Objective::PowerEfficiency,
        );
        for (id, gene) in genes.iter().enumerate() {
            let response = ScoreResponse::parse(lines.next().expect("score line")).unwrap();
            assert_eq!(response.id, id as u64);
            let expect = core.score(&df, point, gene);
            assert_eq!(response.score.fitness.to_bits(), expect.fitness.to_bits());
            assert_eq!(response.score.feasible, expect.feasible);
        }
        assert!(lines.next().is_none());
    }

    #[test]
    fn second_init_reopens_the_session() {
        // Two back-to-back sessions at different power levels on one worker
        // process: each init is acknowledged by its own ready line, and the
        // same candidate scores differently under the different budgets —
        // each bit-identical to in-process scoring at that power.
        let model = zoo::alexnet_cifar(10);
        let hw = HardwareParams::date24();
        let (request_a, point, dup) = score_request(0, 2);
        let (request_b, _, _) = score_request(7, 2);
        let mut session = String::new();
        for (power, request) in [(9.0, &request_a), (15.0, &request_b)] {
            session.push_str(&init_line(power));
            session.push('\n');
            session.push_str(&request.to_line());
            session.push('\n');
        }
        let mut output = Vec::new();
        run_worker(session.as_bytes(), &mut output).expect("clean two-session run");
        let text = String::from_utf8(output).unwrap();
        let mut lines = text.lines();

        let df =
            Dataflow::compile(&model, point.crossbar, DacConfig::new(1).unwrap(), &dup).unwrap();
        let gene = MacAllocGene::from_raw(request_a.gene.clone()).unwrap();
        for (power, id) in [(9.0, 0u64), (15.0, 7)] {
            parse_ready(lines.next().expect("ready line")).expect("valid ready");
            let response = ScoreResponse::parse(lines.next().expect("score line")).unwrap();
            assert_eq!(response.id, id);
            let core = EvalCore::new(
                &model,
                Watts(power),
                &hw,
                MacroMode::Specialized,
                Objective::PowerEfficiency,
            );
            let expect = core.score(&df, point, &gene);
            assert_eq!(response.score.fitness.to_bits(), expect.fitness.to_bits());
            assert_eq!(response.score.feasible, expect.feasible);
        }
        assert!(lines.next().is_none());
    }

    #[test]
    fn worker_rejects_garbage_with_an_error_line() {
        let mut output = Vec::new();
        let err = run_worker("not json\n".as_bytes(), &mut output).unwrap_err();
        assert!(err.contains("malformed"), "{err}");
        let text = String::from_utf8(output).unwrap();
        assert!(text.contains("\"error\""), "{text}");

        // A score before init is rejected too.
        let mut output = Vec::new();
        let premature = r#"{"type":"score","id":0,"ratio":"0","xb":128,"cell":2,"dac":1,"wt_dup":[],"gene":[]}"#;
        let err = run_worker(format!("{premature}\n").as_bytes(), &mut output).unwrap_err();
        assert!(err.contains("init"), "{err}");
    }

    #[test]
    fn worker_answers_infeasible_for_uncompilable_requests() {
        let mut session = String::new();
        session.push_str(&init_line(9.0));
        session.push('\n');
        // Wrong wt_dup arity: the dataflow cannot compile.
        let bad = ScoreRequest {
            id: 5,
            ratio_bits: 0.3f64.to_bits(),
            xb_size: 128,
            cell_bits: 2,
            dac_bits: 1,
            wt_dup: vec![1],
            gene: vec![1],
        };
        session.push_str(&bad.to_line());
        session.push('\n');
        let mut output = Vec::new();
        run_worker(session.as_bytes(), &mut output).expect("session survives");
        let text = String::from_utf8(output).unwrap();
        let response = ScoreResponse::parse(text.lines().nth(1).unwrap()).unwrap();
        assert_eq!(response.id, 5);
        assert_eq!(response.score, CandidateScore::INFEASIBLE);
    }

    #[test]
    fn empty_session_is_clean() {
        let mut output = Vec::new();
        run_worker("".as_bytes(), &mut output).expect("empty session");
        assert!(output.is_empty());
    }

    #[test]
    fn fault_injection_defaults_are_inert() {
        let faults = FaultInjection::default();
        assert!(!faults.is_active());
        for exchange in 1..100 {
            assert!(!faults.should_drop(exchange));
        }
    }

    #[test]
    fn fault_injection_drop_cadence_is_every_nth_exchange() {
        let faults = FaultInjection {
            drop_every: Some(3),
            ..Default::default()
        };
        assert!(faults.is_active());
        let drops: Vec<usize> = (1..=9).filter(|&e| faults.should_drop(e)).collect();
        assert_eq!(drops, vec![3, 6, 9]);
    }

    #[test]
    fn fault_injected_drop_closes_the_session_after_replying_earlier_exchanges() {
        // Two v1 score requests with drop_every = 2: the first is answered,
        // the second silently closes the session — the connection-drop
        // shape the remote backend's inline recompute handles.
        let mut session = String::new();
        session.push_str(&init_line(9.0));
        session.push('\n');
        for id in [1u64, 2] {
            let request = ScoreRequest {
                id,
                ratio_bits: 0.3f64.to_bits(),
                xb_size: 128,
                cell_bits: 2,
                dac_bits: 1,
                wt_dup: vec![1],
                gene: vec![1],
            };
            session.push_str(&request.to_line());
            session.push('\n');
        }
        let faults = FaultInjection {
            drop_every: Some(2),
            ..Default::default()
        };
        let mut output = Vec::new();
        run_worker_session(session.as_bytes(), &mut output, 1, &faults)
            .expect("drop ends the session cleanly");
        let text = String::from_utf8(output).unwrap();
        let mut lines = text.lines();
        let _ready = lines.next().expect("ready line");
        let reply = ScoreResponse::parse(lines.next().expect("first score answered")).unwrap();
        assert_eq!(reply.id, 1);
        assert_eq!(lines.next(), None, "second exchange must drop, not reply");
    }
}
