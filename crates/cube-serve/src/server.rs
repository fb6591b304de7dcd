//! The threaded server: acceptor, bounded admission queue, worker
//! pool, and graceful shutdown.
//!
//! One `std::thread` acceptor waits for the listener to become
//! readable (`poll(2)`, with a short timeout so the stop flag and
//! signals are still seen), accepts every pending connection and
//! admits each into a bounded queue; `workers` long-lived threads
//! drain it. When the queue is full the *acceptor* answers 429
//! immediately — overload sheds load in microseconds instead of
//! stacking latency, and a client can always distinguish "busy" from
//! "hung". Inside a worker, evaluation fans out over the shared
//! `rayon` pool, whose length-driven splitting keeps every response
//! byte-identical at any thread count — which is also what makes the
//! result cache sound (docs/SERVE.md).
//!
//! Shutdown is cooperative: [`RunningServer::shutdown`] (or SIGTERM /
//! SIGINT via [`install_signal_handlers`]) stops the acceptor, then
//! workers drain every already-admitted connection before exiting, so
//! an accepted request is never dropped on the floor.

use crate::api;
use crate::cache::{lock_recover, LruCache};
use crate::error::ServeError;
use crate::faults::FaultPlan;
use crate::http::{read_request, write_response, Deadline, HttpError};
use crate::repo::Repository;
use cube_algebra::PlanTables;
use cube_xml::ReadLimits;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Everything `cube serve` can tune.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind, e.g. `127.0.0.1`.
    pub addr: String,
    /// Port to bind; `0` picks an ephemeral port.
    pub port: u16,
    /// Worker threads draining the admission queue.
    pub workers: usize,
    /// Admitted-but-unserved connections the queue holds before the
    /// acceptor starts answering 429.
    pub queue_depth: usize,
    /// Entries in the derived-result byte cache (0 disables).
    pub result_cache: usize,
    /// Entries in the plan-table cache (0 disables).
    pub plan_cache: usize,
    /// Entries in the open-handle cache (0 disables).
    pub handle_cache: usize,
    /// Maximum request-body size in bytes; also caps the parse limits
    /// applied to uploaded documents.
    pub max_body: usize,
    /// Test hook: sleep this long at the start of every request, so
    /// the stress harness can fill the queue deterministically.
    pub delay_ms: u64,
    /// Total per-request deadline in milliseconds (read + handle);
    /// expiry answers `504 deadline_exceeded`. `0` disables.
    pub request_deadline_ms: u64,
    /// Header-read deadline in milliseconds — the slow-loris cap: a
    /// peer trickling header bytes is cut off when it expires. `0`
    /// disables (the total deadline still applies).
    pub header_deadline_ms: u64,
    /// Per-socket read/write timeout in milliseconds, the coarse
    /// transport-level backstop beneath the deadlines. `0` disables.
    pub socket_timeout_ms: u64,
    /// Attempts per repository read before a transient failure is
    /// treated as persistent (1 = no retry).
    pub read_retries: u32,
    /// Base of the exponential retry backoff, in milliseconds; jitter
    /// is added deterministically (see `faults::jitter_ms`).
    pub backoff_base_ms: u64,
    /// Consecutive read failures after which the circuit breaker
    /// quarantines an object id. `0` disables the breaker.
    pub breaker_threshold: u32,
    /// Fault-injection spec (`CUBE_FAULTS` grammar, docs/FAULTS.md);
    /// `None` means no faults and a zero-cost read path.
    pub faults: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1".to_string(),
            port: 0,
            workers: 4,
            queue_depth: 64,
            result_cache: 64,
            plan_cache: 16,
            handle_cache: 64,
            max_body: 256 << 20,
            delay_ms: 0,
            request_deadline_ms: 30_000,
            header_deadline_ms: 5_000,
            socket_timeout_ms: 30_000,
            read_retries: 3,
            backoff_base_ms: 5,
            breaker_threshold: 3,
            faults: None,
        }
    }
}

impl ServeConfig {
    /// The per-request [`ReadLimits`] this configuration implies:
    /// defaults, tightened so no parsed document may exceed the body
    /// cap.
    pub fn read_limits(&self) -> ReadLimits {
        let mut limits = ReadLimits::default();
        limits.max_input_bytes = limits.max_input_bytes.min(self.max_body);
        limits
    }
}

struct Queue {
    conns: VecDeque<TcpStream>,
    closed: bool,
}

/// State shared by the acceptor, the workers, and the API handlers.
pub struct Shared {
    /// The experiment repository.
    pub repo: Repository,
    /// The configuration the server was started with.
    pub config: ServeConfig,
    /// Derived-result bytes keyed by canonical expression.
    pub results: Mutex<LruCache<String, Arc<Vec<u8>>>>,
    /// Plan tables keyed by the ordered operand-id list.
    pub plans: Mutex<LruCache<String, Arc<PlanTables>>>,
    /// Requests fully read and dispatched.
    pub requests: AtomicU64,
    /// `/eval` requests dispatched.
    pub evals: AtomicU64,
    /// Connections answered 429 at admission.
    pub rejected: AtomicU64,
    /// Requests answered `504 deadline_exceeded`.
    pub deadline_expirations: AtomicU64,
    /// `/eval` requests answered degraded (206 with omitted operands).
    pub degraded_evals: AtomicU64,
    queue: Mutex<Queue>,
    ready: Condvar,
    stop: AtomicBool,
}

impl Shared {
    fn new(repo: Repository, config: ServeConfig) -> Self {
        Self {
            repo,
            results: Mutex::new(LruCache::new(config.result_cache)),
            plans: Mutex::new(LruCache::new(config.plan_cache)),
            requests: AtomicU64::new(0),
            evals: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            deadline_expirations: AtomicU64::new(0),
            degraded_evals: AtomicU64::new(0),
            queue: Mutex::new(Queue {
                conns: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            stop: AtomicBool::new(false),
            config,
        }
    }
}

/// A started server: its bound address plus the handles needed to stop
/// it. Dropping without [`RunningServer::join`] still signals the
/// threads to stop; `join` additionally waits for the drain.
pub struct RunningServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    faults_active: bool,
}

/// Binds, spawns the acceptor and workers, and returns immediately.
/// `root` is the repository directory (created if needed).
pub fn start(config: ServeConfig, root: &Path) -> Result<RunningServer, ServeError> {
    let faults_active = match &config.faults {
        Some(spec) => {
            let plan = FaultPlan::parse(spec)
                .map_err(|e| ServeError::bad_request("bad_faults", format!("CUBE_FAULTS: {e}")))?;
            crate::faults::activate(plan)
        }
        None => false,
    };
    let mut repo = Repository::open_or_init(root, config.read_limits(), config.handle_cache)?;
    repo.set_resilience(
        config.read_retries,
        config.backoff_base_ms,
        config.breaker_threshold,
    );
    let listener = TcpListener::bind((config.addr.as_str(), config.port))?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let workers = config.workers.max(1);
    let shared = Arc::new(Shared::new(repo, config));

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("cube-serve-accept".to_string())
            .spawn(move || accept_loop(&shared, &listener))
            .map_err(|e| ServeError::internal(format!("spawning acceptor: {e}")))?
    };
    let workers = (0..workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("cube-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .map_err(|e| ServeError::internal(format!("spawning worker {i}: {e}")))
        })
        .collect::<Result<Vec<_>, _>>()?;

    Ok(RunningServer {
        addr,
        shared,
        acceptor: Some(acceptor),
        workers,
        faults_active,
    })
}

impl RunningServer {
    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state, for tests and stats reporting.
    pub fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Asks the acceptor and workers to stop. Already-admitted
    /// connections are still served; new ones are no longer accepted.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.ready_all();
    }

    fn ready_all(&self) {
        // Wake parked workers so they observe the closed queue.
        let _guard = lock_recover(&self.shared.queue);
        self.shared.ready.notify_all();
    }

    /// Waits for the acceptor to stop and the workers to drain the
    /// queue. Call [`RunningServer::shutdown`] first (or rely on a
    /// signal); `join` alone would wait forever.
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.shutdown();
        if self.faults_active {
            // This server owned the fault schedule; make the hook
            // inert again so later servers in the same process (other
            // tests in the binary) see a clean read path.
            crate::faults::deactivate();
        }
    }
}

/// Longest the acceptor blocks waiting for a connection before it
/// looks at the stop flag and the signal flag again.
const ACCEPT_WAIT_MS: i32 = 10;

fn accept_loop(shared: &Shared, listener: &TcpListener) {
    loop {
        if shared.stop.load(Ordering::SeqCst) || signaled() {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => admit(shared, stream),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                wait_readable(listener, ACCEPT_WAIT_MS);
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    let mut queue = lock_recover(&shared.queue);
    queue.closed = true;
    drop(queue);
    shared.ready.notify_all();
}

/// Blocks until `listener` has a connection to accept or `timeout_ms`
/// passes, whichever is first. A signal interrupting the wait just
/// returns early; the caller re-checks its flags either way. `std`
/// already links libc, so the raw `poll(2)` binding adds no
/// dependency — the same pattern as [`install_signal_handlers`].
#[cfg(unix)]
fn wait_readable(listener: &TcpListener, timeout_ms: i32) {
    use std::os::unix::io::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[cfg(target_os = "linux")]
    type NFds = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NFds = std::ffi::c_uint;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NFds, timeout: i32) -> i32;
    }
    const POLLIN: i16 = 0x1;
    let mut fd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    // SAFETY: `fd` is one valid, exclusively borrowed pollfd for the
    // duration of the call, and the listener keeps the descriptor open.
    unsafe {
        poll(&mut fd, 1, timeout_ms);
    }
}

#[cfg(not(unix))]
fn wait_readable(_listener: &TcpListener, _timeout_ms: i32) {
    std::thread::sleep(Duration::from_millis(2));
}

fn admit(shared: &Shared, mut stream: TcpStream) {
    if shared.config.socket_timeout_ms > 0 {
        let t = Duration::from_millis(shared.config.socket_timeout_ms);
        let _ = stream.set_read_timeout(Some(t));
        let _ = stream.set_write_timeout(Some(t));
    }
    let mut queue = lock_recover(&shared.queue);
    if queue.conns.len() >= shared.config.queue_depth {
        drop(queue);
        shared.rejected.fetch_add(1, Ordering::Relaxed);
        // Retry-After tells a well-behaved client how long to back off
        // before re-sending; the contract is documented in
        // docs/SERVE.md ("Overload and the client retry contract").
        let resp = api::error_response(&ServeError::with_status(
            429,
            "queue_full",
            format!(
                "admission queue is full ({} waiting); retry",
                shared.config.queue_depth
            ),
        ))
        .with_header("retry-after", "1");
        let _ = write_response(&mut stream, &resp);
        // The client may still be mid-send; closing with unread bytes
        // in the socket buffer raises RST and discards the 429 in
        // flight. Drain (briefly, bounded) until the client finishes,
        // so the rejection actually arrives.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let mut sink = [0u8; 4096];
        for _ in 0..256 {
            match std::io::Read::read(&mut stream, &mut sink) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
        return;
    }
    queue.conns.push_back(stream);
    drop(queue);
    shared.ready.notify_one();
}

fn worker_loop(shared: &Shared) {
    loop {
        let conn = {
            let mut queue = lock_recover(&shared.queue);
            loop {
                if let Some(conn) = queue.conns.pop_front() {
                    break Some(conn);
                }
                if queue.closed {
                    break None;
                }
                queue = shared
                    .ready
                    .wait(queue)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        match conn {
            Some(mut stream) => serve_connection(shared, &mut stream),
            None => break,
        }
    }
}

fn serve_connection(shared: &Shared, stream: &mut TcpStream) {
    if shared.config.delay_ms > 0 {
        std::thread::sleep(Duration::from_millis(shared.config.delay_ms));
    }
    // The total budget starts when a worker picks the connection up,
    // so queue wait does not eat into it; the header budget is the
    // tighter slow-loris cap.
    let total = Deadline::after_ms(shared.config.request_deadline_ms);
    let head = Deadline::after_ms(shared.config.header_deadline_ms);
    let response = match read_request(stream, shared.config.max_body, &head, &total) {
        Ok(request) => {
            shared.requests.fetch_add(1, Ordering::Relaxed);
            api::handle(shared, &request, &total)
        }
        Err(HttpError::Closed) => return,
        Err(HttpError::Malformed(message)) => {
            api::error_response(&ServeError::bad_request("bad_http", message))
        }
        Err(HttpError::BodyTooLarge { declared, limit }) => {
            api::error_response(&ServeError::with_status(
                413,
                "body_too_large",
                format!("declared body of {declared} bytes exceeds the {limit}-byte cap"),
            ))
        }
        Err(HttpError::Io(e)) => {
            // Read timeout or reset mid-request: answer if the peer is
            // still there, otherwise the write fails harmlessly.
            api::error_response(&ServeError::bad_request(
                "read_failed",
                format!("could not read request: {e}"),
            ))
        }
        Err(HttpError::Deadline(phase)) => api::error_response(&ServeError::deadline(phase)),
    };
    if response.status == 504 {
        shared.deadline_expirations.fetch_add(1, Ordering::Relaxed);
    }
    // Arming the read timeout to a near-expired deadline leaves the
    // socket with a tiny timeout; restore the coarse one so writing
    // the response itself is not starved.
    if shared.config.socket_timeout_ms > 0 {
        let t = Duration::from_millis(shared.config.socket_timeout_ms);
        let _ = stream.set_write_timeout(Some(t));
    }
    let _ = write_response(stream, &response);
}

static SIGNALED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    SIGNALED.store(true, Ordering::SeqCst);
}

/// Installs SIGTERM and SIGINT handlers that flip the flag
/// [`signaled`] reads. Process-global; the CLI installs them once
/// before serving. `std` already links libc, so the raw `signal(2)`
/// binding adds no dependency.
pub fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
        signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
    }
}

/// True once SIGTERM or SIGINT has been delivered. The acceptor also
/// polls this, so a signal alone (without [`RunningServer::shutdown`])
/// begins a graceful drain.
pub fn signaled() -> bool {
    SIGNALED.load(Ordering::SeqCst)
}
