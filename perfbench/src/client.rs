//! The real program, driven from outside: a `cube serve` child process
//! spoken to over loopback HTTP, and `cube` CLI child processes.

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::process::CommandExt as _;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Environment variables that would change the program's defaults.
const CUBE_ENV: [&str; 4] = [
    "CUBE_THREADS",
    "RAYON_NUM_THREADS",
    "CUBE_FUSION",
    "CUBE_FAULTS",
];

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const SIGTERM: i32 = 15;
const PR_SET_PDEATHSIG: i32 = 1;

/// A `cube` command with the program's defaults (no `CUBE_*`
/// overrides) that receives SIGTERM if this process dies first, so no
/// child outlives the benchmark.
pub fn cube_command(cube: &Path) -> Command {
    let mut cmd = Command::new(cube);
    for var in CUBE_ENV {
        cmd.env_remove(var);
    }
    // SAFETY: the hook runs in the forked child before exec and only
    // calls prctl(2), which is async-signal-safe, touches no memory of
    // the parent, and changes nothing but the child's own death signal.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGTERM as u64, 0, 0, 0);
            Ok(())
        });
    }
    cmd
}

/// 64-bit digest of a byte string: a multiply-rotate hash over 8-byte
/// words. Any change to a single word changes the result, which is all
/// a byte-for-byte oracle over trusted outputs needs; it is not
/// collision resistant against an adversary.
pub fn digest(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517C_C1B7_2722_0A95;
    let mut h = 0xCBF2_9CE4_8422_2325 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes"));
        h = (h.rotate_left(5) ^ w).wrapping_mul(K);
    }
    for &b in words.remainder() {
        h = (h.rotate_left(5) ^ u64::from(b)).wrapping_mul(K);
    }
    h
}

/// A running `cube serve --repo DIR --port 0`.
pub struct Server {
    child: Child,
    /// Held open so the server's shutdown message does not hit a
    /// closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns the server on an empty repository directory and waits for
    /// its `listening on ADDR` line.
    pub fn spawn(cube: &Path, repo: &Path) -> Result<Server, String> {
        let mut child = cube_command(cube)
            .arg("serve")
            .arg("--repo")
            .arg(repo)
            .args(["--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", cube.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match read {
            Ok(_) => line
                .trim()
                .strip_prefix("listening on ")
                .and_then(|a| a.parse::<SocketAddr>().ok()),
            Err(_) => None,
        };
        let mut server = Server {
            child,
            _stdout: stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        match addr {
            Some(addr) => {
                server.addr = addr;
                Ok(server)
            }
            None => {
                server.halt();
                Err(format!("cube serve did not report its address: {line:?}"))
            }
        }
    }

    /// Peak resident set (`VmHWM`) of the server so far, in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// SIGTERM (the server drains and exits), then waits; kills it if
    /// it has not exited within ten seconds.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        if let Ok(Some(_)) = self.child.try_wait() {
            return;
        }
        let pid = i32::try_from(self.child.id()).expect("pids fit in i32");
        // SAFETY: kill(2) takes two integers and touches no memory of
        // this process; `pid` is our own child, which has not been
        // reaped yet (try_wait above returned None), so it cannot have
        // been recycled for another process.
        unsafe {
            kill(pid, SIGTERM);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.halt();
    }
}

/// One HTTP exchange as the client saw it.
pub struct Reply {
    pub status: u16,
    pub x_cache: Option<String>,
    pub digest: u64,
    pub body_len: usize,
    /// The body, kept only for small (JSON) responses.
    pub small_body: Option<String>,
    pub latency_ns: u64,
}

/// Sends one request on a fresh connection (the server closes every
/// connection after one response) and reads the reply to EOF. The
/// latency runs from before `connect` to the last byte. `corrupt`
/// flips one bit of the last byte received before the reply is
/// checked: the oracle's self-test.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    buf: &mut Vec<u8>,
    corrupt: bool,
) -> Result<Reply, String> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    buf.clear();
    let start = Instant::now();
    let mut exchange = || -> std::io::Result<()> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;
        stream.read_to_end(buf)?;
        Ok(())
    };
    exchange().map_err(|e| format!("{method} {path}: {e}"))?;
    let latency_ns = start.elapsed().as_nanos() as u64;
    if let (true, Some(last)) = (corrupt, buf.last_mut()) {
        *last ^= 1;
    }
    parse_reply(buf, latency_ns).ok_or_else(|| format!("{method} {path}: malformed response"))
}

fn parse_reply(buf: &[u8], latency_ns: u64) -> Option<Reply> {
    let end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..end]).ok()?;
    let body = &buf[end + 4..];
    let mut lines = head.split("\r\n");
    let status: u16 = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let mut x_cache = None;
    let mut length = None;
    for line in lines {
        let (k, v) = line.split_once(':')?;
        match k.trim().to_ascii_lowercase().as_str() {
            "x-cache" => x_cache = Some(v.trim().to_string()),
            "content-length" => length = v.trim().parse::<usize>().ok(),
            _ => {}
        }
    }
    if length != Some(body.len()) {
        return None;
    }
    Some(Reply {
        status,
        x_cache,
        digest: digest(body),
        body_len: body.len(),
        small_body: (body.len() <= 4096).then(|| String::from_utf8_lossy(body).into_owned()),
        latency_ns,
    })
}

/// The `"id"` field of an ingest reply.
pub fn json_id(body: &str) -> Option<String> {
    cube_serve::json::extract_string_field(body, "id")
}

/// A named counter pair from the `/stats` JSON, e.g. `result_cache`.
pub fn stats_counter(stats: &str, cache: &str, field: &str) -> Option<u64> {
    let at = stats.find(&format!("\"{cache}\":{{"))?;
    let rest = &stats[at..];
    let key = format!("\"{field}\":");
    let v = &rest[rest.find(&key)? + key.len()..];
    let end = v.find(|c: char| !c.is_ascii_digit())?;
    v[..end].parse().ok()
}

/// Runs one `cube` process to completion; returns its wall time.
pub fn run_cube(cube: &Path, args: &[&Path]) -> Result<u64, String> {
    let start = Instant::now();
    let out = cube_command(cube)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .map_err(|e| format!("spawning {}: {e}", cube.display()))?;
    let wall = start.elapsed().as_nanos() as u64;
    if !out.status.success() {
        return Err(format!(
            "cube {:?} exited {}: {}",
            args,
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(wall)
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Largest peak resident set of any child process waited for so far,
/// in MB (`getrusage(RUSAGE_CHILDREN)`).
pub fn children_peak_rss_mb() -> f64 {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a writable, properly aligned struct laid out
    // like Linux's `struct rusage` (two timevals then fourteen longs),
    // which getrusage fills and does not retain.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    usage.maxrss as f64 / 1024.0
}

/// A scratch directory removed when dropped.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(path: PathBuf) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Self(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
