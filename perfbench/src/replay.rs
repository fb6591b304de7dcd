//! The in-process replay: the same operations the HTTP and CLI runs
//! send, executed in this process through the layers' public
//! functions, in the order `cube_serve::api::eval`, `api::ingest` and
//! the `cube mean` / `cube pack` subcommands call them.
//!
//! The replay is both the correctness reference (its bytes are what
//! every response and output file must equal) and, with a tracer on,
//! the per-layer profile: each call into a layer runs inside a span.
//! Nothing inside the program is instrumented.
//!
//! A serve request is replayed over a real loopback connection: a peer
//! thread connects and sends the request bytes, the replay accepts,
//! reads the request with `cube_serve::http::read_request`, handles it,
//! and answers with `http::write_response`, as a server worker does.
//! What the replay leaves out is the acceptor's poll and the admission
//! queue; the difference shows up as `server.residual_ms`.
//!
//! Some CRC work runs inside store calls (page verification on load,
//! section and page CRCs on encode and strict decode). Those CRCs are
//! timed by re-running `crc32` over the same bytes right after the
//! call, as `crc.shadow` spans outside the request; they are reported
//! in `crc.*` and excluded from coverage.

use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cube_algebra::{
    check, parse_expr, BatchOperand, BatchPlan, MergeOptions, OperandFacts, PlanTables, Reduction,
};
use cube_model::Experiment;
use cube_serve::api::error_response;
use cube_serve::http::{read_request, write_response, Deadline, Request, Response};
use cube_serve::json::json_string;
use cube_serve::{content_id, LruCache, Repository, ServeConfig, ServeError};
use cube_store::layout::{CHUNK_VALUES, MAGIC};
use cube_store::{read_store, write_store, ColumnarExperiment};
use cube_xml::footer::{check_footer, crc32, footer_line};
use cube_xml::{write_experiment, CubeReader, ReadLimits};
use rayon::prelude::*;

use crate::client::digest;
use crate::trace::{Tracer, ROOT};

/// Where an operation sits in a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Working-set uploads, or `cube pack` of the CLI inputs.
    Setup,
    /// Evaluations between setup and timing.
    Warmup,
    /// The measured closed loop.
    Timed,
}

/// Kind of a replayed request, for the per-kind breakdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    EvalHit,
    EvalMiss,
    Ingest,
    CliCube,
    CliCubec,
    CliPack,
    Other,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::EvalHit => "eval hit",
            Kind::EvalMiss => "eval miss",
            Kind::Ingest => "ingest",
            Kind::CliCube => "cube mean (.cube)",
            Kind::CliCubec => "cube mean (.cubec)",
            Kind::CliPack => "cube pack",
            Kind::Other => "other",
        }
    }
}

/// What one replayed request produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub status: u16,
    pub x_cache: Option<String>,
    pub digest: u64,
    pub body_len: usize,
    /// Ingest replies: the content id in the JSON body.
    pub id: Option<String>,
    /// In-process time of the request: accept to last byte written
    /// (serve), or first load to output commit (CLI).
    pub wall_ns: u64,
}

/// Work counted at the layer boundaries.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    pub requests: u64,
    pub evals: u64,
    pub result_hits: u64,
    pub result_misses: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub handle_hits: u64,
    pub handle_misses: u64,
    pub opens: u64,
    pub loads: u64,
    pub load_bytes: u64,
    pub decode_bytes: u64,
    pub builds: u64,
    pub kernel_values: u64,
    pub render_bytes: u64,
    pub crc_bytes: u64,
    pub xml_read_bytes: u64,
    pub bytes_out: u64,
}

/// Requests of one replay, by id: phase and kind.
pub struct RequestInfo {
    pub req: u32,
    pub phase: Phase,
    pub kind: Kind,
}

pub struct Replay<'t> {
    tracer: &'t Tracer,
    config: ServeConfig,
    limits: ReadLimits,
    repo: Repository,
    handles: LruCache<String, Arc<ColumnarExperiment>>,
    pub results: LruCache<String, Arc<Vec<u8>>>,
    pub plans: LruCache<String, Arc<PlanTables>>,
    listener: TcpListener,
    /// Counts over every phase.
    pub all: Counts,
    /// Counts over the timed phase only.
    pub timed: Counts,
    pub requests: Vec<RequestInfo>,
    next_req: u32,
    /// CRC work done inside store calls of the current request, timed
    /// once the request span has closed.
    shadows: Vec<Shadow>,
}

/// Bytes a store call ran `crc32` over internally.
enum Shadow {
    /// The severity pages a lazy load verified.
    Pages(Arc<ColumnarExperiment>),
    /// A `.cubec` image (encoded here): whole-file CRC plus the last
    /// `sev_len` bytes before the footer, the pages, in chunks.
    Image(Vec<u8>, usize),
    /// The same for the request body (a `.cubec` upload decoded here).
    Body(usize),
}

static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Adds to both the all-phase and (when timed) the timed counts.
macro_rules! count {
    ($self:ident, $phase:expr, $field:ident += $n:expr) => {{
        let n = $n as u64;
        $self.all.$field += n;
        if $phase == Phase::Timed {
            $self.timed.$field += n;
        }
    }};
}

impl<'t> Replay<'t> {
    /// A replay over a fresh repository at `root`, with the caches and
    /// limits `cube serve` uses by default.
    pub fn new(tracer: &'t Tracer, root: &Path) -> Result<Self, String> {
        let config = ServeConfig::default();
        let limits = config.read_limits();
        let repo = Repository::open_or_init(root, limits, 0).map_err(|e| e.to_string())?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        Ok(Self {
            tracer,
            limits,
            repo,
            handles: LruCache::new(config.handle_cache),
            results: LruCache::new(config.result_cache),
            plans: LruCache::new(config.plan_cache),
            listener,
            config,
            all: Counts::default(),
            timed: Counts::default(),
            requests: Vec::new(),
            next_req: 1,
            shadows: Vec::new(),
        })
    }

    fn begin(&mut self, phase: Phase) -> u32 {
        let req = self.next_req;
        self.next_req += 1;
        count!(self, phase, requests += 1);
        req
    }

    /// Replays one HTTP request end to end over loopback.
    pub fn serve(&mut self, phase: Phase, method: &str, path: &str, body: &[u8]) -> Outcome {
        let req = self.begin(phase);
        let t = self.tracer;
        let addr = self
            .listener
            .local_addr()
            .expect("bound listener has an address");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
            body.len()
        );
        let mut kind = Kind::Other;
        let (resp, wall_ns) = std::thread::scope(|s| {
            let peer = s.spawn(|| -> std::io::Result<()> {
                let mut stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                stream.write_all(head.as_bytes())?;
                stream.write_all(body)?;
                let mut sink = Vec::new();
                stream.read_to_end(&mut sink)?;
                Ok(())
            });
            let (mut stream, _) = self.listener.accept().expect("loopback accept");
            let timeout = Some(Duration::from_millis(self.config.socket_timeout_ms));
            let _ = stream.set_read_timeout(timeout);
            let _ = stream.set_write_timeout(timeout);
            let start = Instant::now();
            let resp = t.span(req, ROOT, "request", |rid| {
                let total = Deadline::after_ms(self.config.request_deadline_ms);
                let head_deadline = Deadline::after_ms(self.config.header_deadline_ms);
                let max_body = self.config.max_body;
                let request = t.span(req, rid, "http.read", |_| {
                    read_request(&mut stream, max_body, &head_deadline, &total)
                });
                let resp = match request {
                    Ok(r) if r.method == "POST" && r.path == "/eval" => {
                        let (resp, k) = self.eval(req, rid, phase, &r);
                        kind = k;
                        resp
                    }
                    Ok(r) if r.method == "PUT" && r.path == "/experiments" => {
                        kind = Kind::Ingest;
                        self.ingest(req, rid, phase, &r)
                    }
                    Ok(r) => error_response(&ServeError::not_found(
                        "no_such_route",
                        format!("the replay has no route for {} {}", r.method, r.path),
                    )),
                    Err(_) => {
                        error_response(&ServeError::bad_request("bad_http", "unreadable request"))
                    }
                };
                let _ = t.span(req, rid, "http.write", |_| {
                    write_response(&mut stream, &resp)
                });
                resp
            });
            let wall_ns = start.elapsed().as_nanos() as u64;
            drop(stream);
            let _ = peer.join();
            (resp, wall_ns)
        });
        count!(self, phase, bytes_out += resp.body.len());
        for shadow in std::mem::take(&mut self.shadows) {
            match shadow {
                Shadow::Pages(h) => {
                    let pages = h.severity().map(le_bytes).unwrap_or_default();
                    self.shadow_crc(req, phase, &[], &pages);
                }
                Shadow::Image(bytes, sev_len) => self.shadow_image(req, phase, &bytes, sev_len),
                Shadow::Body(sev_len) => self.shadow_image(req, phase, body, sev_len),
            }
        }
        self.requests.push(RequestInfo { req, phase, kind });
        let x_cache = resp
            .extra
            .iter()
            .find(|(k, _)| *k == "x-cache")
            .map(|(_, v)| v.clone());
        let id = if kind == Kind::Ingest {
            std::str::from_utf8(&resp.body)
                .ok()
                .and_then(crate::client::json_id)
        } else {
            None
        };
        Outcome {
            status: resp.status,
            x_cache,
            digest: digest(&resp.body),
            body_len: resp.body.len(),
            id,
            wall_ns,
        }
    }

    /// `api::eval`, call for call.
    fn eval(&mut self, req: u32, parent: u32, phase: Phase, request: &Request) -> (Response, Kind) {
        let t = self.tracer;
        count!(self, phase, evals += 1);
        let parsed = t.span(req, parent, "parse", |_| {
            let text = std::str::from_utf8(&request.body).ok()?.trim();
            let parsed = parse_expr(text).ok()?;
            let key = parsed.canonical();
            Some((parsed, key))
        });
        let Some((parsed, key)) = parsed else {
            let e = ServeError::bad_request("bad_expr", "expression does not parse");
            return (error_response(&e), Kind::Other);
        };
        let cached = t.span(req, parent, "cache.result_get", |_| self.results.get(&key));
        if let Some(bytes) = cached {
            count!(self, phase, result_hits += 1);
            let body = t.span(req, parent, "cache.copy", |_| bytes.as_ref().clone());
            let resp =
                Response::bytes(200, "application/cube+xml", body).with_header("x-cache", "hit");
            return (resp, Kind::EvalHit);
        }
        count!(self, phase, result_misses += 1);
        match self.eval_miss(req, parent, phase, &parsed, key) {
            Ok(resp) => (resp, Kind::EvalMiss),
            Err(e) => (error_response(&e), Kind::EvalMiss),
        }
    }

    fn eval_miss(
        &mut self,
        req: u32,
        parent: u32,
        phase: Phase,
        parsed: &cube_algebra::ParsedExpr,
        key: String,
    ) -> Result<Response, ServeError> {
        let t = self.tracer;
        let mut handles: Vec<Arc<ColumnarExperiment>> = Vec::with_capacity(parsed.operands.len());
        for id in &parsed.operands {
            let cached = t.span(req, parent, "cache.handle_get", |_| self.handles.get(id));
            let handle = match cached {
                Some(h) => {
                    count!(self, phase, handle_hits += 1);
                    h
                }
                None => {
                    count!(self, phase, handle_misses += 1);
                    count!(self, phase, opens += 1);
                    let h = t.span(req, parent, "repo.open", |_| -> Result<_, ServeError> {
                        let path = self.repo.locate(id)?;
                        Ok(Arc::new(ColumnarExperiment::open_with(
                            &path,
                            &self.limits,
                        )?))
                    })?;
                    t.span(req, parent, "cache.handle_insert", |_| {
                        self.handles.insert(id.clone(), Arc::clone(&h))
                    });
                    h
                }
            };
            handles.push(handle);
        }
        let report = t.span(req, parent, "check", |_| {
            let facts: Vec<OperandFacts<'_>> = parsed
                .operands
                .iter()
                .zip(&handles)
                .map(|(name, h)| OperandFacts::known(name.clone(), h.metadata()))
                .collect();
            check(parsed, &facts)
        });
        if report.num_errors() > 0 {
            return Err(ServeError::with_status(
                422,
                "static_check",
                "static check failed",
            ));
        }
        for h in &handles {
            if h.is_loaded() {
                continue;
            }
            count!(self, phase, loads += 1);
            t.span(req, parent, "store.load", |_| h.severity().map(|_| ()))?;
            count!(self, phase, load_bytes += h.severity()?.len() * 8);
            if t.is_on() {
                self.shadows.push(Shadow::Pages(Arc::clone(h)));
            }
        }
        let ops: Vec<&dyn BatchOperand> = handles
            .iter()
            .map(|h| h.as_ref() as &dyn BatchOperand)
            .collect();
        let plan_key = parsed.operands.join(",");
        let cached = t.span(req, parent, "cache.plan_get", |_| self.plans.get(&plan_key));
        let reused = match cached {
            Some(tables) => t.span(req, parent, "plan.reuse", |_| {
                BatchPlan::from_tables(&ops, tables).ok()
            }),
            None => None,
        };
        let plan = match reused {
            Some(plan) => {
                count!(self, phase, plan_hits += 1);
                plan
            }
            None => {
                count!(self, phase, plan_misses += 1);
                count!(self, phase, builds += 1);
                let tables = t.span(req, parent, "integrate", |_| {
                    Arc::new(PlanTables::build(&ops, MergeOptions::default()))
                });
                t.span(req, parent, "cache.plan_insert", |_| {
                    self.plans.insert(plan_key, Arc::clone(&tables))
                });
                t.span(req, parent, "plan.reuse", |_| {
                    BatchPlan::from_tables(&ops, tables)
                })?
            }
        };
        let exp = t.span(req, parent, "kernel", |_| plan.eval(&parsed.expr))?;
        count!(self, phase, kernel_values += exp.severity().values().len());
        let bytes = self.render(req, parent, phase, &exp);
        let bytes = Arc::new(bytes);
        t.span(req, parent, "cache.result_insert", |_| {
            self.results.insert(key, Arc::clone(&bytes))
        });
        let body = t.span(req, parent, "cache.copy", |_| bytes.as_ref().clone());
        Ok(Response::bytes(200, "application/cube+xml", body).with_header("x-cache", "miss"))
    }

    /// `write_experiment` then the checksum footer, as `api.rs` and
    /// `write_experiment_file` lay the bytes out.
    fn render(&mut self, req: u32, parent: u32, phase: Phase, exp: &Experiment) -> Vec<u8> {
        let t = self.tracer;
        let mut bytes = t.span(req, parent, "render", |_| {
            write_experiment(exp).into_bytes()
        });
        count!(self, phase, render_bytes += bytes.len());
        count!(self, phase, crc_bytes += bytes.len());
        t.span(req, parent, "crc.footer", |_| {
            let line = footer_line(crc32(&bytes), bytes.len() as u64);
            bytes.extend_from_slice(line.as_bytes());
        });
        bytes
    }

    /// `api::ingest` over `Repository::ingest`, call for call.
    fn ingest(&mut self, req: u32, parent: u32, phase: Phase, request: &Request) -> Response {
        let t = self.tracer;
        let outcome = t.span(req, parent, "repo.ingest", |iid| {
            self.ingest_inner(req, iid, phase, &request.body)
        });
        match outcome {
            Ok((id, created, label)) => Response::json(
                if created { 201 } else { 200 },
                format!(
                    "{{\"id\":\"{id}\",\"created\":{created},\"label\":{}}}",
                    json_string(&label)
                ),
            ),
            Err(e) => error_response(&e),
        }
    }

    fn ingest_inner(
        &mut self,
        req: u32,
        parent: u32,
        phase: Phase,
        bytes: &[u8],
    ) -> Result<(String, bool, String), ServeError> {
        let t = self.tracer;
        let exp = if bytes.starts_with(&MAGIC) {
            let exp = t.span(req, parent, "store.decode", |_| {
                read_store(bytes, &self.limits)
            })?;
            count!(self, phase, decode_bytes += bytes.len());
            if t.is_on() {
                self.shadows
                    .push(Shadow::Body(exp.severity().values().len() * 8));
            }
            exp
        } else {
            let text = t
                .span(req, parent, "xml.utf8", |_| std::str::from_utf8(bytes))
                .map_err(|_| ServeError::bad_request("bad_encoding", "upload is not UTF-8"))?;
            count!(self, phase, crc_bytes += bytes.len());
            let status = t.span(req, parent, "crc.footer_check", |_| check_footer(text));
            if status.is_mismatch() {
                return Err(ServeError::bad_request("footer_mismatch", "bad footer"));
            }
            count!(self, phase, xml_read_bytes += bytes.len());
            t.span(req, parent, "xml_read", |_| {
                CubeReader::with_limits(text, self.limits).read()
            })?
        };
        let canonical = t.span(req, parent, "store.encode", |_| write_store(&exp));
        let sev_len = exp.severity().values().len() * 8;
        let id = t.span(req, parent, "repo.content_id", |_| content_id(&canonical));
        let label = exp.provenance().label();
        let path = self.repo.object_path(&id);
        let created = !path.exists();
        if created {
            t.span(req, parent, "repo.commit", |_| commit(&path, &canonical))
                .map_err(|e| ServeError::internal(format!("{}: {e}", path.display())))?;
        }
        if t.is_on() {
            self.shadows.push(Shadow::Image(canonical, sev_len));
        }
        Ok((id, created, label))
    }

    /// Shadow-times the CRCs of a `.cubec` image: the whole-file CRC and
    /// the `sev_len` page bytes just before the 16-byte footer.
    fn shadow_image(&mut self, req: u32, phase: Phase, image: &[u8], sev_len: usize) {
        let end = image.len() - 16;
        self.shadow_crc(req, phase, &image[..end], &image[end - sev_len..end]);
    }

    /// Times `crc32` over a whole-file prefix and over the severity
    /// pages in `CHUNK_VALUES` chunks: the CRC work a store call did
    /// internally. Outside any request; only when tracing.
    fn shadow_crc(&mut self, req: u32, phase: Phase, whole: &[u8], pages: &[u8]) {
        if !self.tracer.is_on() {
            return;
        }
        count!(self, phase, crc_bytes += whole.len() + pages.len());
        self.tracer.span(req, ROOT, "crc.shadow", |_| {
            let mut acc = crc32(whole);
            for chunk in pages.chunks(CHUNK_VALUES * 8) {
                acc ^= crc32(chunk);
            }
            std::hint::black_box(acc)
        });
    }

    /// `cube pack INPUT OUTPUT`: load, encode, durable commit.
    pub fn cli_pack(
        &mut self,
        phase: Phase,
        input: &Path,
        output: &Path,
    ) -> Result<Outcome, String> {
        let req = self.begin(phase);
        let t = self.tracer;
        let start = Instant::now();
        let (bytes, loaded) = t.span(req, ROOT, "request", |rid| {
            let loaded = self.cli_load(req, rid, input)?;
            let canonical = t.span(req, rid, "store.encode", |_| write_store(&loaded.exp));
            t.span(req, rid, "fs.commit", |_| commit(output, &canonical))
                .map_err(|e| format!("{}: {e}", output.display()))?;
            Ok::<_, String>((canonical, loaded))
        })?;
        let wall_ns = start.elapsed().as_nanos() as u64;
        self.after_loads(req, phase, std::slice::from_ref(&loaded));
        self.shadow_image(req, phase, &bytes, loaded.exp.severity().values().len() * 8);
        Ok(self.finish_cli(req, phase, Kind::CliPack, &bytes, wall_ns))
    }

    /// `cube mean INPUTS... -o OUTPUT`: loads forked over the pool, one
    /// batch plan, the mean kernel, render, footer, durable commit.
    pub fn cli_mean(
        &mut self,
        phase: Phase,
        kind: Kind,
        inputs: &[PathBuf],
        output: &Path,
    ) -> Result<Outcome, String> {
        let req = self.begin(phase);
        let t = self.tracer;
        let start = Instant::now();
        let (bytes, loaded) = t.span(req, ROOT, "request", |rid| {
            let this = &*self;
            let loaded: Vec<Loaded> = inputs
                .par_iter()
                .with_min_len(1)
                .map(|p| this.cli_load(req, rid, p))
                .collect::<Result<_, _>>()?;
            let refs: Vec<&Experiment> = loaded.iter().map(|l| &l.exp).collect();
            let plan = t.span(req, rid, "integrate", |_| {
                BatchPlan::with_options(&refs, MergeOptions::default())
            });
            let exp = t
                .span(req, rid, "kernel", |_| plan.reduce(Reduction::Mean))
                .map_err(|e| e.to_string())?;
            count!(self, phase, evals += 1);
            count!(self, phase, builds += 1);
            count!(self, phase, kernel_values += exp.severity().values().len());
            let bytes = self.render(req, rid, phase, &exp);
            t.span(req, rid, "fs.commit", |_| commit(output, &bytes))
                .map_err(|e| format!("{}: {e}", output.display()))?;
            Ok::<_, String>((bytes, loaded))
        })?;
        let wall_ns = start.elapsed().as_nanos() as u64;
        self.after_loads(req, phase, &loaded);
        Ok(self.finish_cli(req, phase, kind, &bytes, wall_ns))
    }

    /// The CLI's `load`: `read_store_file` for `.cubec` (read, then the
    /// strict decode), `read_experiment_file` otherwise (read, UTF-8,
    /// footer check, streaming parse).
    fn cli_load(&self, req: u32, parent: u32, path: &Path) -> Result<Loaded, String> {
        let t = self.tracer;
        let err = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
        let file = t
            .span(req, parent, "fs.read", |_| std::fs::read(path))
            .map_err(|e| err(&e))?;
        if path.extension().is_some_and(|x| x == "cubec") {
            let exp = t
                .span(req, parent, "store.decode", |_| {
                    read_store(&file, &ReadLimits::default())
                })
                .map_err(|e| err(&e))?;
            return Ok(Loaded {
                exp,
                file,
                xml: false,
            });
        }
        let text = t
            .span(req, parent, "xml.utf8", |_| std::str::from_utf8(&file))
            .map_err(|e| err(&e))?;
        let status = t.span(req, parent, "crc.footer_check", |_| check_footer(text));
        if status.is_mismatch() {
            return Err(err(&"checksum footer mismatch"));
        }
        let exp = t
            .span(req, parent, "xml_read", |_| CubeReader::new(text).read())
            .map_err(|e| err(&e))?;
        Ok(Loaded {
            exp,
            file,
            xml: true,
        })
    }

    /// Counts the bytes each load read and shadow-times the CRCs the
    /// strict `.cubec` decode ran.
    fn after_loads(&mut self, req: u32, phase: Phase, loaded: &[Loaded]) {
        for l in loaded {
            if l.xml {
                count!(self, phase, xml_read_bytes += l.file.len());
                count!(self, phase, crc_bytes += l.file.len());
            } else {
                count!(self, phase, loads += 1);
                count!(self, phase, decode_bytes += l.file.len());
                self.shadow_image(req, phase, &l.file, l.exp.severity().values().len() * 8);
            }
        }
    }

    fn finish_cli(
        &mut self,
        req: u32,
        phase: Phase,
        kind: Kind,
        bytes: &[u8],
        wall_ns: u64,
    ) -> Outcome {
        self.requests.push(RequestInfo { req, phase, kind });
        Outcome {
            status: 0,
            x_cache: None,
            digest: digest(bytes),
            body_len: bytes.len(),
            id: None,
            wall_ns,
        }
    }
}

/// One CLI input as loaded.
struct Loaded {
    exp: Experiment,
    file: Vec<u8>,
    xml: bool,
}

/// Severity values as the little-endian bytes a `.cubec` stores them in.
fn le_bytes(values: &[f64]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// The durable commit `Repository::ingest` and the CLI writers share:
/// write a same-directory temporary file, sync it, rename it over the
/// target.
fn commit(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    std::fs::create_dir_all(dir)?;
    let tmp = dir.join(format!(
        ".tmp-{}-{}",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let res = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if res.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    res
}
