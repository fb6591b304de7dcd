//! The serve workloads: a real `cube serve` over loopback HTTP, then the
//! in-process replay of the same operations as the reference and, when
//! tracing, as the per-layer profile.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use cube_serve::ServeConfig;

use crate::client::{json_id, request, stats_counter, Reply, Server};
use crate::gen::{encode, Format, Op, ServeKind, ServePlan, Templates, CLIENTS, ROUND};
use crate::layers::{breakdown, per_layer, Residuals};
use crate::replay::{Outcome, Phase, Replay};
use crate::stats::{median, ms, percentile, Metric, Tally};
use crate::trace::{write_spans, Tracer};
use crate::{golden, Ctx, RunOutput};

/// Connections the working-set upload uses: one per core of the 2-core
/// machine the benchmark was tuned on.
const UPLOAD_CONNECTIONS: usize = 2;

/// What a client sent, without the upload bytes.
#[derive(Clone)]
enum Desc {
    Eval {
        expr: String,
        new: bool,
    },
    Ingest {
        id: String,
        dup: bool,
        format: Format,
    },
}

struct Sent {
    desc: Desc,
    request_bytes: usize,
    reply: Result<Reply, String>,
}

/// The request an op becomes: (description, method, path, body).
fn wire(op: Op) -> (Desc, &'static str, &'static str, Vec<u8>) {
    match op {
        Op::Eval { expr, new } => {
            let body = expr.clone().into_bytes();
            (Desc::Eval { expr, new }, "POST", "/eval", body)
        }
        Op::Ingest(u) => (
            Desc::Ingest {
                id: u.id,
                dup: u.dup,
                format: u.format,
            },
            "PUT",
            "/experiments",
            u.bytes,
        ),
    }
}

struct SetupLog {
    ingests: Vec<Result<Reply, String>>,
    warmups: Vec<Result<Reply, String>>,
}

/// Uploads the working set over `UPLOAD_CONNECTIONS` connections, then runs the
/// warm-up evaluations one at a time.
fn setup(server: &Server, plan: &ServePlan, uploads: &[Vec<u8>]) -> SetupLog {
    let addr = server.addr;
    let mut ingests: Vec<Option<Result<Reply, String>>> =
        (0..uploads.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..UPLOAD_CONNECTIONS)
            .map(|c| {
                s.spawn(move || {
                    let mut buf = Vec::new();
                    (c..uploads.len())
                        .step_by(UPLOAD_CONNECTIONS)
                        .map(|i| {
                            (
                                i,
                                request(addr, "PUT", "/experiments", &uploads[i], &mut buf, false),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("setup upload thread panicked") {
                ingests[i] = Some(r);
            }
        }
    });
    let mut buf = Vec::new();
    let warmups = plan
        .warmup
        .iter()
        .map(|e| request(addr, "POST", "/eval", e.as_bytes(), &mut buf, false))
        .collect();
    SetupLog {
        ingests: ingests
            .into_iter()
            .map(|r| r.expect("every upload index is sent once"))
            .collect(),
        warmups,
    }
}

/// The closed loop: each client sends `ROUND` ops, then waits for the
/// other at a barrier; the loop stops at the first barrier after
/// `seconds` have passed, so both clients send the same number of ops.
fn timed(
    ctx: &Ctx,
    server: &Server,
    plan: &ServePlan,
    templates: &Templates,
) -> (Vec<Vec<Sent>>, f64) {
    let barrier = Barrier::new(CLIENTS);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(ctx.seconds);
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (barrier, stop) = (&barrier, &stop);
                s.spawn(move || {
                    let mut stream = plan.stream(c);
                    let mut buf = Vec::with_capacity(16 << 20);
                    let mut corrupt = ctx.corrupt && c == 0;
                    let mut log = Vec::new();
                    loop {
                        for _ in 0..ROUND {
                            let (desc, method, path, body) = wire(stream.next_op(templates));
                            let flip = corrupt && matches!(desc, Desc::Eval { .. });
                            corrupt &= !flip;
                            let reply = request(server.addr, method, path, &body, &mut buf, flip);
                            log.push(Sent {
                                desc,
                                request_bytes: body.len(),
                                reply,
                            });
                        }
                        if barrier.wait().is_leader() {
                            stop.store(Instant::now() >= end, Ordering::SeqCst);
                        }
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            return log;
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (logs, start.elapsed().as_secs_f64())
}

/// The replay's outcomes for one run's operations, in canonical order:
/// setup uploads, warm-up evals, then round by round, client by client.
struct ReplayRun<'t> {
    replay: Replay<'t>,
    setup: Vec<Outcome>,
    warmup: Vec<Outcome>,
    timed: Vec<Vec<Outcome>>,
}

fn replay_all<'t>(
    tracer: &'t Tracer,
    dir: &Path,
    plan: &ServePlan,
    templates: &Templates,
    uploads: &[Vec<u8>],
    rounds: usize,
) -> Result<ReplayRun<'t>, String> {
    let mut replay = Replay::new(tracer, dir)?;
    let setup = uploads
        .iter()
        .map(|b| replay.serve(Phase::Setup, "PUT", "/experiments", b))
        .collect();
    let warmup = plan
        .warmup
        .iter()
        .map(|e| replay.serve(Phase::Warmup, "POST", "/eval", e.as_bytes()))
        .collect();
    let mut streams: Vec<_> = (0..CLIENTS).map(|c| plan.stream(c)).collect();
    let mut timed: Vec<Vec<Outcome>> = (0..CLIENTS).map(|_| Vec::new()).collect();
    for _ in 0..rounds {
        for (c, stream) in streams.iter_mut().enumerate() {
            for _ in 0..ROUND {
                let (_, method, path, body) = wire(stream.next_op(templates));
                timed[c].push(replay.serve(Phase::Timed, method, path, &body));
            }
        }
    }
    Ok(ReplayRun {
        replay,
        setup,
        warmup,
        timed,
    })
}

fn same(a: &Outcome, b: &Outcome) -> bool {
    a.status == b.status && a.digest == b.digest && a.x_cache == b.x_cache
}

/// Checks one HTTP reply against the reference outcome.
fn check_reply(
    reply: &Result<Reply, String>,
    reference: &Outcome,
    status: u16,
    x_cache: Option<&str>,
    id: Option<&str>,
) -> Vec<String> {
    let r = match reply {
        Ok(r) => r,
        Err(e) => return vec![e.clone()],
    };
    let mut p = Vec::new();
    if r.status != status {
        p.push(format!("status {} (expected {status})", r.status));
    }
    if reference.status != status {
        p.push(format!(
            "replay status {} (expected {status})",
            reference.status
        ));
    }
    if r.x_cache.as_deref() != x_cache || reference.x_cache.as_deref() != x_cache {
        p.push(format!(
            "X-Cache {:?}, replay {:?} (expected {x_cache:?})",
            r.x_cache, reference.x_cache
        ));
    }
    if r.digest != reference.digest || r.body_len != reference.body_len {
        p.push(format!(
            "body digest {:016x} ({} bytes) != replay {:016x} ({} bytes)",
            r.digest, r.body_len, reference.digest, reference.body_len
        ));
    }
    if let Some(id) = id {
        let got = r.small_body.as_deref().and_then(json_id);
        if got.as_deref() != Some(id) || reference.id.as_deref() != Some(id) {
            p.push(format!(
                "id {got:?}, replay {:?} (expected content_id(write_store(exp)) = {id})",
                reference.id
            ));
        }
    }
    p
}

pub fn run(ctx: &Ctx, kind: ServeKind) -> Result<RunOutput, String> {
    let templates = Templates::new();
    let plan = ServePlan::new(kind, ctx.seed, &templates);
    let uploads: Vec<Vec<u8>> = plan
        .initial
        .iter()
        .enumerate()
        .map(|(i, spec)| encode(&templates.experiment(spec), ServePlan::initial_format(i)))
        .collect();
    let mut tally = Tally::default();

    // Set up several times; the last server goes on to the timed phase.
    let setups = if ctx.trace { 1 } else { crate::SETUPS };
    let mut setup_s = Vec::new();
    let mut setup_logs = Vec::new();
    let mut server = None;
    for k in 0..setups {
        let dir = ctx.work.join(format!("serve-repo-{k}"));
        let start = Instant::now();
        let s = Server::spawn(&ctx.cube, &dir)?;
        setup_logs.push(setup(&s, &plan, &uploads));
        setup_s.push(start.elapsed().as_secs_f64());
        if k + 1 < setups {
            s.stop();
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one setup ran");
    let (logs, elapsed) = timed(ctx, &server, &plan, &templates);
    let mut buf = Vec::new();
    let stats = request(server.addr, "GET", "/stats", b"", &mut buf, false)
        .ok()
        .and_then(|r| r.small_body)
        .unwrap_or_default();
    let peak_rss_mb = server.peak_rss_mb().unwrap_or(0.0);
    server.stop();
    let rounds = logs[0].len() / ROUND;

    let off = Tracer::new(false);
    let reference = replay_all(
        &off,
        &ctx.work.join("replay-off"),
        &plan,
        &templates,
        &uploads,
        rounds,
    )?;

    // Setup uploads and warm-up evals, for every setup.
    for log in &setup_logs {
        for (i, r) in log.ingests.iter().enumerate() {
            let id = &plan.initial_ids[i];
            let p = check_reply(r, &reference.setup[i], 201, None, Some(id));
            tally.op(&format!("setup upload {i}"), p);
        }
        for (j, r) in log.warmups.iter().enumerate() {
            let p = check_reply(r, &reference.warmup[j], 200, Some("miss"), None);
            tally.op(&format!("warm-up eval {j}"), p);
        }
    }

    // Timed ops: status, X-Cache, bytes, ids, and hit bytes == miss bytes.
    let mut miss_digest: HashMap<&str, u64> = HashMap::new();
    let mut correct_evals = 0u64;
    for (c, log) in logs.iter().enumerate() {
        for (j, sent) in log.iter().enumerate() {
            let reference = &reference.timed[c][j];
            let what = format!("client {c} op {j}");
            let p = match &sent.desc {
                Desc::Eval { expr, new } => {
                    let x = if *new { "miss" } else { "hit" };
                    let mut p = check_reply(&sent.reply, reference, 200, Some(x), None);
                    if let Ok(r) = &sent.reply {
                        if *new {
                            miss_digest.insert(expr, r.digest);
                        } else if miss_digest.get(expr.as_str()) != Some(&r.digest) {
                            p.push(
                                "hit bytes differ from the miss bytes of the same expression"
                                    .into(),
                            );
                        }
                    }
                    if p.is_empty() {
                        correct_evals += 1;
                    }
                    p
                }
                Desc::Ingest { id, dup, .. } => check_reply(
                    &sent.reply,
                    reference,
                    if *dup { 200 } else { 201 },
                    None,
                    Some(id),
                ),
            };
            tally.op(&what, p);
        }
    }

    // Replay fidelity: the replay's caches saw what the server's did.
    for (cache, lru_hits, lru_misses) in [
        (
            "result_cache",
            reference.replay.results.hits(),
            reference.replay.results.misses(),
        ),
        (
            "plan_cache",
            reference.replay.plans.hits(),
            reference.replay.plans.misses(),
        ),
    ] {
        let got = (
            stats_counter(&stats, cache, "hits"),
            stats_counter(&stats, cache, "misses"),
        );
        tally.check(
            &format!("/stats {cache}"),
            got == (Some(lru_hits), Some(lru_misses)),
            || format!("server hits/misses {got:?}, replay {lru_hits}/{lru_misses}"),
        );
    }

    let mut golden_lines = Vec::new();
    for (i, o) in reference.setup.iter().enumerate() {
        golden_lines.push(format!("setup {i} {} {:016x}", o.status, o.digest));
    }
    for (j, o) in reference.warmup.iter().enumerate() {
        golden_lines.push(format!("warmup {j} {} {:016x}", o.status, o.digest));
    }
    for (c, outs) in reference.timed.iter().enumerate() {
        for (j, o) in outs.iter().take(golden::OPS).enumerate() {
            golden_lines.push(format!(
                "client{c} {j} {} {} {:016x}",
                o.status,
                o.x_cache.as_deref().unwrap_or("-"),
                o.digest
            ));
        }
    }
    golden::check(ctx, &golden_lines, &mut tally);

    let mut report = self_report(ctx, kind, &plan, &logs, &reference, &stats, elapsed);
    let metrics = if ctx.trace {
        let on = Tracer::new(true);
        let traced = replay_all(
            &on,
            &ctx.work.join("replay-on"),
            &plan,
            &templates,
            &uploads,
            rounds,
        )?;
        let agree = traced
            .timed
            .iter()
            .flatten()
            .zip(reference.timed.iter().flatten())
            .chain(traced.setup.iter().zip(&reference.setup))
            .chain(traced.warmup.iter().zip(&reference.warmup))
            .all(|(a, b)| same(a, b));
        tally.check(
            "traced replay agrees with the untraced replay",
            agree,
            String::new,
        );
        let spans = on.take();
        let mut server_ns = Vec::new();
        let (mut on_wall, mut off_wall) = (0u64, 0u64);
        for (c, log) in logs.iter().enumerate() {
            for (j, sent) in log.iter().enumerate() {
                let off_o = &reference.timed[c][j];
                off_wall += off_o.wall_ns;
                on_wall += traced.timed[c][j].wall_ns;
                if let Ok(r) = &sent.reply {
                    server_ns.push(r.latency_ns as f64 - off_o.wall_ns as f64);
                }
            }
        }
        let res = Residuals {
            server_ns,
            cli_ns: Vec::new(),
            off_wall_ns: off_wall,
        };
        let _ = writeln!(
            report,
            "layer breakdown, timed phase (mean self ms per request):"
        );
        report.push_str(&breakdown(&traced.replay, &spans));
        let trace_path = ctx.trace_file();
        write_spans(&trace_path, &spans).map_err(|e| format!("{}: {e}", trace_path.display()))?;
        let _ = writeln!(report, "spans written to {}", trace_path.display());
        per_layer(&traced.replay, &spans, on_wall, &res)
    } else {
        end_to_end(
            kind,
            &setup_s,
            &logs,
            correct_evals,
            elapsed,
            peak_rss_mb,
            &mut report,
            &tally,
        )
    };
    Ok(RunOutput {
        tally,
        metrics,
        report,
    })
}

#[allow(clippy::too_many_arguments)]
fn end_to_end(
    kind: ServeKind,
    setup_s: &[f64],
    logs: &[Vec<Sent>],
    correct_evals: u64,
    elapsed: f64,
    peak_rss_mb: f64,
    report: &mut String,
    tally: &Tally,
) -> Vec<Metric> {
    let (mut miss, mut hit, mut ingest) = (Vec::new(), Vec::new(), Vec::new());
    for sent in logs.iter().flatten() {
        let Ok(r) = &sent.reply else { continue };
        let lat = ms(r.latency_ns);
        match (&sent.desc, r.x_cache.as_deref()) {
            (Desc::Eval { .. }, Some("hit")) => hit.push(lat),
            (Desc::Eval { .. }, _) => miss.push(lat),
            (Desc::Ingest { .. }, _) => ingest.push(lat),
        }
    }
    let second = match kind {
        ServeKind::Hot => &hit,
        ServeKind::Cold => &ingest,
    };
    let m = [
        ("setup_s", "s", median(setup_s)),
        ("eval_p50_ms", "ms", median(&miss)),
        ("eval_p90_ms", "ms", percentile(&miss, 0.9)),
        ("second_p50_ms", "ms", median(second)),
        ("second_p90_ms", "ms", percentile(second, 0.9)),
        ("evals_per_s", "1/s", correct_evals as f64 / elapsed),
        ("peak_rss_mb", "MB", peak_rss_mb),
    ];
    let named: Vec<(&str, &str, f64)> = match kind {
        ServeKind::Hot => vec![
            ("eval_miss_p50_ms", "ms", m[1].2),
            ("eval_miss_p90_ms", "ms", m[2].2),
            ("eval_hit_p50_ms", "ms", m[3].2),
            ("eval_hit_p90_ms", "ms", m[4].2),
        ],
        ServeKind::Cold => vec![
            ("eval_miss_p50_ms", "ms", m[1].2),
            ("eval_miss_p90_ms", "ms", m[2].2),
            ("ingest_p50_ms", "ms", m[3].2),
            ("ingest_p90_ms", "ms", m[4].2),
        ],
    };
    let _ = writeln!(
        report,
        "samples: {} misses, {} hits, {} ingests over {elapsed:.2} s; setups {:?} s",
        miss.len(),
        hit.len(),
        ingest.len(),
        setup_s
            .iter()
            .map(|s| (s * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    );
    let _ = writeln!(report, "end-to-end metrics:");
    let failed_share = tally.failed as f64 / tally.attempted.max(1) as f64;
    for (name, unit, v) in m
        .iter()
        .take(1)
        .copied()
        .chain(named)
        .chain(m[5..].iter().copied())
        .chain([("failed_share", "ratio", failed_share)])
    {
        let _ = writeln!(report, "  {name:<18} {v:>12.4} {unit}");
    }
    m.iter()
        .map(|&(name, unit, value)| Metric { name, unit, value })
        .collect()
}

/// The measured properties each workload was chosen for.
fn self_report(
    ctx: &Ctx,
    kind: ServeKind,
    plan: &ServePlan,
    logs: &[Vec<Sent>],
    reference: &ReplayRun<'_>,
    stats: &str,
    elapsed: f64,
) -> String {
    let config = ServeConfig::default();
    let mut ids = HashSet::new();
    let mut lists = HashSet::new();
    let mut exprs = HashSet::new();
    let (mut new_cube, mut new_cubec, mut dups) = (0, 0, 0);
    let (mut req_bytes, mut resp_bytes, mut n) = (0usize, 0usize, 0usize);
    for sent in logs.iter().flatten() {
        n += 1;
        req_bytes += sent.request_bytes;
        resp_bytes += sent.reply.as_ref().map_or(0, |r| r.body_len);
        match &sent.desc {
            Desc::Eval { expr, .. } => {
                if let Ok(p) = cube_algebra::parse_expr(expr) {
                    lists.insert(p.operands.join(","));
                    ids.extend(p.operands);
                }
                exprs.insert(expr.clone());
            }
            Desc::Ingest { dup: true, .. } => dups += 1,
            Desc::Ingest {
                format: Format::Cube,
                ..
            } => new_cube += 1,
            Desc::Ingest { .. } => new_cubec += 1,
        }
    }
    let t = &reference.replay.timed;
    let share = |h: u64, m: u64| {
        if h + m > 0 {
            h as f64 / (h + m) as f64
        } else {
            0.0
        }
    };
    let mut r = String::new();
    let _ = writeln!(
        r,
        "workload {} seed {} nproc {} commit {} profile {} clients {CLIENTS} ops/round {ROUND}",
        ctx.workload, ctx.seed, ctx.nproc, ctx.commit, ctx.profile
    );
    let _ = writeln!(
        r,
        "working set: {} experiments stored, {} named by timed evals (handle cache {}); \
         {} operand lists (plan cache {}); {} distinct expressions (result cache {})",
        plan.initial.len() + new_cube + new_cubec,
        ids.len(),
        config.handle_cache,
        lists.len(),
        config.plan_cache,
        exprs.len(),
        config.result_cache
    );
    let _ = writeln!(
        r,
        "timed hit shares (replay): result {:.3} plan {:.3} handle {:.3}; \
         severity loads/eval {:.3}; integrations/eval {:.3}",
        share(t.result_hits, t.result_misses),
        share(t.plan_hits, t.plan_misses),
        share(t.handle_hits, t.handle_misses),
        t.loads as f64 / t.evals.max(1) as f64,
        t.builds as f64 / t.evals.max(1) as f64,
    );
    let _ = writeln!(
        r,
        "bytes/op: request {:.0}, response {:.0}; {n} timed ops in {elapsed:.2} s; \
         uploads: {new_cube} new .cube, {new_cubec} new .cubec, {dups} duplicates",
        req_bytes as f64 / n.max(1) as f64,
        resp_bytes as f64 / n.max(1) as f64,
    );
    let _ = writeln!(
        r,
        "/stats result_cache {:?}/{:?} plan_cache {:?}/{:?} (hits/misses; replay {}/{} and {}/{})",
        stats_counter(stats, "result_cache", "hits"),
        stats_counter(stats, "result_cache", "misses"),
        stats_counter(stats, "plan_cache", "hits"),
        stats_counter(stats, "plan_cache", "misses"),
        reference.replay.results.hits(),
        reference.replay.results.misses(),
        reference.replay.plans.hits(),
        reference.replay.plans.misses(),
    );
    if kind == ServeKind::Hot {
        let _ = writeln!(r, "fixed operand lists: {}", plan.lists.len());
    }
    r
}
