//! End-to-end proof that `cube serve` is a faithful remote face of the
//! CLI: a server is booted on an ephemeral port, a measured corpus is
//! ingested in both wire formats, and every `/eval` response is
//! required to be *byte-identical* to the file the CLI writes for the
//! same computation — across thread counts, and on cache hits as well
//! as misses. Byte equality is the whole contract: a client must not
//! be able to tell whether its answer came from the cache, a different
//! pool size, or a CLI run.

#[path = "serve_util/mod.rs"]
mod serve_util;

use serve_util::{json_field, json_number, request};
use std::path::PathBuf;

use cube_suite::simmpi::apps::{pescan, PescanConfig};
use cube_suite::simmpi::{simulate, EpilogTracer, MachineModel};
use cube_xml::write_experiment_file;

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cube_serve_e2e_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn produce(ranks: usize, iterations: usize, barriers: bool) -> cube_model::Experiment {
    let program = pescan(&PescanConfig {
        ranks,
        iterations,
        barriers,
        ..PescanConfig::default()
    });
    let mut tracer = EpilogTracer::new("cluster", 2);
    simulate(&program, &MachineModel::default(), &mut tracer).unwrap();
    cube_suite::expert::analyze(
        &tracer.into_trace(),
        &cube_suite::expert::AnalyzeOptions::default(),
    )
    .unwrap()
}

fn cube(parts: &[&str]) -> cube_cli::Outcome {
    let args: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
    cube_cli::run(&args).expect("cube invocation succeeds")
}

#[test]
fn eval_matches_cli_bytes_across_threads_and_cache_states() {
    let dir = workdir("main");
    let server = cube_serve::start(
        cube_serve::ServeConfig {
            workers: 2,
            ..cube_serve::ServeConfig::default()
        },
        &dir.join("repo"),
    )
    .expect("server starts");
    let addr = server.local_addr();

    // Ingest four runs: two uploaded as .cube XML, two as .cubec, so
    // both wire formats land in the same content-addressed namespace.
    let runs = [
        produce(4, 6, true),
        produce(4, 6, false),
        produce(4, 9, true),
        produce(4, 9, false),
    ];
    let mut ids = Vec::new();
    for (i, exp) in runs.iter().enumerate() {
        let bytes = if i % 2 == 0 {
            let path = dir.join(format!("up{i}.cube"));
            write_experiment_file(exp, &path).unwrap();
            std::fs::read(&path).unwrap()
        } else {
            cube_store::write_store(exp)
        };
        let reply = request(addr, "PUT", "/experiments", &bytes);
        assert_eq!(reply.status, 201, "{}", reply.text());
        let body = reply.text();
        assert!(body.contains("\"created\":true"), "{body}");
        ids.push(json_field(&body, "id").expect("ingest returns an id"));
    }
    // Re-uploading is idempotent: same id, 200 instead of 201.
    let again = request(
        addr,
        "PUT",
        "/experiments",
        &cube_store::write_store(&runs[1]),
    );
    assert_eq!(again.status, 200, "{}", again.text());
    assert_eq!(json_field(&again.text(), "id").as_deref(), Some(&*ids[1]));

    // The stats endpoint sees the ingested shape.
    let stats = request(addr, "GET", &format!("/experiments/{}/stats", ids[0]), b"");
    assert_eq!(stats.status, 200, "{}", stats.text());
    let body = stats.text();
    assert_eq!(json_field(&body, "kind").as_deref(), Some("original"));
    assert!(json_number(&body, "values").unwrap() > 0);
    assert!(json_number(&body, "nonzero").unwrap() > 0);
    // ... and the lint endpoint calls the stored object clean.
    let lint = request(addr, "GET", &format!("/experiments/{}/lint", ids[0]), b"");
    assert_eq!(lint.status, 200, "{}", lint.text());
    assert!(lint.text().contains("\"ok\":true"), "{}", lint.text());

    // CLI references: the exact object files the server serves from,
    // so operands are bit-for-bit the same on both sides.
    let objects: Vec<String> = ids
        .iter()
        .map(|id| {
            dir.join("repo")
                .join(cube_serve::Repository::relative_object_path(id))
                .to_string_lossy()
                .into_owned()
        })
        .collect();

    let mean_expr = format!("mean({},{},{},{})", ids[0], ids[1], ids[2], ids[3]);
    let composite_expr = format!(
        "diff(mean({},{}),mean({},{}))",
        ids[0], ids[1], ids[2], ids[3]
    );

    for (round, threads) in ["1", "2", "8"].iter().enumerate() {
        let mean_out = dir
            .join(format!("mean.t{threads}.cube"))
            .to_string_lossy()
            .into_owned();
        let comp_out = dir
            .join(format!("comp.t{threads}.cube"))
            .to_string_lossy()
            .into_owned();
        cube(&[
            "stats",
            &mean_out,
            &objects[0],
            &objects[1],
            &objects[2],
            &objects[3],
            "--threads",
            threads,
        ]);
        cube(&[
            "stats",
            &comp_out,
            &objects[0],
            &objects[1],
            &objects[2],
            &objects[3],
            "--minus",
            "2",
            "--threads",
            threads,
        ]);
        // The CLI set the global pool; the in-process server workers
        // evaluate on that same pool now.
        for (expr, cli_file) in [(&mean_expr, &mean_out), (&composite_expr, &comp_out)] {
            let reply = request(addr, "POST", "/eval", expr.as_bytes());
            assert_eq!(reply.status, 200, "{}", reply.text());
            let cache = reply.header("x-cache").expect("x-cache header").to_string();
            if round == 0 {
                assert_eq!(cache, "miss", "first evaluation populates the cache");
            } else {
                assert_eq!(cache, "hit", "repeat evaluation is served from cache");
            }
            let cli_bytes = std::fs::read(cli_file).unwrap();
            assert_eq!(
                reply.body, cli_bytes,
                "/eval ({cache}) differs from CLI bytes at --threads {threads} for {expr}"
            );
        }
    }

    // JSON-framed eval bodies are accepted too, and hit the same cache.
    let json_body = format!("{{\"expr\": \"{mean_expr}\"}}");
    let reply = request(addr, "POST", "/eval", json_body.as_bytes());
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("x-cache"), Some("hit"));

    // Error surface: an unknown operand is now caught by the static
    // pre-flight, which answers with the checker's stable A001 code
    // and a structured diagnostics array instead of a bare message.
    let reply = request(addr, "POST", "/eval", b"mean(0123456789abcdef)");
    assert_eq!(reply.status, 404, "{}", reply.text());
    let body = reply.text();
    assert_eq!(json_field(&body, "code").as_deref(), Some("A001"));
    assert!(body.contains("\"diagnostics\":["), "{body}");
    let reply = request(addr, "POST", "/eval", b"mean(");
    assert_eq!(reply.status, 400, "{}", reply.text());
    assert_eq!(json_field(&reply.text(), "code").as_deref(), Some("P001"));
    let reply = request(addr, "GET", "/no/such/route", b"");
    assert_eq!(reply.status, 404);

    // The /check endpoint runs the same analysis without evaluating:
    // a clean expression reports ok with a cost estimate...
    let reply = request(addr, "POST", "/check", mean_expr.as_bytes());
    assert_eq!(reply.status, 200, "{}", reply.text());
    let body = reply.text();
    assert!(body.contains("\"ok\":true"), "{body}");
    assert!(body.contains("\"cost\":{"), "{body}");
    // ... and a statically-zero diff earns its A008 warning plus the
    // zero() rewrite, still with status 200 (the report is the answer).
    let zero_expr = format!("diff({},{})", ids[0], ids[0]);
    let reply = request(addr, "POST", "/check", zero_expr.as_bytes());
    assert_eq!(reply.status, 200, "{}", reply.text());
    let body = reply.text();
    assert!(body.contains("\"A008\""), "{body}");
    assert_eq!(json_field(&body, "rewritten").as_deref(), Some("zero()"));

    // Server counters saw all of it.
    let stats = request(addr, "GET", "/stats", b"");
    let body = stats.text();
    assert_eq!(json_number(&body, "experiments"), Some(4));
    assert!(json_number(&body, "evals").unwrap() >= 9);

    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression: `/eval` with a missing experiment id must fail early
/// with a structured 404-class JSON error — before any evaluation
/// work, without inserting into the result cache, and without reading
/// severity pages of the operands that *do* resolve.
#[test]
fn eval_rejects_missing_experiment_before_any_work() {
    let dir = workdir("preflight");
    let server = cube_serve::start(
        cube_serve::ServeConfig {
            workers: 1,
            ..cube_serve::ServeConfig::default()
        },
        &dir.join("repo"),
    )
    .expect("server starts");
    let addr = server.local_addr();

    let bytes = cube_store::write_store(&produce(2, 3, true));
    let reply = request(addr, "PUT", "/experiments", &bytes);
    assert_eq!(reply.status, 201, "{}", reply.text());
    let good = json_field(&reply.text(), "id").expect("ingest returns an id");

    // One resolvable operand, one missing: the pre-flight reports the
    // missing one with its A001 diagnostic and a 404 status.
    let expr = format!("mean({good},ffffffffffffffff)");
    let reply = request(addr, "POST", "/eval", expr.as_bytes());
    assert_eq!(reply.status, 404, "{}", reply.text());
    let body = reply.text();
    assert_eq!(json_field(&body, "code").as_deref(), Some("A001"));
    assert!(
        body.contains("ffffffffffffffff"),
        "diagnostics name the missing operand: {body}"
    );

    // Nothing was evaluated: the result cache holds no entry, so the
    // rejected expression can never be served from cache later.
    let stats = request(addr, "GET", "/stats", b"");
    let stats_body = stats.text();
    assert!(
        stats_body.contains("\"result_cache\":{\"hits\":0,\"misses\":1,\"entries\":0}"),
        "{stats_body}"
    );

    // The resolvable operand was opened metadata-only: its cached
    // handle never pulled severity pages into memory.
    let handle = server.shared().repo.open(&good).expect("handle cached");
    assert!(
        !handle.is_loaded(),
        "pre-flight must not touch severity pages"
    );

    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression: a `.cubec` whose call tree is a 100,000-deep chain used
/// to be accepted by `PUT /experiments`, after which the first `/eval`
/// over it overflowed a worker's stack and aborted the server. The
/// store reader now holds the metric and call trees to the depth limit
/// the XML reader enforces, so the upload is refused with a 4xx and
/// the server stays up.
#[test]
fn deep_call_tree_upload_is_refused_and_the_server_stays_up() {
    let dir = workdir("deep");
    let server = cube_serve::start(
        cube_serve::ServeConfig {
            workers: 1,
            ..cube_serve::ServeConfig::default()
        },
        &dir.join("repo"),
    )
    .expect("server starts");
    let addr = server.local_addr();

    // Assembled unchecked: validating a chain this deep is itself
    // quadratic, and the server must refuse it before validating.
    let mut md = cube_model::Metadata::new();
    md.add_metric(cube_model::Metric::root(
        "time",
        cube_model::Unit::Seconds,
        "",
    ));
    let module = md.add_module(cube_model::Module::new("a.c", "/a.c"));
    let callee = md.add_region(cube_model::Region {
        name: "f".into(),
        module,
        kind: cube_model::RegionKind::Function,
        begin_line: 1,
        end_line: 9,
    });
    let call_site = md.add_call_site(cube_model::CallSite {
        file: "a.c".into(),
        line: 1,
        callee,
    });
    let mut parent = None;
    for _ in 0..100_000 {
        parent = Some(md.add_call_node(cube_model::CallNode { call_site, parent }));
    }
    let mach = md.add_machine(cube_model::Machine::new("virtual machine"));
    let node = md.add_node(cube_model::SystemNode::new("virtual node", mach));
    let rank = md.add_process(cube_model::Process::new("rank 0", 0, node));
    md.add_thread(cube_model::Thread::new("rank 0 thread 0", 0, rank));
    let severity = cube_model::Severity::zeros(1, 100_000, 1);
    let exp = cube_model::Experiment::new_unchecked(
        md,
        severity,
        cube_model::Provenance::original("deep chain"),
    );
    let bytes = cube_store::write_store(&exp);

    let reply = request(addr, "PUT", "/experiments", &bytes);
    assert!(
        (400..500).contains(&reply.status),
        "{} {}",
        reply.status,
        reply.text()
    );
    let health = request(addr, "GET", "/healthz", b"");
    assert_eq!(health.status, 200, "{}", health.text());

    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}
