//! The cli_files workload: one `cube` process at a time, alternating
//! `cube mean` over six `.cubec` and over six `.cube` inputs.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::client::{children_peak_rss_mb, digest, run_cube};
use crate::gen::{cli_inputs, Templates};
use crate::layers::{breakdown, per_layer, Residuals};
use crate::replay::{Kind, Outcome, Phase, Replay};
use crate::stats::{median, ms, percentile, Metric, Tally};
use crate::trace::{write_spans, Tracer};
use crate::{golden, Ctx, RunOutput};

struct Invocation {
    kind: Kind,
    wall_ns: u64,
    result: Result<u64, String>,
}

fn paths(dir: &Path, ext: &str) -> Vec<PathBuf> {
    (0..6).map(|i| dir.join(format!("run{i}.{ext}"))).collect()
}

/// `cube mean INPUTS... -o OUTPUT`; the digest of what it wrote.
fn mean(ctx: &Ctx, inputs: &[PathBuf], output: &Path) -> (u64, Result<u64, String>) {
    let mut args: Vec<&Path> = vec![Path::new("mean")];
    args.extend(inputs.iter().map(PathBuf::as_path));
    args.extend([Path::new("-o"), output]);
    match run_cube(&ctx.cube, &args) {
        Ok(wall) => {
            let d = std::fs::read(output)
                .map(|b| digest(&b))
                .map_err(|e| format!("{}: {e}", output.display()));
            (wall, d)
        }
        Err(e) => (0, Err(e)),
    }
}

pub fn run(ctx: &Ctx) -> Result<RunOutput, String> {
    let templates = Templates::new();
    let dir = ctx.work.join("cli");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let xml = paths(&dir, "cube");
    for (spec, path) in cli_inputs(ctx.seed).iter().zip(&xml) {
        cube_xml::write_experiment_file(&templates.experiment(spec), path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    // Set up several times: `cube pack` of each input into a fresh dir.
    let setups = if ctx.trace { 1 } else { crate::SETUPS };
    let mut setup_s = Vec::new();
    let mut packed = Vec::new();
    let mut pack_digests: Vec<Vec<Result<u64, String>>> = Vec::new();
    for k in 0..setups {
        let out = dir.join(format!("pack{k}"));
        std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
        packed = paths(&out, "cubec");
        let start = Instant::now();
        let walls: Vec<Result<u64, String>> = xml
            .iter()
            .zip(&packed)
            .map(|(i, o)| run_cube(&ctx.cube, &[Path::new("pack"), i, o]))
            .collect();
        setup_s.push(start.elapsed().as_secs_f64());
        pack_digests.push(
            walls
                .into_iter()
                .zip(&packed)
                .map(|(w, o)| {
                    w.and_then(|_| {
                        std::fs::read(o)
                            .map(|b| digest(&b))
                            .map_err(|e| format!("{}: {e}", o.display()))
                    })
                })
                .collect(),
        );
    }

    let out = dir.join("out.cube");
    let start = Instant::now();
    let mut log: Vec<Invocation> = Vec::new();
    while start.elapsed().as_secs_f64() < ctx.seconds {
        for (kind, inputs) in [(Kind::CliCubec, &packed), (Kind::CliCube, &xml)] {
            let (wall_ns, mut result) = mean(ctx, inputs, &out);
            if ctx.corrupt && log.is_empty() {
                result = result.map(|d| d ^ 1);
            }
            log.push(Invocation {
                kind,
                wall_ns,
                result,
            });
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let peak_rss_mb = children_peak_rss_mb();

    // The reference: the same calls in this process.
    let off = Tracer::new(false);
    let mut reference = Replay::new(&off, &ctx.work.join("replay-off"))?;
    let ref_dir = ctx.work.join("replay-pack");
    let ref_packed = paths(&ref_dir, "cubec");
    let mut ref_pack = Vec::new();
    for (i, o) in xml.iter().zip(&ref_packed) {
        ref_pack.push(reference.cli_pack(Phase::Setup, i, o)?);
    }
    let ref_out = ctx.work.join("replay-out.cube");
    let mut ref_timed: Vec<Outcome> = Vec::new();
    if ctx.trace {
        for inv in &log {
            let inputs = if inv.kind == Kind::CliCubec {
                &packed
            } else {
                &xml
            };
            ref_timed.push(reference.cli_mean(Phase::Timed, inv.kind, inputs, &ref_out)?);
        }
    } else {
        let c = reference.cli_mean(Phase::Timed, Kind::CliCubec, &packed, &ref_out)?;
        let x = reference.cli_mean(Phase::Timed, Kind::CliCube, &xml, &ref_out)?;
        for inv in &log {
            ref_timed.push(if inv.kind == Kind::CliCubec {
                c.clone()
            } else {
                x.clone()
            });
        }
    }

    let mut tally = Tally::default();
    for (k, digests) in pack_digests.iter().enumerate() {
        for (i, d) in digests.iter().enumerate() {
            let p = match d {
                Ok(d) if *d == ref_pack[i].digest => Vec::new(),
                Ok(d) => vec![format!(
                    "digest {d:016x} != replay {:016x}",
                    ref_pack[i].digest
                )],
                Err(e) => vec![e.clone()],
            };
            tally.op(&format!("setup {k} cube pack run{i}"), p);
        }
    }
    for (j, (inv, r)) in log.iter().zip(&ref_timed).enumerate() {
        let p = match &inv.result {
            Ok(d) if *d == r.digest => Vec::new(),
            Ok(d) => vec![format!(
                "output digest {d:016x} != replay {:016x}",
                r.digest
            )],
            Err(e) => vec![e.clone()],
        };
        tally.op(&format!("op {j} {}", inv.kind.name()), p);
    }
    let mut golden_lines: Vec<String> = ref_pack
        .iter()
        .enumerate()
        .map(|(i, o)| format!("pack {i} {:016x}", o.digest))
        .collect();
    for (j, r) in ref_timed.iter().take(2).enumerate() {
        golden_lines.push(format!("mean {j} {:016x}", r.digest));
    }
    golden::check(ctx, &golden_lines, &mut tally);

    let mut report = String::new();
    let _ = writeln!(
        report,
        "workload {} seed {} nproc {} commit {} profile {}",
        ctx.workload, ctx.seed, ctx.nproc, ctx.commit, ctx.profile
    );
    let _ = writeln!(
        report,
        "inputs: 6 x {} .cube bytes, 6 x {} .cubec bytes; output {} bytes; {} cube processes in {elapsed:.2} s",
        std::fs::metadata(&xml[0]).map_or(0, |m| m.len()),
        std::fs::metadata(&packed[0]).map_or(0, |m| m.len()),
        ref_timed.first().map_or(0, |o| o.body_len),
        log.len()
    );
    let metrics = if ctx.trace {
        let on = Tracer::new(true);
        let mut traced = Replay::new(&on, &ctx.work.join("replay-on"))?;
        let on_pack = paths(&ctx.work.join("replay-on-pack"), "cubec");
        for (i, o) in xml.iter().zip(&on_pack) {
            traced.cli_pack(Phase::Setup, i, o)?;
        }
        let mut agree = true;
        let (mut cli_ns, mut on_wall, mut off_wall) = (Vec::new(), 0u64, 0u64);
        for (inv, r) in log.iter().zip(&ref_timed) {
            let inputs = if inv.kind == Kind::CliCubec {
                &packed
            } else {
                &xml
            };
            let o = traced.cli_mean(Phase::Timed, inv.kind, inputs, &ref_out)?;
            agree &= o.digest == r.digest;
            on_wall += o.wall_ns;
            off_wall += r.wall_ns;
            cli_ns.push(inv.wall_ns as f64 - r.wall_ns as f64);
        }
        tally.check(
            "traced replay agrees with the untraced replay",
            agree,
            String::new,
        );
        let spans = on.take();
        let res = Residuals {
            server_ns: Vec::new(),
            cli_ns,
            off_wall_ns: off_wall,
        };
        let _ = writeln!(
            report,
            "layer breakdown, timed phase (mean self ms per request):"
        );
        report.push_str(&breakdown(&traced, &spans));
        let trace_path = ctx.trace_file();
        write_spans(&trace_path, &spans).map_err(|e| format!("{}: {e}", trace_path.display()))?;
        let _ = writeln!(report, "spans written to {}", trace_path.display());
        per_layer(&traced, &spans, on_wall, &res)
    } else {
        let walls = |k: Kind| -> Vec<f64> {
            log.iter()
                .filter(|i| i.kind == k && i.result.is_ok())
                .map(|i| ms(i.wall_ns))
                .collect()
        };
        let (cubec, cube) = (walls(Kind::CliCubec), walls(Kind::CliCube));
        let correct = log.len() as u64 - tally.failed.min(log.len() as u64);
        let m = [
            ("setup_s", "s", median(&setup_s)),
            ("eval_p50_ms", "ms", median(&cubec)),
            ("eval_p90_ms", "ms", percentile(&cubec, 0.9)),
            ("second_p50_ms", "ms", median(&cube)),
            ("second_p90_ms", "ms", percentile(&cube, 0.9)),
            ("evals_per_s", "1/s", correct as f64 / elapsed),
            ("peak_rss_mb", "MB", peak_rss_mb),
        ];
        let _ = writeln!(
            report,
            "samples: {} .cubec and {} .cube invocations; setups {:?} s",
            cubec.len(),
            cube.len(),
            setup_s
                .iter()
                .map(|s| (s * 1000.0).round() / 1000.0)
                .collect::<Vec<_>>()
        );
        let _ = writeln!(report, "end-to-end metrics:");
        let failed_share = tally.failed as f64 / tally.attempted.max(1) as f64;
        for (name, unit, v) in [
            m[0],
            ("cli_cubec_ms", "ms", m[1].2),
            ("cli_cubec_p90_ms", "ms", m[2].2),
            ("cli_xml_ms", "ms", m[3].2),
            ("cli_xml_p90_ms", "ms", m[4].2),
            m[5],
            m[6],
            ("failed_share", "ratio", failed_share),
        ] {
            let _ = writeln!(report, "  {name:<18} {v:>12.4} {unit}");
        }
        m.iter()
            .map(|&(name, unit, value)| Metric { name, unit, value })
            .collect()
    };
    Ok(RunOutput {
        tally,
        metrics,
        report,
    })
}
