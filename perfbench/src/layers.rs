//! Per-layer metrics from a traced replay.
//!
//! Per-call times (`*.ms`) and throughputs (`*_per_s`) average over
//! every replayed call of that layer, setup and warm-up included, so a
//! layer that the timed phase bypasses still reports what one call
//! costs. Shares and per-eval counts cover the timed phase only: they
//! show which mechanisms the timed load exercises. A layer absent from
//! a workload's path reports 0.

use std::collections::{BTreeMap, HashMap};

use crate::replay::{Counts, Kind, Phase, Replay};
use crate::stats::{median, ms, ratio, Metric};
use crate::trace::Span;

/// Every per-layer metric, in report order: (name, unit).
pub const PER_LAYER: [(&str, &str); 30] = [
    ("server.residual_ms", "ms"),
    ("http.write_ms", "ms"),
    ("http.bytes_out", "bytes"),
    ("cache.result_hit_share", "ratio"),
    ("cache.plan_hit_share", "ratio"),
    ("cache.handle_hit_share", "ratio"),
    ("cache.copy_ms", "ms"),
    ("repo.open_ms", "ms"),
    ("repo.opens_per_eval", "count"),
    ("repo.ingest_ms", "ms"),
    ("repo.commit_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.loads_per_eval", "count"),
    ("store.verify_mb_per_s", "MB/s"),
    ("store.encode_ms", "ms"),
    ("parse.ms", "ms"),
    ("check.ms", "ms"),
    ("integrate.ms", "ms"),
    ("integrate.calls_per_eval", "count"),
    ("kernel.ms", "ms"),
    ("kernel.values_per_s", "1/s"),
    ("render.ms", "ms"),
    ("render.mb_per_s", "MB/s"),
    ("crc.ms", "ms"),
    ("crc.mb_per_s", "MB/s"),
    ("xml_read.ms", "ms"),
    ("xml_read.mb_per_s", "MB/s"),
    ("cli.residual_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The layer a span's self time is charged to in the breakdown.
pub fn layer_of(name: &str) -> &'static str {
    match name {
        "request" => "uncovered",
        "parse" => "parse",
        "check" => "check",
        "integrate" | "plan.reuse" => "batch",
        "kernel" => "kernel",
        "render" => "render",
        "crc.footer" | "crc.footer_check" | "crc.shadow" => "crc",
        "xml_read" | "xml.utf8" => "xml_read",
        n if n.starts_with("http.") => "http",
        n if n.starts_with("cache.") => "cache",
        n if n.starts_with("repo.") => "repo",
        n if n.starts_with("store.") => "store",
        n if n.starts_with("fs.") => "fs",
        _ => "other",
    }
}

/// Total duration and call count of spans by name.
struct ByName(HashMap<&'static str, (u64, u64)>);

impl ByName {
    fn new(spans: &[Span]) -> Self {
        let mut m: HashMap<&'static str, (u64, u64)> = HashMap::new();
        for s in spans {
            let e = m.entry(s.name).or_default();
            e.0 += s.dur_ns();
            e.1 += 1;
        }
        Self(m)
    }

    fn total_ns(&self, names: &[&str]) -> u64 {
        names
            .iter()
            .filter_map(|n| self.0.get(n))
            .map(|e| e.0)
            .sum()
    }

    fn calls(&self, names: &[&str]) -> u64 {
        names
            .iter()
            .filter_map(|n| self.0.get(n))
            .map(|e| e.1)
            .sum()
    }

    /// Mean milliseconds per call over the named spans (0 if none).
    fn mean_ms(&self, names: &[&str]) -> f64 {
        ratio(ms(self.total_ns(names)), self.calls(names) as f64)
    }

    /// Bytes per second over the named spans, in MB/s.
    fn mb_per_s(&self, names: &[&str], bytes: u64) -> f64 {
        ratio(bytes as f64 / 1e6, self.total_ns(names) as f64 / 1e9)
    }
}

/// Inputs that come from outside the traced replay.
pub struct Residuals {
    /// Per timed op: end-to-end time (HTTP latency or process wall)
    /// minus the untraced replay's in-process time of the same op.
    pub server_ns: Vec<f64>,
    pub cli_ns: Vec<f64>,
    /// Σ in-process time of the timed requests, untraced replay.
    pub off_wall_ns: u64,
}

pub fn per_layer(
    replay: &Replay<'_>,
    spans: &[Span],
    on_wall_ns: u64,
    res: &Residuals,
) -> Vec<Metric> {
    let by = ByName::new(spans);
    let all: &Counts = &replay.all;
    let timed: &Counts = &replay.timed;
    let evals = timed.evals as f64;
    let timed_reqs: std::collections::HashSet<u32> = replay
        .requests
        .iter()
        .filter(|r| r.phase == Phase::Timed)
        .map(|r| r.req)
        .collect();
    let self_ns = crate::trace::self_times(spans);
    let (mut req_self, mut req_total) = (0u64, 0u64);
    for s in spans {
        if s.name == "request" && timed_reqs.contains(&s.req) {
            req_self += self_ns[&s.id];
            req_total += s.dur_ns();
        }
    }
    let loads = ["store.load", "store.decode"];
    let crcs = ["crc.footer", "crc.footer_check", "crc.shadow"];
    let values: HashMap<&str, f64> = HashMap::from([
        ("server.residual_ms", median(&res.server_ns) / 1e6),
        ("http.write_ms", by.mean_ms(&["http.write"])),
        (
            "http.bytes_out",
            ratio(timed.bytes_out as f64, timed.requests as f64),
        ),
        (
            "cache.result_hit_share",
            ratio(
                timed.result_hits as f64,
                (timed.result_hits + timed.result_misses) as f64,
            ),
        ),
        (
            "cache.plan_hit_share",
            ratio(
                timed.plan_hits as f64,
                (timed.plan_hits + timed.plan_misses) as f64,
            ),
        ),
        (
            "cache.handle_hit_share",
            ratio(
                timed.handle_hits as f64,
                (timed.handle_hits + timed.handle_misses) as f64,
            ),
        ),
        ("cache.copy_ms", by.mean_ms(&["cache.copy"])),
        ("repo.open_ms", by.mean_ms(&["repo.open"])),
        ("repo.opens_per_eval", ratio(timed.opens as f64, evals)),
        ("repo.ingest_ms", by.mean_ms(&["repo.ingest"])),
        ("repo.commit_ms", by.mean_ms(&["repo.commit"])),
        ("store.load_ms", by.mean_ms(&loads)),
        ("store.loads_per_eval", ratio(timed.loads as f64, evals)),
        (
            "store.verify_mb_per_s",
            by.mb_per_s(&loads, all.load_bytes + all.decode_bytes),
        ),
        ("store.encode_ms", by.mean_ms(&["store.encode"])),
        ("parse.ms", by.mean_ms(&["parse"])),
        ("check.ms", by.mean_ms(&["check"])),
        ("integrate.ms", by.mean_ms(&["integrate"])),
        (
            "integrate.calls_per_eval",
            ratio(timed.builds as f64, evals),
        ),
        ("kernel.ms", by.mean_ms(&["kernel"])),
        (
            "kernel.values_per_s",
            ratio(
                all.kernel_values as f64,
                by.total_ns(&["kernel"]) as f64 / 1e9,
            ),
        ),
        ("render.ms", by.mean_ms(&["render"])),
        (
            "render.mb_per_s",
            by.mb_per_s(&["render"], all.render_bytes),
        ),
        ("crc.ms", by.mean_ms(&crcs)),
        ("crc.mb_per_s", by.mb_per_s(&crcs, all.crc_bytes)),
        ("xml_read.ms", by.mean_ms(&["xml_read"])),
        (
            "xml_read.mb_per_s",
            by.mb_per_s(&["xml_read"], all.xml_read_bytes),
        ),
        ("cli.residual_ms", median(&res.cli_ns) / 1e6),
        (
            "trace.coverage",
            1.0 - ratio(req_self as f64, req_total as f64),
        ),
        (
            "trace.overhead",
            ratio(on_wall_ns as f64, res.off_wall_ns as f64) - 1.0,
        ),
    ]);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: values[name],
        })
        .collect()
}

/// The layer table: per request kind of the timed phase, the mean
/// self time per request of each layer, which sums to the mean request
/// time.
pub fn breakdown(replay: &Replay<'_>, spans: &[Span]) -> String {
    let kinds: HashMap<u32, Kind> = replay
        .requests
        .iter()
        .filter(|r| r.phase == Phase::Timed)
        .map(|r| (r.req, r.kind))
        .collect();
    let self_ns = crate::trace::self_times(spans);
    // kind -> (requests, total ns, layer -> self ns)
    let mut table: BTreeMap<&'static str, (u64, u64, BTreeMap<&'static str, u64>)> =
        BTreeMap::new();
    for s in spans {
        let Some(kind) = kinds.get(&s.req) else {
            continue;
        };
        if s.name == "crc.shadow" {
            continue;
        }
        let row = table.entry(kind.name()).or_default();
        if s.name == "request" {
            row.0 += 1;
            row.1 += s.dur_ns();
        }
        *row.2.entry(layer_of(s.name)).or_default() += self_ns[&s.id];
    }
    let mut out = String::new();
    for (kind, (n, total, layers)) in &table {
        let n = (*n).max(1) as f64;
        out.push_str(&format!(
            "  {kind:<20} n={:<5} mean {:>8.3} ms =",
            n,
            ms(*total) / n
        ));
        for (layer, ns) in layers {
            out.push_str(&format!(" {layer} {:.3}", ms(*ns) / n));
        }
        out.push('\n');
    }
    out
}
