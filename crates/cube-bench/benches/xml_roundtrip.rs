//! Throughput of the `.cube` XML pipelines: streaming vs DOM.
//!
//! For each shape the bench times all four directions — streaming
//! write/read (`write_experiment` / `read_experiment`) and DOM
//! write/read (`write_experiment_dom` / `read_experiment_dom`) — over
//! the same document, so the streaming speedup is directly the ratio
//! of the paired lines.
//!
//! A counting global allocator additionally reports, outside the timed
//! loops, the *peak transient heap* of one write and one read per
//! pipeline: allocations live during the call beyond its inputs and
//! retained result. Streaming should stay O(row); the DOM holds the
//! whole element tree.
//!
//! The synthetic severities are quantized to timer resolution, so the
//! shape rows exercise the formatter's fixed-notation tier only.
//! `write-stream/derived` writes the `mean` of five such runs instead,
//! whose values need the shortest-digit tier, and the `fmt64` group
//! times the formatter alone on the three value classes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use cube_algebra::ops;
use cube_bench::{synthetic_experiment, SyntheticShape};
use cube_model::Experiment;
use cube_xml::fmt64::push_f64;

// ---------------------------------------------------------------------------
// counting allocator (measurement only; never used inside timed loops)
// ---------------------------------------------------------------------------

struct CountingAlloc;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let now = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(now, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                let grow = new_size - layout.size();
                let now = CURRENT.fetch_add(grow, Ordering::Relaxed) + grow;
                PEAK.fetch_max(now, Ordering::Relaxed);
            } else {
                CURRENT.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Peak heap growth over the baseline while `f` runs, minus whatever
/// `f`'s retained result still holds (reported separately by the
/// caller dropping it afterwards).
fn peak_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let baseline = CURRENT.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    let r = f();
    let peak = PEAK.load(Ordering::Relaxed);
    (peak.saturating_sub(baseline), r)
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

// ---------------------------------------------------------------------------
// the bench
// ---------------------------------------------------------------------------

const SIZES: [(&str, usize); 3] = [("small", 1), ("medium", 4), ("large", 8)];

fn shape(n: usize) -> SyntheticShape {
    SyntheticShape {
        metrics: 2 * n,
        call_nodes: 20 * n,
        threads: 4 * n,
    }
}

fn report_peak_memory() {
    eprintln!("xml peak transient heap (beyond inputs; result included for writes/reads):");
    for (label, n) in SIZES {
        let e = synthetic_experiment(shape(n), 1);
        let text = cube_xml::write_experiment(&e);

        let (w_stream, out) = peak_during(|| cube_xml::write_experiment(&e));
        drop(out);
        let (w_dom, out) = peak_during(|| cube_xml::format::write_experiment_dom(&e));
        drop(out);
        let (r_stream, out) = peak_during(|| cube_xml::read_experiment(&text).unwrap());
        drop(out);
        let (r_dom, out) = peak_during(|| cube_xml::format::read_experiment_dom(&text).unwrap());
        drop(out);

        eprintln!(
            "  {label:<6} ({:>9} bytes xml): write stream {:>7.3} MiB vs dom {:>7.3} MiB | \
             read stream {:>7.3} MiB vs dom {:>7.3} MiB",
            text.len(),
            mib(w_stream),
            mib(w_dom),
            mib(r_stream),
            mib(r_dom),
        );
    }
}

fn bench_xml(c: &mut Criterion) {
    report_peak_memory();

    let mut group = c.benchmark_group("xml");
    for (label, n) in SIZES {
        let e = synthetic_experiment(shape(n), 1);
        let text = cube_xml::write_experiment(&e);
        assert_eq!(
            text,
            cube_xml::format::write_experiment_dom(&e),
            "pipelines must serialize identically"
        );
        group.throughput(Throughput::Bytes(text.len() as u64));
        group.bench_with_input(BenchmarkId::new("write-stream", label), &n, |bench, _| {
            bench.iter(|| cube_xml::write_experiment(black_box(&e)))
        });
        group.bench_with_input(BenchmarkId::new("write-dom", label), &n, |bench, _| {
            bench.iter(|| cube_xml::format::write_experiment_dom(black_box(&e)))
        });
        group.bench_with_input(BenchmarkId::new("read-stream", label), &n, |bench, _| {
            bench.iter(|| cube_xml::read_experiment(black_box(&text)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("read-dom", label), &n, |bench, _| {
            bench.iter(|| cube_xml::format::read_experiment_dom(black_box(&text)).unwrap())
        });
    }

    // A derived experiment, as `cube mean` and `/eval` write them.
    let runs: Vec<Experiment> = (0..5)
        .map(|seed| synthetic_experiment(shape(8), seed))
        .collect();
    let mean = ops::mean(&runs.iter().collect::<Vec<_>>()).unwrap();
    let text = cube_xml::write_experiment(&mean);
    assert_eq!(
        text,
        cube_xml::format::write_experiment_dom(&mean),
        "the fast formatter must match std's on derived values"
    );
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_function(BenchmarkId::new("write-stream", "derived"), |bench| {
        bench.iter(|| cube_xml::write_experiment(black_box(&mean)))
    });
    group.finish();
}

/// Values per `fmt64` iteration.
const FMT_VALUES: usize = 4096;

fn bench_fmt64(c: &mut Criterion) {
    let mut state = 1u64;
    let mut unit = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut quantized = || ((unit() * 10.0 - 2.0) * 1e6).round() / 1e6;
    let classes: [(&str, Vec<f64>); 3] = [
        // Timer-resolution data: the fixed-notation tier.
        ("quantized", (0..FMT_VALUES).map(|_| quantized()).collect()),
        // Means of five such values, the common derived shape.
        (
            "derived",
            (0..FMT_VALUES)
                .map(|_| (0..5).map(|_| quantized()).sum::<f64>() / 5.0)
                .collect(),
        ),
        // Full-precision values from arbitrary arithmetic.
        (
            "random",
            (0..FMT_VALUES).map(|_| unit() * 10.0 - 2.0).collect(),
        ),
    ];
    let mut group = c.benchmark_group("fmt64");
    group.throughput(Throughput::Elements(FMT_VALUES as u64));
    let mut out = String::with_capacity(32 * FMT_VALUES);
    for (label, values) in &classes {
        group.bench_with_input(
            BenchmarkId::from_parameter(label),
            values,
            |bench, values| {
                bench.iter(|| {
                    out.clear();
                    for &v in values {
                        push_f64(&mut out, black_box(v));
                    }
                    out.len()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_xml, bench_fmt64);
criterion_main!(benches);
