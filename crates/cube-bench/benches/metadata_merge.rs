//! Scaling of metadata integration (the structural merge) alone.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cube_algebra::{integrate, CallSiteEq, MergeOptions};
use cube_bench::{synthetic_experiment, synthetic_overlapping, SyntheticShape};

fn bench_integration(c: &mut Criterion) {
    let mut group = c.benchmark_group("metadata_integration");
    for call_nodes in [50usize, 200, 800] {
        let s = SyntheticShape {
            metrics: 12,
            call_nodes,
            threads: 16,
        };
        let a = synthetic_experiment(s, 1);
        let o = synthetic_overlapping(s, 2);
        group.bench_with_input(
            BenchmarkId::new("two_overlapping", call_nodes),
            &call_nodes,
            |bench, _| bench.iter(|| integrate(black_box(&[&a, &o]), MergeOptions::default())),
        );
        group.bench_with_input(
            BenchmarkId::new("strict_call_sites", call_nodes),
            &call_nodes,
            |bench, _| {
                bench.iter(|| {
                    integrate(
                        black_box(&[&a, &o]),
                        MergeOptions::default().with_call_site_eq(CallSiteEq::Strict),
                    )
                })
            },
        );
    }
    // The serve_cold operand mix at the gen_corpus shape: six operands,
    // alternating the two metadata families, so every call integrates
    // on the slow path into the 1,593-node union.
    let s = SyntheticShape {
        metrics: 12,
        call_nodes: 800,
        threads: 16,
    };
    let mixed: Vec<_> = (0..6u64)
        .map(|i| {
            if i % 2 == 0 {
                synthetic_experiment(s, i)
            } else {
                synthetic_overlapping(s, i)
            }
        })
        .collect();
    let refs: Vec<&cube_model::Experiment> = mixed.iter().collect();
    group.bench_with_input(BenchmarkId::new("six_mixed", 800), &800, |bench, _| {
        bench.iter(|| integrate(black_box(&refs), MergeOptions::default()))
    });
    // n-ary integration: a 10-run series with equal metadata exercises
    // the fast path.
    let s = SyntheticShape {
        metrics: 12,
        call_nodes: 200,
        threads: 16,
    };
    let series: Vec<_> = (0..10u64).map(|i| synthetic_experiment(s, i)).collect();
    let refs: Vec<&cube_model::Experiment> = series.iter().collect();
    group.bench_function("ten_equal_fast_path", |bench| {
        bench.iter(|| integrate(black_box(&refs), MergeOptions::default()))
    });
    group.finish();
}

criterion_group!(benches, bench_integration);
criterion_main!(benches);
