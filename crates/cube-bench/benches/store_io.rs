//! Throughput of the `.cubec` columnar store pipelines.
//!
//! Three tracked shapes mirror the `xml_roundtrip` bench exactly, so
//! the store's speedups read directly as cross-group ratios:
//!
//! * `store/roundtrip/*` — encode + strict decode in memory, the
//!   analogue of an XML write + read pair.
//! * `store/cold_open/*` — [`cube_store::ColumnarExperiment::open`] on
//!   a file on disk: header, metadata and chunk-CRC table only, no
//!   severity pages. This is the number the lazy design exists for;
//!   the CI gate holds it an order of magnitude under
//!   `xml/read-stream/large`.
//! * `store/batch_from_store/*` — a batch mean gathered straight from
//!   pre-opened store handles ([`cube_algebra::BatchPlan`] over
//!   [`cube_algebra::BatchOperand`]s), the serving-path workload.
//!
//! The `crc32` group is layer evidence for the checksum every store
//! page, `.cube` footer and `/eval` body goes through: the bytewise
//! table loop (the tests' oracle, restated here), the portable
//! slicing-by-16 path and the dispatched [`cube_xml::footer::crc32`]
//! at 4 KiB, at the 32 KiB page size and at 3 MiB, about one `/eval`
//! response body.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use cube_algebra::{BatchOperand, BatchPlan, Expr, MergeOptions, Reduction};
use cube_bench::{synthetic_experiment, SyntheticShape};
use cube_store::ColumnarExperiment;

const SIZES: [(&str, usize); 3] = [("small", 1), ("medium", 4), ("large", 8)];

fn shape(n: usize) -> SyntheticShape {
    SyntheticShape {
        metrics: 2 * n,
        call_nodes: 20 * n,
        threads: 4 * n,
    }
}

fn bench_store(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("cube_bench_store_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let mut group = c.benchmark_group("store");
    for (label, n) in SIZES {
        let e = synthetic_experiment(shape(n), 1);
        let bytes = cube_store::write_store(&e);
        group.throughput(Throughput::Bytes(bytes.len() as u64));

        group.bench_with_input(BenchmarkId::new("roundtrip", label), &n, |bench, _| {
            bench.iter(|| {
                let encoded = cube_store::write_store(black_box(&e));
                cube_store::read_store(black_box(&encoded), &cube_xml::ReadLimits::default())
                    .unwrap()
            })
        });

        let path = dir.join(format!("{label}.cubec"));
        cube_store::write_store_file(&e, &path).unwrap();
        group.bench_with_input(BenchmarkId::new("cold_open", label), &n, |bench, _| {
            bench.iter(|| ColumnarExperiment::open(black_box(&path)).unwrap())
        });

        // Four runs of the same shape, packed, lazily opened, severity
        // pages loaded once outside the timed loop: the loop measures
        // the integrate-and-gather work alone, as `cube stats` over
        // `.cubec` operands runs it.
        let handles: Vec<ColumnarExperiment> = (0..4)
            .map(|i| {
                let run = synthetic_experiment(shape(n), i);
                let p = dir.join(format!("{label}_run{i}.cubec"));
                cube_store::write_store_file(&run, &p).unwrap();
                let h = ColumnarExperiment::open(&p).unwrap();
                h.severity().unwrap();
                h
            })
            .collect();
        let expr = Expr::reduce(Reduction::Mean, 0..handles.len());
        group.bench_with_input(
            BenchmarkId::new("batch_from_store", label),
            &n,
            |bench, _| {
                bench.iter(|| {
                    let ops: Vec<&dyn BatchOperand> =
                        handles.iter().map(|h| h as &dyn BatchOperand).collect();
                    BatchPlan::from_operands(black_box(&ops), MergeOptions::default())
                        .eval(black_box(&expr))
                        .unwrap()
                })
            },
        );
    }
    group.finish();

    let _ = std::fs::remove_dir_all(&dir);
}

/// The bytewise CRC-32 loop the engine replaced, as the baseline row.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    static TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut c = !0u32;
    for &b in bytes {
        c = TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

fn bench_crc32(c: &mut Criterion) {
    let mut group = c.benchmark_group("crc32");
    for (label, len) in [("4k", 4 << 10), ("32k", 32 << 10), ("3m", 3 << 20)] {
        let bytes: Vec<u8> = (0..len).map(|i| (i * 131 + i / 251) as u8).collect();
        assert_eq!(cube_xml::footer::crc32(&bytes), crc32_bytewise(&bytes));
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_with_input(BenchmarkId::new("bytewise", label), &len, |bench, _| {
            bench.iter(|| crc32_bytewise(black_box(&bytes)))
        });
        group.bench_with_input(BenchmarkId::new("portable", label), &len, |bench, _| {
            bench.iter(|| cube_xml::footer::crc32_portable(black_box(&bytes)))
        });
        group.bench_with_input(BenchmarkId::new("dispatched", label), &len, |bench, _| {
            bench.iter(|| cube_xml::footer::crc32(black_box(&bytes)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_store, bench_crc32);
criterion_main!(benches);
