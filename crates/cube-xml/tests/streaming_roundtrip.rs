//! Property tests for the `.cube` reader and writer.
//!
//! For randomly generated experiments — nested metric and call
//! forests, processes placed round-robin over nodes (so document order
//! differs from id order), multi-threaded processes, Cartesian
//! topologies, negative severities, and all-zero rows that the writer
//! must omit — reading what was written gives back the experiment, a
//! second write gives the same bytes, and every severity token is what
//! std's `{}` formatter gives for its value, an oracle independent of
//! the writer's own formatter. Documents that store `<severity>` before
//! the metadata read, lint and salvage to the same experiment.

use proptest::prelude::*;

use cube_model::{
    CallNodeId, CartTopology, Experiment, ExperimentBuilder, MetricId, RegionKind, Unit,
};
use cube_xml::{lint_read, read_experiment, read_experiment_salvage, write_experiment};

// ---------------------------------------------------------------------------
// generator
// ---------------------------------------------------------------------------

/// Compact description of an experiment, drawn by proptest.
#[derive(Clone, Debug)]
struct Spec {
    /// Metric name index + parent index into the prefix (None = root).
    metrics: Vec<(u8, Option<u8>)>,
    /// Call nodes: region name index + parent index into prefix.
    calls: Vec<(u8, Option<u8>)>,
    /// Processes, placed round-robin over `nodes` SMP nodes.
    ranks: u8,
    nodes: u8,
    threads_per_rank: u8,
    /// Severity values cycled over all tuples; zeros leave whole rows
    /// empty, which exercises the zero-omission rule.
    values: Vec<i32>,
    /// Whether to attach a Cartesian topology over the processes.
    topology: bool,
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    let metric = (0u8..6, proptest::option::of(0u8..4));
    let call = (0u8..6, proptest::option::of(0u8..4));
    (
        proptest::collection::vec(metric, 1..5),
        proptest::collection::vec(call, 1..6),
        1u8..5,
        1u8..3,
        1u8..3,
        proptest::collection::vec(-50i32..50, 1..20),
        any::<bool>(),
    )
        .prop_map(
            |(metrics, calls, ranks, nodes, threads_per_rank, values, topology)| Spec {
                metrics,
                calls,
                ranks,
                nodes,
                threads_per_rank,
                values,
                topology,
            },
        )
}

fn build(spec: &Spec) -> Experiment {
    let mut b = ExperimentBuilder::new("streaming roundtrip <spec> & \"friends\"");
    let mut metric_ids = Vec::new();
    for (name_idx, parent) in &spec.metrics {
        let parent_id = parent.and_then(|p| metric_ids.get(p as usize).copied());
        let id = b.def_metric(format!("metric{name_idx}"), Unit::Seconds, "", parent_id);
        metric_ids.push(id);
    }

    let module = b.def_module("gen&meta.rs", "/src/gen.rs");
    let mut region_of_name = std::collections::HashMap::new();
    let mut call_ids = Vec::new();
    for (name_idx, parent) in &spec.calls {
        let region = *region_of_name.entry(*name_idx).or_insert_with(|| {
            b.def_region(
                format!("region<{name_idx}>"),
                module,
                RegionKind::Function,
                u32::from(*name_idx) + 1,
                u32::from(*name_idx) + 1,
            )
        });
        let cs = b.def_call_site("gen&meta.rs", u32::from(*name_idx) + 1, region);
        let parent_id = parent.and_then(|p| call_ids.get(p as usize).copied());
        call_ids.push(b.def_call_node(cs, parent_id));
    }

    // Round-robin rank placement interleaves process ids between node
    // subtrees, so the file stores system ids out of document order —
    // the permutation case both readers must sort back.
    let machine = b.def_machine("cluster");
    let node_ids: Vec<_> = (0..spec.nodes)
        .map(|n| b.def_node(format!("node{n}"), machine))
        .collect();
    let mut thread_ids = Vec::new();
    let mut process_ids = Vec::new();
    for r in 0..spec.ranks {
        let node = node_ids[r as usize % node_ids.len()];
        let p = b.def_process(format!("rank {r}"), i32::from(r), node);
        process_ids.push(p);
        for t in 0..spec.threads_per_rank {
            thread_ids.push(b.def_thread(format!("thread {r}.{t}"), u32::from(t), p));
        }
    }

    if spec.topology {
        let mut topo = CartTopology::new("gen grid", vec![u32::from(spec.ranks)], vec![false]);
        for (i, &p) in process_ids.iter().enumerate() {
            topo.coords.push((p, vec![i as u32]));
        }
        b.def_topology(topo);
    }

    let mut vi = 0usize;
    for &m in &metric_ids {
        for &c in &call_ids {
            for &t in &thread_ids {
                let v = spec.values[vi % spec.values.len()];
                vi += 1;
                if v != 0 {
                    b.set_severity(m, c, t, f64::from(v) * 0.125);
                }
            }
        }
    }
    b.build().unwrap()
}

// ---------------------------------------------------------------------------
// properties
// ---------------------------------------------------------------------------

/// Whether the severity rows of `xml` are exactly the non-zero rows of
/// `e`, each value written as std's `{}` formats it.
fn severity_matches_std(e: &Experiment, xml: &str) -> bool {
    let sev = e.severity();
    let mut rows = 0;
    for matrix in xml.split("<matrix metric=\"").skip(1) {
        let (m, body) = matrix.split_once('"').unwrap();
        let m = MetricId::new(m.parse().unwrap());
        let body = &body[..body.find("</matrix>").unwrap()];
        for row in body.split("<row cnode=\"").skip(1) {
            let (c, rest) = row.split_once("\">").unwrap();
            let text = &rest[..rest.find("</row>").unwrap()];
            let values = sev.row(m, CallNodeId::new(c.parse().unwrap()));
            let expected: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
            if !text.split(' ').eq(expected.iter().map(String::as_str)) {
                return false;
            }
            rows += 1;
        }
    }
    let nonzero = (0..sev.num_rows())
        .filter(|&r| sev.row_at(r).iter().any(|&v| v != 0.0))
        .count();
    rows == nonzero
}

proptest! {
    /// Reading what was written gives back the experiment, provenance
    /// included.
    #[test]
    fn read_of_write_is_identity(spec in spec_strategy()) {
        let e = build(&spec);
        let back = read_experiment(&write_experiment(&e)).unwrap();
        prop_assert!(back.approx_eq(&e, 0.0), "metadata or severity changed");
        prop_assert_eq!(back.provenance(), e.provenance());
    }

    /// Writing what was read gives the same bytes, and each severity
    /// token is std's formatting of its value.
    #[test]
    fn rewrite_is_byte_identical_and_matches_std(spec in spec_strategy()) {
        let e = build(&spec);
        let xml = write_experiment(&e);
        let again = write_experiment(&read_experiment(&xml).unwrap());
        prop_assert!(again == xml, "second write changed the bytes");
        prop_assert!(severity_matches_std(&e, &xml), "severity tokens differ from std's");
    }
}

/// `xml` with its `<severity>` section moved in front of the line that
/// starts with `anchor`.
fn move_severity(xml: &str, anchor: &str) -> String {
    let start = xml.find("  <severity").unwrap();
    let end = match xml.find("</severity>") {
        Some(close) => close + "</severity>\n".len(),
        None => start + "  <severity/>\n".len(),
    };
    let at = xml.find(anchor).unwrap();
    format!(
        "{}{}{}{}",
        &xml[..at],
        &xml[start..end],
        &xml[at..start],
        &xml[end..]
    )
}

proptest! {
    /// Severity stored first, or between `<program>` and `<system>`,
    /// reads, lints and salvages to the experiment it came from.
    #[test]
    fn severity_may_precede_the_metadata(spec in spec_strategy()) {
        let e = build(&spec);
        let xml = write_experiment(&e);
        for anchor in ["  <provenance", "  <system>"] {
            let moved = move_severity(&xml, anchor);
            prop_assert!(moved != xml);
            let read = read_experiment(&moved).unwrap();
            prop_assert!(read.approx_eq(&e, 0.0));
            prop_assert_eq!(read.provenance(), e.provenance());
            // Generated experiments may carry warnings (negative
            // originals, duplicate sibling names): the same ones.
            let (linted, report) = lint_read(&moved);
            prop_assert!(!report.has_errors(), "{}", report);
            prop_assert_eq!(report.to_string(), lint_read(&xml).1.to_string());
            prop_assert!(linted.unwrap().approx_eq(&e, 0.0));
            let (salvaged, report) = read_experiment_salvage(&moved).unwrap();
            prop_assert!(report.complete, "{:?}", report);
            prop_assert!(salvaged.approx_eq(&e, 0.0));
            prop_assert_eq!(salvaged.provenance(), e.provenance());
        }
    }
}

// ---------------------------------------------------------------------------
// directed cases the generator can't hit
// ---------------------------------------------------------------------------

/// An experiment whose severity is identically zero writes as
/// `<severity/>` and reads back as all zeros.
#[test]
fn all_zero_experiment_roundtrips() {
    let e = build(&Spec {
        metrics: vec![(0, None)],
        calls: vec![(0, None)],
        ranks: 1,
        nodes: 1,
        threads_per_rank: 2,
        values: vec![0],
        topology: false,
    });
    let xml = write_experiment(&e);
    assert!(xml.contains("<severity/>"));
    let parsed = read_experiment(&xml).unwrap();
    assert!(parsed.approx_eq(&e, 0.0));
    assert!(parsed.severity().values().iter().all(|&v| v == 0.0));
}
