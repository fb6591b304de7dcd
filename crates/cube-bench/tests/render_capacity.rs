//! The render buffer's size hint against real derived outputs.
//!
//! `cube_xml::encoded_len_hint` pre-sizes every rendered `.cube` body,
//! footer included. Over the `gen_corpus` shape (12 metrics × 800 call
//! nodes × 16 threads, the corpus behind the serve and CLI benchmarks)
//! the derived experiments `cube mean`, `cube stddev` and `cube scale`
//! write must fit inside it, so the body never regrows, without
//! reserving more than a quarter beyond what they use.

use cube_algebra::{ops, stats};
use cube_bench::{synthetic_experiment, SyntheticShape};
use cube_model::Experiment;
use cube_xml::footer::{crc32, footer_line};

const GEN_CORPUS: SyntheticShape = SyntheticShape {
    metrics: 12,
    call_nodes: 800,
    threads: 16,
};

#[track_caller]
fn assert_tight_fit(label: &str, exp: &Experiment) {
    let hint = cube_xml::encoded_len_hint(exp);
    let mut body = cube_xml::write_experiment_bytes(exp);
    let line = footer_line(crc32(&body), body.len() as u64);
    body.extend_from_slice(line.as_bytes());
    let used = body.len();
    assert!(
        used <= hint,
        "{label}: {used} bytes overflow the {hint}-byte hint"
    );
    assert!(
        hint * 4 <= used * 5,
        "{label}: the {hint}-byte hint reserves over 25 % beyond {used} bytes"
    );
    assert_eq!(body.capacity(), hint, "{label}: the body regrew");
}

#[test]
fn derived_outputs_fit_the_render_hint() {
    let runs: Vec<Experiment> = (0..6)
        .map(|seed| synthetic_experiment(GEN_CORPUS, seed))
        .collect();
    let refs: Vec<&Experiment> = runs.iter().collect();
    assert_tight_fit("mean", &ops::mean(&refs).unwrap());
    assert_tight_fit("stddev", &stats::stddev(&refs).unwrap());
    assert_tight_fit("scale", &ops::scale(&runs[0], 1.7));
    assert_tight_fit("original", &runs[0]);
}
