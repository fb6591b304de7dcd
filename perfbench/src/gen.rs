//! Seeded inputs and operation streams.
//!
//! Everything a run sends is a pure function of `--seed`: experiment
//! values, which experiments an expression names, which operator it
//! applies, and when an upload happens. Sizes never depend on the
//! seed. Each client thread draws from its own stream, so the ops a
//! client sends do not depend on how the two clients interleave, and
//! the in-process replay can rebuild the exact same sequence from the
//! seed and the number of ops each client completed.

use std::collections::{HashSet, VecDeque};

use cube_bench::{synthetic_experiment, synthetic_overlapping, SyntheticShape};
use cube_model::{Experiment, Metadata, Provenance, Severity};
use cube_serve::content_id;
use cube_store::write_store;
use cube_xml::footer::{crc32, footer_line};

/// The `gen_corpus` shape: 12 metrics x 800 call nodes x 16 threads.
pub const SHAPE: SyntheticShape = SyntheticShape {
    metrics: 12,
    call_nodes: 800,
    threads: 16,
};

/// Closed-loop client threads of the serve workloads: one per vCPU of
/// the 2-vCPU machine the benchmark was tuned on. With one client, the
/// idle vCPU halts between requests and every cross-CPU wake-up pays
/// the hypervisor's latency, which made the miss latency slower and
/// less steady than with two.
pub const CLIENTS: usize = 2;

/// Operations each client sends between two barrier waits.
pub const ROUND: usize = 8;

/// splitmix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }
}

/// Derives an independent sub-seed from a seed and a path of labels.
pub fn mix(seed: u64, parts: &[u64]) -> u64 {
    let mut h = seed ^ 0x5851_F42D_4C95_7F2D;
    for &p in parts {
        h = Rng::new(h ^ p.wrapping_mul(0x2545_F491_4F6C_DD1D)).next_u64();
    }
    h
}

/// Which metadata an experiment carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// `synthetic_experiment` metadata: all such experiments integrate
    /// on the identity fast path.
    Shared,
    /// `synthetic_overlapping` metadata: shares about half the metrics
    /// and call paths with `Shared`, so mixing the two takes the slow
    /// integration path.
    Overlapping,
}

/// Everything needed to rebuild one experiment.
#[derive(Clone, Debug)]
pub struct ExpSpec {
    pub family: Family,
    pub value_seed: u64,
    pub label: String,
}

/// The two metadata templates; values are filled per experiment.
pub struct Templates {
    shared: Metadata,
    overlapping: Metadata,
}

impl Templates {
    pub fn new() -> Self {
        Self {
            shared: synthetic_experiment(SHAPE, 0).metadata().clone(),
            overlapping: synthetic_overlapping(SHAPE, 0).metadata().clone(),
        }
    }

    /// A dense experiment with seeded values at microsecond resolution,
    /// like the values `gen_corpus` writes.
    pub fn experiment(&self, spec: &ExpSpec) -> Experiment {
        let md = match spec.family {
            Family::Shared => self.shared.clone(),
            Family::Overlapping => self.overlapping.clone(),
        };
        let (nm, nc, nt) = md.shape();
        let mut rng = Rng::new(spec.value_seed);
        let values = (0..nm * nc * nt)
            .map(|_| ((rng.unit() * 10.0 - 2.0) * 1e6).round() / 1e6)
            .collect();
        Experiment::new(
            md,
            Severity::from_values(nm, nc, nt, values),
            Provenance::original(spec.label.clone()),
        )
        .expect("template metadata with dense values is a valid experiment")
    }
}

/// Wire format of an upload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    Cube,
    Cubec,
}

/// The bytes of `exp` as a file in `format`: `.cube` XML with its
/// checksum footer (what `cube` writes), or a `.cubec` image.
pub fn encode(exp: &Experiment, format: Format) -> Vec<u8> {
    match format {
        Format::Cube => {
            let mut bytes = cube_xml::write_experiment(exp).into_bytes();
            let line = footer_line(crc32(&bytes), bytes.len() as u64);
            bytes.extend_from_slice(line.as_bytes());
            bytes
        }
        Format::Cubec => write_store(exp),
    }
}

/// The content id the repository must assign to `exp`.
pub fn expected_id(exp: &Experiment) -> String {
    content_id(&write_store(exp))
}

/// One upload: the experiment, its wire bytes, and the id it must get.
#[derive(Clone)]
pub struct Upload {
    pub spec: ExpSpec,
    pub format: Format,
    pub bytes: Vec<u8>,
    pub id: String,
    /// `true` when the experiment is already stored (expect `200`,
    /// `created: false`), `false` for a new object (expect `201`).
    pub dup: bool,
}

impl Upload {
    pub fn new(templates: &Templates, spec: ExpSpec, format: Format, dup: bool) -> Self {
        let exp = templates.experiment(&spec);
        Self {
            bytes: encode(&exp, format),
            id: expected_id(&exp),
            spec,
            format,
            dup,
        }
    }
}

/// One client operation.
pub enum Op {
    /// `POST /eval` with this expression; `new` says whether the
    /// expression was never sent before (expect `X-Cache: miss`).
    Eval { expr: String, new: bool },
    /// `PUT /experiments`.
    Ingest(Upload),
}

/// Which serve workload a plan belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeKind {
    Hot,
    Cold,
}

/// The per-seed setup of a serve workload: the working set uploaded
/// before timing, and what the warm-up evaluates.
pub struct ServePlan {
    pub kind: ServeKind,
    pub seed: u64,
    pub initial: Vec<ExpSpec>,
    pub initial_ids: Vec<String>,
    /// serve_hot: the fixed operand lists every expression draws from.
    pub lists: Vec<Vec<String>>,
    pub warmup: Vec<String>,
}

/// serve_hot: experiments in the working set (handle cache holds 64).
pub const HOT_EXPERIMENTS: usize = 8;
/// serve_hot: fixed operand lists (plan cache holds 16).
pub const HOT_LISTS: usize = 12;
/// serve_hot: a repeat re-sends one of the client's last this-many new
/// expressions. With two clients and [`ROUND`]-op barrier rounds, at
/// most 16 + 5 x 8 = 56 < 64 entries enter the result cache between an
/// expression's miss and its repeat, so every repeat is a hit under
/// any interleaving.
pub const HOT_RECENT: usize = 16;
/// serve_cold: experiments in the initial working set.
pub const COLD_EXPERIMENTS: usize = 96;

impl ServePlan {
    pub fn new(kind: ServeKind, seed: u64, templates: &Templates) -> Self {
        let n = match kind {
            ServeKind::Hot => HOT_EXPERIMENTS,
            ServeKind::Cold => COLD_EXPERIMENTS,
        };
        let initial: Vec<ExpSpec> = (0..n)
            .map(|i| ExpSpec {
                family: if kind == ServeKind::Cold && i % 2 == 1 {
                    Family::Overlapping
                } else {
                    Family::Shared
                },
                value_seed: mix(seed, &[1, i as u64]),
                label: format!("run {i} (seed {seed})"),
            })
            .collect();
        let initial_ids: Vec<String> = initial
            .iter()
            .map(|s| expected_id(&templates.experiment(s)))
            .collect();
        let mut rng = Rng::new(mix(seed, &[2]));
        let (lists, warmup) = match kind {
            ServeKind::Hot => {
                let lists = hot_lists(&mut rng, &initial_ids);
                let warmup = lists.iter().map(|l| form(0, l)).collect();
                (lists, warmup)
            }
            ServeKind::Cold => {
                // Two uncached evaluations start the pool and the page
                // cache; their operand lists never recur.
                let mut s = ColdStream::new(seed, 2, &initial, &initial_ids);
                let warmup = (0..2).map(|_| s.eval_expr()).collect();
                (Vec::new(), warmup)
            }
        };
        Self {
            kind,
            seed,
            initial,
            initial_ids,
            lists,
            warmup,
        }
    }

    /// Format of the i-th working-set upload: half `.cube`, half `.cubec`.
    pub fn initial_format(i: usize) -> Format {
        if (i / 2).is_multiple_of(2) {
            Format::Cubec
        } else {
            Format::Cube
        }
    }

    /// A fresh op stream for one client.
    pub fn stream(&self, client: usize) -> Stream {
        match self.kind {
            ServeKind::Hot => Stream::Hot(HotStream::new(self, client)),
            ServeKind::Cold => Stream::Cold(ColdStream::new(
                self.seed,
                client,
                &self.initial,
                &self.initial_ids,
            )),
        }
    }
}

/// Twelve distinct ordered lists of 2..=6 of the ids that together
/// name every experiment, so the warm-up opens and loads all of them.
fn hot_lists(rng: &mut Rng, ids: &[String]) -> Vec<Vec<String>> {
    loop {
        let mut seen = HashSet::new();
        let mut lists = Vec::new();
        while lists.len() < HOT_LISTS {
            let k = 2 + rng.below(5);
            let mut pool: Vec<usize> = (0..ids.len()).collect();
            let mut list = Vec::with_capacity(k);
            for _ in 0..k {
                list.push(ids[pool.swap_remove(rng.below(pool.len()))].clone());
            }
            if seen.insert(list.join(",")) {
                lists.push(list);
            }
        }
        let covered: HashSet<&String> = lists.iter().flatten().collect();
        if covered.len() == ids.len() {
            return lists;
        }
    }
}

/// Number of operator forms [`form`] knows.
const FORMS: usize = 6;

/// Operator form `kind` over `list`, naming every id once, in order, so
/// the expression's operand list (the plan-cache key) is `list`.
fn form(kind: usize, list: &[String]) -> String {
    let all = list.join(",");
    match kind {
        0 => format!("mean({all})"),
        1 => format!("sum({all})"),
        2 => format!("min({all})"),
        3 => format!("max({all})"),
        4 => format!("stddev({all})"),
        _ if list.len() == 2 => format!("diff({},{})", list[0], list[1]),
        _ => {
            let (a, b) = list.split_at(list.len() / 2);
            format!("diff(mean({}),mean({}))", a.join(","), b.join(","))
        }
    }
}

/// A scale factor unique to (client, counter) and never 1.
fn factor(client: usize, counter: u64) -> f64 {
    1.0 + (counter * 4 + client as u64 + 1) as f64 / 1024.0
}

pub enum Stream {
    Hot(HotStream),
    Cold(ColdStream),
}

impl Stream {
    pub fn next_op(&mut self, templates: &Templates) -> Op {
        match self {
            Stream::Hot(s) => s.next_op(),
            Stream::Cold(s) => s.next_op(templates),
        }
    }
}

/// serve_hot: new expressions over the fixed lists alternate with
/// repeats of the client's own recent new ones. The mix is fixed; the
/// seed picks lists, repeats and which unscaled forms are used.
pub struct HotStream {
    rng: Rng,
    client: usize,
    lists: Vec<Vec<String>>,
    /// Unscaled expressions only this client may send, each once.
    bare: Vec<String>,
    recent: VecDeque<String>,
    ops: u64,
    counter: u64,
}

impl HotStream {
    fn new(plan: &ServePlan, client: usize) -> Self {
        let warm: HashSet<&String> = plan.warmup.iter().collect();
        let mut bare = Vec::new();
        let mut k = 0usize;
        for list in &plan.lists {
            for kind in 0..FORMS {
                let e = form(kind, list);
                if !warm.contains(&e) {
                    if k % 2 == client {
                        bare.push(e);
                    }
                    k += 1;
                }
            }
        }
        Self {
            rng: Rng::new(mix(plan.seed, &[3, client as u64])),
            client,
            lists: plan.lists.clone(),
            bare,
            recent: VecDeque::with_capacity(HOT_RECENT),
            ops: 0,
            counter: 0,
        }
    }

    fn next_op(&mut self) -> Op {
        self.ops += 1;
        if self.ops.is_multiple_of(2) {
            let expr = self.recent[self.rng.below(self.recent.len())].clone();
            return Op::Eval { expr, new: false };
        }
        let expr = if !self.bare.is_empty() && self.ops % 8 == 1 {
            let i = self.rng.below(self.bare.len());
            self.bare.swap_remove(i)
        } else {
            self.counter += 1;
            let list = &self.lists[self.rng.below(self.lists.len())];
            let inner = form(self.counter as usize % FORMS, list);
            format!("scale({inner},{})", factor(self.client, self.counter))
        };
        if self.recent.len() == HOT_RECENT {
            self.recent.pop_front();
        }
        self.recent.push_back(expr.clone());
        Op::Eval { expr, new: true }
    }
}

/// serve_cold: evaluations over 4..=6 operands drawn uniformly from the
/// client's pool (every list new), and every fifth op an upload. Sizes,
/// forms and the upload kind rotate in a fixed order; the seed picks
/// operands, values, factors and which experiments are re-uploaded.
pub struct ColdStream {
    rng: Rng,
    seed: u64,
    client: usize,
    /// (spec, id) of every experiment this client may name.
    pool: Vec<(ExpSpec, String)>,
    /// Pool indices this client may put first in a list; disjoint
    /// between clients, so no two clients ever build the same list.
    firsts: Vec<usize>,
    lists: HashSet<String>,
    ops: u64,
    uploads: u64,
    evals: u64,
    counter: u64,
}

impl ColdStream {
    fn new(seed: u64, client: usize, initial: &[ExpSpec], ids: &[String]) -> Self {
        Self {
            rng: Rng::new(mix(seed, &[4, client as u64])),
            seed,
            client,
            pool: initial.iter().cloned().zip(ids.iter().cloned()).collect(),
            firsts: (0..initial.len()).filter(|i| i % 2 == client % 2).collect(),
            lists: HashSet::new(),
            ops: 0,
            uploads: 0,
            evals: 0,
            counter: 0,
        }
    }

    fn eval_expr(&mut self) -> String {
        self.evals += 1;
        let kind = self.evals as usize % FORMS;
        let k = 4 + (self.evals as usize / FORMS) % 3;
        loop {
            // The first operand comes from this client's half of the
            // working set, the second from the other metadata family, so
            // every evaluation integrates mixed metadata (the slow path).
            let first = self.firsts[self.rng.below(self.firsts.len())];
            let mut picked = vec![first];
            while picked.len() < k {
                let i = self.rng.below(self.pool.len());
                let mixed = picked.len() > 1 || self.pool[i].0.family != self.pool[first].0.family;
                if mixed && !picked.contains(&i) {
                    picked.push(i);
                }
            }
            let list: Vec<String> = picked.iter().map(|&i| self.pool[i].1.clone()).collect();
            if !self.lists.insert(list.join(",")) {
                continue;
            }
            let inner = form(kind, &list);
            return if self.rng.chance(1, 3) {
                self.counter += 1;
                format!("scale({inner},{})", factor(self.client, self.counter))
            } else {
                inner
            };
        }
    }

    fn next_op(&mut self, templates: &Templates) -> Op {
        self.ops += 1;
        if !self.ops.is_multiple_of(5) {
            return Op::Eval {
                expr: self.eval_expr(),
                new: true,
            };
        }
        let kind = (self.ops / 5) % 3;
        if kind == 2 {
            // Re-uploads come as `.cube`, the interchange format; half
            // the working set was stored from `.cubec`, so many of them
            // also exercise cross-format dedup.
            let (spec, _) = self.pool[self.rng.below(self.pool.len())].clone();
            return Op::Ingest(Upload::new(templates, spec, Format::Cube, true));
        }
        let n = self.uploads;
        self.uploads += 1;
        let spec = ExpSpec {
            family: if n.is_multiple_of(2) {
                Family::Shared
            } else {
                Family::Overlapping
            },
            value_seed: mix(self.seed, &[5, self.client as u64, n]),
            label: format!("upload {n} of client {} (seed {})", self.client, self.seed),
        };
        let format = if kind == 0 {
            Format::Cube
        } else {
            Format::Cubec
        };
        let upload = Upload::new(templates, spec, format, false);
        self.pool.push((upload.spec.clone(), upload.id.clone()));
        Op::Ingest(upload)
    }
}

/// cli_files: the six inputs every `cube mean` reads.
pub fn cli_inputs(seed: u64) -> Vec<ExpSpec> {
    (0..6)
        .map(|i| ExpSpec {
            family: Family::Shared,
            value_seed: mix(seed, &[6, i]),
            label: format!("run {i} (seed {seed})"),
        })
        .collect()
}
