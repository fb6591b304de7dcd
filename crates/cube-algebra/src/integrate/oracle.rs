//! The quadratic metadata integrator, kept verbatim as the test oracle
//! for the hash-indexed merge in [`super`].
//!
//! Every lookup here scans the integrated tables and compares strings,
//! exactly as the library did before it switched to indexes; the
//! property tests below assert that both integrators produce equal
//! [`Integrated`] values (metadata and every operand map).

use cube_model::{
    CallNode, CallNodeId, CallSite, CallSiteId, Metadata, Metric, MetricId, Module, ModuleId,
    Region, RegionId,
};

use super::{integrate_system, same_metadata, Integrated};
use crate::mapping::OperandMap;
use crate::options::{CallSiteEq, MergeOptions};

/// [`super::integrate_metadata`] with the quadratic metric and program
/// merge.
pub(super) fn integrate_metadata(operands: &[&Metadata], options: MergeOptions) -> Integrated {
    if let Some(same) = same_metadata(operands, options) {
        return same;
    }
    let mut md = Metadata::new();
    let mut maps: Vec<OperandMap> = Vec::with_capacity(operands.len());
    for src in operands {
        let map = OperandMap {
            metrics: merge_metric_forest(&mut md, src),
            call_nodes: merge_call_forest(&mut md, src, options.call_site_eq),
            ..OperandMap::default()
        };
        maps.push(map);
    }
    integrate_system(md, maps, operands, options.system_mode)
}

// ---------------------------------------------------------------------------
// Metric dimension
// ---------------------------------------------------------------------------

fn merge_metric_forest(md: &mut Metadata, src: &Metadata) -> Vec<MetricId> {
    let mut map = vec![MetricId::new(0); src.num_metrics()];
    for &root in src.metric_roots() {
        merge_metric_node(md, src, root, None, &mut map);
    }
    map
}

fn merge_metric_node(
    md: &mut Metadata,
    src: &Metadata,
    sid: MetricId,
    new_parent: Option<MetricId>,
    map: &mut [MetricId],
) {
    let sm = src.metric(sid);
    let candidates: &[MetricId] = match new_parent {
        Some(p) => md.metric_children(p),
        None => md.metric_roots(),
    };
    let found = candidates
        .iter()
        .copied()
        .find(|&c| md.metric(c).name == sm.name && md.metric(c).unit == sm.unit);
    let nid = match found {
        Some(nid) => nid,
        None => md.add_metric(Metric {
            name: sm.name.clone(),
            unit: sm.unit,
            description: sm.description.clone(),
            parent: new_parent,
        }),
    };
    map[sid.index()] = nid;
    // When `sid` was appended as a new node, its children cannot match
    // anything (the new node has no children yet), so the same recursion
    // appends the whole subtree — the paper's subtree rule for free.
    for &child in src.metric_children(sid) {
        merge_metric_node(md, src, child, Some(nid), map);
    }
}

// ---------------------------------------------------------------------------
// Program dimension
// ---------------------------------------------------------------------------

fn region_eq(md: &Metadata, nid: RegionId, src: &Metadata, sid: RegionId) -> bool {
    let nr = md.region(nid);
    let sr = src.region(sid);
    nr.name == sr.name && md.module(nr.module).name == src.module(sr.module).name
}

fn call_node_eq(
    md: &Metadata,
    nid: CallNodeId,
    src: &Metadata,
    sid: CallNodeId,
    eq: CallSiteEq,
) -> bool {
    let ncs = md.call_site(md.call_node(nid).call_site);
    let scs = src.call_site(src.call_node(sid).call_site);
    let callee_eq = region_eq(md, ncs.callee, src, scs.callee);
    match eq {
        CallSiteEq::CalleeOnly => callee_eq,
        CallSiteEq::Strict => callee_eq && ncs.file == scs.file && ncs.line == scs.line,
    }
}

fn map_module(md: &mut Metadata, src: &Metadata, sid: ModuleId) -> ModuleId {
    let sm = src.module(sid);
    match md.find_module(&sm.name) {
        Some(existing) => existing,
        None => md.add_module(Module::new(sm.name.clone(), sm.path.clone())),
    }
}

fn map_region(md: &mut Metadata, src: &Metadata, sid: RegionId) -> RegionId {
    for i in 0..md.regions().len() {
        let nid = RegionId::from_index(i);
        if region_eq(md, nid, src, sid) {
            return nid;
        }
    }
    let sr = src.region(sid).clone();
    let module = map_module(md, src, sr.module);
    md.add_region(Region {
        name: sr.name,
        module,
        kind: sr.kind,
        begin_line: sr.begin_line,
        end_line: sr.end_line,
    })
}

fn map_call_site(md: &mut Metadata, src: &Metadata, sid: CallSiteId, eq: CallSiteEq) -> CallSiteId {
    let scs = src.call_site(sid);
    for i in 0..md.call_sites().len() {
        let nid = CallSiteId::from_index(i);
        let ncs = md.call_site(nid);
        let callee_eq = region_eq(md, ncs.callee, src, scs.callee);
        let equal = match eq {
            CallSiteEq::CalleeOnly => callee_eq,
            CallSiteEq::Strict => callee_eq && ncs.file == scs.file && ncs.line == scs.line,
        };
        if equal {
            return nid;
        }
    }
    let callee = map_region(md, src, scs.callee);
    let (file, line) = (scs.file.clone(), scs.line);
    md.add_call_site(CallSite { file, line, callee })
}

fn merge_call_forest(md: &mut Metadata, src: &Metadata, eq: CallSiteEq) -> Vec<CallNodeId> {
    let mut map = vec![CallNodeId::new(0); src.num_call_nodes()];
    for &root in src.call_roots() {
        merge_call_node(md, src, root, None, eq, &mut map);
    }
    map
}

fn merge_call_node(
    md: &mut Metadata,
    src: &Metadata,
    sid: CallNodeId,
    new_parent: Option<CallNodeId>,
    eq: CallSiteEq,
    map: &mut [CallNodeId],
) {
    let candidates: Vec<CallNodeId> = match new_parent {
        Some(p) => md.call_node_children(p).to_vec(),
        None => md.call_roots().to_vec(),
    };
    let found = candidates
        .into_iter()
        .find(|&c| call_node_eq(md, c, src, sid, eq));
    let nid = match found {
        Some(nid) => nid,
        None => {
            let call_site = map_call_site(md, src, src.call_node(sid).call_site, eq);
            md.add_call_node(CallNode {
                call_site,
                parent: new_parent,
            })
        }
    };
    map[sid.index()] = nid;
    for &child in src.call_node_children(sid).to_vec().iter() {
        merge_call_node(md, src, child, Some(nid), eq, map);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cube_model::{Machine, NodeId, Process, RegionKind, SystemNode, Thread, Unit};

    use crate::options::SystemMergeMode;

    /// Minimal linear congruential generator (Numerical Recipes
    /// constants); deterministic so every failure is a stable
    /// regression case.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }
    }

    /// Asserts that the indexed and the quadratic integrator agree on
    /// `operands` under both call-site equalities.
    fn assert_agree(operands: &[&Metadata], system_mode: SystemMergeMode, case: &str) {
        for eq in [CallSiteEq::CalleeOnly, CallSiteEq::Strict] {
            let options = MergeOptions::default()
                .with_call_site_eq(eq)
                .with_system_mode(system_mode);
            let want = integrate_metadata(operands, options);
            let got = super::super::integrate_metadata(operands, options);
            assert!(got == want, "{case}, {eq:?}, {system_mode:?}");
        }
    }

    /// A random metadata family member. `structure` fixes the shape
    /// and names; `variant` 0 reproduces the family's base, and any
    /// other value moves call-site lines, renames a few regions and
    /// appends extra call paths. Name pools are tiny so that draws
    /// collide: duplicate callees under one parent, one region name in
    /// two modules and one module name with two paths all occur.
    fn family_member(structure: u64, variant: u64, prefix: &str) -> Metadata {
        let mut s = Lcg(structure);
        let mut v = Lcg(variant.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let varied = variant != 0;
        let mut md = Metadata::new();

        let units = [Unit::Seconds, Unit::Bytes, Unit::Occurrences];
        for i in 0..1 + s.below(7) {
            let parent = (i > 0 && s.below(3) != 0).then(|| MetricId::from_index(s.below(i)));
            md.add_metric(Metric {
                name: format!("{prefix}m{}", s.below(4)),
                unit: units[s.below(2)],
                description: format!("d{}", s.below(3)),
                parent,
            });
        }
        if varied && v.below(2) == 0 {
            md.add_metric(Metric {
                name: format!("{prefix}extra"),
                unit: units[v.below(3)],
                description: String::new(),
                parent: None,
            });
        }

        for _ in 0..1 + s.below(3) {
            md.add_module(Module::new(
                format!("{prefix}mod{}", s.below(2)),
                format!("/p{}", s.below(2)),
            ));
        }
        let nregions = 1 + s.below(7);
        for _ in 0..nregions {
            let mut name = format!("{prefix}f{}", s.below(5));
            if varied && v.below(4) == 0 {
                name = format!("{prefix}g{}", v.below(3));
            }
            md.add_region(Region {
                name,
                module: ModuleId::from_index(s.below(md.modules().len())),
                kind: RegionKind::Function,
                begin_line: 1,
                end_line: 9,
            });
        }
        for _ in 0..1 + s.below(9) {
            let mut line = s.below(4) as u32;
            if varied && v.below(3) == 0 {
                line += 1 + v.below(2) as u32;
            }
            md.add_call_site(CallSite {
                file: ["a.c", "b.c"][s.below(2)].to_string(),
                line,
                callee: RegionId::from_index(s.below(nregions)),
            });
        }
        let nsites = md.call_sites().len();
        let add_nodes = |md: &mut Metadata, rng: &mut Lcg, n: usize| {
            for _ in 0..n {
                let len = md.num_call_nodes();
                let parent =
                    (len > 0 && rng.below(4) != 0).then(|| CallNodeId::from_index(rng.below(len)));
                md.add_call_node(CallNode {
                    call_site: CallSiteId::from_index(rng.below(nsites)),
                    parent,
                });
            }
        };
        let n = 1 + s.below(24);
        add_nodes(&mut md, &mut s, n);
        if varied {
            let n = v.below(6);
            add_nodes(&mut md, &mut v, n);
        }

        let mach = md.add_machine(Machine::new("mach"));
        let nnodes = 1 + s.below(2);
        for i in 0..nnodes {
            md.add_node(SystemNode::new(format!("node{i}"), mach));
        }
        let nprocs = 1 + s.below(3) + if varied { v.below(2) } else { 0 };
        for rank in 0..nprocs {
            let node = NodeId::from_index(s.below(nnodes));
            let p = md.add_process(Process::new(format!("rank {rank}"), rank as i32, node));
            for t in 0..1 + s.below(2) {
                md.add_thread(Thread::new(format!("t{t}"), t as u32, p));
            }
        }
        md
    }

    /// Metadata of the `gen_corpus` shape (12 metrics, 800 call nodes,
    /// 16 single-threaded ranks): `overlapping` renames every odd
    /// metric and region, as the benchmark generator's overlapping
    /// family does, and `disjoint` renames everything.
    fn corpus_member(overlapping: bool, disjoint: bool) -> Metadata {
        let (m, x, r, y) = if disjoint {
            ("dm", "dm", "dr", "dr")
        } else if overlapping {
            ("m", "x", "r", "y")
        } else {
            ("m", "m", "r", "r")
        };
        let mut md = Metadata::new();
        let root = md.add_metric(Metric::root(format!("{m}0"), Unit::Seconds, ""));
        let mut metrics = vec![root];
        for i in 1..12 {
            let prefix = if i % 2 == 0 { m } else { x };
            let parent = if i % 4 == 0 { metrics[i - 1] } else { root };
            let id = md.add_metric(Metric::child(
                format!("{prefix}{i}"),
                Unit::Seconds,
                "",
                parent,
            ));
            metrics.push(id);
        }
        let module = md.add_module(Module::new("synth.rs", "/synth.rs"));
        let mut cnodes: Vec<CallNodeId> = Vec::with_capacity(800);
        for i in 0..800 {
            let prefix = if i % 2 == 0 { r } else { y };
            let region = md.add_region(Region {
                name: format!("{prefix}{i}"),
                module,
                kind: RegionKind::Function,
                begin_line: i as u32 + 1,
                end_line: i as u32 + 1,
            });
            let call_site = md.add_call_site(CallSite {
                file: "synth.rs".into(),
                line: i as u32 + 1,
                callee: region,
            });
            let parent = match i {
                0 => None,
                _ if i % 3 == 0 => Some(cnodes[i - 1]),
                _ => Some(cnodes[i / 3]),
            };
            cnodes.push(md.add_call_node(CallNode { call_site, parent }));
        }
        let mach = md.add_machine(Machine::new("virtual machine"));
        let node = md.add_node(SystemNode::new("virtual node", mach));
        for rank in 0..16 {
            let p = md.add_process(Process::new(format!("rank {rank}"), rank, node));
            md.add_thread(Thread::new("thread 0", 0, p));
        }
        md
    }

    #[test]
    fn indexed_merge_matches_the_quadratic_oracle() {
        let modes = [
            SystemMergeMode::Auto,
            SystemMergeMode::Collapse,
            SystemMergeMode::CopyFirst,
        ];
        let mut rng = Lcg(0x1d);
        for case in 0..400 {
            let structure = rng.next();
            let k = 1 + rng.below(6);
            let mut operands: Vec<Metadata> = Vec::with_capacity(k);
            for i in 0..k {
                let md = match rng.below(8) {
                    // Identical to an earlier operand.
                    0 if i > 0 => operands[rng.below(i)].clone(),
                    // Disjoint names.
                    1 => family_member(rng.next(), 0, "z"),
                    // Empty in every dimension.
                    2 => Metadata::new(),
                    // An unrelated structure drawn from the same pools.
                    3 => family_member(rng.next(), rng.next(), ""),
                    // The family's base or a variant of it.
                    _ => family_member(structure, rng.below(3) as u64, ""),
                };
                operands.push(md);
            }
            let refs: Vec<&Metadata> = operands.iter().collect();
            assert_agree(&refs, modes[rng.below(3)], &format!("case {case}"));
        }
    }

    #[test]
    fn oracle_agreement_covers_the_collision_families() {
        // The generator must actually produce the collisions the
        // property is about; count them over the same draws.
        let (mut dup_callee, mut region_two_modules, mut module_two_paths) = (0, 0, 0);
        for seed in 0..200u64 {
            let md = family_member(seed, 0, "");
            for p in md.call_node_ids() {
                let callees: Vec<RegionId> = md
                    .call_node_children(p)
                    .iter()
                    .map(|&c| md.call_node_callee(c))
                    .collect();
                if (1..callees.len()).any(|i| callees[..i].contains(&callees[i])) {
                    dup_callee += 1;
                }
            }
            let regions = md.regions();
            if regions.iter().any(|a| {
                regions.iter().any(|b| {
                    a.name == b.name && md.module(a.module).name != md.module(b.module).name
                })
            }) {
                region_two_modules += 1;
            }
            let modules = md.modules();
            if modules
                .iter()
                .any(|a| modules.iter().any(|b| a.name == b.name && a.path != b.path))
            {
                module_two_paths += 1;
            }
        }
        assert!(dup_callee > 10, "{dup_callee}");
        assert!(region_two_modules > 10, "{region_two_modules}");
        assert!(module_two_paths > 10, "{module_two_paths}");
    }

    #[test]
    fn gen_corpus_mix_matches_the_quadratic_oracle() {
        let shared = corpus_member(false, false);
        let overlapping = corpus_member(true, false);
        let disjoint = corpus_member(false, true);
        let mut rng = Lcg(0xc01d);
        for case in 0..6 {
            // 4–6 operands holding both families, as serve_cold draws
            // them; every other case adds the disjoint third family.
            let k = 4 + case % 3;
            let mut refs: Vec<&Metadata> = vec![&shared, &overlapping];
            while refs.len() < k {
                refs.push(if rng.below(2) == 0 {
                    &shared
                } else {
                    &overlapping
                });
            }
            if case % 2 == 1 {
                refs.push(&disjoint);
            }
            for i in (1..refs.len()).rev() {
                refs.swap(i, rng.below(i + 1));
            }
            assert_agree(&refs, SystemMergeMode::Auto, &format!("corpus case {case}"));
        }
    }
}
