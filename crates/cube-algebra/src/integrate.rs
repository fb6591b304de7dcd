//! Metadata integration: the structural merge phase of every operator.
//!
//! Integration folds the operands' metadata into one integrated
//! [`Metadata`] and records, for every operand, where each of its
//! entities landed ([`OperandMap`]). The merge is *top-down*: starting
//! at the roots, nodes are matched with the dimension's equality
//! relation; matched nodes become shared nodes, unmatched nodes are
//! appended together with their entire subtree (even if that subtree
//! contains nodes that would match deeper down — exactly the behavior
//! the paper prescribes).
//!
//! Equality relations:
//!
//! * **metric**: same name and unit under an already-matched parent;
//! * **call node**: call-site equality under an already-matched parent —
//!   by default only the callee region (name + module name) is compared,
//!   because line numbers may shift between code versions; a strict mode
//!   additionally compares file and line (see [`CallSiteEq`]);
//! * **system**: processes and threads are matched by application-level
//!   rank and thread number. The machine/node levels are *not* matched:
//!   depending on [`SystemMergeMode`] they are copied from the first
//!   operand or collapsed to a single machine with a single node; the
//!   default collapses exactly when the partitioning of processes into
//!   nodes is incompatible between the operands.
//!
//! The metric and program merge runs over hash indexes of the
//! integrated tables, shared by all operands:
//!
//! | index | key |
//! |---|---|
//! | metrics | integrated parent, name, unit |
//! | modules | name |
//! | regions | name, module name |
//! | call sites | integrated callee region, plus file and line under [`CallSiteEq::Strict`] |
//! | call nodes | integrated parent, integrated call site |
//!
//! Entities are only ever appended when their key is absent, so each
//! key names exactly one integrated entity, the first one inserted
//! under it — the entity a scan of the tables in id order would find
//! first. Keys borrow their strings from the operand that defined the
//! entity, so a lookup allocates nothing. Each operand's forests are
//! walked once, in pre-order, with an explicit stack: integration costs
//! one hash probe per entity, O(n) in the size of the operands, and its
//! stack use does not grow with tree depth. An operand whose metadata
//! equals an earlier operand's is not walked at all: every key of its
//! walk is present already, so it would reproduce the earlier map, and
//! it takes a copy of that map instead.

use std::collections::HashMap;

use cube_model::{
    CallNode, CallNodeId, CallSite, CallSiteId, Experiment, Machine, Metadata, Metric, MetricId,
    Module, ModuleId, Process, Region, RegionId, SystemNode, Thread, Unit,
};

use crate::mapping::OperandMap;
use crate::options::{CallSiteEq, MergeOptions, SystemMergeMode};

#[cfg(test)]
mod oracle;

/// The result of metadata integration.
#[derive(Clone, Debug, PartialEq)]
pub struct Integrated {
    /// The integrated metadata.
    pub metadata: Metadata,
    /// One identifier mapping per operand, in operand order.
    pub maps: Vec<OperandMap>,
}

/// Integrates the metadata of all operands.
///
/// Always succeeds: any two valid metadata sets can be integrated. With
/// a single operand and default options the result is (structurally)
/// that operand's metadata.
pub fn integrate(operands: &[&Experiment], options: MergeOptions) -> Integrated {
    let mds: Vec<&Metadata> = operands.iter().map(|e| e.metadata()).collect();
    integrate_metadata(&mds, options)
}

/// [`integrate`] over bare [`Metadata`] references.
///
/// Integration is purely structural — severity never participates — so
/// operands that are not full [`Experiment`]s (a lazy columnar handle,
/// a metadata-only probe) integrate through this entry point. The
/// batch engine's [`crate::batch::BatchOperand`] sources route here.
pub fn integrate_metadata(operands: &[&Metadata], options: MergeOptions) -> Integrated {
    if let Some(same) = same_metadata(operands, options) {
        return same;
    }
    // An operand equal to an earlier one would find every key of its
    // pass present already and reproduce that operand's map.
    let twins: Vec<Option<usize>> = operands
        .iter()
        .enumerate()
        .map(|(i, src)| operands[..i].iter().position(|earlier| earlier == src))
        .collect();
    let distinct = operands
        .iter()
        .zip(&twins)
        .filter(|(_, twin)| twin.is_none())
        .map(|(src, _)| *src);
    let mut index = Index::new(options.call_site_eq, distinct);
    let mut md = Metadata::new();
    let mut maps: Vec<OperandMap> = Vec::with_capacity(operands.len());
    for (src, twin) in operands.iter().zip(twins) {
        let map = match twin {
            Some(j) => maps[j].clone(),
            None => OperandMap {
                metrics: index.merge_metrics(&mut md, src),
                call_nodes: index.merge_call_nodes(&mut md, src),
                ..OperandMap::default()
            },
        };
        maps.push(map);
    }
    integrate_system(md, maps, operands, options.system_mode)
}

/// Fast path: all metadata identical, and no forced collapse that
/// would restructure the system dimension.
fn same_metadata(operands: &[&Metadata], options: MergeOptions) -> Option<Integrated> {
    let first = *operands.first()?;
    let all_equal = operands.iter().all(|md| *md == first);
    let collapse_is_noop = options.system_mode != SystemMergeMode::Collapse
        || (first.machines().len() <= 1 && first.nodes().len() <= 1);
    if !(all_equal && collapse_is_noop) {
        return None;
    }
    let (nm, nc, nt) = first.shape();
    Some(Integrated {
        metadata: first.clone(),
        maps: operands
            .iter()
            .map(|_| OperandMap::identity(nm, nc, nt))
            .collect(),
    })
}

/// Appends the system dimension and the topologies to `md`, whose
/// metric and program dimensions are merged, and fills in each
/// operand's thread map.
fn integrate_system(
    mut md: Metadata,
    mut maps: Vec<OperandMap>,
    operands: &[&Metadata],
    mode: SystemMergeMode,
) -> Integrated {
    let thread_keys = build_system(&mut md, operands, mode);
    // Topologies: copy the first operand's topologies, remapping each
    // placement onto the integrated process table via the rank (the
    // system equality key). Later operands' topologies are ignored —
    // the same first-wins rule the merge operator uses for metrics.
    if let Some(src) = operands.first() {
        for topo in src.topologies() {
            let mut copy = cube_model::CartTopology::new(
                topo.name.clone(),
                topo.dims.clone(),
                topo.periodic.clone(),
            );
            for (p, c) in &topo.coords {
                let rank = src.process(*p).rank;
                if let Some(new_p) = md.find_process_by_rank(rank) {
                    copy.coords.push((new_p, c.clone()));
                }
            }
            md.add_topology(copy);
        }
    }
    for (src, map) in operands.iter().zip(maps.iter_mut()) {
        map.threads = src
            .threads()
            .iter()
            .map(|t| {
                let rank = src.process(t.process).rank;
                *thread_keys
                    .get(&(rank, t.number))
                    .expect("every operand thread is present in the integrated system")
            })
            .collect();
    }

    Integrated { metadata: md, maps }
}

// ---------------------------------------------------------------------------
// Metric and program dimensions
// ---------------------------------------------------------------------------

/// Hash indexes over the integrated metric and program tables (see the
/// module docs). `'a` is the lifetime of the operands' metadata, which
/// every key's strings borrow from.
struct Index<'a> {
    call_site_eq: CallSiteEq,
    metrics: HashMap<(Option<MetricId>, &'a str, Unit), MetricId>,
    modules: HashMap<&'a str, ModuleId>,
    regions: HashMap<(&'a str, &'a str), RegionId>,
    /// File and line are `("", 0)` under [`CallSiteEq::CalleeOnly`].
    call_sites: HashMap<(RegionId, &'a str, u32), CallSiteId>,
    call_nodes: HashMap<(Option<CallNodeId>, CallSiteId), CallNodeId>,
}

impl<'a> Index<'a> {
    /// Empty indexes with room for every entity of `operands`, the
    /// most the integrated tables can hold, so that no index rehashes
    /// while it fills.
    fn new<'b>(
        call_site_eq: CallSiteEq,
        operands: impl Iterator<Item = &'b Metadata> + Clone,
    ) -> Self {
        let room = |size: fn(&Metadata) -> usize| operands.clone().map(size).sum();
        Self {
            call_site_eq,
            metrics: HashMap::with_capacity(room(Metadata::num_metrics)),
            modules: HashMap::with_capacity(room(|md| md.modules().len())),
            regions: HashMap::with_capacity(room(|md| md.regions().len())),
            call_sites: HashMap::with_capacity(room(|md| md.call_sites().len())),
            call_nodes: HashMap::with_capacity(room(Metadata::num_call_nodes)),
        }
    }

    /// Merges `src`'s metric forest into `md`; returns where each of
    /// its metrics landed. A metric appended as new has no integrated
    /// children yet, so its whole subtree is appended too — the
    /// paper's subtree rule for free.
    fn merge_metrics(&mut self, md: &mut Metadata, src: &'a Metadata) -> Vec<MetricId> {
        let mut map = vec![MetricId::new(0); src.num_metrics()];
        let mut stack: Vec<(MetricId, Option<MetricId>)> = src
            .metric_roots()
            .iter()
            .rev()
            .map(|&r| (r, None))
            .collect();
        while let Some((sid, parent)) = stack.pop() {
            let sm = src.metric(sid);
            let nid = *self
                .metrics
                .entry((parent, sm.name.as_str(), sm.unit))
                .or_insert_with(|| {
                    md.add_metric(Metric {
                        name: sm.name.clone(),
                        unit: sm.unit,
                        description: sm.description.clone(),
                        parent,
                    })
                });
            map[sid.index()] = nid;
            // Reversed, so the first child is popped (visited) first.
            stack.extend(
                src.metric_children(sid)
                    .iter()
                    .rev()
                    .map(|&c| (c, Some(nid))),
            );
        }
        map
    }

    /// Merges `src`'s call forest into `md`, exactly like
    /// [`Index::merge_metrics`]; returns where each call node landed.
    fn merge_call_nodes(&mut self, md: &mut Metadata, src: &'a Metadata) -> Vec<CallNodeId> {
        let mut map = vec![CallNodeId::new(0); src.num_call_nodes()];
        let mut stack: Vec<(CallNodeId, Option<CallNodeId>)> =
            src.call_roots().iter().rev().map(|&r| (r, None)).collect();
        while let Some((sid, parent)) = stack.pop() {
            let call_site = self.call_site(md, src, src.call_node(sid).call_site);
            let nid = *self
                .call_nodes
                .entry((parent, call_site))
                .or_insert_with(|| md.add_call_node(CallNode { call_site, parent }));
            map[sid.index()] = nid;
            stack.extend(
                src.call_node_children(sid)
                    .iter()
                    .rev()
                    .map(|&c| (c, Some(nid))),
            );
        }
        map
    }

    /// The integrated call site equal to `src`'s call site `sid`,
    /// appended (with its callee) when there is none yet.
    fn call_site(&mut self, md: &mut Metadata, src: &'a Metadata, sid: CallSiteId) -> CallSiteId {
        let scs = src.call_site(sid);
        let callee = self.region(md, src, scs.callee);
        let key = match self.call_site_eq {
            CallSiteEq::CalleeOnly => (callee, "", 0),
            CallSiteEq::Strict => (callee, scs.file.as_str(), scs.line),
        };
        *self.call_sites.entry(key).or_insert_with(|| {
            md.add_call_site(CallSite {
                file: scs.file.clone(),
                line: scs.line,
                callee,
            })
        })
    }

    /// The integrated region equal to `src`'s region `sid`, appended
    /// (with its module, when that is new too) when there is none yet.
    fn region(&mut self, md: &mut Metadata, src: &'a Metadata, sid: RegionId) -> RegionId {
        let sr = src.region(sid);
        let sm = src.module(sr.module);
        *self
            .regions
            .entry((sr.name.as_str(), sm.name.as_str()))
            .or_insert_with(|| {
                let module = *self.modules.entry(sm.name.as_str()).or_insert_with(|| {
                    md.add_module(Module::new(sm.name.clone(), sm.path.clone()))
                });
                md.add_region(Region {
                    name: sr.name.clone(),
                    module,
                    kind: sr.kind,
                    begin_line: sr.begin_line,
                    end_line: sr.end_line,
                })
            })
    }
}

// ---------------------------------------------------------------------------
// System dimension
// ---------------------------------------------------------------------------

/// Builds the integrated system dimension and returns the lookup table
/// `(rank, thread number) → integrated thread id`.
fn build_system(
    md: &mut Metadata,
    operands: &[&Metadata],
    mode: SystemMergeMode,
) -> HashMap<(i32, u32), cube_model::ThreadId> {
    let collapse = match mode {
        SystemMergeMode::Collapse => true,
        SystemMergeMode::CopyFirst => false,
        SystemMergeMode::Auto => !partitions_compatible(operands),
    };

    // Union of processes: rank → (name, node index in first operand that
    // defines the rank), in deterministic order.
    struct ProcInfo {
        rank: i32,
        name: String,
        node_index: usize,
        /// thread number → name, ordered by number.
        threads: Vec<(u32, String)>,
    }
    let mut order: Vec<i32> = Vec::new();
    let mut procs: HashMap<i32, ProcInfo> = HashMap::new();
    for src in operands {
        for (pi, p) in src.processes().iter().enumerate() {
            let info = procs.entry(p.rank).or_insert_with(|| {
                order.push(p.rank);
                ProcInfo {
                    rank: p.rank,
                    name: p.name.clone(),
                    node_index: src.processes()[pi].node.index(),
                    threads: Vec::new(),
                }
            });
            for &tid in src.threads_of_process(cube_model::ProcessId::from_index(pi)) {
                let t = src.thread(tid);
                if !info.threads.iter().any(|(n, _)| *n == t.number) {
                    info.threads.push((t.number, t.name.clone()));
                }
            }
        }
    }
    for info in procs.values_mut() {
        info.threads.sort_by_key(|(n, _)| *n);
    }

    // Process order: first operand's order, then ranks first seen in
    // later operands — `order` already records first-seen order. Under
    // collapse, sort by rank for a fully canonical result.
    if collapse {
        order.sort_unstable();
    }

    let mut keys = HashMap::new();
    if collapse {
        let mach = md.add_machine(Machine::new("virtual machine"));
        let node = md.add_node(SystemNode::new("virtual node", mach));
        for rank in order {
            let info = &procs[&rank];
            let pid = md.add_process(Process::new(info.name.clone(), info.rank, node));
            for (num, name) in &info.threads {
                let tid = md.add_thread(Thread::new(name.clone(), *num, pid));
                keys.insert((rank, *num), tid);
            }
        }
    } else {
        // Copy the first operand's machine/node hierarchy.
        let first = operands[0];
        for m in first.machines() {
            md.add_machine(Machine::new(m.name.clone()));
        }
        for n in first.nodes() {
            md.add_node(SystemNode::new(n.name.clone(), n.machine));
        }
        if md.machines().is_empty() {
            // First operand had an empty system (degenerate); fall back to
            // a virtual hierarchy so later operands' processes have a home.
            let mach = md.add_machine(Machine::new("virtual machine"));
            md.add_node(SystemNode::new("virtual node", mach));
        }
        let num_nodes = md.nodes().len();
        for rank in order {
            let info = &procs[&rank];
            let node_index = info.node_index.min(num_nodes - 1);
            let pid = md.add_process(Process::new(
                info.name.clone(),
                info.rank,
                cube_model::NodeId::from_index(node_index),
            ));
            for (num, name) in &info.threads {
                let tid = md.add_thread(Thread::new(name.clone(), *num, pid));
                keys.insert((rank, *num), tid);
            }
        }
    }
    keys
}

/// Whether all operands agree on the machine/node structure and on the
/// placement of common ranks, so that copying the first operand's
/// hierarchy is faithful for every operand.
fn partitions_compatible(operands: &[&Metadata]) -> bool {
    let Some((f, rest)) = operands.split_first() else {
        return true;
    };
    let f_machines: Vec<&str> = f.machines().iter().map(|m| m.name.as_str()).collect();
    let f_nodes: Vec<(&str, usize)> = f
        .nodes()
        .iter()
        .map(|n| (n.name.as_str(), n.machine.index()))
        .collect();
    let f_rank_node: HashMap<i32, usize> = f
        .processes()
        .iter()
        .map(|p| (p.rank, p.node.index()))
        .collect();
    for o in rest {
        let o_machines: Vec<&str> = o.machines().iter().map(|m| m.name.as_str()).collect();
        let o_nodes: Vec<(&str, usize)> = o
            .nodes()
            .iter()
            .map(|n| (n.name.as_str(), n.machine.index()))
            .collect();
        if o_machines != f_machines || o_nodes != f_nodes {
            return false;
        }
        for p in o.processes() {
            if let Some(&fnode) = f_rank_node.get(&p.rank) {
                if fnode != p.node.index() {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use cube_model::builder::single_threaded_system;
    use cube_model::{ExperimentBuilder, RegionKind, Unit};

    fn base_builder(name: &str) -> ExperimentBuilder {
        ExperimentBuilder::new(name)
    }

    /// Experiment with metrics time>mpi, call tree main>solve, 2 ranks.
    fn exp_a() -> Experiment {
        let mut b = base_builder("a");
        let time = b.def_metric("time", Unit::Seconds, "", None);
        b.def_metric("mpi", Unit::Seconds, "", Some(time));
        let m = b.def_module("a.c", "/a.c");
        let main_r = b.def_region("main", m, RegionKind::Function, 1, 99);
        let solve_r = b.def_region("solve", m, RegionKind::Function, 10, 50);
        let cs0 = b.def_call_site("a.c", 1, main_r);
        let cs1 = b.def_call_site("a.c", 20, solve_r);
        let root = b.def_call_node(cs0, None);
        b.def_call_node(cs1, Some(root));
        single_threaded_system(&mut b, 2);
        b.build().unwrap()
    }

    /// Same program, but extra metric `flops`, extra call path `io`,
    /// and 3 ranks.
    fn exp_b() -> Experiment {
        let mut b = base_builder("b");
        let time = b.def_metric("time", Unit::Seconds, "", None);
        b.def_metric("mpi", Unit::Seconds, "", Some(time));
        b.def_metric("flops", Unit::Occurrences, "", None);
        let m = b.def_module("a.c", "/a.c");
        let main_r = b.def_region("main", m, RegionKind::Function, 1, 99);
        let solve_r = b.def_region("solve", m, RegionKind::Function, 10, 50);
        let io_r = b.def_region("io", m, RegionKind::Function, 60, 70);
        let cs0 = b.def_call_site("a.c", 1, main_r);
        let cs1 = b.def_call_site("a.c", 21, solve_r); // different line!
        let cs2 = b.def_call_site("a.c", 65, io_r);
        let root = b.def_call_node(cs0, None);
        b.def_call_node(cs1, Some(root));
        b.def_call_node(cs2, Some(root));
        single_threaded_system(&mut b, 3);
        b.build().unwrap()
    }

    #[test]
    fn identical_metadata_takes_fast_path() {
        let a = exp_a();
        let b = exp_a();
        let integrated = integrate(&[&a, &b], MergeOptions::default());
        assert_eq!(&integrated.metadata, a.metadata());
        assert!(integrated.maps.iter().all(|m| m.is_identity()));
    }

    #[test]
    fn single_operand_roundtrips() {
        let a = exp_a();
        let integrated = integrate(&[&a], MergeOptions::default());
        assert_eq!(&integrated.metadata, a.metadata());
        assert!(integrated.maps[0].is_identity());
    }

    #[test]
    fn metric_union_shares_common_metrics() {
        let a = exp_a();
        let b = exp_b();
        let i = integrate(&[&a, &b], MergeOptions::default());
        // time, mpi shared; flops appended → 3 metrics.
        assert_eq!(i.metadata.num_metrics(), 3);
        assert_eq!(i.maps[0].metrics.len(), 2);
        assert_eq!(i.maps[1].metrics.len(), 3);
        // Shared ids agree.
        assert_eq!(i.maps[0].metrics[0], i.maps[1].metrics[0]);
        assert_eq!(i.maps[0].metrics[1], i.maps[1].metrics[1]);
        i.metadata.validate().unwrap();
    }

    #[test]
    fn call_tree_union_with_callee_only_equality() {
        let a = exp_a();
        let b = exp_b();
        let i = integrate(&[&a, &b], MergeOptions::default());
        // main and solve shared (despite differing call-site lines),
        // io appended → 3 cnodes.
        assert_eq!(i.metadata.num_call_nodes(), 3);
        assert_eq!(i.maps[0].call_nodes[1], i.maps[1].call_nodes[1]);
    }

    #[test]
    fn strict_call_site_equality_separates_moved_lines() {
        let a = exp_a();
        let b = exp_b();
        let i = integrate(
            &[&a, &b],
            MergeOptions::default().with_call_site_eq(CallSiteEq::Strict),
        );
        // solve called from line 20 vs 21 → two distinct call paths now.
        assert_eq!(i.metadata.num_call_nodes(), 4);
        assert_ne!(i.maps[0].call_nodes[1], i.maps[1].call_nodes[1]);
        i.metadata.validate().unwrap();
    }

    #[test]
    fn system_union_matches_ranks() {
        let a = exp_a();
        let b = exp_b();
        let i = integrate(&[&a, &b], MergeOptions::default());
        assert_eq!(i.metadata.processes().len(), 3);
        assert_eq!(i.metadata.num_threads(), 3);
        // rank 0 and 1 shared between operands.
        assert_eq!(i.maps[0].threads[0], i.maps[1].threads[0]);
        assert_eq!(i.maps[0].threads[1], i.maps[1].threads[1]);
        i.metadata.validate().unwrap();
    }

    #[test]
    fn incompatible_partitions_collapse_by_default() {
        // Build b with two nodes (different partitioning).
        let a = exp_a();
        let mut bb = base_builder("two-node");
        bb.def_metric("time", Unit::Seconds, "", None);
        let m = bb.def_module("a.c", "/a.c");
        let main_r = bb.def_region("main", m, RegionKind::Function, 1, 99);
        let cs0 = bb.def_call_site("a.c", 1, main_r);
        bb.def_call_node(cs0, None);
        let mach = bb.def_machine("cluster");
        let n0 = bb.def_node("node0", mach);
        let n1 = bb.def_node("node1", mach);
        let p0 = bb.def_process("rank 0", 0, n0);
        let p1 = bb.def_process("rank 1", 1, n1);
        bb.def_thread("t", 0, p0);
        bb.def_thread("t", 0, p1);
        let b = bb.build().unwrap();

        let i = integrate(&[&a, &b], MergeOptions::default());
        assert_eq!(i.metadata.machines().len(), 1);
        assert_eq!(i.metadata.nodes().len(), 1);
        assert_eq!(
            i.metadata.machine(cube_model::MachineId::new(0)).name,
            "virtual machine"
        );
        assert_eq!(i.metadata.processes().len(), 2);
        i.metadata.validate().unwrap();
    }

    #[test]
    fn copy_first_keeps_hierarchy() {
        let a = exp_a();
        let b = exp_b();
        let i = integrate(
            &[&a, &b],
            MergeOptions::default().with_system_mode(SystemMergeMode::CopyFirst),
        );
        // exp_a's hierarchy: 1 machine, 1 node named "virtual node".
        assert_eq!(i.metadata.machines().len(), 1);
        assert_eq!(i.metadata.nodes().len(), 1);
        assert_eq!(i.metadata.processes().len(), 3);
        i.metadata.validate().unwrap();
    }

    #[test]
    fn compatible_partitions_copy_under_auto() {
        let a = exp_a();
        let b = exp_b();
        // Both use single_threaded_system → same machine/node names and
        // placements → compatible → copy (not collapse). The copied node
        // keeps exp_a's name.
        let i = integrate(&[&a, &b], MergeOptions::default());
        assert_eq!(i.metadata.nodes()[0].name, "virtual node");
        assert_eq!(i.metadata.machines().len(), 1);
    }

    #[test]
    fn mismatched_subtrees_duplicate_whole_subtree() {
        // a: root X with child C; b: root Y with child C. Roots differ →
        // C appears twice (once under each root), per the paper's rule.
        fn mk(root_name: &str) -> Experiment {
            let mut b = ExperimentBuilder::new(root_name);
            b.def_metric("time", Unit::Seconds, "", None);
            let m = b.def_module("a.c", "/a.c");
            let root_r = b.def_region(root_name, m, RegionKind::Function, 1, 99);
            let c_r = b.def_region("C", m, RegionKind::Function, 10, 20);
            let cs0 = b.def_call_site("a.c", 1, root_r);
            let cs1 = b.def_call_site("a.c", 15, c_r);
            let root = b.def_call_node(cs0, None);
            b.def_call_node(cs1, Some(root));
            single_threaded_system(&mut b, 1);
            b.build().unwrap()
        }
        let a = mk("X");
        let b = mk("Y");
        let i = integrate(&[&a, &b], MergeOptions::default());
        assert_eq!(i.metadata.num_call_nodes(), 4);
        assert_ne!(i.maps[0].call_nodes[1], i.maps[1].call_nodes[1]);
        i.metadata.validate().unwrap();
    }

    #[test]
    fn same_name_different_unit_not_matched() {
        fn mk(unit: Unit) -> Experiment {
            let mut b = ExperimentBuilder::new("u");
            b.def_metric("x", unit, "", None);
            let m = b.def_module("a", "a");
            let r = b.def_region("main", m, RegionKind::Function, 1, 1);
            let cs = b.def_call_site("a", 1, r);
            b.def_call_node(cs, None);
            single_threaded_system(&mut b, 1);
            b.build().unwrap()
        }
        let a = mk(Unit::Seconds);
        let b = mk(Unit::Bytes);
        let i = integrate(&[&a, &b], MergeOptions::default());
        assert_eq!(i.metadata.num_metrics(), 2);
    }

    #[test]
    fn deep_call_chains_integrate_without_recursion() {
        // A 100,000-deep chain against any other metadata takes the
        // slow path; on a 256 KiB stack a recursive merge overflows.
        fn chain(depth: usize, root_name: &str) -> Metadata {
            let mut md = Metadata::new();
            md.add_metric(Metric::root("time", Unit::Seconds, ""));
            let m = md.add_module(Module::new("a.c", "/a.c"));
            let mut parent = None;
            for i in 0..depth {
                let name = if i == 0 { root_name } else { "f" };
                let callee = md.add_region(Region {
                    name: name.into(),
                    module: m,
                    kind: RegionKind::Function,
                    begin_line: 1,
                    end_line: 1,
                });
                let call_site = md.add_call_site(CallSite {
                    file: "a.c".into(),
                    line: 1,
                    callee,
                });
                parent = Some(md.add_call_node(CallNode { call_site, parent }));
            }
            md
        }
        let handle = std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(|| {
                let a = chain(100_000, "main");
                let b = chain(3, "main");
                let i = integrate_metadata(&[&b, &a], MergeOptions::default());
                assert_eq!(i.metadata.num_call_nodes(), 100_000);
                assert_eq!(i.maps[1].call_nodes[99_999].index(), 99_999);
            })
            .unwrap();
        handle.join().expect("integration fits a small stack");
    }

    #[test]
    fn openmp_threads_matched_by_number() {
        fn mk(nthreads: u32) -> Experiment {
            let mut b = ExperimentBuilder::new("omp");
            b.def_metric("time", Unit::Seconds, "", None);
            let m = b.def_module("a", "a");
            let r = b.def_region("main", m, RegionKind::Function, 1, 1);
            let cs = b.def_call_site("a", 1, r);
            b.def_call_node(cs, None);
            let mach = b.def_machine("mach");
            let node = b.def_node("n0", mach);
            let p = b.def_process("rank 0", 0, node);
            for i in 0..nthreads {
                b.def_thread(format!("t{i}"), i, p);
            }
            b.build().unwrap()
        }
        let a = mk(2);
        let b = mk(4);
        let i = integrate(&[&a, &b], MergeOptions::default());
        assert_eq!(i.metadata.num_threads(), 4);
        assert_eq!(i.maps[0].threads.len(), 2);
        assert_eq!(i.maps[0].threads[1], i.maps[1].threads[1]);
    }
}
