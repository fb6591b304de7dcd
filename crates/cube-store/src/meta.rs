//! Encoding and decoding of the METADATA section: a string dictionary
//! followed by the provenance record, the severity shape, and the
//! entity tables of all three dimensions in a fixed order.
//!
//! Strings are interned in first-use order, so encoding the same
//! experiment always yields the same bytes — the canonical-encoding
//! property the `pack(unpack(x)) == x` law relies on. The byte-level
//! field order is specified in `docs/STORE.md` §4.

use std::collections::HashMap;

use cube_model::{
    CallNode, CallNodeId, CallSite, CallSiteId, CartTopology, Machine, MachineId, Metadata, Metric,
    MetricId, Module, ModuleId, NodeId, Process, ProcessId, Provenance, Region, RegionKind,
    SystemNode, Thread, Unit,
};
use cube_xml::{LimitKind, ReadLimits};

use crate::error::StoreError;
use crate::layout::{Cursor, NONE_ID};

// ---------------------------------------------------------------------------
// encoding
// ---------------------------------------------------------------------------

/// String interner: first occurrence assigns the next dictionary id.
#[derive(Default)]
struct Dict {
    strings: Vec<String>,
    index: HashMap<String, u32>,
}

impl Dict {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.index.get(s) {
            return id;
        }
        let id = self.strings.len() as u32;
        self.strings.push(s.to_string());
        self.index.insert(s.to_string(), id);
        id
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn opt_id(id: Option<impl IdIndex>) -> u32 {
    id.map_or(NONE_ID, |i| i.as_u32())
}

/// Unifies the dense id types for encoding.
trait IdIndex {
    fn as_u32(&self) -> u32;
}

macro_rules! impl_id_index {
    ($($t:ty),*) => {$(
        impl IdIndex for $t {
            fn as_u32(&self) -> u32 {
                self.index() as u32
            }
        }
    )*}
}

impl_id_index!(MetricId, ModuleId, CallSiteId, CallNodeId, MachineId, NodeId, ProcessId);

fn unit_code(u: Unit) -> u8 {
    match u {
        Unit::Seconds => 0,
        Unit::Bytes => 1,
        Unit::Occurrences => 2,
    }
}

fn region_kind_code(k: RegionKind) -> u8 {
    match k {
        RegionKind::Function => 0,
        RegionKind::Loop => 1,
        RegionKind::UserRegion => 2,
    }
}

/// Encodes metadata and provenance into METADATA-section bytes.
pub fn encode_metadata(md: &Metadata, prov: &Provenance) -> Vec<u8> {
    let mut dict = Dict::default();
    let mut body = Vec::new();

    // Provenance record.
    match prov {
        Provenance::Original { name } => {
            body.push(0u8);
            put_u32(&mut body, dict.intern(name));
        }
        Provenance::Derived { operator, operands } => {
            body.push(1u8);
            put_u32(&mut body, dict.intern(operator));
            put_u32(&mut body, operands.len() as u32);
            for op in operands {
                put_u32(&mut body, dict.intern(op));
            }
        }
        Provenance::Recovered { source, note } => {
            body.push(2u8);
            put_u32(&mut body, dict.intern(source));
            put_u32(&mut body, dict.intern(note));
        }
    }

    // Severity shape.
    let (nm, nc, nt) = md.shape();
    put_u32(&mut body, nm as u32);
    put_u32(&mut body, nc as u32);
    put_u32(&mut body, nt as u32);

    // Entity tables, each `count` then fixed-width records in id order.
    put_u32(&mut body, md.metrics().len() as u32);
    for m in md.metrics() {
        put_u32(&mut body, dict.intern(&m.name));
        put_u32(&mut body, dict.intern(&m.description));
        body.push(unit_code(m.unit));
        put_u32(&mut body, opt_id(m.parent));
    }

    put_u32(&mut body, md.modules().len() as u32);
    for m in md.modules() {
        put_u32(&mut body, dict.intern(&m.name));
        put_u32(&mut body, dict.intern(&m.path));
    }

    put_u32(&mut body, md.regions().len() as u32);
    for r in md.regions() {
        put_u32(&mut body, dict.intern(&r.name));
        put_u32(&mut body, r.module.index() as u32);
        body.push(region_kind_code(r.kind));
        put_u32(&mut body, r.begin_line);
        put_u32(&mut body, r.end_line);
    }

    put_u32(&mut body, md.call_sites().len() as u32);
    for cs in md.call_sites() {
        put_u32(&mut body, dict.intern(&cs.file));
        put_u32(&mut body, cs.line);
        put_u32(&mut body, cs.callee.index() as u32);
    }

    put_u32(&mut body, md.call_nodes().len() as u32);
    for cn in md.call_nodes() {
        put_u32(&mut body, cn.call_site.index() as u32);
        put_u32(&mut body, opt_id(cn.parent));
    }

    put_u32(&mut body, md.machines().len() as u32);
    for m in md.machines() {
        put_u32(&mut body, dict.intern(&m.name));
    }

    put_u32(&mut body, md.nodes().len() as u32);
    for n in md.nodes() {
        put_u32(&mut body, dict.intern(&n.name));
        put_u32(&mut body, n.machine.index() as u32);
    }

    put_u32(&mut body, md.processes().len() as u32);
    for p in md.processes() {
        put_u32(&mut body, dict.intern(&p.name));
        put_u32(&mut body, p.rank as u32); // two's complement
        put_u32(&mut body, p.node.index() as u32);
    }

    put_u32(&mut body, md.threads().len() as u32);
    for t in md.threads() {
        put_u32(&mut body, dict.intern(&t.name));
        put_u32(&mut body, t.number);
        put_u32(&mut body, t.process.index() as u32);
    }

    put_u32(&mut body, md.topologies().len() as u32);
    for t in md.topologies() {
        put_u32(&mut body, dict.intern(&t.name));
        put_u32(&mut body, t.dims.len() as u32);
        for &d in &t.dims {
            put_u32(&mut body, d);
        }
        for &p in &t.periodic {
            body.push(u8::from(p));
        }
        put_u32(&mut body, t.coords.len() as u32);
        for (p, c) in &t.coords {
            put_u32(&mut body, p.index() as u32);
            for &x in c {
                put_u32(&mut body, x);
            }
        }
    }

    // Dictionary first, then the body that references it.
    let mut out = Vec::with_capacity(body.len() + 64);
    put_u32(&mut out, dict.strings.len() as u32);
    for s in &dict.strings {
        put_u32(&mut out, s.len() as u32);
        out.extend_from_slice(s.as_bytes());
    }
    out.extend_from_slice(&body);
    out
}

// ---------------------------------------------------------------------------
// decoding
// ---------------------------------------------------------------------------

struct Decoder<'a> {
    cur: Cursor<'a>,
    dict: Vec<&'a str>,
    max_entities: usize,
}

impl<'a> Decoder<'a> {
    fn count(&mut self, what: &str) -> Result<usize, StoreError> {
        let n = self.cur.u32(what)? as usize;
        if n > self.max_entities {
            return Err(StoreError::Limit {
                kind: LimitKind::Entities,
                message: format!(
                    "{what} {n} exceeds the limit of {} entities",
                    self.max_entities
                ),
            });
        }
        Ok(n)
    }

    fn string(&mut self, what: &str) -> Result<String, StoreError> {
        let id = self.cur.u32(what)? as usize;
        self.dict.get(id).map(|s| s.to_string()).ok_or_else(|| {
            StoreError::format(format!(
                "bad dictionary: {what} references string {id} of {}",
                self.dict.len()
            ))
        })
    }

    fn opt_id(&mut self, what: &str) -> Result<Option<u32>, StoreError> {
        let v = self.cur.u32(what)?;
        Ok(if v == NONE_ID { None } else { Some(v) })
    }
}

fn decode_unit(code: u8) -> Result<Unit, StoreError> {
    match code {
        0 => Ok(Unit::Seconds),
        1 => Ok(Unit::Bytes),
        2 => Ok(Unit::Occurrences),
        _ => Err(StoreError::format(format!("unknown unit code {code}"))),
    }
}

fn decode_region_kind(code: u8) -> Result<RegionKind, StoreError> {
    match code {
        0 => Ok(RegionKind::Function),
        1 => Ok(RegionKind::Loop),
        2 => Ok(RegionKind::UserRegion),
        _ => Err(StoreError::format(format!(
            "unknown region kind code {code}"
        ))),
    }
}

/// Enforces [`ReadLimits::max_depth`] on a metric or call-node forest,
/// given each entity's parent in id order.
///
/// The XML reader counts element nesting: `<cube>`, then the section
/// element, then one open element per ancestor, while the leaf closes
/// itself. A tree of depth `d` thus nests `d + 1` deep there, so the
/// binary format admits trees up to `max_depth - 1` levels — exactly
/// the ones the XML reader accepts — and the recursive tree walks
/// downstream (the XML writer, display) stay bounded on either format.
///
/// A parent must come before its child, as the XML reader requires
/// too. A forward reference is refused as a format error, so every
/// parent chain strictly decreases and the chain walks of validation
/// and lint stay linear.
fn check_tree_depth(
    parents: impl Iterator<Item = Option<usize>>,
    limits: &ReadLimits,
    what: &str,
) -> Result<(), StoreError> {
    let max_tree = limits.max_depth.saturating_sub(1);
    let mut depth: Vec<usize> = Vec::new();
    for (i, parent) in parents.enumerate() {
        let d = match parent {
            Some(p) if p < i => depth[p] + 1,
            Some(p) => {
                return Err(StoreError::format(format!(
                    "{what} {i} appears before its parent {p}"
                )))
            }
            None => 1,
        };
        if d > max_tree {
            return Err(StoreError::Limit {
                kind: LimitKind::Depth,
                message: format!(
                    "{what} tree depth {d} exceeds the limit of {max_tree} \
                     (element nesting depth {})",
                    limits.max_depth
                ),
            });
        }
        depth.push(d);
    }
    Ok(())
}

/// Decodes METADATA-section bytes back into metadata and provenance.
///
/// Dangling cross-references (a region pointing past the module table)
/// are *not* rejected here — they surface through
/// [`Metadata::validate`] exactly like in the XML reader, so both
/// formats share one diagnosis path. Dictionary references and enum
/// codes *are* checked, because nothing downstream would, and so are
/// the metric and call trees: each parent must precede its child, as
/// in the XML reader, and the depth is bounded, since downstream tree
/// walks would otherwise have to survive any depth.
pub fn decode_metadata(
    bytes: &[u8],
    limits: &ReadLimits,
) -> Result<(Metadata, Provenance), StoreError> {
    let mut cur = Cursor::new(bytes);
    let nstrings = cur.u32("dictionary count")? as usize;
    if nstrings > limits.max_entities {
        return Err(StoreError::Limit {
            kind: LimitKind::Entities,
            message: format!(
                "dictionary defines {nstrings} strings, exceeding the limit of {} entities",
                limits.max_entities
            ),
        });
    }
    let mut dict = Vec::with_capacity(nstrings.min(1 << 16));
    for i in 0..nstrings {
        let len = cur.u32("dictionary string length")? as usize;
        let raw = cur.bytes(len, "dictionary string")?;
        let s = std::str::from_utf8(raw).map_err(|_| {
            StoreError::format(format!("bad dictionary: string {i} is not valid UTF-8"))
        })?;
        dict.push(s);
    }
    let mut d = Decoder {
        cur,
        dict,
        max_entities: limits.max_entities,
    };

    let prov = match d.cur.u8("provenance kind")? {
        0 => Provenance::original(d.string("provenance name")?),
        1 => {
            let operator = d.string("provenance operator")?;
            let n = d.count("provenance operand count")?;
            let mut operands = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                operands.push(d.string("provenance operand")?);
            }
            Provenance::derived(operator, operands)
        }
        2 => {
            let source = d.string("provenance source")?;
            let note = d.string("provenance note")?;
            Provenance::recovered(source, note)
        }
        k => {
            return Err(StoreError::format(format!(
                "unknown provenance kind code {k}"
            )))
        }
    };

    let nm = d.cur.u32("metric shape")? as usize;
    let nc = d.cur.u32("call-node shape")? as usize;
    let nt = d.cur.u32("thread shape")? as usize;

    let mut md = Metadata::new();

    let n = d.count("metric count")?;
    for _ in 0..n {
        let name = d.string("metric name")?;
        let description = d.string("metric description")?;
        let unit = decode_unit(d.cur.u8("metric unit")?)?;
        let parent = d.opt_id("metric parent")?.map(MetricId::new);
        md.add_metric(Metric {
            name,
            unit,
            description,
            parent,
        });
    }
    check_tree_depth(
        md.metrics().iter().map(|m| m.parent.map(MetricId::index)),
        limits,
        "metric",
    )?;

    let n = d.count("module count")?;
    for _ in 0..n {
        let name = d.string("module name")?;
        let path = d.string("module path")?;
        md.add_module(Module::new(name, path));
    }

    let n = d.count("region count")?;
    for _ in 0..n {
        let name = d.string("region name")?;
        let module = ModuleId::new(d.cur.u32("region module")?);
        let kind = decode_region_kind(d.cur.u8("region kind")?)?;
        let begin_line = d.cur.u32("region begin line")?;
        let end_line = d.cur.u32("region end line")?;
        md.add_region(Region {
            name,
            module,
            kind,
            begin_line,
            end_line,
        });
    }

    let n = d.count("call-site count")?;
    for _ in 0..n {
        let file = d.string("call-site file")?;
        let line = d.cur.u32("call-site line")?;
        let callee = cube_model::RegionId::new(d.cur.u32("call-site callee")?);
        md.add_call_site(CallSite { file, line, callee });
    }

    let n = d.count("call-node count")?;
    for _ in 0..n {
        let call_site = CallSiteId::new(d.cur.u32("call-node site")?);
        let parent = d.opt_id("call-node parent")?.map(CallNodeId::new);
        md.add_call_node(CallNode { call_site, parent });
    }
    check_tree_depth(
        md.call_nodes()
            .iter()
            .map(|c| c.parent.map(CallNodeId::index)),
        limits,
        "call node",
    )?;

    let n = d.count("machine count")?;
    for _ in 0..n {
        let name = d.string("machine name")?;
        md.add_machine(Machine::new(name));
    }

    let n = d.count("node count")?;
    for _ in 0..n {
        let name = d.string("node name")?;
        let machine = MachineId::new(d.cur.u32("node machine")?);
        md.add_node(SystemNode::new(name, machine));
    }

    let n = d.count("process count")?;
    for _ in 0..n {
        let name = d.string("process name")?;
        let rank = d.cur.u32("process rank")? as i32;
        let node = NodeId::new(d.cur.u32("process node")?);
        md.add_process(Process::new(name, rank, node));
    }

    let n = d.count("thread count")?;
    for _ in 0..n {
        let name = d.string("thread name")?;
        let number = d.cur.u32("thread number")?;
        let process = ProcessId::new(d.cur.u32("thread process")?);
        md.add_thread(Thread::new(name, number, process));
    }

    let n = d.count("topology count")?;
    for _ in 0..n {
        let name = d.string("topology name")?;
        let ndims = d.count("topology dimension count")?;
        let mut dims = Vec::with_capacity(ndims.min(1 << 8));
        for _ in 0..ndims {
            dims.push(d.cur.u32("topology dimension")?);
        }
        let mut periodic = Vec::with_capacity(ndims.min(1 << 8));
        for _ in 0..ndims {
            periodic.push(d.cur.u8("topology periodicity")? != 0);
        }
        let ncoords = d.count("topology coordinate count")?;
        let mut topo = CartTopology::new(name, dims, periodic);
        for _ in 0..ncoords {
            let p = ProcessId::new(d.cur.u32("topology process")?);
            let mut c = Vec::with_capacity(ndims.min(1 << 8));
            for _ in 0..ndims {
                c.push(d.cur.u32("topology coordinate")?);
            }
            topo.coords.push((p, c));
        }
        md.add_topology(topo);
    }

    if d.cur.remaining() != 0 {
        return Err(StoreError::format(format!(
            "metadata section has {} trailing bytes",
            d.cur.remaining()
        )));
    }
    if md.shape() != (nm, nc, nt) {
        return Err(StoreError::format(format!(
            "declared shape {:?} disagrees with the entity tables {:?}",
            (nm, nc, nt),
            md.shape()
        )));
    }
    Ok((md, prov))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cube_model::builder::single_threaded_system;
    use cube_model::ExperimentBuilder;

    fn sample() -> (Metadata, Provenance) {
        let mut b = ExperimentBuilder::new("meta roundtrip");
        let time = b.def_metric("time", Unit::Seconds, "total", None);
        b.def_metric("mpi", Unit::Seconds, "mpi", Some(time));
        let m = b.def_module("a.c", "/src/a.c");
        let r = b.def_region("main", m, RegionKind::Function, 1, 40);
        let cs = b.def_call_site("a.c", 3, r);
        let root = b.def_call_node(cs, None);
        b.def_call_node(cs, Some(root));
        let ts = single_threaded_system(&mut b, 2);
        let exp = b.build().unwrap();
        let _ = ts;
        (exp.metadata().clone(), exp.provenance().clone())
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let (md, prov) = sample();
        let bytes = encode_metadata(&md, &prov);
        let (md2, prov2) = decode_metadata(&bytes, &ReadLimits::default()).unwrap();
        assert_eq!(md, md2);
        assert_eq!(prov, prov2);
    }

    #[test]
    fn encoding_is_deterministic() {
        let (md, prov) = sample();
        assert_eq!(encode_metadata(&md, &prov), encode_metadata(&md, &prov));
    }

    #[test]
    fn derived_and_recovered_provenance_roundtrip() {
        let (md, _) = sample();
        for prov in [
            Provenance::derived("mean", vec!["a".into(), "b".into()]),
            Provenance::recovered("run 1", "damaged; 2 rows recovered"),
        ] {
            let bytes = encode_metadata(&md, &prov);
            let (_, p2) = decode_metadata(&bytes, &ReadLimits::default()).unwrap();
            assert_eq!(prov, p2);
        }
    }

    #[test]
    fn negative_rank_roundtrips_via_twos_complement() {
        let mut md = Metadata::new();
        let mach = md.add_machine(Machine::new("m"));
        let node = md.add_node(SystemNode::new("n", mach));
        let p = md.add_process(Process::new("p", -3, node));
        md.add_thread(Thread::new("t", 0, p));
        md.add_metric(Metric::root("time", Unit::Seconds, ""));
        let m = md.add_module(Module::new("a", "a"));
        let r = md.add_region(Region {
            name: "main".into(),
            module: m,
            kind: RegionKind::Function,
            begin_line: 1,
            end_line: 1,
        });
        let cs = md.add_call_site(CallSite {
            file: "a".into(),
            line: 1,
            callee: r,
        });
        md.add_call_node(CallNode {
            call_site: cs,
            parent: None,
        });
        let bytes = encode_metadata(&md, &Provenance::original("x"));
        let (md2, _) = decode_metadata(&bytes, &ReadLimits::default()).unwrap();
        assert_eq!(md2.processes()[0].rank, -3);
    }

    #[test]
    fn bad_dictionary_reference_is_rejected() {
        let (md, prov) = sample();
        let mut bytes = encode_metadata(&md, &prov);
        // The provenance name ref sits right after the dictionary and
        // the 1-byte kind tag; point it past the dictionary.
        let dict_end = {
            let mut cur = Cursor::new(&bytes);
            let n = cur.u32("count").unwrap();
            let mut pos = 4;
            for _ in 0..n {
                let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
                pos += 4 + len;
            }
            pos
        };
        bytes[dict_end + 1..dict_end + 5].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_metadata(&bytes, &ReadLimits::default()).unwrap_err();
        assert!(err.to_string().contains("bad dictionary"), "{err}");
    }

    #[test]
    fn entity_limit_is_enforced() {
        let (md, prov) = sample();
        let bytes = encode_metadata(&md, &prov);
        let limits = ReadLimits {
            max_entities: 1,
            ..ReadLimits::default()
        };
        let err = decode_metadata(&bytes, &limits).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Limit {
                    kind: LimitKind::Entities,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let (md, prov) = sample();
        let mut bytes = encode_metadata(&md, &prov);
        bytes.push(0);
        let err = decode_metadata(&bytes, &ReadLimits::default()).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }
}
