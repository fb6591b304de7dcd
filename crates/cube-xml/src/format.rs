//! The CUBE experiment file format.
//!
//! [`write_experiment`] serializes an [`Experiment`] into the `.cube`
//! XML layout documented in the crate docs; [`read_experiment`] parses
//! it back. Identifiers are written explicitly and must be dense
//! (0..n in document order), mirroring the original format's reliance on
//! dense integer ids.
//!
//! Zero severities are omitted from the file: a `<row>` holding only
//! zeros is skipped, as is a `<matrix>` with no rows. On read, missing
//! tuples default to zero — the same zero-extension convention the
//! algebra uses.
//!
//! [`read_experiment`] and [`write_experiment`] run on the streaming
//! [`CubeReader`](crate::reader::CubeReader) /
//! [`CubeWriter`](crate::writer::CubeWriter) layer, which never builds
//! a DOM. The DOM-based implementations remain available as
//! [`read_experiment_dom`] and [`write_experiment_dom`] for tooling
//! that wants an [`Element`] tree, and as the differential-testing
//! oracle: both pipelines must produce identical results
//! (`tests/streaming_roundtrip.rs` checks byte equality).

use std::fmt::Write as _;
use std::path::Path;

use cube_model::{
    CallNodeId, CallSiteId, Experiment, MachineId, Metadata, MetricId, ModuleId, Provenance,
    RegionId, RegionKind, Severity, Unit,
};

use crate::dom::{Document, Element};
use crate::error::{Position, XmlError};
use crate::footer::{check_footer, footer_line, Crc32Writer, FooterStatus};
use crate::reader::ReadLimits;

/// Current format version written by this crate.
pub const FORMAT_VERSION: &str = "1.0";

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Serializes an experiment into a `.cube` XML string.
///
/// Streams through [`CubeWriter`](crate::writer::CubeWriter) into one
/// pre-sized buffer; no intermediate element tree or per-row strings
/// are built.
pub fn write_experiment(exp: &Experiment) -> String {
    String::from_utf8(write_experiment_bytes(exp)).expect("writer emits UTF-8 only")
}

/// [`write_experiment`] as raw bytes, for callers that send or hash
/// the document rather than read it as text: the same bytes, without
/// the UTF-8 re-validation pass over them.
pub fn write_experiment_bytes(exp: &Experiment) -> Vec<u8> {
    let (nm, nc, nt) = exp.severity().shape();
    // Rough pre-size: ~20 bytes per severity cell covers typical
    // shortest-float text plus markup; metadata is small next to that.
    let hint = 4096 + nm * nc * nt * 20;
    crate::writer::CubeWriter::new(Vec::with_capacity(hint))
        .write(exp)
        .expect("writing to a Vec cannot fail")
}

/// Serializes an experiment into a `.cube` XML string by building a
/// DOM [`Element`] tree first.
///
/// Byte-identical to [`write_experiment`]; kept for tooling that wants
/// to post-process the tree and as the streaming writer's test oracle.
pub fn write_experiment_dom(exp: &Experiment) -> String {
    let md = exp.metadata();
    let mut root = Element::new("cube")
        .attr("version", FORMAT_VERSION)
        .child(provenance_element(exp.provenance()))
        .child(metrics_element(md))
        .child(program_element(md))
        .child(system_element(md));
    if !md.topologies().is_empty() {
        root = root.child(topologies_element(md));
    }
    root = root.child(severity_element(exp));
    root.to_document_string()
}

/// How [`write_experiment_file_with`] commits an experiment to disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteOptions {
    /// Write through a same-directory temporary file, `sync_all`, then
    /// atomically rename over the target — a crash at any point leaves
    /// the pre-existing target byte-identical. Default `true`.
    pub durable: bool,
    /// Append the CRC-32 checksum footer (`docs/FORMAT.md` §10) so
    /// readers can detect silent corruption. Default `true`.
    pub checksum: bool,
}

impl Default for WriteOptions {
    fn default() -> Self {
        Self {
            durable: true,
            checksum: true,
        }
    }
}

/// Writes an experiment to a file: atomic, durable, and checksummed.
///
/// Streams directly into a buffered file handle — the document is
/// never materialized in memory. Equivalent to
/// [`write_experiment_file_with`] with [`WriteOptions::default`]: the
/// document is written to a temporary file in the target's directory,
/// synced, and renamed into place, so a crash mid-write never corrupts
/// a pre-existing target.
pub fn write_experiment_file(exp: &Experiment, path: impl AsRef<Path>) -> Result<(), XmlError> {
    write_experiment_file_with(exp, path, WriteOptions::default())
}

/// Writes an experiment to a file with explicit [`WriteOptions`].
///
/// I/O errors carry `path` (or the temporary path while staging).
pub fn write_experiment_file_with(
    exp: &Experiment,
    path: impl AsRef<Path>,
    options: WriteOptions,
) -> Result<(), XmlError> {
    let path = path.as_ref();
    if !options.durable {
        return write_file_direct(exp, path, options.checksum);
    }
    // Stage in the same directory so the final rename cannot cross a
    // filesystem boundary (cross-device renames are not atomic).
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let name = path
        .file_name()
        .ok_or_else(|| {
            XmlError::io_at(
                path,
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "target path has no file name",
                ),
            )
        })?
        .to_string_lossy()
        .into_owned();
    let tmp = dir.join(format!(".{name}.tmp.{}", std::process::id()));
    let res = (|| -> Result<(), XmlError> {
        write_file_direct(exp, &tmp, options.checksum)?;
        std::fs::rename(&tmp, path).map_err(|e| XmlError::io_at(path, e))
    })();
    if res.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    res
}

/// Streams the document into `path` directly (no staging), flushing
/// and syncing before returning so no buffered block can be silently
/// dropped at [`std::io::BufWriter`] drop time.
///
/// The checksum writer sits *inside* the buffer, so the CRC sees
/// whole buffered blocks rather than every tag and row piece on its
/// own; the buffer is flushed before its count and CRC are read.
fn write_file_direct(exp: &Experiment, path: &Path, checksum: bool) -> Result<(), XmlError> {
    use std::io::Write as _;
    let err = |e: std::io::Error| XmlError::io_at(path, e);
    let file = std::fs::File::create(path).map_err(err)?;
    let out = std::io::BufWriter::new(Crc32Writer::new(file));
    let mut out = match crate::writer::CubeWriter::new(out).write(exp) {
        Ok(out) => out,
        Err(XmlError::Io { source, .. }) => return Err(err(source)),
        Err(e) => return Err(e),
    };
    out.flush().map_err(err)?;
    if checksum {
        let summed = out.get_ref();
        let line = footer_line(summed.crc(), summed.len());
        // The footer itself is outside the checksummed region.
        out.write_all(line.as_bytes()).map_err(err)?;
    }
    let file = out
        .into_inner()
        .map_err(|e| err(e.into_error()))?
        .into_inner();
    file.sync_all().map_err(err)?;
    Ok(())
}

fn provenance_element(p: &Provenance) -> Element {
    match p {
        Provenance::Original { name } => Element::new("provenance")
            .attr("kind", "original")
            .attr("label", name.clone()),
        Provenance::Derived { operator, operands } => {
            let mut e = Element::new("provenance")
                .attr("kind", "derived")
                .attr("operator", operator.clone());
            for op in operands {
                e = e.child(Element::new("operand").text(op.clone()));
            }
            e
        }
        Provenance::Recovered { source, note } => Element::new("provenance")
            .attr("kind", "recovered")
            .attr("label", source.clone())
            .attr("note", note.clone()),
    }
}

fn metrics_element(md: &Metadata) -> Element {
    // Metric trees are written nested, in id order within each level.
    fn emit(md: &Metadata, id: MetricId) -> Element {
        let m = md.metric(id);
        let mut e = Element::new("metric")
            .attr("id", id.raw().to_string())
            .attr("name", m.name.clone())
            .attr("uom", m.unit.as_str())
            .attr("descr", m.description.clone());
        for &child in md.metric_children(id) {
            e = e.child(emit(md, child));
        }
        e
    }
    let mut out = Element::new("metrics");
    for &root in md.metric_roots() {
        out = out.child(emit(md, root));
    }
    out
}

fn program_element(md: &Metadata) -> Element {
    let mut out = Element::new("program");
    for (i, m) in md.modules().iter().enumerate() {
        out = out.child(
            Element::new("module")
                .attr("id", i.to_string())
                .attr("name", m.name.clone())
                .attr("path", m.path.clone()),
        );
    }
    for (i, r) in md.regions().iter().enumerate() {
        out = out.child(
            Element::new("region")
                .attr("id", i.to_string())
                .attr("mod", r.module.raw().to_string())
                .attr("name", r.name.clone())
                .attr("kind", r.kind.as_str())
                .attr("begin", r.begin_line.to_string())
                .attr("end", r.end_line.to_string()),
        );
    }
    for (i, cs) in md.call_sites().iter().enumerate() {
        out = out.child(
            Element::new("csite")
                .attr("id", i.to_string())
                .attr("file", cs.file.clone())
                .attr("line", cs.line.to_string())
                .attr("callee", cs.callee.raw().to_string()),
        );
    }
    // Call trees nested like metrics.
    fn emit(md: &Metadata, id: CallNodeId) -> Element {
        let n = md.call_node(id);
        let mut e = Element::new("cnode")
            .attr("id", id.raw().to_string())
            .attr("csite", n.call_site.raw().to_string());
        for &child in md.call_node_children(id) {
            e = e.child(emit(md, child));
        }
        e
    }
    for &root in md.call_roots() {
        out = out.child(emit(md, root));
    }
    out
}

fn system_element(md: &Metadata) -> Element {
    let mut out = Element::new("system");
    for (mi, machine) in md.machines().iter().enumerate() {
        let mid = MachineId::from_index(mi);
        let mut me = Element::new("machine")
            .attr("id", mi.to_string())
            .attr("name", machine.name.clone());
        for &nid in md.nodes_of_machine(mid) {
            let node = md.node(nid);
            let mut ne = Element::new("node")
                .attr("id", nid.raw().to_string())
                .attr("name", node.name.clone());
            for &pid in md.processes_of_node(nid) {
                let process = md.process(pid);
                let mut pe = Element::new("process")
                    .attr("id", pid.raw().to_string())
                    .attr("rank", process.rank.to_string())
                    .attr("name", process.name.clone());
                for &tid in md.threads_of_process(pid) {
                    let thread = md.thread(tid);
                    pe = pe.child(
                        Element::new("thread")
                            .attr("id", tid.raw().to_string())
                            .attr("num", thread.number.to_string())
                            .attr("name", thread.name.clone()),
                    );
                }
                ne = ne.child(pe);
            }
            me = me.child(ne);
        }
        out = out.child(me);
    }
    out
}

fn topologies_element(md: &Metadata) -> Element {
    let mut out = Element::new("topologies");
    for t in md.topologies() {
        let dims = t
            .dims
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join(" ");
        let periodic = t
            .periodic
            .iter()
            .map(|&p| if p { "1" } else { "0" })
            .collect::<Vec<_>>()
            .join(" ");
        let mut cart = Element::new("cart")
            .attr("name", t.name.clone())
            .attr("dims", dims)
            .attr("periodic", periodic);
        for (p, c) in &t.coords {
            let coord = c.iter().map(u32::to_string).collect::<Vec<_>>().join(" ");
            cart = cart.child(
                Element::new("coord")
                    .attr("proc", p.raw().to_string())
                    .text(coord),
            );
        }
        out = out.child(cart);
    }
    out
}

fn severity_element(exp: &Experiment) -> Element {
    let md = exp.metadata();
    let sev = exp.severity();
    let mut out = Element::new("severity");
    for m in md.metric_ids() {
        let mut matrix = Element::new("matrix").attr("metric", m.raw().to_string());
        let mut has_rows = false;
        for c in md.call_node_ids() {
            let row = sev.row(m, c);
            if row.iter().all(|&v| v == 0.0) {
                continue;
            }
            has_rows = true;
            let mut text = String::new();
            for (i, v) in row.iter().enumerate() {
                if i > 0 {
                    text.push(' ');
                }
                // Deliberately std's formatter, not `fmt64`: the DOM
                // writer is the differential oracle, and an independent
                // formatting path makes the byte-equality tests a real
                // cross-check of the streaming writer's fast paths.
                let _ = write!(text, "{v}");
            }
            matrix = matrix.child(
                Element::new("row")
                    .attr("cnode", c.raw().to_string())
                    .text(text),
            );
        }
        if has_rows {
            out = out.child(matrix);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// Parses a `.cube` XML string into an experiment.
///
/// Runs the streaming [`CubeReader`](crate::reader::CubeReader), which
/// falls back to [`read_experiment_dom`] only for documents that store
/// `<severity>` before the metadata sections. When the document carries
/// a checksum footer (`docs/FORMAT.md` §10), it is verified first —
/// silent corruption that would still parse is refused with
/// [`XmlError::Checksum`].
pub fn read_experiment(input: &str) -> Result<Experiment, XmlError> {
    verify_footer(input)?;
    crate::reader::CubeReader::new(input).read()
}

fn verify_footer(input: &str) -> Result<(), XmlError> {
    match check_footer(input) {
        FooterStatus::Mismatch { expected, actual } => Err(XmlError::Checksum { expected, actual }),
        FooterStatus::Absent | FooterStatus::Valid => Ok(()),
    }
}

/// Parses a `.cube` XML string into an experiment through the DOM.
///
/// Equivalent to [`read_experiment`]; kept as the
/// order-independent fallback and as the streaming reader's test
/// oracle.
pub fn read_experiment_dom(input: &str) -> Result<Experiment, XmlError> {
    let doc = Document::parse(input)?;
    if doc.root.name != "cube" {
        return Err(XmlError::format(format!(
            "root element is <{}>, expected <cube>",
            doc.root.name
        )));
    }

    let provenance = read_provenance(&doc.root)?;
    let mut md = Metadata::new();

    // --- metrics (nested; ids may be permuted relative to document
    // order because the writer nests trees while ids follow creation
    // order) ---
    let metrics = doc.root.require_element("metrics")?;
    let mut metric_recs: Vec<(u32, Option<u32>, &Element)> = Vec::new();
    for m in metrics.elements("metric") {
        collect_nested(m, "metric", None, &mut metric_recs)?;
    }
    sort_dense("metric", &mut metric_recs)?;
    for (id, parent, e) in &metric_recs {
        if let Some(p) = parent {
            if p >= id {
                return Err(XmlError::format(format!(
                    "metric {id} appears before its parent {p}"
                )));
            }
        }
        let uom = e.require_attr("uom")?;
        let unit = Unit::from_str_opt(uom)
            .ok_or_else(|| XmlError::value(format!("unknown unit of measurement '{uom}'")))?;
        md.add_metric(cube_model::Metric {
            name: e.require_attr("name")?.to_string(),
            unit,
            description: e.get_attr("descr").unwrap_or("").to_string(),
            parent: parent.map(MetricId::new),
        });
    }

    // --- program ---
    let program = doc.root.require_element("program")?;
    for (i, e) in program.elements("module").enumerate() {
        check_dense_id(e, i)?;
        md.add_module(cube_model::Module::new(
            e.require_attr("name")?,
            e.get_attr("path").unwrap_or(""),
        ));
    }
    for (i, e) in program.elements("region").enumerate() {
        check_dense_id(e, i)?;
        let kind_raw = e.require_attr("kind")?;
        let kind = RegionKind::from_str_opt(kind_raw)
            .ok_or_else(|| XmlError::value(format!("unknown region kind '{kind_raw}'")))?;
        md.add_region(cube_model::Region {
            name: e.require_attr("name")?.to_string(),
            module: ModuleId::new(e.parse_attr("mod")?),
            kind,
            begin_line: e.parse_attr("begin")?,
            end_line: e.parse_attr("end")?,
        });
    }
    for (i, e) in program.elements("csite").enumerate() {
        check_dense_id(e, i)?;
        md.add_call_site(cube_model::CallSite {
            file: e.require_attr("file")?.to_string(),
            line: e.parse_attr("line")?,
            callee: RegionId::new(e.parse_attr("callee")?),
        });
    }
    let mut cnode_recs: Vec<(u32, Option<u32>, &Element)> = Vec::new();
    for e in program.elements("cnode") {
        collect_nested(e, "cnode", None, &mut cnode_recs)?;
    }
    sort_dense("cnode", &mut cnode_recs)?;
    for (id, parent, e) in &cnode_recs {
        if let Some(p) = parent {
            if p >= id {
                return Err(XmlError::format(format!(
                    "cnode {id} appears before its parent {p}"
                )));
            }
        }
        md.add_call_node(cube_model::CallNode {
            call_site: CallSiteId::new(e.parse_attr("csite")?),
            parent: parent.map(CallNodeId::new),
        });
    }

    // --- system ---
    // The hierarchy is nested by machine/node, but ids follow creation
    // order, which interleaves levels (e.g. ranks placed round-robin
    // over nodes). Collect every level, then add entities in id order
    // so that severity columns keep their meaning.
    let system = doc.root.require_element("system")?;
    let mut machines: Vec<(u32, &Element)> = Vec::new();
    let mut sys_nodes: Vec<(u32, u32, &Element)> = Vec::new();
    let mut processes: Vec<(u32, u32, &Element)> = Vec::new();
    let mut threads: Vec<(u32, u32, &Element)> = Vec::new();
    for me in system.elements("machine") {
        let mid: u32 = me.parse_attr("id")?;
        machines.push((mid, me));
        for ne in me.elements("node") {
            let nid: u32 = ne.parse_attr("id")?;
            sys_nodes.push((nid, mid, ne));
            for pe in ne.elements("process") {
                let pid: u32 = pe.parse_attr("id")?;
                processes.push((pid, nid, pe));
                for te in pe.elements("thread") {
                    threads.push((te.parse_attr("id")?, pid, te));
                }
            }
        }
    }
    sort_dense_sys("machine", &mut machines, |m| m.0)?;
    sort_dense_sys("node", &mut sys_nodes, |n| n.0)?;
    sort_dense_sys("process", &mut processes, |p| p.0)?;
    sort_dense_sys("thread", &mut threads, |t| t.0)?;
    for (_, me) in &machines {
        md.add_machine(cube_model::Machine::new(me.require_attr("name")?));
    }
    for (_, mid, ne) in &sys_nodes {
        md.add_node(cube_model::SystemNode::new(
            ne.require_attr("name")?,
            cube_model::MachineId::new(*mid),
        ));
    }
    for (_, nid, pe) in &processes {
        md.add_process(cube_model::Process::new(
            pe.require_attr("name")?,
            pe.parse_attr("rank")?,
            cube_model::NodeId::new(*nid),
        ));
    }
    for (_, pid, te) in &threads {
        md.add_thread(cube_model::Thread::new(
            te.require_attr("name")?,
            te.parse_attr("num")?,
            cube_model::ProcessId::new(*pid),
        ));
    }

    // --- topologies (optional) ---
    if let Some(topologies) = doc.root.element("topologies") {
        for cart in topologies.elements("cart") {
            let parse_list = |key: &str| -> Result<Vec<u32>, XmlError> {
                cart.require_attr(key)?
                    .split_ascii_whitespace()
                    .map(|tok| {
                        tok.parse::<u32>().map_err(|_| {
                            XmlError::value(format!("bad topology {key} entry '{tok}'"))
                        })
                    })
                    .collect()
            };
            let dims = parse_list("dims")?;
            let periodic: Vec<bool> = parse_list("periodic")?
                .into_iter()
                .map(|v| v != 0)
                .collect();
            let mut topo =
                cube_model::CartTopology::new(cart.require_attr("name")?, dims, periodic);
            for coord in cart.elements("coord") {
                let proc_id: u32 = coord.parse_attr("proc")?;
                let c: Vec<u32> = coord
                    .text_content()
                    .split_ascii_whitespace()
                    .map(|tok| {
                        tok.parse::<u32>()
                            .map_err(|_| XmlError::value(format!("bad coordinate entry '{tok}'")))
                    })
                    .collect::<Result<_, _>>()?;
                topo.coords.push((cube_model::ProcessId::new(proc_id), c));
            }
            md.add_topology(topo);
        }
    }

    // --- severity ---
    let (nm, nc, nt) = md.shape();
    let mut sev = Severity::zeros(nm, nc, nt);
    if let Some(severity) = doc.root.element("severity") {
        for matrix in severity.elements("matrix") {
            let m: u32 = matrix.parse_attr("metric")?;
            if m as usize >= nm {
                return Err(XmlError::value(format!(
                    "matrix metric id {m} out of range"
                )));
            }
            for row in matrix.elements("row") {
                let c: u32 = row.parse_attr("cnode")?;
                if c as usize >= nc {
                    return Err(XmlError::value(format!("row cnode id {c} out of range")));
                }
                let text = row.text_content();
                let dest = sev.row_mut(MetricId::new(m), CallNodeId::new(c));
                let mut count = 0usize;
                for (i, tok) in text.split_ascii_whitespace().enumerate() {
                    if i >= dest.len() {
                        return Err(XmlError::value(format!(
                            "row (metric {m}, cnode {c}) has more than {} values",
                            dest.len()
                        )));
                    }
                    dest[i] = tok.parse().map_err(|_| {
                        XmlError::value(format!(
                            "severity value '{tok}' in row (metric {m}, cnode {c}) is not a number"
                        ))
                    })?;
                    count += 1;
                }
                if count != dest.len() {
                    return Err(XmlError::value(format!(
                        "row (metric {m}, cnode {c}) has {count} values, expected {}",
                        dest.len()
                    )));
                }
            }
        }
    }

    Experiment::new(md, sev, provenance).map_err(Into::into)
}

/// Reads an experiment from a file. I/O errors carry `path`.
///
/// The raw bytes pass through the [`crate::faults`] seam (site
/// `xml.file`) before decoding, so a fault harness can exercise the
/// parse-error and checksum paths with real corruption.
pub fn read_experiment_file(path: impl AsRef<Path>) -> Result<Experiment, XmlError> {
    let path = path.as_ref();
    let mut bytes = std::fs::read(path).map_err(|e| XmlError::io_at(path, e))?;
    if let Some(e) = crate::faults::inject("xml.file", &mut bytes) {
        return Err(XmlError::io_at(path, e));
    }
    let input = String::from_utf8(bytes)
        .map_err(|_| XmlError::value(format!("{}: file is not UTF-8", path.display())))?;
    read_experiment(&input)
}

// ---------------------------------------------------------------------------
// Salvage
// ---------------------------------------------------------------------------

/// What [`read_experiment_salvage`] managed to recover, and what not.
#[derive(Clone, Debug)]
pub struct SalvageReport {
    /// `true` when the document read cleanly end to end with a valid or
    /// absent checksum — the result equals what [`read_experiment`]
    /// would return, and the provenance is left untouched.
    pub complete: bool,
    /// Severity rows recovered intact (each committed atomically; a row
    /// torn mid-number is dropped whole).
    pub rows_recovered: usize,
    /// Description of the first unrecoverable defect, when any.
    pub loss: Option<String>,
    /// Position of that defect, when known.
    pub position: Option<Position>,
    /// The structure being parsed when the defect hit (e.g.
    /// `severity matrix for metric 'time' (id 0), cnode 3`), so
    /// recovery messages can name the metric and row, not just a byte
    /// offset. The message format is documented in `docs/FORMAT.md`
    /// §10.
    pub context: Option<String>,
    /// Outcome of the checksum footer verification.
    pub checksum: FooterStatus,
}

/// Reads the longest valid prefix of a damaged `.cube` document.
///
/// The metadata sections must be complete — without them there is no
/// shape to recover into, and the result is an error. Past that point
/// the reader keeps everything assembled before the first defect:
/// complete metadata, every intact severity row (zero-extension covers
/// the rest, mirroring the algebra's convention), and the stored
/// provenance. When anything was lost — or the checksum footer proves
/// the bytes were altered — the experiment's provenance is rewrapped as
/// [`Provenance::Recovered`] so the damage stays visible through any
/// downstream algebra.
///
/// Documents that store `<severity>` before the metadata fall back to
/// the DOM reader and recover only when they parse completely.
pub fn read_experiment_salvage(input: &str) -> Result<(Experiment, SalvageReport), XmlError> {
    read_experiment_salvage_with(input, ReadLimits::default())
}

/// [`read_experiment_salvage`] with explicit [`ReadLimits`].
pub fn read_experiment_salvage_with(
    input: &str,
    limits: ReadLimits,
) -> Result<(Experiment, SalvageReport), XmlError> {
    read_experiment_salvage_as(input, None, limits)
}

/// [`read_experiment_salvage_with`] with an explicit *origin* — the
/// name the recovery provenance note should call the damaged document.
///
/// Salvage often runs over bytes that no longer sit where the user
/// thinks of them: a staging temp file, or an object inside a
/// hash-sharded repository. The note is the one place the damage stays
/// visible downstream, so it should name the document by its durable
/// identity — e.g. the repository-relative path `objects/ab/….cubec` —
/// not whatever transient path the bytes were read from. With
/// `origin: None` the note format is unchanged.
pub fn read_experiment_salvage_as(
    input: &str,
    origin: Option<&str>,
    limits: ReadLimits,
) -> Result<(Experiment, SalvageReport), XmlError> {
    let checksum = check_footer(input);
    let (mut exp, report) = match crate::reader::read_streaming_salvage(input, limits)? {
        Some((md, sev, prov, info)) => {
            let exp = Experiment::new(md, sev, prov)?;
            let report = SalvageReport {
                complete: info.loss.is_none() && !checksum.is_mismatch(),
                rows_recovered: info.rows_recovered,
                loss: info.loss,
                position: info.position,
                context: info.context,
                checksum,
            };
            (exp, report)
        }
        // Severity stored before the metadata: the salvage pass cannot
        // size the matrix either, so only a full DOM parse recovers.
        None => {
            let exp = read_experiment_dom(input)?;
            let report = SalvageReport {
                complete: !checksum.is_mismatch(),
                rows_recovered: 0,
                loss: None,
                position: None,
                context: None,
                checksum,
            };
            (exp, report)
        }
    };
    if !report.complete {
        // Recovery-note format (normative, docs/FORMAT.md §10):
        //   "[ORIGIN: ]damaged[ at L:C][ in CONTEXT]; N rows recovered"
        // or "[ORIGIN: ]checksum mismatch; N rows recovered".
        let mut what = match (&report.loss, report.position) {
            (Some(_), Some(p)) => format!("damaged at {p}"),
            (Some(_), None) => "damaged".to_string(),
            (None, _) => "checksum mismatch".to_string(),
        };
        if report.loss.is_some() {
            if let Some(ctx) = &report.context {
                what = format!("{what} in {ctx}");
            }
        }
        let mut note = format!("{what}; {} rows recovered", report.rows_recovered);
        if let Some(origin) = origin {
            note = format!("{origin}: {note}");
        }
        let source = exp.provenance().label();
        exp.set_provenance(Provenance::recovered(source, note));
    }
    Ok((exp, report))
}

/// Reads and salvages a `.cube` file on disk. I/O errors carry `path`.
pub fn read_experiment_salvage_file(
    path: impl AsRef<Path>,
) -> Result<(Experiment, SalvageReport), XmlError> {
    read_experiment_salvage_file_as(path, None)
}

/// [`read_experiment_salvage_file`] with an explicit *origin* for the
/// recovery provenance note (see [`read_experiment_salvage_as`]);
/// `None` keeps the note unprefixed.
pub fn read_experiment_salvage_file_as(
    path: impl AsRef<Path>,
    origin: Option<&str>,
) -> Result<(Experiment, SalvageReport), XmlError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| XmlError::io_at(path, e))?;
    // Damaged files may be torn mid-UTF-8-sequence; lossy conversion
    // keeps the valid prefix readable.
    read_experiment_salvage_as(
        &String::from_utf8_lossy(&bytes),
        origin,
        ReadLimits::default(),
    )
}

fn read_provenance(root: &Element) -> Result<Provenance, XmlError> {
    let Some(p) = root.element("provenance") else {
        return Ok(Provenance::default());
    };
    match p.get_attr("kind") {
        Some("original") | None => Ok(Provenance::original(
            p.get_attr("label").unwrap_or("unnamed experiment"),
        )),
        Some("derived") => Ok(Provenance::derived(
            p.get_attr("operator").unwrap_or("unknown"),
            p.elements("operand").map(|o| o.text_content()).collect(),
        )),
        Some("recovered") => Ok(Provenance::recovered(
            p.get_attr("label").unwrap_or("unnamed experiment"),
            p.get_attr("note").unwrap_or(""),
        )),
        Some(other) => Err(XmlError::value(format!(
            "unknown provenance kind '{other}'"
        ))),
    }
}

/// Collects a nested tree of same-named elements into `(id, parent id,
/// element)` records.
fn collect_nested<'a>(
    e: &'a Element,
    tag: &'a str,
    parent: Option<u32>,
    out: &mut Vec<(u32, Option<u32>, &'a Element)>,
) -> Result<(), XmlError> {
    let id: u32 = e.parse_attr("id")?;
    out.push((id, parent, e));
    for child in e.elements(tag) {
        collect_nested(child, tag, Some(id), out)?;
    }
    Ok(())
}

/// Sorts records by id and verifies the ids are exactly `0..n`.
fn sort_dense(what: &str, recs: &mut [(u32, Option<u32>, &Element)]) -> Result<(), XmlError> {
    recs.sort_by_key(|(id, _, _)| *id);
    for (expected, (id, _, _)) in recs.iter().enumerate() {
        if *id as usize != expected {
            return Err(XmlError::format(format!(
                "<{what}> ids must be dense 0..{}: found {id}, expected {expected}",
                recs.len()
            )));
        }
    }
    Ok(())
}

fn check_dense_id(e: &Element, expected: usize) -> Result<(), XmlError> {
    let id: usize = e.parse_attr("id")?;
    if id != expected {
        return Err(XmlError::format(format!(
            "<{}> ids must be dense and in document order: found {id}, expected {expected}",
            e.name
        )));
    }
    Ok(())
}

/// Sorts system-level records by id and verifies density.
fn sort_dense_sys<T>(
    what: &str,
    recs: &mut [T],
    id_of: impl Fn(&T) -> u32,
) -> Result<(), XmlError> {
    recs.sort_by_key(|r| id_of(r));
    for (expected, r) in recs.iter().enumerate() {
        if id_of(r) as usize != expected {
            return Err(XmlError::format(format!(
                "<{what}> ids must be dense 0..{}: found {}, expected {expected}",
                recs.len(),
                id_of(r)
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cube_model::builder::single_threaded_system;
    use cube_model::{ExperimentBuilder, RegionKind, Unit};

    fn sample() -> Experiment {
        let mut b = ExperimentBuilder::new("xml sample");
        let time = b.def_metric("time", Unit::Seconds, "total", None);
        let mpi = b.def_metric("mpi", Unit::Seconds, "MPI", Some(time));
        let visits = b.def_metric("visits", Unit::Occurrences, "visits", None);
        let m = b.def_module("a.c", "/src/a.c");
        let main_r = b.def_region("main", m, RegionKind::Function, 1, 90);
        let solve_r = b.def_region("solve", m, RegionKind::Function, 10, 80);
        let cs0 = b.def_call_site("a.c", 1, main_r);
        let cs1 = b.def_call_site("a.c", 30, solve_r);
        let root = b.def_call_node(cs0, None);
        let solve = b.def_call_node(cs1, Some(root));
        let ts = single_threaded_system(&mut b, 3);
        for (i, &t) in ts.iter().enumerate() {
            b.set_severity(time, root, t, 1.0 + i as f64 * 0.125);
            b.set_severity(time, solve, t, 2.0);
            b.set_severity(mpi, solve, t, 0.5);
            b.set_severity(visits, root, t, 1.0);
        }
        b.build().unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let e = sample();
        let xml = write_experiment(&e);
        let back = read_experiment(&xml).unwrap();
        assert!(back.approx_eq(&e, 0.0), "severity or metadata changed");
        assert_eq!(back.provenance(), e.provenance());
    }

    #[test]
    fn derived_provenance_roundtrips() {
        let mut e = sample();
        e.set_provenance(Provenance::derived(
            "difference",
            vec!["old".into(), "new".into()],
        ));
        let back = read_experiment(&write_experiment(&e)).unwrap();
        assert_eq!(back.provenance(), e.provenance());
    }

    #[test]
    fn zero_rows_are_omitted() {
        let e = sample();
        let xml = write_experiment(&e);
        // The `mpi` matrix only has the `solve` row; the root row is all
        // zeros and must not appear.
        let mpi_matrix = xml
            .split("<matrix metric=\"1\">")
            .nth(1)
            .unwrap()
            .split("</matrix>")
            .next()
            .unwrap();
        assert!(mpi_matrix.contains("cnode=\"1\""));
        assert!(!mpi_matrix.contains("cnode=\"0\""));
    }

    #[test]
    fn exact_float_roundtrip() {
        let mut e = sample();
        let vals = e.severity_mut().values_mut();
        vals[0] = 0.1 + 0.2; // 0.30000000000000004
        vals[1] = -1e-300;
        vals[2] = 12_345_678_901_234.568;
        let back = read_experiment(&write_experiment(&e)).unwrap();
        assert_eq!(back.severity().values(), e.severity().values());
    }

    #[test]
    fn negative_severities_allowed() {
        let mut e = sample();
        e.severity_mut().values_mut()[0] = -3.25;
        let back = read_experiment(&write_experiment(&e)).unwrap();
        assert_eq!(back.severity().values()[0], -3.25);
    }

    #[test]
    fn special_characters_in_names() {
        let mut b = ExperimentBuilder::new("weird <\"name\"> & co");
        let t = b.def_metric("m<1>", Unit::Seconds, "desc & \"more\"", None);
        let m = b.def_module("a&b.c", "/path/'q'");
        let r = b.def_region("op<>&", m, RegionKind::Loop, 1, 2);
        let cs = b.def_call_site("a&b.c", 1, r);
        let root = b.def_call_node(cs, None);
        let ts = single_threaded_system(&mut b, 1);
        b.set_severity(t, root, ts[0], 1.0);
        let e = b.build().unwrap();
        let back = read_experiment(&write_experiment(&e)).unwrap();
        assert!(back.approx_eq(&e, 0.0));
        assert_eq!(back.provenance().label(), "weird <\"name\"> & co");
    }

    #[test]
    fn wrong_root_rejected() {
        assert!(matches!(
            read_experiment("<notcube/>"),
            Err(XmlError::Format { .. })
        ));
    }

    #[test]
    fn missing_sections_rejected() {
        assert!(read_experiment("<cube version=\"1.0\"/>").is_err());
    }

    #[test]
    fn non_dense_ids_rejected() {
        let e = sample();
        let xml = write_experiment(&e).replace("<metric id=\"0\"", "<metric id=\"7\"");
        assert!(read_experiment(&xml).is_err());
    }

    #[test]
    fn out_of_range_matrix_rejected() {
        let e = sample();
        let xml = write_experiment(&e).replace("<matrix metric=\"0\">", "<matrix metric=\"99\">");
        assert!(read_experiment(&xml).is_err());
    }

    #[test]
    fn short_row_rejected() {
        let e = sample();
        let xml = write_experiment(&e);
        // Remove one value from the first row.
        let row_start = xml.find("<row cnode=\"0\">").unwrap();
        let row_end = xml[row_start..].find("</row>").unwrap() + row_start;
        let row = &xml[row_start..row_end];
        let shortened = row.rsplit_once(' ').unwrap().0.to_string();
        let bad = format!("{}{}{}", &xml[..row_start], shortened, &xml[row_end..]);
        assert!(read_experiment(&bad).is_err());
    }

    #[test]
    fn garbage_severity_value_rejected() {
        let e = sample();
        let xml = write_experiment(&e);
        let bad = xml.replacen("2 2 2", "2 fish 2", 1);
        assert!(read_experiment(&bad).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let e = sample();
        let dir = std::env::temp_dir().join("cube_xml_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.cube");
        write_experiment_file(&e, &path).unwrap();
        let back = read_experiment_file(&path).unwrap();
        assert!(back.approx_eq(&e, 0.0));
        std::fs::remove_file(path).ok();
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("cube_xml_test").join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn written_file_carries_valid_footer() {
        let e = sample();
        let dir = tmp_dir("footer");
        let path = dir.join("footer.cube");
        write_experiment_file(&e, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(check_footer(&text), FooterStatus::Valid);
        // Old readers must still parse: the DOM path ignores the
        // trailing comment.
        assert!(read_experiment_dom(&text).unwrap().approx_eq(&e, 0.0));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn no_checksum_option_omits_footer() {
        let e = sample();
        let dir = tmp_dir("nofooter");
        let path = dir.join("plain.cube");
        write_experiment_file_with(
            &e,
            &path,
            WriteOptions {
                durable: false,
                checksum: false,
            },
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(check_footer(&text), FooterStatus::Absent);
        assert_eq!(text, write_experiment(&e));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupted_checksummed_file_is_refused() {
        let e = sample();
        let dir = tmp_dir("corrupt");
        let path = dir.join("bad.cube");
        write_experiment_file(&e, &path).unwrap();
        // Flip one severity digit: the document still parses, only the
        // checksum can tell.
        let text = std::fs::read_to_string(&path).unwrap();
        let bad = text.replacen("2 2 2", "2 9 2", 1);
        assert_ne!(bad, text);
        let err = read_experiment(&bad).unwrap_err();
        assert!(matches!(err, XmlError::Checksum { .. }), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn failed_write_leaves_existing_target_untouched() {
        let e = sample();
        let dir = tmp_dir("atomic");
        let path = dir.join("target.cube");
        std::fs::write(&path, b"precious bytes").unwrap();
        // Writing into a directory that does not exist fails while
        // staging; the target must be byte-identical afterwards.
        let missing = dir.join("no_such_subdir").join("x.cube");
        assert!(write_experiment_file(&e, &missing).is_err());
        // A same-directory failure: make the temp location collide with
        // a directory so File::create fails.
        let tmp_collision = dir.join(format!(".target.cube.tmp.{}", std::process::id()));
        std::fs::create_dir_all(&tmp_collision).unwrap();
        assert!(write_experiment_file(&e, &path).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"precious bytes");
        std::fs::remove_dir(&tmp_collision).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn io_errors_carry_the_path() {
        let e = sample();
        let missing = Path::new("/nonexistent/definitely/not/here.cube");
        let err = write_experiment_file(&e, missing).unwrap_err();
        assert!(err.to_string().contains("here.cube"), "{err}");
        let err = read_experiment_file(missing).unwrap_err();
        assert!(err.to_string().contains("here.cube"), "{err}");
    }

    #[test]
    fn salvage_of_intact_document_is_complete() {
        let e = sample();
        let xml = write_experiment(&e);
        let (back, report) = read_experiment_salvage(&xml).unwrap();
        assert!(report.complete, "{report:?}");
        assert!(back.approx_eq(&e, 0.0));
        assert_eq!(back.provenance(), e.provenance());
        assert_eq!(report.checksum, FooterStatus::Absent);
    }

    #[test]
    fn salvage_of_truncated_document_recovers_prefix() {
        let e = sample();
        let xml = write_experiment(&e);
        let cut = xml.rfind("<row").unwrap() + 4;
        let (back, report) = read_experiment_salvage(&xml[..cut]).unwrap();
        assert!(!report.complete);
        assert!(report.loss.is_some());
        assert!(back.provenance().is_recovered(), "{:?}", back.provenance());
        assert_eq!(back.metadata(), e.metadata());
        // The recovered experiment must itself round-trip and lint.
        let rexml = write_experiment(&back);
        let again = read_experiment(&rexml).unwrap();
        assert_eq!(again.provenance(), back.provenance());
    }

    #[test]
    fn salvage_flags_checksum_mismatch_as_incomplete() {
        let e = sample();
        let dir = tmp_dir("salvage_crc");
        let path = dir.join("s.cube");
        write_experiment_file(&e, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let bad = text.replacen("2 2 2", "2 9 2", 1);
        let (back, report) = read_experiment_salvage(&bad).unwrap();
        assert!(!report.complete);
        assert!(report.checksum.is_mismatch());
        assert!(back.provenance().is_recovered());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn salvage_fails_without_complete_metadata() {
        let e = sample();
        let xml = write_experiment(&e);
        let cut = xml.find("<system>").unwrap();
        assert!(read_experiment_salvage(&xml[..cut]).is_err());
    }

    #[test]
    fn missing_provenance_defaults() {
        let e = sample();
        let xml = write_experiment(&e);
        // Strip the provenance element entirely.
        let start = xml.find("<provenance").unwrap();
        let end = xml[start..].find("/>").unwrap() + start + 2;
        let stripped = format!("{}{}", &xml[..start], &xml[end..]);
        let back = read_experiment(&stripped).unwrap();
        assert!(!back.provenance().is_derived());
    }
}
