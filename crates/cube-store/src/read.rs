//! The `.cubec` readers: strict full decode, lazy columnar open, and
//! the salvage path for damaged files.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use cube_algebra::BatchOperand;
use cube_model::{Experiment, Metadata, Provenance, Severity};
use cube_xml::footer::crc32;
use cube_xml::{FooterStatus, LimitKind, ReadLimits};

use crate::error::StoreError;
use crate::layout::{
    chunk_count, decode_f64s, Cursor, Section, FOOTER_LEN, FOOTER_MAGIC, HEADER_LEN, MAGIC,
    SECTION_ENTRY_LEN, SEC_CHUNKCRC, SEC_METADATA, SEC_SEVERITY, VERSION,
};
use crate::meta::decode_metadata;

// ---------------------------------------------------------------------------
// container structure
// ---------------------------------------------------------------------------

/// The three section-table entries every version-1 file carries.
struct Sections {
    meta: Section,
    crcs: Section,
    sev: Section,
}

fn check_input_len(len: u64, limits: &ReadLimits) -> Result<(), StoreError> {
    if len > limits.max_input_bytes as u64 {
        return Err(StoreError::Limit {
            kind: LimitKind::InputBytes,
            message: format!(
                "file is {len} bytes, exceeding the limit of {} bytes",
                limits.max_input_bytes
            ),
        });
    }
    Ok(())
}

/// Parses the fixed header, returning `(section_count, table_offset)`.
fn parse_header(buf: &[u8]) -> Result<(usize, u64), StoreError> {
    let mut cur = Cursor::new(buf);
    let magic = cur.bytes(8, "file magic")?;
    if magic != MAGIC {
        return Err(StoreError::format("magic bytes do not match"));
    }
    let version = cur.u32("format version")?;
    if version != VERSION {
        return Err(StoreError::format(format!(
            "unsupported format version {version} (this reader understands {VERSION})"
        )));
    }
    let section_count = cur.u32("section count")? as usize;
    let table_offset = cur.u64("section table offset")?;
    Ok((section_count, table_offset))
}

/// Parses the section table and picks out the three known sections.
fn parse_sections(table: &[u8], count: usize, file_len: u64) -> Result<Sections, StoreError> {
    let (mut meta, mut crcs, mut sev) = (None, None, None);
    for i in 0..count {
        let s = Section::decode(&table[i * SECTION_ENTRY_LEN..])?;
        if s.offset % 8 != 0 {
            return Err(StoreError::format(format!(
                "section {} offset {} is not 8-byte aligned",
                s.kind, s.offset
            )));
        }
        if s.offset
            .checked_add(s.length)
            .is_none_or(|end| end > file_len)
        {
            return Err(StoreError::format(format!(
                "section {} extends past the end of the file",
                s.kind
            )));
        }
        let slot = match s.kind {
            SEC_METADATA => &mut meta,
            SEC_CHUNKCRC => &mut crcs,
            SEC_SEVERITY => &mut sev,
            _ => continue, // unknown sections are skippable by design
        };
        if slot.replace(s).is_some() {
            return Err(StoreError::format(format!(
                "duplicate section of kind {}",
                s.kind
            )));
        }
    }
    match (meta, crcs, sev) {
        (Some(meta), Some(crcs), Some(sev)) => Ok(Sections { meta, crcs, sev }),
        (None, _, _) => Err(StoreError::format("missing metadata section")),
        (_, None, _) => Err(StoreError::format("missing chunk-CRC section")),
        (_, _, None) => Err(StoreError::format("missing severity section")),
    }
}

fn verify_section(bytes: &[u8], s: &Section, name: &str) -> Result<(), StoreError> {
    let actual = crc32(bytes);
    if actual != s.crc {
        return Err(StoreError::Checksum {
            expected: s.crc,
            actual,
            context: format!("{name} section"),
        });
    }
    Ok(())
}

/// Decodes the chunk-CRC section: `(values per chunk, per-chunk CRCs)`.
fn parse_chunk_table(bytes: &[u8], sev_len: usize) -> Result<(usize, Vec<u32>), StoreError> {
    let mut cur = Cursor::new(bytes);
    let chunk_values = cur.u32("chunk size")? as usize;
    if chunk_values == 0 {
        return Err(StoreError::format("chunk size of zero values"));
    }
    let n = cur.u32("chunk count")? as usize;
    if n != chunk_count(sev_len, chunk_values) {
        return Err(StoreError::format(format!(
            "chunk table lists {n} chunks but the severity section needs {}",
            chunk_count(sev_len, chunk_values)
        )));
    }
    let mut crcs = Vec::with_capacity(n);
    for _ in 0..n {
        crcs.push(cur.u32("chunk CRC")?);
    }
    if cur.remaining() != 0 {
        return Err(StoreError::format("chunk table has trailing bytes"));
    }
    Ok((chunk_values, crcs))
}

/// Checks the 16-byte footer against the file, returning the XML
/// layer's [`FooterStatus`] so both formats report integrity the same
/// way. `Absent` means the trailer is missing or mangled beyond
/// recognition (e.g. the file was truncated).
pub fn check_store_footer(bytes: &[u8]) -> FooterStatus {
    if bytes.len() < FOOTER_LEN {
        return FooterStatus::Absent;
    }
    let tail = &bytes[bytes.len() - FOOTER_LEN..];
    if tail[12..16] != FOOTER_MAGIC {
        return FooterStatus::Absent;
    }
    let recorded_len = u64::from_le_bytes(tail[4..12].try_into().unwrap());
    if recorded_len != bytes.len() as u64 {
        return FooterStatus::Absent;
    }
    let expected = u32::from_le_bytes(tail[0..4].try_into().unwrap());
    let actual = crc32(&bytes[..bytes.len() - FOOTER_LEN]);
    if expected == actual {
        FooterStatus::Valid
    } else {
        FooterStatus::Mismatch { expected, actual }
    }
}

/// Names the first severity tuple a chunk covers, for recovery and
/// corruption messages: `severity chunk K (metric 'NAME', cnode C)`.
fn chunk_context(md: &Metadata, chunk: usize, chunk_values: usize) -> String {
    let (_, nc, nt) = md.shape();
    let v = chunk * chunk_values;
    if nc == 0 || nt == 0 {
        return format!("severity chunk {chunk}");
    }
    let m = v / (nc * nt);
    let c = (v / nt) % nc;
    match md.metrics().get(m) {
        Some(metric) => format!(
            "severity chunk {chunk} (metric '{}', cnode {c})",
            metric.name
        ),
        None => format!("severity chunk {chunk}"),
    }
}

// ---------------------------------------------------------------------------
// strict full decode
// ---------------------------------------------------------------------------

/// Decodes a complete in-memory `.cubec` image, verifying the footer,
/// every section CRC, and every severity chunk CRC.
pub fn read_store(bytes: &[u8], limits: &ReadLimits) -> Result<Experiment, StoreError> {
    check_input_len(bytes.len() as u64, limits)?;
    let (md, sev, prov) = read_store_parts(bytes, limits)?;
    Experiment::new(md, sev, prov).map_err(StoreError::Model)
}

/// Like [`read_store`] but returns the raw parts without running the
/// data-model validation, so the linter can report *all* model
/// violations instead of the first.
pub fn read_store_parts(
    bytes: &[u8],
    limits: &ReadLimits,
) -> Result<(Metadata, Severity, Provenance), StoreError> {
    match check_store_footer(bytes) {
        FooterStatus::Valid => {}
        FooterStatus::Absent => {
            return Err(StoreError::format(
                "missing or truncated footer (every writer-produced file ends in CEND)",
            ))
        }
        FooterStatus::Mismatch { expected, actual } => {
            return Err(StoreError::Checksum {
                expected,
                actual,
                context: "whole file".into(),
            })
        }
    }
    if bytes.len() < HEADER_LEN + FOOTER_LEN {
        return Err(StoreError::format("file is shorter than header + footer"));
    }
    let (count, table_off) = parse_header(&bytes[..HEADER_LEN])?;
    let table_end = table_off as usize + count * SECTION_ENTRY_LEN;
    if table_end > bytes.len() - FOOTER_LEN {
        return Err(StoreError::format("section table extends past the file"));
    }
    let sections = parse_sections(
        &bytes[table_off as usize..table_end],
        count,
        (bytes.len() - FOOTER_LEN) as u64,
    )?;

    let meta_bytes = section_bytes(bytes, &sections.meta);
    verify_section(meta_bytes, &sections.meta, "metadata")?;
    let (md, prov) = decode_metadata(meta_bytes, limits)?;

    let crc_bytes = section_bytes(bytes, &sections.crcs);
    verify_section(crc_bytes, &sections.crcs, "chunk-CRC")?;
    let sev_bytes = section_bytes(bytes, &sections.sev);
    let (chunk_values, crcs) = parse_chunk_table(crc_bytes, sev_bytes.len())?;

    let (nm, nc, nt) = md.shape();
    if sev_bytes.len() != nm * nc * nt * 8 {
        return Err(StoreError::format(format!(
            "severity section is {} bytes but the shape {:?} needs {}",
            sev_bytes.len(),
            (nm, nc, nt),
            nm * nc * nt * 8
        )));
    }
    for (k, chunk) in sev_bytes.chunks(chunk_values * 8).enumerate() {
        let actual = crc32(chunk);
        if actual != crcs[k] {
            return Err(StoreError::Checksum {
                expected: crcs[k],
                actual,
                context: chunk_context(&md, k, chunk_values),
            });
        }
    }
    let sev = Severity::from_values(nm, nc, nt, decode_f64s(sev_bytes));
    Ok((md, sev, prov))
}

fn section_bytes<'a>(bytes: &'a [u8], s: &Section) -> &'a [u8] {
    &bytes[s.offset as usize..(s.offset + s.length) as usize]
}

/// Reads and strictly decodes a `.cubec` file with default limits.
pub fn read_store_file(path: impl AsRef<Path>) -> Result<Experiment, StoreError> {
    read_store_file_with(path, &ReadLimits::default())
}

/// Reads and strictly decodes a `.cubec` file with explicit limits.
pub fn read_store_file_with(
    path: impl AsRef<Path>,
    limits: &ReadLimits,
) -> Result<Experiment, StoreError> {
    let path = path.as_ref();
    let bytes = read_limited(path, limits)?;
    read_store(&bytes, limits)
}

/// Reads a file after checking its size against the input limit, so an
/// oversized file is refused before its bytes are pulled in. The bytes
/// pass through the [`cube_xml::faults`] seam (site `store.file`) so a
/// fault harness can exercise the strict-read and salvage paths.
fn read_limited(path: &Path, limits: &ReadLimits) -> Result<Vec<u8>, StoreError> {
    let err = |e: std::io::Error| StoreError::io_at(path, e);
    let len = std::fs::metadata(path).map_err(err)?.len();
    check_input_len(len, limits)?;
    let mut bytes = std::fs::read(path).map_err(err)?;
    if let Some(e) = cube_xml::faults::inject("store.file", &mut bytes) {
        return Err(StoreError::io_at(path, e));
    }
    Ok(bytes)
}

// ---------------------------------------------------------------------------
// lazy columnar handle
// ---------------------------------------------------------------------------

/// A `.cubec` file opened lazily: metadata decoded, severity pages left
/// on disk until first touch.
///
/// Opening reads only the header, section table, metadata section, and
/// chunk-CRC table — a few kilobytes regardless of how large the
/// severity data is. The dense severity values are loaded (and their
/// chunk CRCs verified) on the first call to
/// [`severity`](Self::severity) and cached; the batch engine gathers
/// straight from that borrowed page via the
/// [`BatchOperand`] impl, never materializing an
/// [`Experiment`].
pub struct ColumnarExperiment {
    path: PathBuf,
    metadata: Metadata,
    provenance: Provenance,
    sev_offset: u64,
    sev_len: usize,
    chunk_values: usize,
    chunk_crcs: Vec<u32>,
    cache: OnceLock<Vec<f64>>,
}

impl ColumnarExperiment {
    /// Opens a `.cubec` file lazily with default limits.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with(path, &ReadLimits::default())
    }

    /// Opens a `.cubec` file lazily with explicit limits.
    ///
    /// The footer's magic and recorded length are checked (so plain
    /// truncation is caught at open time) but the whole-file CRC is
    /// *not* computed — that would force reading every severity page,
    /// defeating the point of a lazy open. Severity chunks are CRC-
    /// verified when they are first loaded; use
    /// [`read_store_file`] when full up-front verification is wanted.
    pub fn open_with(path: impl AsRef<Path>, limits: &ReadLimits) -> Result<Self, StoreError> {
        let path = path.as_ref();
        let err = |e: std::io::Error| StoreError::io_at(path, e);
        let mut f = File::open(path).map_err(err)?;
        let file_len = f.metadata().map_err(err)?.len();
        check_input_len(file_len, limits)?;
        if file_len < (HEADER_LEN + FOOTER_LEN) as u64 {
            return Err(StoreError::format("file is shorter than header + footer"));
        }

        let header = read_at(&mut f, 0, HEADER_LEN, path)?;
        let (count, table_off) = parse_header(&header)?;
        let footer = read_at(&mut f, file_len - FOOTER_LEN as u64, FOOTER_LEN, path)?;
        if footer[12..16] != FOOTER_MAGIC
            || u64::from_le_bytes(footer[4..12].try_into().unwrap()) != file_len
        {
            return Err(StoreError::format(
                "missing or truncated footer (every writer-produced file ends in CEND)",
            ));
        }

        let table_len = count
            .checked_mul(SECTION_ENTRY_LEN)
            .filter(|&l| table_off + l as u64 <= file_len - FOOTER_LEN as u64)
            .ok_or_else(|| StoreError::format("section table extends past the file"))?;
        let table = read_at(&mut f, table_off, table_len, path)?;
        let sections = parse_sections(&table, count, file_len - FOOTER_LEN as u64)?;

        let mut meta_bytes = read_at(
            &mut f,
            sections.meta.offset,
            sections.meta.length as usize,
            path,
        )?;
        // Fault seam at the repository-open boundary: an injected byte
        // flip here is caught by the section CRC check below, i.e. the
        // production corruption path, not a synthetic error.
        if let Some(e) = cube_xml::faults::inject("store.open", &mut meta_bytes) {
            return Err(StoreError::io_at(path, e));
        }
        verify_section(&meta_bytes, &sections.meta, "metadata")?;
        let (metadata, provenance) = decode_metadata(&meta_bytes, limits)?;

        let crc_bytes = read_at(
            &mut f,
            sections.crcs.offset,
            sections.crcs.length as usize,
            path,
        )?;
        verify_section(&crc_bytes, &sections.crcs, "chunk-CRC")?;
        let sev_len = sections.sev.length as usize;
        let (chunk_values, chunk_crcs) = parse_chunk_table(&crc_bytes, sev_len)?;

        let (nm, nc, nt) = metadata.shape();
        if sev_len != nm * nc * nt * 8 {
            return Err(StoreError::format(format!(
                "severity section is {sev_len} bytes but the shape {:?} needs {}",
                (nm, nc, nt),
                nm * nc * nt * 8
            )));
        }

        Ok(Self {
            path: path.to_path_buf(),
            metadata,
            provenance,
            sev_offset: sections.sev.offset,
            sev_len,
            chunk_values,
            chunk_crcs,
            cache: OnceLock::new(),
        })
    }

    /// The decoded metadata.
    pub fn metadata(&self) -> &Metadata {
        &self.metadata
    }

    /// The decoded provenance.
    pub fn provenance(&self) -> &Provenance {
        &self.provenance
    }

    /// The severity shape `(metrics, call nodes, threads)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        self.metadata.shape()
    }

    /// The file this handle reads from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether the severity pages have been pulled into memory yet.
    pub fn is_loaded(&self) -> bool {
        self.cache.get().is_some()
    }

    /// The dense severity values, loading and CRC-verifying the pages
    /// from disk on first call. Subsequent calls borrow the cache.
    pub fn severity(&self) -> Result<&[f64], StoreError> {
        if let Some(v) = self.cache.get() {
            return Ok(v);
        }
        let v = self.load_severity()?;
        Ok(self.cache.get_or_init(|| v))
    }

    fn load_severity(&self) -> Result<Vec<f64>, StoreError> {
        let mut f = File::open(&self.path).map_err(|e| StoreError::io_at(&self.path, e))?;
        let mut bytes = read_at(&mut f, self.sev_offset, self.sev_len, &self.path)?;
        // Fault seam at the severity-page boundary: corruption injected
        // here trips the per-chunk CRC loop below. A failed load does
        // not poison the OnceLock cache, so a later retry can succeed.
        if let Some(e) = cube_xml::faults::inject("store.severity", &mut bytes) {
            return Err(StoreError::io_at(&self.path, e));
        }
        for (k, chunk) in bytes.chunks(self.chunk_values * 8).enumerate() {
            let actual = crc32(chunk);
            if actual != self.chunk_crcs[k] {
                return Err(StoreError::Checksum {
                    expected: self.chunk_crcs[k],
                    actual,
                    context: chunk_context(&self.metadata, k, self.chunk_values),
                });
            }
        }
        Ok(decode_f64s(&bytes))
    }

    /// Materializes a validated [`Experiment`] (loads severity).
    pub fn to_experiment(&self) -> Result<Experiment, StoreError> {
        let values = self.severity()?.to_vec();
        let (nm, nc, nt) = self.shape();
        Experiment::new(
            self.metadata.clone(),
            Severity::from_values(nm, nc, nt, values),
            self.provenance.clone(),
        )
        .map_err(StoreError::Model)
    }
}

impl BatchOperand for ColumnarExperiment {
    fn metadata(&self) -> &Metadata {
        &self.metadata
    }

    fn provenance(&self) -> &Provenance {
        &self.provenance
    }

    fn severity_shape(&self) -> (usize, usize, usize) {
        self.shape()
    }

    /// Panics if the severity pages cannot be read or fail their CRCs;
    /// call [`ColumnarExperiment::severity`] first to surface I/O and
    /// corruption errors through `Result`.
    fn severity_values(&self) -> &[f64] {
        self.severity()
            .expect("severity pages unreadable; call ColumnarExperiment::severity() first")
    }
}

fn read_at(f: &mut File, offset: u64, len: usize, path: &Path) -> Result<Vec<u8>, StoreError> {
    let err = |e: std::io::Error| StoreError::io_at(path, e);
    f.seek(SeekFrom::Start(offset)).map_err(err)?;
    let mut buf = vec![0u8; len];
    f.read_exact(&mut buf).map_err(err)?;
    Ok(buf)
}

// ---------------------------------------------------------------------------
// salvage
// ---------------------------------------------------------------------------

/// What the `.cubec` salvage reader managed to recover, mirroring
/// [`cube_xml::SalvageReport`] for the binary format.
#[derive(Clone, Debug)]
pub struct StoreReport {
    /// `true` when nothing was lost: every chunk intact and the
    /// whole-file checksum (when verifiable) matched.
    pub complete: bool,
    /// Severity chunks recovered intact; damaged chunks read as zero
    /// (the algebra's zero-extension convention).
    pub chunks_recovered: usize,
    /// Total severity chunks the file declares.
    pub chunks_total: usize,
    /// Human-readable description of the first loss, `None` when
    /// nothing was lost.
    pub loss: Option<String>,
    /// Which structure the first loss hit, e.g.
    /// `severity chunk 3 (metric 'time', cnode 7)`.
    pub context: Option<String>,
    /// Outcome of the whole-file checksum verification.
    pub checksum: FooterStatus,
}

/// Salvages what it can from a damaged `.cubec` file.
///
/// The header, section table, metadata section, and chunk-CRC table
/// are *structural*: damage there is unrecoverable and returns an
/// error. Damage confined to severity pages — a truncated tail, a
/// flipped byte failing its chunk CRC — zeroes exactly the affected
/// chunks and reports them, with the experiment's provenance rewrapped
/// as [`Provenance::Recovered`] naming the damaged structure.
pub fn salvage_store_file(
    path: impl AsRef<Path>,
    limits: &ReadLimits,
) -> Result<(Experiment, StoreReport), StoreError> {
    salvage_store_file_as(path, None, limits)
}

/// [`salvage_store_file`] with an explicit *origin* — the name the
/// recovery provenance note should call the damaged store.
///
/// When the bytes live inside a hash-sharded repository (or pass
/// through a staging temp file), the transient filesystem path is the
/// wrong name for the lineage record; the caller passes the durable
/// one — e.g. the repository-relative `objects/ab/….cubec`. With
/// `origin: None` the note format is unchanged.
pub fn salvage_store_file_as(
    path: impl AsRef<Path>,
    origin: Option<&str>,
    limits: &ReadLimits,
) -> Result<(Experiment, StoreReport), StoreError> {
    let path = path.as_ref();
    let bytes = read_limited(path, limits)?;
    let checksum = check_store_footer(&bytes);
    let body_len = match checksum {
        FooterStatus::Absent => bytes.len() as u64, // truncated: no trailer to trust
        _ => (bytes.len() - FOOTER_LEN) as u64,
    };

    if bytes.len() < HEADER_LEN {
        return Err(StoreError::format("file is shorter than its header"));
    }
    let (count, table_off) = parse_header(&bytes[..HEADER_LEN])?;
    let table_end = table_off as usize + count * SECTION_ENTRY_LEN;
    if table_end as u64 > body_len {
        return Err(StoreError::format("section table extends past the file"));
    }
    // Sections are validated against the length the writer recorded —
    // a truncated file keeps its table intact (severity comes last), so
    // per-chunk availability is checked below instead.
    let sections = parse_sections(&bytes[table_off as usize..table_end], count, u64::MAX)?;

    let meta_end = (sections.meta.offset + sections.meta.length) as usize;
    if meta_end as u64 > body_len {
        return Err(StoreError::format("metadata section extends past the file"));
    }
    let meta_bytes = section_bytes(&bytes, &sections.meta);
    verify_section(meta_bytes, &sections.meta, "metadata")?;
    let (md, prov) = decode_metadata(meta_bytes, limits)?;

    let crcs_end = (sections.crcs.offset + sections.crcs.length) as usize;
    if crcs_end as u64 > body_len {
        return Err(StoreError::format(
            "chunk-CRC section extends past the file",
        ));
    }
    let crc_bytes = section_bytes(&bytes, &sections.crcs);
    verify_section(crc_bytes, &sections.crcs, "chunk-CRC")?;
    let sev_len = sections.sev.length as usize;
    let (chunk_values, crcs) = parse_chunk_table(crc_bytes, sev_len)?;

    let (nm, nc, nt) = md.shape();
    if sev_len != nm * nc * nt * 8 {
        return Err(StoreError::format(format!(
            "severity section is {sev_len} bytes but the shape {:?} needs {}",
            (nm, nc, nt),
            nm * nc * nt * 8
        )));
    }

    // Per-chunk recovery: keep chunks whose bytes are present and hash
    // to their recorded CRC, zero the rest.
    let mut values = vec![0.0f64; nm * nc * nt];
    let chunk_bytes = chunk_values * 8;
    let sev_off = sections.sev.offset as usize;
    let available = (body_len as usize).saturating_sub(sev_off).min(sev_len);
    let mut recovered = 0usize;
    let mut loss: Option<String> = None;
    let mut context: Option<String> = None;
    for (k, &expected) in crcs.iter().enumerate() {
        let lo = k * chunk_bytes;
        let hi = (lo + chunk_bytes).min(sev_len);
        let (what, ok) = if hi > available {
            ("severity pages truncated", false)
        } else {
            let chunk = &bytes[sev_off + lo..sev_off + hi];
            if crc32(chunk) == expected {
                values[lo / 8..hi / 8].copy_from_slice(&decode_f64s(chunk));
                ("", true)
            } else {
                ("severity page failed its checksum", false)
            }
        };
        if ok {
            recovered += 1;
        } else if loss.is_none() {
            loss = Some(what.to_string());
            context = Some(chunk_context(&md, k, chunk_values));
        }
    }

    let complete = recovered == crcs.len() && !checksum.is_mismatch();
    let report = StoreReport {
        complete,
        chunks_recovered: recovered,
        chunks_total: crcs.len(),
        loss,
        context,
        checksum,
    };

    let mut exp = Experiment::new_unchecked(md, Severity::from_values(nm, nc, nt, values), prov);
    if !report.complete {
        let what = match (&report.loss, &report.context) {
            (Some(w), Some(c)) => format!("{w} in {c}"),
            (Some(w), None) => w.clone(),
            (None, _) => "checksum mismatch".to_string(),
        };
        let mut note = format!(
            "{what}; {} of {} chunks recovered",
            report.chunks_recovered, report.chunks_total
        );
        if let Some(origin) = origin {
            note = format!("{origin}: {note}");
        }
        let source = exp.provenance().label();
        exp.set_provenance(Provenance::recovered(source, note));
    }
    Ok((exp, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write::{write_store, write_store_file};
    use cube_model::builder::single_threaded_system;
    use cube_model::{ExperimentBuilder, RegionKind, Unit};

    fn sample(threads: usize) -> Experiment {
        let mut b = ExperimentBuilder::new("read test");
        let time = b.def_metric("time", Unit::Seconds, "total", None);
        let mpi = b.def_metric("mpi", Unit::Seconds, "mpi", Some(time));
        let m = b.def_module("a.c", "/a.c");
        let r = b.def_region("main", m, RegionKind::Function, 1, 9);
        let cs = b.def_call_site("a.c", 1, r);
        let root = b.def_call_node(cs, None);
        let child = b.def_call_node(cs, Some(root));
        let ts = single_threaded_system(&mut b, threads);
        for (i, &t) in ts.iter().enumerate() {
            b.set_severity(time, root, t, 1.0 + i as f64);
            b.set_severity(mpi, child, t, 0.5 * i as f64);
        }
        b.build().unwrap()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cube-store-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn strict_roundtrip() {
        let exp = sample(3);
        let bytes = write_store(&exp);
        let back = read_store(&bytes, &ReadLimits::default()).unwrap();
        assert_eq!(exp, back);
    }

    #[test]
    fn lazy_open_defers_severity() {
        let exp = sample(2);
        let d = tmpdir("lazy");
        let p = d.join("a.cubec");
        write_store_file(&exp, &p).unwrap();
        let col = ColumnarExperiment::open(&p).unwrap();
        assert!(!col.is_loaded());
        assert_eq!(col.metadata(), exp.metadata());
        assert_eq!(col.provenance(), exp.provenance());
        assert_eq!(col.shape(), exp.severity().shape());
        assert_eq!(col.severity().unwrap(), exp.severity().values());
        assert!(col.is_loaded());
        assert_eq!(col.to_experiment().unwrap(), exp);
    }

    #[test]
    fn flipped_severity_byte_fails_strict_read_with_context() {
        let exp = sample(2);
        let mut bytes = write_store(&exp);
        // Flip a byte inside the severity section (the last section).
        let n = bytes.len();
        bytes[n - FOOTER_LEN - 5] ^= 0xff;
        let err = read_store(&bytes, &ReadLimits::default()).unwrap_err();
        // Whole-file CRC trips first on a full strict read.
        assert!(matches!(err, StoreError::Checksum { .. }), "{err}");
    }

    #[test]
    fn lazy_open_catches_chunk_corruption_on_load() {
        let exp = sample(2);
        let d = tmpdir("chunk");
        let p = d.join("bad.cubec");
        let mut bytes = write_store(&exp);
        let n = bytes.len();
        bytes[n - FOOTER_LEN - 5] ^= 0xff;
        std::fs::write(&p, &bytes).unwrap();
        // Open succeeds (structure intact), the load reports the chunk.
        let col = ColumnarExperiment::open(&p).unwrap();
        let err = col.severity().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("severity chunk 0"), "{msg}");
        assert!(msg.contains("metric 'time'"), "{msg}");
    }

    #[test]
    fn salvage_zeroes_damaged_chunks_and_rewraps_provenance() {
        let exp = sample(2);
        let d = tmpdir("salvage");
        let p = d.join("bad.cubec");
        let mut bytes = write_store(&exp);
        let n = bytes.len();
        bytes[n - FOOTER_LEN - 5] ^= 0xff;
        std::fs::write(&p, &bytes).unwrap();
        let (rec, report) = salvage_store_file(&p, &ReadLimits::default()).unwrap();
        assert!(!report.complete);
        assert_eq!(report.chunks_total, 1);
        assert_eq!(report.chunks_recovered, 0);
        assert!(report.checksum.is_mismatch());
        assert!(report.context.as_deref().unwrap().contains("metric 'time'"));
        assert!(rec.severity().values().iter().all(|&v| v == 0.0));
        assert!(rec.provenance().is_recovered());
        let label = match rec.provenance() {
            Provenance::Recovered { note, .. } => note.clone(),
            _ => unreachable!(),
        };
        assert!(label.contains("0 of 1 chunks recovered"), "{label}");
    }

    #[test]
    fn salvage_of_truncated_file_keeps_leading_chunks() {
        // Enough threads to span several chunks: 2 metrics × 2 cnodes ×
        // 3000 threads = 12000 values ≈ 3 chunks of 4096.
        let exp = sample(3000);
        let d = tmpdir("trunc");
        let p = d.join("t.cubec");
        let bytes = write_store(&exp);
        let cut = bytes.len() - FOOTER_LEN - 6000; // into the last chunk
        std::fs::write(&p, &bytes[..cut]).unwrap();
        let (rec, report) = salvage_store_file(&p, &ReadLimits::default()).unwrap();
        assert!(!report.complete);
        assert_eq!(report.checksum, FooterStatus::Absent);
        assert_eq!(report.chunks_total, 3);
        assert_eq!(report.chunks_recovered, 2);
        assert!(report.loss.as_deref().unwrap().contains("truncated"));
        // The surviving prefix matches the original values.
        let keep = 2 * 4096;
        assert_eq!(
            &rec.severity().values()[..keep],
            &exp.severity().values()[..keep]
        );
        assert!(rec.severity().values()[keep..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn salvage_refuses_damaged_metadata() {
        let exp = sample(2);
        let d = tmpdir("meta");
        let p = d.join("m.cubec");
        let mut bytes = write_store(&exp);
        bytes[HEADER_LEN + 3 * SECTION_ENTRY_LEN + 9] ^= 0xff; // inside the dictionary
        std::fs::write(&p, &bytes).unwrap();
        let err = salvage_store_file(&p, &ReadLimits::default()).unwrap_err();
        assert!(matches!(err, StoreError::Checksum { .. }), "{err}");
        assert!(err.to_string().contains("metadata section"), "{err}");
    }

    #[test]
    fn salvage_of_intact_file_is_complete() {
        let exp = sample(2);
        let d = tmpdir("ok");
        let p = d.join("ok.cubec");
        write_store_file(&exp, &p).unwrap();
        let (rec, report) = salvage_store_file(&p, &ReadLimits::default()).unwrap();
        assert!(report.complete);
        assert_eq!(report.checksum, FooterStatus::Valid);
        assert!(report.loss.is_none() && report.context.is_none());
        assert_eq!(rec, exp);
    }

    #[test]
    fn truncation_into_structure_is_unrecoverable() {
        let exp = sample(2);
        let d = tmpdir("hdr");
        let p = d.join("h.cubec");
        let bytes = write_store(&exp);
        std::fs::write(&p, &bytes[..40]).unwrap();
        assert!(salvage_store_file(&p, &ReadLimits::default()).is_err());
    }

    #[test]
    fn input_size_limit_applies() {
        let exp = sample(2);
        let d = tmpdir("limit");
        let p = d.join("l.cubec");
        write_store_file(&exp, &p).unwrap();
        let limits = ReadLimits {
            max_input_bytes: 10,
            ..ReadLimits::default()
        };
        let err = read_store_file_with(&p, &limits).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Limit {
                    kind: LimitKind::InputBytes,
                    ..
                }
            ),
            "{err}"
        );
        assert!(ColumnarExperiment::open_with(&p, &limits).is_err());
    }

    #[test]
    fn not_a_cubec_file_is_a_format_error() {
        let err =
            read_store(b"<?xml version=\"1.0\"?><cube/>", &ReadLimits::default()).unwrap_err();
        assert!(matches!(err, StoreError::Format { .. }), "{err}");
    }

    /// An experiment whose metric tree and call tree are chains, of
    /// `metric_depth` and `call_depth` levels.
    fn chains(metric_depth: usize, call_depth: usize) -> Experiment {
        let mut b = ExperimentBuilder::new("chains");
        let mut metric = None;
        for i in 0..metric_depth {
            metric = Some(b.def_metric(format!("m{i}"), Unit::Seconds, "", metric));
        }
        let m = b.def_module("a.c", "/a.c");
        let r = b.def_region("f", m, RegionKind::Function, 1, 9);
        let cs = b.def_call_site("a.c", 1, r);
        let mut cnode = None;
        for _ in 0..call_depth {
            cnode = Some(b.def_call_node(cs, cnode));
        }
        let ts = single_threaded_system(&mut b, 1);
        b.set_severity(metric.unwrap(), cnode.unwrap(), ts[0], 1.5);
        b.build().unwrap()
    }

    /// An experiment whose metrics (or call nodes) form an `n`-long
    /// chain in which each entity names the next one as its parent.
    /// Assembled unchecked: the model's builder refuses such chains.
    fn forward_chain(n: u32, metrics: bool) -> Experiment {
        use cube_model::{
            CallNode, CallNodeId, CallSite, Machine, Metadata, Metric, MetricId, Module, Process,
            Provenance, Region, Severity, SystemNode, Thread,
        };
        let next = |i: u32| (i + 1 < n).then_some(i + 1);
        let mut md = Metadata::new();
        let metric_count = if metrics { n } else { 1 };
        for i in 0..metric_count {
            md.add_metric(Metric {
                name: format!("m{i}"),
                unit: Unit::Seconds,
                description: String::new(),
                parent: next(i).filter(|_| metrics).map(MetricId::new),
            });
        }
        let module = md.add_module(Module::new("a.c", "/a.c"));
        let callee = md.add_region(Region {
            name: "f".into(),
            module,
            kind: RegionKind::Function,
            begin_line: 1,
            end_line: 9,
        });
        let call_site = md.add_call_site(CallSite {
            file: "a.c".into(),
            line: 1,
            callee,
        });
        let call_count = if metrics { 1 } else { n };
        for i in 0..call_count {
            md.add_call_node(CallNode {
                call_site,
                parent: next(i).filter(|_| !metrics).map(CallNodeId::new),
            });
        }
        let mach = md.add_machine(Machine::new("m"));
        let node = md.add_node(SystemNode::new("n", mach));
        let rank = md.add_process(Process::new("rank 0", 0, node));
        md.add_thread(Thread::new("thread 0", 0, rank));
        let severity = Severity::zeros(metric_count as usize, call_count as usize, 1);
        Experiment::new_unchecked(md, severity, Provenance::original("forward chain"))
    }

    #[test]
    fn forward_parents_are_refused() {
        let d = tmpdir("forward");
        for metrics in [false, true] {
            let packed = write_store(&forward_chain(80_000, metrics));
            let Err(err) = read_store(&packed, &ReadLimits::default()) else {
                panic!("read_store accepted a parent after its child");
            };
            assert!(matches!(err, StoreError::Format { .. }), "{err}");
            assert!(
                err.to_string().contains("appears before its parent"),
                "{err}"
            );
            let p = d.join("forward.cubec");
            std::fs::write(&p, &packed).unwrap();
            let codes = crate::lint::lint_file(&p).codes();
            assert_eq!(codes.len(), 1);
            assert_eq!(codes[0].as_str(), "E103");
        }
    }

    fn is_depth_limit(err: &StoreError) -> bool {
        matches!(
            err,
            StoreError::Limit {
                kind: LimitKind::Depth,
                ..
            }
        )
    }

    #[test]
    fn tree_depth_limit_matches_the_xml_reader() {
        let limits = ReadLimits::default();
        let deepest = limits.max_depth - 1;
        let d = tmpdir("depth");
        for (metric_depth, call_depth) in [(1, deepest), (deepest, 1)] {
            // The deepest trees the XML reader accepts pack and unpack.
            let exp = chains(metric_depth, call_depth);
            let xml = cube_xml::write_experiment_bytes(&exp);
            let text = std::str::from_utf8(&xml).unwrap();
            let read = cube_xml::read_experiment(text).unwrap();
            let packed = write_store(&read);
            let back = read_store(&packed, &limits).unwrap();
            assert_eq!(cube_xml::write_experiment_bytes(&back), xml);
            let p = d.join("deepest.cubec");
            std::fs::write(&p, &packed).unwrap();
            ColumnarExperiment::open_with(&p, &limits).unwrap();

            // One level deeper is rejected by every reader alike.
            let (m, c) = if call_depth > 1 {
                (1, deepest + 1)
            } else {
                (deepest + 1, 1)
            };
            let exp = chains(m, c);
            let xml = cube_xml::write_experiment_bytes(&exp);
            let Err(err) = cube_xml::read_experiment(std::str::from_utf8(&xml).unwrap()) else {
                panic!("the XML reader accepted a tree deeper than its limit");
            };
            assert!(
                matches!(
                    err,
                    cube_xml::XmlError::Limit {
                        kind: LimitKind::Depth,
                        ..
                    }
                ),
                "{err}"
            );
            let packed = write_store(&exp);
            let Err(err) = read_store(&packed, &limits) else {
                panic!("read_store accepted a tree deeper than the XML reader does");
            };
            assert!(is_depth_limit(&err), "{err}");
            let p = d.join("deeper.cubec");
            std::fs::write(&p, &packed).unwrap();
            let Err(err) = ColumnarExperiment::open_with(&p, &limits) else {
                panic!("open_with accepted a tree deeper than the XML reader does");
            };
            assert!(is_depth_limit(&err), "{err}");
            assert_eq!(
                crate::lint::lint_file(&p).codes()[0].as_str(),
                "E201",
                "lint reports the depth limit"
            );
        }
    }
}
