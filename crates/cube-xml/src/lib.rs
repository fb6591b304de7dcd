//! # cube-xml — XML substrate and the CUBE experiment file format
//!
//! The CUBE algebra stores experiments in an XML format so that derived
//! and original experiments are interchangeable files. The original
//! implementation used libxml2; this crate ships its own self-contained
//! substrate:
//!
//! * [`escape`] — entity escaping/unescaping for text and attributes;
//! * [`lexer`] — a streaming tokenizer for the XML subset the format
//!   needs (declaration, elements, attributes, text, comments, CDATA);
//! * [`dom`] — a small document tree with well-formedness checks and a
//!   pretty-printing writer;
//! * [`reader`] — the streaming [`reader::CubeReader`]: lexer events
//!   assembled directly into a [`cube_model::Experiment`], with
//!   severity rows parsed straight into the dense buffer;
//! * [`writer`] — the streaming [`writer::CubeWriter`]: an experiment
//!   emitted to any [`std::io::Write`] without an element tree;
//! * [`format`](mod@format) — the CUBE format layer: [`format::write_experiment`]
//!   and [`format::read_experiment`] convert between
//!   [`cube_model::Experiment`] and `.cube` files on top of the
//!   streaming pair (the DOM pipeline stays available as
//!   [`format::read_experiment_dom`] / [`format::write_experiment_dom`]).
//!
//! The format itself — element inventory, dense-id rules, the
//! zero-omission convention, topologies, provenance — is specified
//! normatively in `docs/FORMAT.md` at the repository root.
//!
//! ## File layout
//!
//! ```xml
//! <?xml version="1.0" encoding="UTF-8"?>
//! <cube version="1.0">
//!   <provenance kind="original" label="pescan run 1"/>
//!   <metrics>
//!     <metric id="0" name="time" uom="sec" descr="total time">
//!       <metric id="1" name="mpi" uom="sec" descr="MPI time"/>
//!     </metric>
//!   </metrics>
//!   <program>
//!     <module id="0" name="main.c" path="/src/main.c"/>
//!     <region id="0" mod="0" name="main" kind="function" begin="1" end="42"/>
//!     <csite id="0" file="main.c" line="1" callee="0"/>
//!     <cnode id="0" csite="0"/>
//!   </program>
//!   <system>
//!     <machine id="0" name="cluster">
//!       <node id="0" name="node0">
//!         <process id="0" rank="0" name="rank 0">
//!           <thread id="0" num="0" name="thread 0"/>
//!         </process>
//!       </node>
//!     </machine>
//!   </system>
//!   <severity>
//!     <matrix metric="0">
//!       <row cnode="0">1.5</row>
//!     </matrix>
//!   </severity>
//! </cube>
//! ```
//!
//! Rows and matrices that contain only zeros are omitted; absent tuples
//! read back as zero severity, mirroring the zero-extension rule of the
//! algebra.

pub mod dom;
pub mod error;
pub mod escape;
pub mod faults;
pub mod fmt64;
pub mod footer;
pub mod format;
pub mod lexer;
pub mod lint;
pub mod reader;
pub mod writer;

pub use dom::{Document, Element, XmlNode};
pub use error::{LimitKind, XmlError};
pub use footer::FooterStatus;
pub use format::{
    encoded_len_hint, read_experiment, read_experiment_file, read_experiment_salvage,
    read_experiment_salvage_as, read_experiment_salvage_file, read_experiment_salvage_file_as,
    read_experiment_salvage_with, write_experiment, write_experiment_bytes, write_experiment_file,
    write_experiment_file_with, SalvageReport, WriteOptions,
};
pub use lint::{lint_file, lint_read, lint_str, read_experiment_strict};
pub use reader::{CubeReader, ReadLimits};
pub use writer::CubeWriter;
