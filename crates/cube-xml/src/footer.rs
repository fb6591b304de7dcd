//! Checksum footer: a trailing XML comment carrying a CRC-32 of the
//! document bytes.
//!
//! The footer is written *after* `</cube>` as
//!
//! ```text
//! <!-- cube:crc32 XXXXXXXX NNN -->
//! ```
//!
//! where `XXXXXXXX` is the CRC-32 (IEEE polynomial, the one used by
//! gzip and PNG) of the first `NNN` bytes of the file — everything up
//! to and including the newline that ends `</cube>` — rendered as
//! eight lowercase hex digits, and `NNN` is that byte count in
//! decimal. Because it is an ordinary XML comment after the root
//! element, readers that predate the footer skip it; readers that know
//! it can detect silent corruption that still happens to parse.
//!
//! The normative description lives in `docs/FORMAT.md` §10.

use std::io::{self, Write};

/// Marker that opens the checksum footer comment.
pub(crate) const FOOTER_PREFIX: &str = "<!-- cube:crc32 ";

mod crc;

/// CRC-32 (IEEE, reflected, init and xor-out `0xFFFFFFFF`) of `bytes`.
///
/// The one function behind every checksum in the workspace. It folds
/// with PCLMULQDQ on x86_64 CPUs that have it and runs a portable
/// slicing-by-16 loop elsewhere; both give the same value for every
/// input.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc::update(!0, bytes)
}

/// [`crc32`] on the portable slicing-by-16 path, whatever the CPU.
/// Same value as [`crc32`] for every input; exposed so benchmarks can
/// set the two paths side by side.
pub fn crc32_portable(bytes: &[u8]) -> u32 {
    !crc::portable(!0, bytes)
}

/// A [`Write`] adapter that forwards to an inner writer while tracking
/// the CRC-32 and byte count of everything written through it.
pub struct Crc32Writer<W: Write> {
    inner: W,
    state: u32,
    len: u64,
}

impl<W: Write> Crc32Writer<W> {
    pub fn new(inner: W) -> Self {
        Self {
            inner,
            state: !0,
            len: 0,
        }
    }

    /// CRC-32 of the bytes written so far.
    pub fn crc(&self) -> u32 {
        !self.state
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Unwraps the adapter, returning the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }

    pub fn get_mut(&mut self) -> &mut W {
        &mut self.inner
    }
}

impl<W: Write> Write for Crc32Writer<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.state = crc::update(self.state, &buf[..n]);
        self.len += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Longest line [`footer_line`] renders: a 20-digit length.
pub(crate) const FOOTER_MAX_LEN: usize = 50;

/// Renders the footer comment for a document of `len` bytes hashing to
/// `crc`, newline included.
pub fn footer_line(crc: u32, len: u64) -> String {
    format!("<!-- cube:crc32 {crc:08x} {len} -->\n")
}

/// Outcome of checking a document against its checksum footer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FooterStatus {
    /// No footer present (pre-footer writers, or the trailer was lost):
    /// nothing to verify against.
    Absent,
    /// Footer present and the document bytes hash to the recorded CRC.
    Valid,
    /// Footer present but the document bytes do not match: the file was
    /// altered after it was written.
    Mismatch { expected: u32, actual: u32 },
}

impl FooterStatus {
    pub fn is_mismatch(&self) -> bool {
        matches!(self, Self::Mismatch { .. })
    }
}

/// Checks `input` against its checksum footer, if one is present.
///
/// A trailing comment that merely *resembles* a footer but does not
/// parse exactly (wrong digit count, missing fields) is treated as an
/// ordinary comment — [`FooterStatus::Absent`] — since only our writer
/// produces the strict form. The CRC is computed over the bytes before
/// the footer comment, which for an untampered file is exactly the
/// recorded region.
pub fn check_footer(input: &str) -> FooterStatus {
    let trimmed = input.trim_end();
    if !trimmed.ends_with("-->") {
        return FooterStatus::Absent;
    }
    let Some(start) = trimmed.rfind(FOOTER_PREFIX) else {
        return FooterStatus::Absent;
    };
    let fields = &trimmed[start + FOOTER_PREFIX.len()..trimmed.len() - "-->".len()];
    // Expect exactly "XXXXXXXX NNN " (writer leaves one space before
    // the closing "-->").
    let mut it = fields.split_whitespace();
    let (Some(hex), Some(dec), None) = (it.next(), it.next(), it.next()) else {
        return FooterStatus::Absent;
    };
    if hex.len() != 8 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return FooterStatus::Absent;
    }
    let Ok(expected) = u32::from_str_radix(hex, 16) else {
        return FooterStatus::Absent;
    };
    let Ok(recorded_len) = dec.parse::<u64>() else {
        return FooterStatus::Absent;
    };
    let body = &input.as_bytes()[..start];
    let actual = crc32(body);
    if actual == expected && recorded_len == body.len() as u64 {
        FooterStatus::Valid
    } else {
        FooterStatus::Mismatch { expected, actual }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_check_vector() {
        // The standard CRC-32/IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn writer_matches_one_shot() {
        let mut w = Crc32Writer::new(Vec::new());
        w.write_all(b"12345").unwrap();
        w.write_all(b"6789").unwrap();
        assert_eq!(w.crc(), crc32(b"123456789"));
        assert_eq!(w.len(), 9);
        assert_eq!(w.into_inner(), b"123456789");
    }

    #[test]
    fn writer_split_at_seeded_points_matches_one_shot() {
        let bytes: Vec<u8> = (0..20_000u32).map(|i| (i * 31 + i / 7) as u8).collect();
        let expected = crc32(&bytes);
        let mut s = 0x5EED_u64;
        let rounds = if cfg!(miri) { 2 } else { 16 };
        for _ in 0..rounds {
            let mut w = Crc32Writer::new(Vec::new());
            let mut rest = &bytes[..];
            while !rest.is_empty() {
                // LCG split points: mostly short pieces, some long
                // enough to take the folding path.
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let cap = if s >> 63 == 0 { 64 } else { 4096 };
                let take = ((s >> 33) as usize % cap + 1).min(rest.len());
                w.write_all(&rest[..take]).unwrap();
                rest = &rest[take..];
            }
            assert_eq!(w.crc(), expected);
            assert_eq!(w.len(), bytes.len() as u64);
        }
    }

    #[test]
    fn footer_roundtrip() {
        let body = "<cube/>\n";
        let doc = format!(
            "{body}{}",
            footer_line(crc32(body.as_bytes()), body.len() as u64)
        );
        assert_eq!(check_footer(&doc), FooterStatus::Valid);
    }

    #[test]
    fn footer_max_len_bounds_every_footer() {
        assert_eq!(footer_line(u32::MAX, u64::MAX).len(), FOOTER_MAX_LEN);
    }

    #[test]
    fn corrupted_body_is_a_mismatch() {
        let body = "<cube/>\n";
        let doc = format!(
            "{body}{}",
            footer_line(crc32(body.as_bytes()), body.len() as u64)
        );
        let bad = doc.replace("<cube/>", "<cubE/>");
        assert!(check_footer(&bad).is_mismatch());
    }

    #[test]
    fn wrong_recorded_length_is_a_mismatch() {
        let body = "<cube/>\n";
        let doc = format!("{body}{}", footer_line(crc32(body.as_bytes()), 999));
        assert!(check_footer(&doc).is_mismatch());
    }

    #[test]
    fn absent_or_foreign_comments_are_ignored() {
        assert_eq!(check_footer("<cube/>\n"), FooterStatus::Absent);
        assert_eq!(
            check_footer("<cube/>\n<!-- just a note -->\n"),
            FooterStatus::Absent
        );
        assert_eq!(
            check_footer("<cube/>\n<!-- cube:crc32 nonsense -->\n"),
            FooterStatus::Absent
        );
        assert_eq!(
            check_footer("<cube/>\n<!-- cube:crc32 12ab 7 -->\n"),
            FooterStatus::Absent
        );
        assert_eq!(check_footer(""), FooterStatus::Absent);
    }

    #[test]
    fn trailing_whitespace_after_footer_is_tolerated() {
        let body = "<cube/>\n";
        let doc = format!(
            "{body}{} \n",
            footer_line(crc32(body.as_bytes()), body.len() as u64).trim_end()
        );
        assert_eq!(check_footer(&doc), FooterStatus::Valid);
    }
}
