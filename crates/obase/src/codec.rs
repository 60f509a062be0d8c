//! Shared binary encode/decode primitives for ruvo's storage formats.
//!
//! Both on-disk formats — the binary snapshot ([`crate::snapshot`])
//! and the write-ahead log (`ruvo_core::store`) — are built from the
//! same small vocabulary:
//!
//! * a per-file [`SymbolTable`] interning symbols once (`u32` indices
//!   instead of repeated strings),
//! * tagged [`Const`] encoding ([`put_const`] / [`Reader::constant`]),
//! * a length-checked [`Reader`] that turns every malformed input into
//!   a typed [`DecodeError`] instead of a panic,
//! * the [`checksum`] everything is verified against, and
//! * length-prefixed, checksummed *frames* ([`append_frame`] /
//!   [`Frames`]) for append-only record streams, where a torn tail
//!   must be detectable and cleanly separable from the valid prefix.
//!
//! All integers are little-endian.

use bytes::{Buf, BufMut, BytesMut};
use ruvo_term::{Const, FastHashMap, Interner, OrderedF64, Symbol};
use std::hash::Hasher;

/// Why a binary input could not be decoded.
///
/// Shared by every consumer of this module; [`crate::SnapshotError`]
/// is an alias of this type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The input does not start with the expected magic bytes.
    BadMagic,
    /// The format version is not supported by this build (most likely
    /// the file was written by a newer ruvo).
    BadVersion(u16),
    /// The byte stream ended prematurely.
    Truncated,
    /// A tag/length field had an invalid value.
    Corrupt(&'static str),
    /// Checksum mismatch: the data was damaged.
    ChecksumMismatch,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a ruvo file (bad magic)"),
            DecodeError::BadVersion(v) => {
                write!(f, "unsupported format version {v} (written by a newer ruvo?)")
            }
            DecodeError::Truncated => write!(f, "input is truncated"),
            DecodeError::Corrupt(what) => write!(f, "input is corrupt: {what}"),
            DecodeError::ChecksumMismatch => write!(f, "checksum mismatch (data was damaged)"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// The checksum every storage format appends: FxHash over the covered
/// bytes. Not cryptographic — it detects corruption, not tampering.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = ruvo_term::FastHasher::default();
    h.write(bytes);
    h.finish()
}

/// A file-local symbol table: interns every symbol once per file, so
/// occurrences encode as `u32` indices and decoded files are stable
/// across processes with differently-populated global interners.
#[derive(Debug, Default)]
pub struct SymbolTable {
    indices: FastHashMap<Symbol, u32>,
    ordered: Vec<Symbol>,
}

impl SymbolTable {
    /// An empty table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// The index of `sym`, assigning the next free one on first use.
    pub fn intern(&mut self, sym: Symbol) -> u32 {
        *self.indices.entry(sym).or_insert_with(|| {
            let idx = u32::try_from(self.ordered.len()).expect("symbol table overflow");
            self.ordered.push(sym);
            idx
        })
    }

    /// Symbols in index order.
    pub fn symbols(&self) -> &[Symbol] {
        &self.ordered
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.ordered.len()
    }

    /// True if no symbol has been interned.
    pub fn is_empty(&self) -> bool {
        self.ordered.is_empty()
    }

    /// Append the table (count, then per symbol length + UTF-8 bytes).
    pub fn encode_into(&self, out: &mut BytesMut) {
        out.put_u32_le(self.ordered.len() as u32);
        for &sym in &self.ordered {
            let text = sym.as_str().as_bytes();
            out.put_u32_le(text.len() as u32);
            out.put_slice(text);
        }
    }
}

/// Decode a table written by [`SymbolTable::encode_into`], interning
/// into the global interner.
pub fn read_symbol_table(r: &mut Reader<'_>) -> Result<Vec<Symbol>, DecodeError> {
    let nsyms = r.u32()? as usize;
    let interner = Interner::global();
    let mut symbols = Vec::with_capacity(nsyms.min(r.remaining()));
    for _ in 0..nsyms {
        let len = r.u32()? as usize;
        let text =
            std::str::from_utf8(r.bytes(len)?).map_err(|_| DecodeError::Corrupt("symbol utf-8"))?;
        symbols.push(interner.intern(text));
    }
    Ok(symbols)
}

/// Append a tagged constant: `0` symbol (`u32` table index), `1` int
/// (`i64`), `2` num (`f64` bits).
pub fn put_const(buf: &mut BytesMut, c: Const, table: &mut SymbolTable) {
    match c {
        Const::Sym(s) => {
            buf.put_u8(0);
            buf.put_u32_le(table.intern(s));
        }
        Const::Int(i) => {
            buf.put_u8(1);
            buf.put_i64_le(i);
        }
        Const::Num(n) => {
            buf.put_u8(2);
            buf.put_f64_le(n.get());
        }
    }
}

/// A length-checked cursor over a byte slice: every read either
/// succeeds or reports [`DecodeError::Truncated`] — malformed input
/// can never cause a panic or an out-of-bounds read.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Read from `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    fn need(&self, n: usize) -> Result<(), DecodeError> {
        if self.buf.remaining() < n {
            Err(DecodeError::Truncated)
        } else {
            Ok(())
        }
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        self.need(2)?;
        Ok(self.buf.get_u16_le())
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        self.need(8)?;
        Ok(self.buf.get_i64_le())
    }

    /// Read a little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        self.need(8)?;
        Ok(self.buf.get_f64_le())
    }

    /// Read `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.need(n)?;
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Read a constant written by [`put_const`], resolving symbol
    /// indices against `symbols`.
    pub fn constant(&mut self, symbols: &[Symbol]) -> Result<Const, DecodeError> {
        match self.u8()? {
            0 => {
                let idx = self.u32()? as usize;
                let sym = symbols.get(idx).copied().ok_or(DecodeError::Corrupt("symbol index"))?;
                Ok(Const::Sym(sym))
            }
            1 => Ok(Const::Int(self.i64()?)),
            2 => OrderedF64::new(self.f64()?)
                .map(Const::Num)
                .ok_or(DecodeError::Corrupt("NaN constant")),
            _ => Err(DecodeError::Corrupt("constant tag")),
        }
    }
}

// ----- record frames -------------------------------------------------

/// Bytes a frame adds around its payload (`u32` length prefix plus
/// `u64` trailing checksum).
pub const FRAME_OVERHEAD: usize = 4 + 8;

/// Append one frame: `[len: u32][payload][checksum: u64]`. The
/// checksum covers the length prefix *and* the payload, so a damaged
/// length field is detected rather than trusted.
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8]) {
    append_frame_with(out, |out| out.extend_from_slice(payload));
}

/// Append one frame whose payload `encode` writes straight into `out`
/// — no payload buffer of its own. Same bytes as [`append_frame`].
pub fn append_frame_with(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    encode(out);
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    let sum = checksum(&out[start..]);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// Iterate the frames of an append-only stream written by
/// [`append_frame`].
///
/// Yields each valid payload in order. The first damaged frame —
/// truncated mid-record or failing its checksum — yields one `Err`
/// and ends the iteration; [`Frames::good_offset`] then reports how
/// many bytes of valid prefix precede the damage, which is exactly
/// the offset a writer should truncate to before appending again.
pub struct Frames<'a> {
    buf: &'a [u8],
    pos: usize,
    done: bool,
}

impl<'a> Frames<'a> {
    /// Iterate over `buf`.
    pub fn new(buf: &'a [u8]) -> Frames<'a> {
        Frames { buf, pos: 0, done: false }
    }

    /// Byte offset just past the last frame that decoded cleanly.
    pub fn good_offset(&self) -> usize {
        self.pos
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = Result<&'a [u8], DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let rest = &self.buf[self.pos..];
        if rest.is_empty() {
            self.done = true;
            return None;
        }
        self.done = true; // cleared again only on a fully valid frame
        if rest.len() < 4 {
            return Some(Err(DecodeError::Truncated));
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        let total = match len.checked_add(FRAME_OVERHEAD) {
            Some(t) if t <= rest.len() => t,
            _ => return Some(Err(DecodeError::Truncated)),
        };
        let stored = u64::from_le_bytes(rest[total - 8..total].try_into().expect("8 bytes"));
        if checksum(&rest[..4 + len]) != stored {
            return Some(Err(DecodeError::ChecksumMismatch));
        }
        self.pos += total;
        self.done = false;
        Some(Ok(&rest[4..4 + len]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruvo_term::{int, num, sym};

    #[test]
    fn const_roundtrip() {
        let mut table = SymbolTable::new();
        let mut buf = BytesMut::new();
        let values = [Const::Sym(sym("alpha")), int(-7), num(2.5), Const::Sym(sym("alpha"))];
        for &v in &values {
            put_const(&mut buf, v, &mut table);
        }
        assert_eq!(table.len(), 1, "repeated symbols intern once");
        let mut header = BytesMut::new();
        table.encode_into(&mut header);
        header.put_slice(&buf);

        let mut r = Reader::new(&header);
        let symbols = read_symbol_table(&mut r).unwrap();
        for &v in &values {
            assert_eq!(r.constant(&symbols).unwrap(), v);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn reader_never_reads_out_of_bounds() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u64(), Err(DecodeError::Truncated));
        assert_eq!(r.u16().unwrap(), 0x0201);
        assert_eq!(r.bytes(2), Err(DecodeError::Truncated));
        assert_eq!(r.bytes(1).unwrap(), &[3]);
        assert_eq!(r.u8(), Err(DecodeError::Truncated));
    }

    #[test]
    fn frames_roundtrip_and_report_torn_tail() {
        let mut out = Vec::new();
        append_frame(&mut out, b"first");
        append_frame(&mut out, b"");
        append_frame(&mut out, b"third record");
        let clean_len = out.len();
        out.extend_from_slice(&[0xAB; 5]); // torn in-flight append

        let mut frames = Frames::new(&out);
        assert_eq!(frames.next().unwrap().unwrap(), b"first");
        assert_eq!(frames.next().unwrap().unwrap(), b"");
        assert_eq!(frames.next().unwrap().unwrap(), b"third record");
        assert!(frames.next().unwrap().is_err(), "torn tail must surface as an error");
        assert_eq!(frames.next(), None, "iteration ends after the first error");
        assert_eq!(frames.good_offset(), clean_len);
    }

    #[test]
    fn a_frame_encoded_in_place_equals_one_from_a_payload() {
        let mut from_payload = b"prefix".to_vec();
        append_frame(&mut from_payload, b"payload under test");
        let mut in_place = b"prefix".to_vec();
        append_frame_with(&mut in_place, |out| {
            out.extend_from_slice(b"payload ");
            out.extend_from_slice(b"under test");
        });
        assert_eq!(in_place, from_payload);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let mut out = Vec::new();
        append_frame(&mut out, b"payload under test");
        for byte in 0..out.len() {
            for bit in 0..8 {
                let mut damaged = out.clone();
                damaged[byte] ^= 1 << bit;
                let mut frames = Frames::new(&damaged);
                let first = frames.next().expect("stream is non-empty");
                // A flipped length byte may leave a "valid-looking"
                // longer frame; the checksum covering the length
                // prefix catches exactly that.
                assert!(first.is_err(), "flip of bit {bit} in byte {byte} went undetected");
            }
        }
    }

    #[test]
    fn empty_stream_has_no_frames() {
        let mut frames = Frames::new(&[]);
        assert_eq!(frames.next(), None);
        assert_eq!(frames.good_offset(), 0);
    }
}
