//! Minimal binary wire codec shared by the DPSV frame protocol and the
//! checkpoint format.
//!
//! Both on-disk formats of this repository — trace files (`dp-trace`, a
//! recorded DPSV session) and checkpoint files (`dp-core::checkpoint`,
//! `DPCK` v1) — use the same primitives: little-endian fixed-width
//! integers, one XOR checksum byte per section or frame ([`xor_fold`]),
//! and crash-safe file replacement ([`atomic_write`]). They live here because `dp-types` is
//! the one crate everything else already depends on (`dp-sig` cannot see
//! `dp-core`, and `dp-core` only dev-depends on `dp-trace`).

use std::fmt;
use std::io::Write as _;
use std::path::Path;

/// Folds a payload into its one-byte XOR checksum, seeded with the tag
/// so a tag/payload swap cannot cancel out: the checksum after every
/// DPSV frame (and so every frame of a trace file) and every checkpoint
/// section.
#[inline]
pub fn xor_fold(tag: u8, body: &[u8]) -> u8 {
    body.iter().fold(tag, |x, b| x ^ b)
}

/// Errors surfaced while decoding a wire buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the announced payload did.
    Truncated,
    /// A section or record checksum did not match its payload.
    Checksum {
        /// Byte offset of the damaged section/record.
        offset: usize,
    },
    /// A structurally valid buffer holds an impossible value.
    Invalid(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "buffer truncated mid-field"),
            WireError::Checksum { offset } => {
                write!(f, "checksum mismatch at byte offset {offset}")
            }
            WireError::Invalid(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only little-endian encoder over a growable byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    /// A writer that appends to `buf` — with [`ByteWriter::into_bytes`],
    /// the way to encode into a caller's reused buffer without copying.
    pub fn from_bytes(buf: Vec<u8>) -> Self {
        ByteWriter { buf }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes verbatim.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed (`u32`) byte string.
    pub fn blob(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.bytes(v);
    }

    /// The buffer itself, for an encoder that appends to a `Vec<u8>`.
    pub fn buf(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor-style little-endian decoder over a byte slice. Every read is
/// bounds-checked and fails typed ([`WireError::Truncated`]) instead of
/// panicking, so torn checkpoint files decode into errors, not aborts.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True once the whole buffer has been consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u32` element count, refused above the bytes left (every
    /// element takes one at least) before anything is reserved for it.
    pub fn count(&mut self) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(WireError::Invalid("element count exceeds the bytes left"));
        }
        Ok(n)
    }

    /// Reads a length-prefixed (`u32`) byte string written by
    /// [`ByteWriter::blob`].
    pub fn blob(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.u32()? as usize;
        self.take(n)
    }
}

/// Appends one tagged, checksummed section to `out`:
/// `tag u8 | len u32 | payload[len] | checksum u8`, where the checksum is
/// [`xor_fold`] over tag and payload. This is the framing unit shared by
/// the `DPCK` checkpoint container and the `DPSV` network protocol — one
/// writer, one reader, one corruption model.
pub fn write_section(out: &mut ByteWriter, tag: u8, payload: &[u8]) {
    out.u8(tag);
    out.u32(payload.len() as u32);
    out.bytes(payload);
    out.u8(xor_fold(tag, payload));
}

/// Reads one section written by [`write_section`], validating its
/// checksum. Returns the tag and a borrowed payload slice. Fails typed:
/// [`WireError::Truncated`] when the buffer ends inside the section,
/// [`WireError::Checksum`] (with the section's byte offset) when the
/// payload was damaged.
pub fn read_section<'a>(r: &mut ByteReader<'a>) -> Result<(u8, &'a [u8]), WireError> {
    let offset = r.pos();
    let tag = r.u8()?;
    let len = r.u32()? as usize;
    let payload = r.take(len)?;
    let sum = r.u8()?;
    if xor_fold(tag, payload) != sum {
        return Err(WireError::Checksum { offset });
    }
    Ok((tag, payload))
}

/// Writes `bytes` to `path` crash-safely: the data goes to a sibling
/// temporary file first (same directory, so the rename cannot cross a
/// filesystem), is fsynced, and is then atomically renamed over `path`.
/// A crash at any instant leaves either the complete old file or the
/// complete new file — never a torn mixture.
///
/// Every file-bound artifact of the CLI (checkpoints, `--stats` output,
/// reports, BENCH json) goes through this helper.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path.file_name().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name")
    })?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(file_name);
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)?;
        // Persist the rename itself; failures here are non-fatal (the
        // data is already durable, only the directory entry may lag).
        if let Some(d) = dir {
            if let Ok(dh) = std::fs::File::open(d) {
                let _ = dh.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut w = ByteWriter::new();
        w.u8(0xAB);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(0x0123_4567_89AB_CDEF);
        w.blob(b"payload");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.blob().unwrap(), b"payload");
        assert!(r.is_done());
    }

    #[test]
    fn truncated_reads_fail_typed() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.u16().unwrap(), 0x0201);
        assert_eq!(r.u32(), Err(WireError::Truncated));
        // A failed read must not consume anything.
        assert_eq!(r.u8().unwrap(), 3);
        assert!(r.is_done());
        assert_eq!(r.u8(), Err(WireError::Truncated));
    }

    #[test]
    fn blob_length_is_bounds_checked() {
        let mut w = ByteWriter::new();
        w.u32(1000); // announces 1000 bytes, delivers none
        let bytes = w.into_bytes();
        assert_eq!(ByteReader::new(&bytes).blob(), Err(WireError::Truncated));
    }

    #[test]
    fn xor_fold_detects_single_bit_flips() {
        let body = b"some record payload";
        let sum = xor_fold(7, body);
        let mut flipped = body.to_vec();
        flipped[3] ^= 0x10;
        assert_ne!(sum, xor_fold(7, &flipped));
        // Tag participates too.
        assert_ne!(sum, xor_fold(8, body));
    }

    #[test]
    fn section_roundtrip_and_corruption() {
        let mut w = ByteWriter::new();
        write_section(&mut w, 7, b"hello");
        write_section(&mut w, 9, b"");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(read_section(&mut r).unwrap(), (7, &b"hello"[..]));
        assert_eq!(read_section(&mut r).unwrap(), (9, &b""[..]));
        assert!(r.is_done());
        // Truncation anywhere inside a section is typed, never a panic.
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            let mut sections = 0;
            loop {
                match read_section(&mut r) {
                    Ok(_) => sections += 1,
                    Err(WireError::Truncated) => break,
                    Err(e) => panic!("cut at {cut}: unexpected {e}"),
                }
            }
            assert!(sections <= 1, "cut at {cut}");
        }
        // Any single-bit flip in the payload or checksum is detected.
        for bit in 0..8 {
            let mut b = bytes.clone();
            b[8] ^= 1 << bit; // inside "hello"
            let mut r = ByteReader::new(&b);
            assert_eq!(read_section(&mut r), Err(WireError::Checksum { offset: 0 }));
        }
    }

    #[test]
    fn atomic_write_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("dp-wire-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.bin");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second generation").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second generation");
        // No temp residue.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
