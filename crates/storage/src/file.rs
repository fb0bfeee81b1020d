//! Real file backing for chunk sets, plus a self-cleaning scratch directory.
//!
//! The simulated cluster normally keeps chunk payloads in memory (the DES
//! charges virtual I/O time either way), but the file backend writes and
//! reads genuine files through the [`chaos_gas::Record`] codec. The
//! out-of-core examples and the memory-vs-file backing tests use it to
//! demonstrate that the engine really can run with its working set on disk.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use chaos_gas::record::{decode_all, encode_all};
use chaos_gas::Record;

use crate::frame::ExtentFrame;

/// A unique, self-deleting scratch directory under the system temp dir.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

impl ScratchDir {
    /// Creates `<tmp>/<prefix>-<pid>-<seq>`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from directory creation.
    pub fn new(prefix: &str) -> std::io::Result<Self> {
        let seq = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "{prefix}-{}-{seq}",
            std::process::id()
        ));
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// An append-only record file: chunks are byte ranges within one file, the
/// same layout the paper uses ("on each machine, for each streaming
/// partition, the vertex, edge and update set correspond to a separate
/// file", §7). Every extent is sealed with an [`ExtentFrame`] (whole-chunk
/// and per-record CRC-32s) at append time and verified on every read —
/// full-extent and ranged sub-chunk reads alike — so a bit flipped on the
/// real filesystem surfaces as an `InvalidData` error instead of silently
/// poisoning the run.
#[derive(Debug)]
pub struct FileBacking {
    file: File,
    len: u64,
    frames: BTreeMap<u64, ExtentFrame>,
}

fn corrupt(what: &str, offset: u64) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("checksum mismatch: {what} at offset {offset}"),
    )
}

impl FileBacking {
    /// Creates (truncating) a backing file at `path`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from file creation.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Self {
            file,
            len: 0,
            frames: BTreeMap::new(),
        })
    }

    /// Current file length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a chunk of records; returns `(offset, encoded_len)`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the write.
    pub fn append<R: Record>(&mut self, records: &[R]) -> std::io::Result<(u64, u64)> {
        let bytes = encode_all(records);
        let offset = self.len;
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.write_all(&bytes)?;
        self.len += bytes.len() as u64;
        self.frames.insert(
            offset,
            ExtentFrame::seal(offset, &bytes, R::ENCODED_BYTES as u64),
        );
        Ok((offset, bytes.len() as u64))
    }

    /// Reads back a chunk previously written with [`FileBacking::append`],
    /// verifying the extent's CRC-32 frame.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the read, or `InvalidData` if the bytes
    /// fail their checksum.
    pub fn read<R: Record>(&mut self, offset: u64, len: u64) -> std::io::Result<Vec<R>> {
        let mut buf = vec![0u8; len as usize];
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.read_exact(&mut buf)?;
        if let Some(frame) = self.frames.get(&offset) {
            if !frame.verify(&buf) {
                return Err(corrupt("extent", offset));
            }
        }
        Ok(decode_all(&buf))
    }

    /// Ranged read appended into `out`: decodes the byte range
    /// `[offset, offset + len)` — any record-aligned sub-range of a chunk
    /// extent, since the codec is fixed-width — without touching the bytes
    /// around it. Block-granular serves read only the active block runs of
    /// a chunk this way.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the read, or `InvalidData` if any record
    /// in the range fails its per-record CRC.
    ///
    /// # Panics
    ///
    /// Panics if `len` is not a multiple of the record's encoded width.
    pub fn read_into<R: Record>(
        &mut self,
        offset: u64,
        len: u64,
        out: &mut Vec<R>,
    ) -> std::io::Result<()> {
        assert_eq!(
            len as usize % R::ENCODED_BYTES,
            0,
            "ranged read must be record-aligned"
        );
        let mut buf = vec![0u8; len as usize];
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.read_exact(&mut buf)?;
        if let Some((_, frame)) = self.frames.range(..=offset).next_back() {
            if offset + len <= frame.offset + frame.len && !frame.verify_range(offset, &buf) {
                return Err(corrupt("record range", offset));
            }
        }
        out.reserve(len as usize / R::ENCODED_BYTES);
        for rec in buf.chunks_exact(R::ENCODED_BYTES) {
            out.push(R::decode(rec));
        }
        Ok(())
    }

    /// Truncates the file to zero (update sets are deleted after gather).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the truncation.
    pub fn truncate(&mut self) -> std::io::Result<()> {
        self.file.set_len(0)?;
        self.len = 0;
        self.frames.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dir_is_unique_and_cleaned() {
        let p1;
        {
            let d1 = ScratchDir::new("chaos-test").unwrap();
            let d2 = ScratchDir::new("chaos-test").unwrap();
            assert_ne!(d1.path(), d2.path());
            assert!(d1.path().exists());
            p1 = d1.path().to_path_buf();
        }
        assert!(!p1.exists(), "dropped scratch dir must be removed");
    }

    #[test]
    fn append_read_roundtrip() {
        let dir = ScratchDir::new("chaos-file").unwrap();
        let mut fb = FileBacking::create(&dir.path().join("updates.dat")).unwrap();
        let a: Vec<u64> = (0..100).collect();
        let b: Vec<u64> = (100..150).collect();
        let (off_a, len_a) = fb.append(&a).unwrap();
        let (off_b, len_b) = fb.append(&b).unwrap();
        assert_eq!(off_a, 0);
        assert_eq!(len_a, 800);
        assert_eq!(off_b, 800);
        assert_eq!(fb.len(), 1200);
        assert_eq!(fb.read::<u64>(off_b, len_b).unwrap(), b);
        assert_eq!(fb.read::<u64>(off_a, len_a).unwrap(), a);
    }

    #[test]
    fn read_into_decodes_record_aligned_subranges() {
        let dir = ScratchDir::new("chaos-file").unwrap();
        let mut fb = FileBacking::create(&dir.path().join("r.dat")).unwrap();
        let a: Vec<u64> = (0..100).collect();
        let (off, _) = fb.append(&a).unwrap();
        // Two disjoint record runs of the same extent, concatenated.
        let mut out: Vec<u64> = Vec::new();
        fb.read_into(off + 10 * 8, 5 * 8, &mut out).unwrap();
        fb.read_into(off + 90 * 8, 10 * 8, &mut out).unwrap();
        let want: Vec<u64> = (10..15).chain(90..100).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn tampered_bytes_fail_the_frame_check() {
        let dir = ScratchDir::new("chaos-file").unwrap();
        let path = dir.path().join("t.dat");
        let mut fb = FileBacking::create(&path).unwrap();
        let a: Vec<u64> = (0..100).collect();
        let (off, len) = fb.append(&a).unwrap();
        // Flip one bit on the real filesystem, behind the backing's back.
        {
            let mut f = OpenOptions::new().write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(off + 17 * 8)).unwrap();
            f.write_all(&[0xFF]).unwrap();
        }
        let whole = fb.read::<u64>(off, len);
        assert_eq!(whole.unwrap_err().kind(), std::io::ErrorKind::InvalidData);
        // The ranged read covering the flipped record fails too; a clean
        // sub-range still verifies.
        let mut out: Vec<u64> = Vec::new();
        let ranged = fb.read_into(off + 16 * 8, 4 * 8, &mut out);
        assert_eq!(ranged.unwrap_err().kind(), std::io::ErrorKind::InvalidData);
        out.clear();
        fb.read_into(off + 40 * 8, 8 * 8, &mut out).unwrap();
        assert_eq!(out, (40..48).collect::<Vec<u64>>());
    }

    #[test]
    fn truncate_resets() {
        let dir = ScratchDir::new("chaos-file").unwrap();
        let mut fb = FileBacking::create(&dir.path().join("x.dat")).unwrap();
        fb.append(&[1u32, 2, 3]).unwrap();
        fb.truncate().unwrap();
        assert!(fb.is_empty());
        let (off, _) = fb.append(&[9u32]).unwrap();
        assert_eq!(off, 0);
        assert_eq!(fb.read::<u32>(0, 4).unwrap(), vec![9]);
    }
}
