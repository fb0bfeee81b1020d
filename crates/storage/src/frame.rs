//! Checksummed chunk framing.
//!
//! Every sealed edge chunk, vertex spill and checkpoint snapshot chunk is
//! wrapped in a fixed-size frame: a magic word, the payload length, and a
//! CRC-32 of the payload. The frame is computed at write time and verified
//! on every read, which turns silent corruption (a flipped bit, a write
//! torn by a crash mid-flight) into a *detected* integrity fault the
//! storage engine can retry, repair from a checkpoint copy, or escalate to
//! the coordinator's recovery protocol.
//!
//! Two halves cooperate:
//!
//! - the **real** CRC path: [`crc32`] (hand-rolled, IEEE polynomial,
//!   table-driven — no external crate) protects bytes that genuinely hit
//!   the host filesystem via `FileBacking`, including PR 7's ranged
//!   sub-chunk reads which are verified per record;
//! - the **simulated** frame path: the DES charges [`FRAME_BYTES`] of
//!   checksum overhead per framed device transfer, and frame-check
//!   *failures* are decided by the deterministic corruption oracle on
//!   [`crate::Device`], so faulted runs stay a pure function of
//!   `(seed, machine, simulated time, offset)`.

/// On-device size of one chunk frame: 4-byte magic, 8-byte payload length,
/// 4-byte CRC-32. Charged per framed transfer so checksum overhead is
/// measurable in reports.
pub const FRAME_BYTES: u64 = 16;

/// Frame magic word ("ChFr").
pub const FRAME_MAGIC: u32 = 0x4368_4672;

/// The CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) lookup
/// table, built at compile time.
const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-32 over `data` (IEEE, the zlib/ethernet variant).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// A verified frame descriptor kept beside file-backed extents: enough to
/// re-check any record-aligned sub-range of the extent without re-reading
/// the whole chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtentFrame {
    /// Extent offset in the backing file.
    pub offset: u64,
    /// Extent length in bytes.
    pub len: u64,
    /// CRC-32 of the whole extent.
    pub crc: u32,
    /// Encoded width of one record.
    pub record_bytes: u64,
    /// CRC-32 of each encoded record, in order — ranged sub-chunk reads
    /// verify exactly the records they touch.
    pub record_crcs: Vec<u32>,
}

impl ExtentFrame {
    /// Builds a frame over freshly encoded extent bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a whole number of records wide.
    pub fn seal(offset: u64, bytes: &[u8], record_bytes: u64) -> Self {
        assert!(record_bytes > 0);
        assert_eq!(bytes.len() as u64 % record_bytes, 0, "torn extent seal");
        let record_crcs = bytes
            .chunks_exact(record_bytes as usize)
            .map(crc32)
            .collect();
        Self {
            offset,
            len: bytes.len() as u64,
            crc: crc32(bytes),
            record_bytes,
            record_crcs,
        }
    }

    /// Verifies a full-extent read.
    pub fn verify(&self, bytes: &[u8]) -> bool {
        bytes.len() as u64 == self.len && crc32(bytes) == self.crc
    }

    /// Verifies a record-aligned sub-range read starting at absolute file
    /// offset `offset` — the ranged-read shape block-granular serves use.
    ///
    /// Returns `false` if the range falls outside the extent, is
    /// misaligned, or any covered record fails its CRC.
    pub fn verify_range(&self, offset: u64, bytes: &[u8]) -> bool {
        if offset < self.offset {
            return false;
        }
        let rel = offset - self.offset;
        if !rel.is_multiple_of(self.record_bytes)
            || !(bytes.len() as u64).is_multiple_of(self.record_bytes)
        {
            return false;
        }
        if rel + bytes.len() as u64 > self.len {
            return false;
        }
        let first = (rel / self.record_bytes) as usize;
        bytes
            .chunks_exact(self.record_bytes as usize)
            .enumerate()
            .all(|(i, rec)| crc32(rec) == self.record_crcs[first + i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let mut data = vec![0xA5u8; 4096];
        let clean = crc32(&data);
        for bit in [0usize, 7, 8 * 1000 + 3, 8 * 4095 + 7] {
            data[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&data), clean, "flip at bit {bit} undetected");
            data[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(crc32(&data), clean);
    }

    #[test]
    fn extent_frame_verifies_full_and_ranged_reads() {
        let bytes: Vec<u8> = (0..=255u8).cycle().take(80).collect();
        let f = ExtentFrame::seal(100, &bytes, 8);
        assert!(f.verify(&bytes));
        assert!(f.verify_range(100, &bytes[..16]));
        assert!(f.verify_range(100 + 24, &bytes[24..48]));
        // Misaligned, out-of-extent and corrupted ranges fail.
        assert!(!f.verify_range(101, &bytes[1..17]));
        assert!(!f.verify_range(100 + 72, &bytes[64..80]));
        let mut torn = bytes[24..48].to_vec();
        torn[5] ^= 0x40;
        assert!(!f.verify_range(100 + 24, &torn));
    }

    #[test]
    fn torn_prefix_fails_whole_extent_check() {
        let bytes = vec![7u8; 64];
        let f = ExtentFrame::seal(0, &bytes, 8);
        assert!(!f.verify(&bytes[..32]), "a torn prefix must not verify");
    }
}
