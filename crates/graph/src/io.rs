//! Edge-list file I/O.
//!
//! The paper's input format is "an unsorted edge list, with each edge
//! represented by its source and target vertex and an optional weight"
//! (§8). This module reads and writes that format in two encodings:
//!
//! - **binary**: fixed-width little-endian records matching the storage
//!   byte model (4-byte ids, optional weight; 8-byte-id files are read
//!   as long as their ids fit 4 bytes), with a small self-describing
//!   header;
//! - **text**: whitespace-separated `src dst [weight]` lines, `#` comments
//!   allowed — the de-facto exchange format (SNAP, Graph500).

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::types::{Edge, InputGraph, VertexId, MAX_VERTICES};

/// Magic bytes of the binary format ("CHAOSEL1").
const MAGIC: &[u8; 8] = b"CHAOSEL1";

/// Writes the binary edge-list format.
///
/// # Errors
///
/// Returns any I/O error from the underlying writer.
pub fn write_binary(g: &InputGraph, path: &Path) -> std::io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    w.write_all(MAGIC)?;
    w.write_all(&g.num_vertices.to_le_bytes())?;
    w.write_all(&g.num_edges().to_le_bytes())?;
    // A graph holds at most MAX_VERTICES vertices, so its ids take the
    // compact 4-byte width.
    w.write_all(&[u8::from(g.weighted), 4])?;
    for e in &g.edges {
        w.write_all(&e.src.to_le_bytes())?;
        w.write_all(&e.dst.to_le_bytes())?;
        if g.weighted {
            w.write_all(&e.weight.to_le_bytes())?;
        }
    }
    w.flush()
}

/// Reads the binary edge-list format.
///
/// # Errors
///
/// Returns an `InvalidData` error for malformed headers, truncated
/// payloads, more than [`MAX_VERTICES`] vertices or an endpoint out of
/// range, or any underlying I/O error.
pub fn read_binary(path: &Path) -> std::io::Result<InputGraph> {
    let mut r = BufReader::new(std::fs::File::open(path)?);
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("not a chaos edge-list file"));
    }
    let mut u64buf = [0u8; 8];
    r.read_exact(&mut u64buf)?;
    let num_vertices = u64::from_le_bytes(u64buf);
    if num_vertices > MAX_VERTICES {
        return Err(bad("vertex count exceeds the 4-byte id space"));
    }
    r.read_exact(&mut u64buf)?;
    let num_edges = u64::from_le_bytes(u64buf);
    let mut flags = [0u8; 2];
    r.read_exact(&mut flags)?;
    let weighted = flags[0] != 0;
    let id_bytes = flags[1] as usize;
    if id_bytes != 4 && id_bytes != 8 {
        return Err(bad("unsupported id width"));
    }
    // Slurp the payload and decode from the slice: per-record
    // `read_exact` calls pay the reader's buffer management three times
    // per edge, which dominates warm cache loads of multi-million-edge
    // graphs.
    let rec = id_bytes * 2 + if weighted { 4 } else { 0 };
    let mut payload = Vec::new();
    r.read_to_end(&mut payload)?;
    let need = (num_edges as usize)
        .checked_mul(rec)
        .ok_or_else(|| bad("edge count overflows payload size"))?;
    if payload.len() < need {
        return Err(bad("truncated edge payload"));
    }
    let le4 = |b: &[u8]| u32::from_le_bytes(b[..4].try_into().expect("4-byte slice"));
    let le8 = |b: &[u8]| u64::from_le_bytes(b[..8].try_into().expect("8-byte slice"));
    let mut edges = Vec::with_capacity(num_edges as usize);
    for chunk in payload[..need].chunks_exact(rec) {
        let (src, dst) = if id_bytes == 4 {
            (le4(chunk) as u64, le4(&chunk[4..]) as u64)
        } else {
            (le8(chunk), le8(&chunk[8..]))
        };
        let weight = if weighted {
            f32::from_le_bytes(chunk[rec - 4..].try_into().expect("4-byte slice"))
        } else {
            1.0
        };
        // Below `num_vertices`, so within the 4-byte id space.
        if src >= num_vertices || dst >= num_vertices {
            return Err(bad("edge endpoint out of range"));
        }
        edges.push(Edge::weighted(src as VertexId, dst as VertexId, weight));
    }
    Ok(InputGraph {
        num_vertices,
        edges,
        weighted,
    })
}

/// Writes the text format (`src dst [weight]` per line).
///
/// # Errors
///
/// Returns any I/O error from the underlying writer.
pub fn write_text(g: &InputGraph, path: &Path) -> std::io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "# chaos edge list: {} vertices, {} edges", g.num_vertices, g.num_edges())?;
    for e in &g.edges {
        if g.weighted {
            writeln!(w, "{} {} {}", e.src, e.dst, e.weight)?;
        } else {
            writeln!(w, "{} {}", e.src, e.dst)?;
        }
    }
    w.flush()
}

/// Reads the text format. Vertices are inferred as `max id + 1` unless any
/// line fails to parse; weights present on any line make the graph
/// weighted.
///
/// # Errors
///
/// Returns an `InvalidData` error for unparseable lines and for ids that
/// do not fit in a [`VertexId`] (which bounds the graph to
/// [`MAX_VERTICES`] vertices).
pub fn read_text(path: &Path) -> std::io::Result<InputGraph> {
    let r = BufReader::new(std::fs::File::open(path)?);
    let bad = |line: usize, msg: &str| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("line {line}: {msg}"),
        )
    };
    let mut edges = Vec::new();
    let mut weighted = false;
    let mut max_id: VertexId = 0;
    for (no, line) in r.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let mut id = |what: &str| -> std::io::Result<VertexId> {
            let tok = it
                .next()
                .ok_or_else(|| bad(no + 1, &format!("missing {what}")))?;
            let v: u64 = tok
                .parse()
                .map_err(|_| bad(no + 1, &format!("bad {what} id")))?;
            // `max id + 1` vertices must stay within MAX_VERTICES.
            let wide = || bad(no + 1, &format!("{what} id {v} exceeds the 4-byte id space"));
            VertexId::try_from(v)
                .ok()
                .filter(|&v| v < VertexId::MAX)
                .ok_or_else(wide)
        };
        let src = id("source")?;
        let dst = id("target")?;
        let weight = match it.next() {
            Some(tok) => {
                weighted = true;
                tok.parse::<f32>().map_err(|_| bad(no + 1, "bad weight"))?
            }
            None => 1.0,
        };
        max_id = max_id.max(src).max(dst);
        edges.push(Edge { src, dst, weight });
    }
    let num_vertices = if edges.is_empty() {
        0
    } else {
        u64::from(max_id) + 1
    };
    Ok(InputGraph {
        num_vertices,
        edges,
        weighted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use crate::rmat::RmatConfig;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("chaos-io-{}-{name}", std::process::id()))
    }

    #[test]
    fn binary_roundtrip_unweighted_and_weighted() {
        for g in [
            RmatConfig::paper(8).generate(),
            builder::gnm(50, 300, true, 3),
        ] {
            let p = tmp("bin");
            write_binary(&g, &p).expect("write");
            let back = read_binary(&p).expect("read");
            assert_eq!(back.num_vertices, g.num_vertices);
            assert_eq!(back.weighted, g.weighted);
            assert_eq!(back.edges.len(), g.edges.len());
            assert!(back.edges.iter().zip(&g.edges).all(|(a, b)| a == b));
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn text_roundtrip() {
        let g = builder::gnm(40, 200, true, 5);
        let p = tmp("txt");
        write_text(&g, &p).expect("write");
        let back = read_text(&p).expect("read");
        assert!(back.weighted);
        assert_eq!(back.edges.len(), g.edges.len());
        for (a, b) in back.edges.iter().zip(&g.edges) {
            assert_eq!((a.src, a.dst), (b.src, b.dst));
            assert!((a.weight - b.weight).abs() < 1e-4);
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn text_accepts_comments_and_blanks() {
        let p = tmp("cmt");
        std::fs::write(&p, "# header\n\n0 1\n1 2\n# trailing\n").expect("write");
        let g = read_text(&p).expect("read");
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_vertices, 3);
        assert!(!g.weighted);
        std::fs::remove_file(&p).ok();
    }

    /// A binary file with the given header and 8-byte-id unweighted edges.
    fn binary_with(num_vertices: u64, edges: &[(u64, u64)]) -> Vec<u8> {
        let mut b = MAGIC.to_vec();
        b.extend_from_slice(&num_vertices.to_le_bytes());
        b.extend_from_slice(&(edges.len() as u64).to_le_bytes());
        b.extend_from_slice(&[0, 8]);
        for &(s, d) in edges {
            b.extend_from_slice(&s.to_le_bytes());
            b.extend_from_slice(&d.to_le_bytes());
        }
        b
    }

    fn invalid_data<T: std::fmt::Debug>(r: std::io::Result<T>) -> String {
        let e = r.expect_err("input must be rejected");
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
        e.to_string()
    }

    #[test]
    fn ids_past_four_bytes_are_invalid_data() {
        let p = tmp("wide");
        let ok = 1u64 << 20;
        std::fs::write(&p, binary_with(ok, &[(0, ok - 1)])).expect("write");
        let g = read_binary(&p).expect("8-byte ids in range read");
        assert_eq!(g.num_vertices, ok);

        std::fs::write(&p, binary_with(MAX_VERTICES + 1, &[(0, 1)])).expect("write");
        assert!(invalid_data(read_binary(&p)).contains("4-byte id space"));
        std::fs::write(&p, binary_with(ok, &[(0, 1 << 32)])).expect("write");
        assert!(invalid_data(read_binary(&p)).contains("out of range"));

        for line in [
            "0 4294967296\n",
            "4294967295 1\n",
            "0 18446744073709551616\n",
        ] {
            std::fs::write(&p, line).expect("write");
            invalid_data(read_text(&p));
        }
        std::fs::write(&p, "0 4294967294\n").expect("write");
        let g = read_text(&p).expect("largest id reads");
        assert_eq!(g.num_vertices, MAX_VERTICES);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        let p = tmp("badbin");
        std::fs::write(&p, b"NOTCHAOS").expect("write");
        assert!(read_binary(&p).is_err());
        std::fs::remove_file(&p).ok();

        let p = tmp("badtxt");
        std::fs::write(&p, "0 x\n").expect("write");
        assert!(read_text(&p).is_err());
        std::fs::remove_file(&p).ok();
    }
}
