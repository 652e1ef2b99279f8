//! On-disk shard format for the columnar view store.
//!
//! A [`ViewStore`](crate::store::ViewStore) persists as one directory:
//! `meta.json` (the [`StoreMeta`] header: format version, shard count,
//! graph fingerprint and stats, id watermark) plus one flat binary file per
//! shard, `shard-NNNN.bin`, holding that shard's views with their frozen
//! [`CompactView`] columns written verbatim:
//!
//! ```text
//! offset  size  field
//! 0       8     magic "GPVSHARD"
//! 8       4     format version (u32 LE, currently 1)
//! 12      8     FNV-1a checksum over everything after this field (u64 LE)
//! 20      ...   payload:
//!   8           graph fingerprint (u64 LE)
//!   4           view count (u32 LE)
//!   ...         interned name table: count (u32 LE), then per name
//!               byte length (u32 LE) + UTF-8 bytes
//!   ...         per view, in ascending id order:
//!     8         stable id (u64 LE)
//!     4         name index into the table (u32 LE)
//!     4 + n     pattern JSON byte length (u32 LE) + bytes
//!     4         np = node-set count (u32 LE)
//!     4         ne = edge-set count (u32 LE)
//!     4(np+1)   node offsets (u32 LE each)
//!     4·nn      node ids, nn = last node offset (u32 LE each)
//!     4(ne+1)   edge offsets (u32 LE each)
//!     8·nр      pairs, np = last edge offset (2 × u32 LE each)
//! ```
//!
//! Everything is little-endian and position-independent: [`decode_shard`]
//! reads from any caller-provided `&[u8]` — a freshly read `Vec<u8>` or an
//! `mmap`ed region — with bounds-checked cursor reads and no `unsafe`, so a
//! truncated, bit-flipped or crafted file yields a clean [`ShardError`],
//! never a panic or undefined behavior. Encoding is deterministic (views
//! sorted by id, names interned in first-appearance order), so
//! save → load → save reproduces byte-identical files.

use crate::compact::CompactView;
use crate::view::ViewDef;
use gpv_graph::stats::GraphStats;
use gpv_graph::{DataGraph, NodeId};
use serde::{Deserialize, Serialize};

/// A cheap structural fingerprint of a graph: node/edge counts plus a
/// FNV-1a hash over the edge list. Not cryptographic — just enough to catch
/// "these views belong to a different graph".
pub fn graph_fingerprint(g: &DataGraph) -> u64 {
    let mut h = crate::fnv::Fnv1a::new();
    h.write_u64_coarse(g.node_count() as u64);
    h.write_u64_coarse(g.edge_count() as u64);
    for (u, v) in g.edges() {
        h.write_u64_coarse(((u.0 as u64) << 32) | v.0 as u64);
    }
    h.finish()
}

/// Magic bytes opening every shard file.
pub const SHARD_MAGIC: [u8; 8] = *b"GPVSHARD";

/// Current shard format version. Bump on any layout change; readers reject
/// versions they do not understand instead of guessing.
pub const SHARD_VERSION: u32 = 1;

/// `meta.json` — the directory-level header tying the shard files together.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StoreMeta {
    /// Shard format version (must equal [`SHARD_VERSION`]).
    pub format_version: u32,
    /// Number of `shard-NNNN.bin` files (and of in-memory shards on load,
    /// so id → shard routing reproduces exactly).
    pub shard_count: u32,
    /// Fingerprint of the graph the extensions were materialized against.
    pub graph_fingerprint: u64,
    /// Next stable id the store would hand out (ids are never reused).
    pub next_id: u64,
    /// Statistics of that graph, for costing fallback plans after a load.
    pub graph_stats: Option<GraphStats>,
}

/// Errors from shard encode/decode and store save/load.
#[derive(Debug)]
pub enum ShardError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// `meta.json` (de)serialization failure.
    Json(serde_json::Error),
    /// The file does not open with [`SHARD_MAGIC`].
    BadMagic,
    /// The file's format version is not one this reader understands.
    BadVersion(u32),
    /// The payload checksum does not match the header.
    BadChecksum {
        /// Checksum recorded in the file header.
        expected: u64,
        /// Checksum of the payload as read.
        actual: u64,
    },
    /// The file ends before a field it promises.
    Truncated {
        /// Bytes the next field needs.
        needed: usize,
        /// Bytes remaining.
        available: usize,
    },
    /// Structurally invalid contents (bad offsets, non-canonical sets,
    /// invalid UTF-8 or pattern JSON, trailing bytes).
    Malformed(String),
    /// A shard was written for a different graph than `meta.json` claims,
    /// or the loaded store is handed a different graph than it was saved
    /// for.
    GraphMismatch {
        /// Fingerprint expected.
        expected: u64,
        /// Fingerprint found.
        actual: u64,
    },
    /// A stored extension references a node id at or above the graph's
    /// node count (from `meta.json`), so it cannot belong to that graph.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// The graph's node count.
        nodes: usize,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Io(e) => write!(f, "shard i/o: {e}"),
            ShardError::Json(e) => write!(f, "store meta json: {e}"),
            ShardError::BadMagic => write!(f, "not a gpv shard file (bad magic)"),
            ShardError::BadVersion(v) => {
                write!(f, "unsupported shard format version {v} (reader speaks {SHARD_VERSION})")
            }
            ShardError::BadChecksum { expected, actual } => write!(
                f,
                "shard checksum mismatch: header says {expected:#018x}, payload hashes to {actual:#018x}"
            ),
            ShardError::Truncated { needed, available } => write!(
                f,
                "shard file truncated: next field needs {needed} bytes, {available} remain"
            ),
            ShardError::Malformed(what) => write!(f, "malformed shard: {what}"),
            ShardError::GraphMismatch { expected, actual } => write!(
                f,
                "store was saved for graph {expected:#x}, not {actual:#x}"
            ),
            ShardError::NodeOutOfRange { node, nodes } => write!(
                f,
                "stored extension references node {node} but the graph has {nodes} nodes"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        ShardError::Io(e)
    }
}

impl From<serde_json::Error> for ShardError {
    fn from(e: serde_json::Error) -> Self {
        ShardError::Json(e)
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Encodes one shard's views (which the caller supplies in ascending id
/// order — encoding is deterministic) into the flat file format.
pub fn encode_shard(views: &[(u64, &ViewDef, &CompactView)], graph_fingerprint: u64) -> Vec<u8> {
    // Interned name table, first-appearance order.
    let mut names: Vec<&str> = Vec::new();
    let mut name_idx: std::collections::HashMap<&str, u32> = std::collections::HashMap::new();
    for (_, def, _) in views {
        let name = def.name.as_str();
        if !name_idx.contains_key(name) {
            name_idx.insert(name, names.len() as u32);
            names.push(name);
        }
    }

    let mut payload = Vec::new();
    put_u64(&mut payload, graph_fingerprint);
    put_u32(&mut payload, views.len() as u32);
    put_u32(&mut payload, names.len() as u32);
    for name in &names {
        put_u32(&mut payload, name.len() as u32);
        payload.extend_from_slice(name.as_bytes());
    }
    for (id, def, ext) in views {
        put_u64(&mut payload, *id);
        put_u32(&mut payload, name_idx[def.name.as_str()]);
        let pat = serde_json::to_string(&def.pattern).expect("patterns serialize");
        put_u32(&mut payload, pat.len() as u32);
        payload.extend_from_slice(pat.as_bytes());
        let (edge_offsets, pairs, node_offsets, nodes) = ext.columns();
        put_u32(&mut payload, (node_offsets.len() - 1) as u32);
        put_u32(&mut payload, (edge_offsets.len() - 1) as u32);
        for &o in node_offsets {
            put_u32(&mut payload, o);
        }
        for &n in nodes {
            put_u32(&mut payload, n.0);
        }
        for &o in edge_offsets {
            put_u32(&mut payload, o);
        }
        for &(a, b) in pairs {
            put_u32(&mut payload, a.0);
            put_u32(&mut payload, b.0);
        }
    }

    let mut out = Vec::with_capacity(20 + payload.len());
    out.extend_from_slice(&SHARD_MAGIC);
    put_u32(&mut out, SHARD_VERSION);
    put_u64(&mut out, crate::fnv::fnv1a(&payload));
    out.extend_from_slice(&payload);
    out
}

/// A decoded shard file: the graph it belongs to and its views with their
/// stable ids.
#[derive(Debug)]
pub struct ShardContents {
    /// Fingerprint of the graph the extensions were materialized against.
    pub graph_fingerprint: u64,
    /// `(stable id, definition, frozen extension)` per view, in file order.
    pub views: Vec<(u64, ViewDef, CompactView)>,
    /// One past the largest node id any view stores — pair endpoint or
    /// node-set member — or 0 when none: bounds the ids against a graph's
    /// node count without another pass over the columns.
    pub node_span: usize,
}

/// Bounds-checked little-endian reader over a caller-provided buffer —
/// works identically on an owned `Vec<u8>` and an `mmap`ed region.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ShardError> {
        let available = self.bytes.len() - self.pos;
        if n > available {
            return Err(ShardError::Truncated {
                needed: n,
                available,
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, ShardError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, ShardError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// A `count`-element u32 column. `count` was itself read from the file,
    /// so cap it against the bytes actually remaining before allocating.
    fn u32s(&mut self, count: usize) -> Result<Vec<u32>, ShardError> {
        let raw = self.take(
            count
                .checked_mul(4)
                .ok_or(ShardError::Malformed("column length overflows".into()))?,
        )?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }
}

/// Decodes one shard file from a caller-provided buffer, validating magic,
/// version, checksum and every structural invariant. Never panics on
/// arbitrary input.
pub fn decode_shard(bytes: &[u8]) -> Result<ShardContents, ShardError> {
    let mut c = Cursor { bytes, pos: 0 };
    if c.take(8)? != SHARD_MAGIC {
        return Err(ShardError::BadMagic);
    }
    let version = c.u32()?;
    if version != SHARD_VERSION {
        return Err(ShardError::BadVersion(version));
    }
    let expected = c.u64()?;
    let actual = crate::fnv::fnv1a(&bytes[c.pos..]);
    if actual != expected {
        return Err(ShardError::BadChecksum { expected, actual });
    }

    let graph_fingerprint = c.u64()?;
    let view_count = c.u32()? as usize;
    let name_count = c.u32()? as usize;
    let mut names: Vec<String> = Vec::new();
    for _ in 0..name_count {
        let len = c.u32()? as usize;
        let raw = c.take(len)?;
        names.push(
            std::str::from_utf8(raw)
                .map_err(|_| ShardError::Malformed("view name not UTF-8".into()))?
                .to_string(),
        );
    }

    let mut views = Vec::new();
    // One past a column's largest id. Each column was just read, so this
    // pass runs in cache.
    let mut node_span = 0usize;
    let span = |col: &[u32]| col.iter().copied().max().map_or(0, |v| v as usize + 1);
    let mut last_id: Option<u64> = None;
    for _ in 0..view_count {
        let id = c.u64()?;
        if last_id.is_some_and(|prev| prev >= id) {
            return Err(ShardError::Malformed(
                "view ids not strictly ascending".into(),
            ));
        }
        last_id = Some(id);
        let ni = c.u32()? as usize;
        let name = names
            .get(ni)
            .ok_or_else(|| ShardError::Malformed(format!("name index {ni} out of table")))?
            .clone();
        let pat_len = c.u32()? as usize;
        let pat_raw = c.take(pat_len)?;
        let pat_str = std::str::from_utf8(pat_raw)
            .map_err(|_| ShardError::Malformed("pattern json not UTF-8".into()))?;
        let pattern = serde_json::from_str(pat_str)
            .map_err(|e| ShardError::Malformed(format!("pattern json: {e}")))?;
        let np = c.u32()? as usize;
        let ne = c.u32()? as usize;
        let node_offsets = c.u32s(np + 1)?;
        let nn = *node_offsets.last().expect("np + 1 >= 1") as usize;
        let raw_nodes = c.u32s(nn)?;
        node_span = node_span.max(span(&raw_nodes));
        let nodes: Vec<NodeId> = raw_nodes.into_iter().map(NodeId).collect();
        let edge_offsets = c.u32s(ne + 1)?;
        let pair_count = *edge_offsets.last().expect("ne + 1 >= 1") as usize;
        let raw_pairs = c.u32s(
            pair_count
                .checked_mul(2)
                .ok_or(ShardError::Malformed("pair count overflows".into()))?,
        )?;
        node_span = node_span.max(span(&raw_pairs));
        let pairs: Vec<(NodeId, NodeId)> = raw_pairs
            .chunks_exact(2)
            .map(|p| (NodeId(p[0]), NodeId(p[1])))
            .collect();
        let ext = CompactView::from_columns(edge_offsets, pairs, node_offsets, nodes)
            .map_err(ShardError::Malformed)?;
        views.push((id, ViewDef::new(name, pattern), ext));
    }
    if c.pos != bytes.len() {
        return Err(ShardError::Malformed(format!(
            "{} trailing bytes after last view",
            bytes.len() - c.pos
        )));
    }
    Ok(ShardContents {
        graph_fingerprint,
        views,
        node_span,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpv_graph::GraphBuilder;
    use gpv_matching::result::MatchResult;
    use gpv_pattern::PatternBuilder;

    #[test]
    fn fingerprint_sensitive_to_edges() {
        let chain = |reverse_second: bool| {
            let mut b = GraphBuilder::new();
            let a = b.add_node(["A"]);
            let c = b.add_node(["B"]);
            let d = b.add_node(["C"]);
            b.add_edge(a, c);
            if reverse_second {
                b.add_edge(d, c);
            } else {
                b.add_edge(c, d);
            }
            b.build()
        };
        let g = chain(false);
        assert_eq!(graph_fingerprint(&g), graph_fingerprint(&chain(false)));
        assert_ne!(graph_fingerprint(&g), graph_fingerprint(&chain(true)));
    }

    fn view(name: &str, x: &str, y: &str) -> ViewDef {
        let mut b = PatternBuilder::new();
        let u = b.node_labeled(x);
        let v = b.node_labeled(y);
        b.edge(u, v);
        ViewDef::new(name, b.build().unwrap())
    }

    fn ext(pairs: Vec<(u32, u32)>) -> CompactView {
        let (vs, ws): (Vec<_>, Vec<_>) = pairs.iter().copied().unzip();
        CompactView::freeze(&MatchResult {
            node_matches: vec![
                vs.into_iter().map(NodeId).collect(),
                ws.into_iter().map(NodeId).collect(),
            ],
            edge_matches: vec![pairs
                .into_iter()
                .map(|(a, b)| (NodeId(a), NodeId(b)))
                .collect()],
        })
    }

    fn sample() -> Vec<(u64, ViewDef, CompactView)> {
        vec![
            (0, view("vab", "A", "B"), ext(vec![(0, 1), (2, 3)])),
            (3, view("vbc", "B", "C"), ext(vec![(1, 4)])),
            (7, view("vab", "A", "B"), CompactView::empty()),
        ]
    }

    fn encode_sample() -> Vec<u8> {
        let vs = sample();
        let refs: Vec<(u64, &ViewDef, &CompactView)> =
            vs.iter().map(|(id, d, e)| (*id, d, e)).collect();
        encode_shard(&refs, 0xfeed)
    }

    #[test]
    fn roundtrip_is_exact_and_deterministic() {
        let bytes = encode_shard(
            &sample()
                .iter()
                .map(|(id, d, e)| (*id, d, e))
                .collect::<Vec<_>>(),
            0xfeed,
        );
        assert_eq!(&bytes[..8], b"GPVSHARD");
        let decoded = decode_shard(&bytes).unwrap();
        assert_eq!(decoded.graph_fingerprint, 0xfeed);
        let orig = sample();
        assert_eq!(decoded.views.len(), orig.len());
        for ((id, def, ext), (oid, odef, oext)) in decoded.views.iter().zip(&orig) {
            assert_eq!(id, oid);
            assert_eq!(def, odef);
            assert_eq!(ext, oext);
        }
        // Re-encoding the decode reproduces the bytes exactly.
        let refs: Vec<(u64, &ViewDef, &CompactView)> =
            decoded.views.iter().map(|(id, d, e)| (*id, d, e)).collect();
        assert_eq!(encode_shard(&refs, decoded.graph_fingerprint), bytes);
    }

    #[test]
    fn empty_shard_roundtrips() {
        let bytes = encode_shard(&[], 9);
        let decoded = decode_shard(&bytes).unwrap();
        assert_eq!(decoded.graph_fingerprint, 9);
        assert!(decoded.views.is_empty());
    }

    #[test]
    fn truncation_at_every_prefix_is_a_clean_error() {
        let bytes = encode_sample();
        for n in 0..bytes.len() {
            let err = decode_shard(&bytes[..n]).expect_err("prefix must not decode");
            assert!(
                matches!(
                    err,
                    ShardError::Truncated { .. }
                        | ShardError::BadMagic
                        | ShardError::BadChecksum { .. }
                ),
                "prefix {n}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let mut bytes = encode_sample();
        bytes[0] ^= 0xff;
        assert!(matches!(decode_shard(&bytes), Err(ShardError::BadMagic)));

        let mut bytes = encode_sample();
        bytes[8] = 99; // version field
        assert!(matches!(
            decode_shard(&bytes),
            Err(ShardError::BadVersion(99))
        ));
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let clean = encode_sample();
        // Flip one bit in a spread of payload positions (offsets, ids,
        // name bytes, pairs): every flip must be caught by the checksum.
        for pos in (20..clean.len()).step_by(7) {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x10;
            assert!(
                matches!(decode_shard(&bytes), Err(ShardError::BadChecksum { .. })),
                "flip at {pos} slipped past the checksum"
            );
        }
    }

    #[test]
    fn forged_checksum_still_hits_structural_validation() {
        // An attacker fixing up the checksum after corrupting offsets must
        // land on Malformed/Truncated, never a panic.
        let clean = encode_sample();
        for pos in (20..clean.len()).step_by(3) {
            let mut bytes = clean.clone();
            bytes[pos] = bytes[pos].wrapping_add(1);
            let sum = crate::fnv::fnv1a(&bytes[20..]);
            bytes[12..20].copy_from_slice(&sum.to_le_bytes());
            // Any outcome is fine except a panic — including a lucky decode
            // whose columns still validate; the checksum test above covers
            // integrity, this one covers memory safety of the parser.
            let _ = decode_shard(&bytes);
        }
    }
}
