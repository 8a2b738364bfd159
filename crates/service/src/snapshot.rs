//! Versioned binary snapshots of [`CorpusArtifacts`]: build once, map
//! anywhere.
//!
//! Building a tenant's artifacts from its [`CorpusSpec`] means generating
//! the corpus, laying out the CSR citation graph, tokenising every paper
//! into the inverted index, and iterating PageRank to convergence — O(build)
//! work paid on every process start and every manifest reload.  A snapshot
//! persists the expensive parts in a checksummed, versioned binary container
//! so a process can come up in O(read):
//!
//! * **container** — an 8-byte magic, a format version, the producing spec's
//!   fingerprint, and a section table (kind, offset, length, CRC-32 per
//!   section) followed by the payloads.  Every section is independently
//!   checksummed; [`decode`] refuses the whole snapshot on the first
//!   mismatch and never returns a silently-wrong artifact.
//! * **typed columns** — each section encodes its natural column layout
//!   rather than a generic object graph: CSR offsets are delta+varint
//!   (monotonic), node/doc id columns are zigzag-delta+varint, PageRank
//!   scores are raw little-endian `f64` bits, and paper/term metadata uses
//!   length-prefixed string tables.
//! * **fingerprint gate** — [`spec_fingerprint`] hashes the generator
//!   fields of a [`CorpusSpec`] (seed, scale, papers-per-topic — *not* the
//!   `snapshot` path itself); [`decode`] only accepts a snapshot whose
//!   embedded fingerprint equals the expected one, so a stale file can slow
//!   a boot down (one warning, full rebuild) but never change what is
//!   served.
//!
//! Only the expensive state is persisted (papers, references, out-CSR,
//! PageRank, inverted index, catalogue metadata); cheap derivations — the
//! in-CSR direction, engine metadata columns, the seed engine, Eq. (3) node
//! weights — are recomputed at load, which keeps the format small and the
//! cross-layer invariants checkable.

use crate::manifest::CorpusSpec;
use rpg_corpus::citation::Reference;
use rpg_corpus::{
    Corpus, Paper, PaperId, PaperKind, SurveyBank, TopicCatalog, TopicId, VenueId, VenueTable,
};
use rpg_graph::pagerank::PageRankScores;
use rpg_graph::{CitationGraph, NodeId};
use rpg_repager::artifacts::CorpusArtifacts;
use rpg_textindex::inverted::{DocStats, Field, InvertedIndex, Posting};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// The 8-byte container magic.
pub const MAGIC: [u8; 8] = *b"RPGSNAP1";

/// The container format version this build reads and writes.
pub const FORMAT_VERSION: u16 = 1;

/// The fingerprint embedded by snapshots of artifacts that were not built
/// from a [`CorpusSpec`] (e.g. a corpus registered directly over the wire).
/// Such snapshots can be inspected and exported but never match a spec.
pub const NO_SPEC_FINGERPRINT: u64 = 0;

/// The kind tag of one snapshot section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionKind {
    /// Paper metadata: string tables for titles/abstracts plus the numeric
    /// per-paper columns.
    Papers,
    /// Per-paper reference lists with in-text occurrence counts.
    Refs,
    /// The out-direction CSR of the citation graph (the in-direction is
    /// rebuilt at load).
    Graph,
    /// Converged PageRank scores (raw little-endian `f64` bits).
    PageRank,
    /// The inverted text index: vocabulary string table, per-document
    /// length stats, and per-term postings for both fields.
    Index,
    /// Topic catalogue, venue table and survey bank, as checksummed JSON.
    Meta,
}

impl SectionKind {
    /// Every section a complete snapshot carries, in container order.
    pub const ALL: [SectionKind; 6] = [
        SectionKind::Papers,
        SectionKind::Refs,
        SectionKind::Graph,
        SectionKind::PageRank,
        SectionKind::Index,
        SectionKind::Meta,
    ];

    /// The wire tag of this kind.
    pub fn tag(self) -> u8 {
        match self {
            SectionKind::Papers => 1,
            SectionKind::Refs => 2,
            SectionKind::Graph => 3,
            SectionKind::PageRank => 4,
            SectionKind::Index => 5,
            SectionKind::Meta => 6,
        }
    }

    /// Parses a wire tag.
    pub fn from_tag(tag: u8) -> Option<SectionKind> {
        SectionKind::ALL.into_iter().find(|k| k.tag() == tag)
    }

    /// Human-readable section name, as printed by `rpg snapshot inspect`.
    pub fn name(self) -> &'static str {
        match self {
            SectionKind::Papers => "papers",
            SectionKind::Refs => "refs",
            SectionKind::Graph => "graph",
            SectionKind::PageRank => "pagerank",
            SectionKind::Index => "index",
            SectionKind::Meta => "meta",
        }
    }
}

impl fmt::Display for SectionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a byte buffer is not a usable snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with the snapshot magic.
    BadMagic,
    /// The container claims a format version this build does not read.
    UnsupportedVersion {
        /// The version in the container.
        found: u16,
    },
    /// The embedded spec fingerprint does not match the spec the caller is
    /// loading for.
    FingerprintMismatch {
        /// The fingerprint the caller expected.
        expected: u64,
        /// The fingerprint in the container.
        found: u64,
    },
    /// The buffer ends before the structure it claims to hold.
    Truncated {
        /// What was being read when the bytes ran out.
        what: String,
    },
    /// A required section is absent from the section table.
    SectionMissing {
        /// The absent section.
        kind: SectionKind,
    },
    /// A section's bytes do not match its recorded CRC-32.
    ChecksumMismatch {
        /// The corrupted section.
        kind: SectionKind,
    },
    /// The bytes parse but do not describe a consistent artifact.
    Malformed {
        /// Human-readable description of the inconsistency.
        what: String,
    },
    /// The artifacts cannot be encoded (an invariant the format relies on
    /// does not hold).
    Unsupported {
        /// Human-readable description of the unsupported shape.
        what: String,
    },
    /// Reading the snapshot file failed.
    Io {
        /// The rendered I/O error.
        what: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads {FORMAT_VERSION})"
            ),
            SnapshotError::FingerprintMismatch { expected, found } => write!(
                f,
                "spec fingerprint mismatch: snapshot was built for \
                 {found:#018x}, expected {expected:#018x}"
            ),
            SnapshotError::Truncated { what } => {
                write!(f, "snapshot truncated while reading {what}")
            }
            SnapshotError::SectionMissing { kind } => {
                write!(f, "snapshot has no {kind} section")
            }
            SnapshotError::ChecksumMismatch { kind } => {
                write!(f, "checksum mismatch in {kind} section")
            }
            SnapshotError::Malformed { what } => write!(f, "malformed snapshot: {what}"),
            SnapshotError::Unsupported { what } => {
                write!(f, "artifacts cannot be snapshotted: {what}")
            }
            SnapshotError::Io { what } => write!(f, "snapshot read failed: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl SnapshotError {
    fn malformed(what: impl Into<String>) -> SnapshotError {
        SnapshotError::Malformed { what: what.into() }
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE), table-based, std-only.

const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                0xEDB8_8320 ^ (crc >> 1)
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

/// The CRC-32 (IEEE 802.3 polynomial) of `bytes`, as recorded per section.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in bytes {
        crc = CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

// ---------------------------------------------------------------------------
// Primitive column codecs.

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_zigzag(out: &mut Vec<u8>, v: i64) {
    put_varint(out, zigzag(v));
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked little-endian reader over one section payload.  Every
/// overrun becomes a typed [`SnapshotError::Truncated`] naming the section,
/// never a panic.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8], what: &'static str) -> Reader<'a> {
        Reader {
            bytes,
            pos: 0,
            what,
        }
    }

    fn truncated(&self) -> SnapshotError {
        SnapshotError::Truncated {
            what: self.what.to_string(),
        }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn is_done(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if n > self.remaining() {
            return Err(self.truncated());
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn varint(&mut self) -> Result<u64, SnapshotError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(SnapshotError::malformed(format!(
                    "varint overflow in {}",
                    self.what
                )));
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(SnapshotError::malformed(format!(
                    "varint overflow in {}",
                    self.what
                )));
            }
        }
    }

    fn zigzag(&mut self) -> Result<i64, SnapshotError> {
        Ok(unzigzag(self.varint()?))
    }

    /// A varint that is used as an element count: each element occupies at
    /// least one payload byte, so any claim beyond the remaining bytes is
    /// malformed — this bounds allocations on corrupted input.
    fn count(&mut self) -> Result<usize, SnapshotError> {
        let n = self.varint()?;
        if n > self.remaining() as u64 {
            return Err(SnapshotError::malformed(format!(
                "{} claims {n} elements with only {} bytes left",
                self.what,
                self.remaining()
            )));
        }
        Ok(n as usize)
    }

    fn string(&mut self) -> Result<String, SnapshotError> {
        let len = self.count()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::malformed(format!("invalid UTF-8 string in {}", self.what)))
    }
}

// ---------------------------------------------------------------------------
// Spec fingerprint.

/// A 64-bit FNV-1a fingerprint of the *generator* fields of a spec: seed,
/// canonical scale, and papers-per-topic.  The `snapshot` path field is
/// deliberately excluded — where a snapshot lives must not change whether
/// it is accepted.  Never returns [`NO_SPEC_FINGERPRINT`].
pub fn spec_fingerprint(spec: &CorpusSpec) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut write = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(PRIME);
        }
    };
    write(b"rpg-snapshot-spec/v1");
    write(&spec.seed.to_le_bytes());
    // Canonicalise the scale so `None` and `"small"` (and `"full"` vs the
    // accepted alias `"default"`) fingerprint identically; an unparseable
    // scale (rejected by validation anyway) hashes its raw spelling.
    match spec.corpus_scale() {
        Ok(scale) => write(scale.name().as_bytes()),
        Err(_) => write(spec.scale.as_deref().unwrap_or("").as_bytes()),
    }
    match spec.papers_per_topic {
        Some(papers) => {
            write(&[1]);
            write(&(papers as u64).to_le_bytes());
        }
        None => write(&[0]),
    }
    if hash == NO_SPEC_FINGERPRINT {
        hash = 1;
    }
    hash
}

// ---------------------------------------------------------------------------
// Section payload codecs.

/// The JSON-serialised remainder of the corpus: small, irregular structures
/// where a typed-column layout would buy nothing.
#[derive(Serialize, Deserialize)]
struct MetaSection {
    topics: TopicCatalog,
    venues: VenueTable,
    survey_bank: SurveyBank,
}

fn encode_papers(papers: &[Paper], out: &mut Vec<u8>) {
    put_varint(out, papers.len() as u64);
    for paper in papers {
        put_str(out, &paper.title);
        put_str(out, &paper.abstract_text);
        put_varint(out, u64::from(paper.year));
        put_varint(out, u64::from(paper.venue.0));
        put_varint(out, u64::from(paper.topic.0));
        out.push(match paper.kind {
            PaperKind::Research => 0,
            PaperKind::Survey => 1,
        });
        put_varint(out, u64::from(paper.pages));
        out.push(u8::from(paper.parse_ok));
    }
}

fn decode_papers(bytes: &[u8]) -> Result<Vec<Paper>, SnapshotError> {
    let mut r = Reader::new(bytes, "papers section");
    let n = r.count()?;
    let mut papers = Vec::with_capacity(n);
    for i in 0..n {
        let title = r.string()?;
        let abstract_text = r.string()?;
        let year = u16::try_from(r.varint()?)
            .map_err(|_| SnapshotError::malformed("paper year out of range"))?;
        let venue = VenueId(
            u32::try_from(r.varint()?)
                .map_err(|_| SnapshotError::malformed("venue id out of range"))?,
        );
        let topic = TopicId(
            u32::try_from(r.varint()?)
                .map_err(|_| SnapshotError::malformed("topic id out of range"))?,
        );
        let kind = match r.u8()? {
            0 => PaperKind::Research,
            1 => PaperKind::Survey,
            other => {
                return Err(SnapshotError::malformed(format!(
                    "unknown paper kind tag {other}"
                )))
            }
        };
        let pages = u16::try_from(r.varint()?)
            .map_err(|_| SnapshotError::malformed("paper pages out of range"))?;
        let parse_ok = r.u8()? != 0;
        papers.push(Paper {
            id: PaperId::from_index(i),
            title,
            abstract_text,
            year,
            venue,
            topic,
            kind,
            pages,
            parse_ok,
        });
    }
    if !r.is_done() {
        return Err(SnapshotError::malformed("trailing bytes in papers section"));
    }
    Ok(papers)
}

fn encode_refs(references: &[Vec<Reference>], out: &mut Vec<u8>) {
    put_varint(out, references.len() as u64);
    for refs in references {
        put_varint(out, refs.len() as u64);
        let mut prev = 0i64;
        for r in refs {
            let cited = i64::from(r.cited.0);
            put_zigzag(out, cited - prev);
            prev = cited;
            out.push(r.occurrences);
        }
    }
}

fn decode_refs(bytes: &[u8]) -> Result<Vec<Vec<Reference>>, SnapshotError> {
    let mut r = Reader::new(bytes, "refs section");
    let n = r.count()?;
    let mut references = Vec::with_capacity(n);
    for _ in 0..n {
        let count = r.count()?;
        let mut refs = Vec::with_capacity(count);
        let mut prev = 0i64;
        for _ in 0..count {
            let cited = prev + r.zigzag()?;
            prev = cited;
            let cited = u32::try_from(cited)
                .map_err(|_| SnapshotError::malformed("cited paper id out of range"))?;
            refs.push(Reference {
                cited: PaperId(cited),
                occurrences: r.u8()?,
            });
        }
        references.push(refs);
    }
    if !r.is_done() {
        return Err(SnapshotError::malformed("trailing bytes in refs section"));
    }
    Ok(references)
}

fn encode_graph(graph: &CitationGraph, out: &mut Vec<u8>) {
    let offsets = graph.out_offsets();
    put_varint(out, (offsets.len() - 1) as u64);
    let mut prev = 0u64;
    for &o in offsets {
        put_varint(out, u64::from(o) - prev); // monotonic: plain deltas
        prev = u64::from(o);
    }
    let targets = graph.out_targets();
    put_varint(out, targets.len() as u64);
    let mut prev = 0i64;
    for t in targets {
        let id = i64::from(t.0);
        put_zigzag(out, id - prev);
        prev = id;
    }
}

fn decode_graph(bytes: &[u8]) -> Result<CitationGraph, SnapshotError> {
    let mut r = Reader::new(bytes, "graph section");
    let n = r.count()?;
    let mut offsets = Vec::with_capacity(n + 1);
    let mut acc = 0u64;
    for _ in 0..=n {
        acc += r.varint()?;
        let offset =
            u32::try_from(acc).map_err(|_| SnapshotError::malformed("CSR offset out of range"))?;
        offsets.push(offset);
    }
    let m = r.count()?;
    let mut targets = Vec::with_capacity(m);
    let mut prev = 0i64;
    for _ in 0..m {
        let id = prev + r.zigzag()?;
        prev = id;
        let id =
            u32::try_from(id).map_err(|_| SnapshotError::malformed("CSR target out of range"))?;
        targets.push(NodeId(id));
    }
    if !r.is_done() {
        return Err(SnapshotError::malformed("trailing bytes in graph section"));
    }
    CitationGraph::from_csr_parts(offsets, targets)
        .map_err(|e| SnapshotError::malformed(e.to_string()))
}

fn encode_pagerank(pagerank: &PageRankScores, out: &mut Vec<u8>) {
    put_varint(out, pagerank.scores.len() as u64);
    for &score in &pagerank.scores {
        put_u64(out, score.to_bits());
    }
    put_varint(out, pagerank.iterations as u64);
    put_u64(out, pagerank.delta.to_bits());
}

fn decode_pagerank(bytes: &[u8]) -> Result<PageRankScores, SnapshotError> {
    let mut r = Reader::new(bytes, "pagerank section");
    let n = r.count()?;
    let mut scores = Vec::with_capacity(n);
    for _ in 0..n {
        scores.push(f64::from_bits(r.u64()?));
    }
    let iterations = r.varint()? as usize;
    let delta = f64::from_bits(r.u64()?);
    if !r.is_done() {
        return Err(SnapshotError::malformed(
            "trailing bytes in pagerank section",
        ));
    }
    Ok(PageRankScores {
        scores,
        iterations,
        delta,
    })
}

fn encode_index(
    index: &InvertedIndex,
    doc_count: usize,
    out: &mut Vec<u8>,
) -> Result<(), SnapshotError> {
    let terms: Vec<&str> = index.vocabulary().iter().map(|(_, t)| t).collect();
    put_varint(out, terms.len() as u64);
    for term in &terms {
        put_str(out, term);
    }
    put_varint(out, doc_count as u64);
    for doc in 0..doc_count as u32 {
        let stats = index
            .doc_stats(doc)
            .ok_or_else(|| SnapshotError::Unsupported {
                what: format!("inverted index has no stats for document {doc}"),
            })?;
        put_varint(out, u64::from(stats.title_len));
        put_varint(out, u64::from(stats.body_len));
    }
    for field in [Field::Title, Field::Body] {
        for term in &terms {
            let postings = index.postings(field, term);
            put_varint(out, postings.len() as u64);
            let mut prev = 0i64;
            for p in postings {
                let doc = i64::from(p.doc);
                put_zigzag(out, doc - prev);
                prev = doc;
                put_varint(out, u64::from(p.term_frequency));
            }
        }
    }
    Ok(())
}

fn decode_index(bytes: &[u8]) -> Result<InvertedIndex, SnapshotError> {
    let mut r = Reader::new(bytes, "index section");
    let term_count = r.count()?;
    let mut terms = Vec::with_capacity(term_count);
    for _ in 0..term_count {
        terms.push(r.string()?);
    }
    let doc_count = r.count()?;
    let mut doc_stats = Vec::with_capacity(doc_count);
    for doc in 0..doc_count as u32 {
        let title_len = u32::try_from(r.varint()?)
            .map_err(|_| SnapshotError::malformed("title length out of range"))?;
        let body_len = u32::try_from(r.varint()?)
            .map_err(|_| SnapshotError::malformed("body length out of range"))?;
        doc_stats.push((
            doc,
            DocStats {
                title_len,
                body_len,
            },
        ));
    }
    let mut fields = Vec::with_capacity(2);
    for _ in 0..2 {
        let mut per_term = Vec::with_capacity(term_count);
        for _ in 0..term_count {
            let count = r.count()?;
            let mut postings = Vec::with_capacity(count);
            let mut prev = 0i64;
            for _ in 0..count {
                let doc = prev + r.zigzag()?;
                prev = doc;
                let doc = u32::try_from(doc)
                    .map_err(|_| SnapshotError::malformed("posting doc id out of range"))?;
                let term_frequency = u32::try_from(r.varint()?)
                    .map_err(|_| SnapshotError::malformed("term frequency out of range"))?;
                postings.push(Posting {
                    doc,
                    term_frequency,
                });
            }
            per_term.push(postings);
        }
        fields.push(per_term);
    }
    if !r.is_done() {
        return Err(SnapshotError::malformed("trailing bytes in index section"));
    }
    let body = fields.pop().expect("two fields");
    let title = fields.pop().expect("two fields");
    InvertedIndex::from_parts(terms, title, body, doc_stats).map_err(SnapshotError::malformed)
}

// ---------------------------------------------------------------------------
// Container encode / decode.

/// One section-table row, as read back by [`inspect`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionInfo {
    /// The section's kind.
    pub kind: SectionKind,
    /// Byte offset of the payload within the snapshot.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// The recorded CRC-32 of the payload.
    pub crc: u32,
    /// Whether the payload bytes actually hash to `crc`.
    pub crc_ok: bool,
}

/// Container-level metadata of a snapshot, as shown by
/// `rpg snapshot inspect`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// The container format version.
    pub format_version: u16,
    /// The embedded spec fingerprint ([`NO_SPEC_FINGERPRINT`] for artifacts
    /// not built from a spec).
    pub fingerprint: u64,
    /// Total snapshot size in bytes.
    pub total_len: u64,
    /// The section table, in container order.
    pub sections: Vec<SectionInfo>,
}

const HEADER_LEN: usize = 8 + 2 + 8 + 2;
const TABLE_ENTRY_LEN: usize = 1 + 8 + 8 + 4;

/// Encodes the artifacts into `out` as a complete snapshot container.
///
/// `fingerprint` is the producing spec's [`spec_fingerprint`] (or
/// [`NO_SPEC_FINGERPRINT`] when the artifacts have no spec).  The encoding
/// is deterministic: equal artifacts and fingerprint produce identical
/// bytes.
pub fn encode_into(
    artifacts: &CorpusArtifacts,
    fingerprint: u64,
    out: &mut Vec<u8>,
) -> Result<(), SnapshotError> {
    let corpus = artifacts.corpus();
    let references: Vec<Vec<Reference>> = (0..corpus.len())
        .map(|i| corpus.references_of(PaperId::from_index(i)).to_vec())
        .collect();

    let mut payloads: Vec<(SectionKind, Vec<u8>)> = Vec::with_capacity(SectionKind::ALL.len());
    for kind in SectionKind::ALL {
        let mut payload = Vec::new();
        match kind {
            SectionKind::Papers => encode_papers(corpus.papers(), &mut payload),
            SectionKind::Refs => encode_refs(&references, &mut payload),
            SectionKind::Graph => encode_graph(corpus.graph(), &mut payload),
            SectionKind::PageRank => encode_pagerank(artifacts.pagerank(), &mut payload),
            SectionKind::Index => encode_index(corpus.text_index(), corpus.len(), &mut payload)?,
            SectionKind::Meta => {
                let meta = MetaSection {
                    topics: corpus.topics().clone(),
                    venues: corpus.venues().clone(),
                    survey_bank: corpus.survey_bank().clone(),
                };
                let json =
                    serde_json::to_string(&meta).map_err(|e| SnapshotError::Unsupported {
                        what: format!("metadata does not serialise: {e:?}"),
                    })?;
                payload.extend_from_slice(json.as_bytes());
            }
        }
        payloads.push((kind, payload));
    }

    out.extend_from_slice(&MAGIC);
    put_u16(out, FORMAT_VERSION);
    put_u64(out, fingerprint);
    put_u16(out, payloads.len() as u16);
    let mut offset = (HEADER_LEN + TABLE_ENTRY_LEN * payloads.len()) as u64;
    for (kind, payload) in &payloads {
        out.push(kind.tag());
        put_u64(out, offset);
        put_u64(out, payload.len() as u64);
        put_u32(out, crc32(payload));
        offset += payload.len() as u64;
    }
    for (_, payload) in &payloads {
        out.extend_from_slice(payload);
    }
    Ok(())
}

/// [`encode_into`] into a fresh buffer.
pub fn encode(artifacts: &CorpusArtifacts, fingerprint: u64) -> Result<Vec<u8>, SnapshotError> {
    let mut out = Vec::new();
    encode_into(artifacts, fingerprint, &mut out)?;
    Ok(out)
}

/// One parsed section-table row: the kind, the recorded CRC, and the
/// payload slice (not yet checksum-verified).
type RawSection<'a> = (SectionKind, u32, &'a [u8]);

/// Parses the header and section table, returning each section's slice
/// without checking payload checksums.
fn read_table(bytes: &[u8]) -> Result<(u16, u64, Vec<RawSection<'_>>), SnapshotError> {
    let mut r = Reader::new(bytes, "snapshot header");
    let magic = r.take(MAGIC.len())?;
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u16()?;
    if version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    let fingerprint = r.u64()?;
    let count = r.u16()?;
    let mut sections = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let tag = r.u8()?;
        let offset = r.u64()?;
        let len = r.u64()?;
        let crc = r.u32()?;
        let kind = SectionKind::from_tag(tag)
            .ok_or_else(|| SnapshotError::malformed(format!("unknown section tag {tag}")))?;
        let end = offset.checked_add(len).filter(|&e| e <= bytes.len() as u64);
        let Some(end) = end else {
            return Err(SnapshotError::Truncated {
                what: format!("{kind} section payload"),
            });
        };
        sections.push((kind, crc, &bytes[offset as usize..end as usize]));
    }
    Ok((version, fingerprint, sections))
}

/// Reads back a snapshot's container metadata (version, fingerprint,
/// section sizes and checksum validity) without decoding any payload.
pub fn inspect(bytes: &[u8]) -> Result<SnapshotInfo, SnapshotError> {
    let (format_version, fingerprint, sections) = read_table(bytes)?;
    let infos = sections
        .iter()
        .map(|&(kind, crc, payload)| SectionInfo {
            kind,
            offset: (payload.as_ptr() as usize - bytes.as_ptr() as usize) as u64,
            len: payload.len() as u64,
            crc,
            crc_ok: crc32(payload) == crc,
        })
        .collect();
    Ok(SnapshotInfo {
        format_version,
        fingerprint,
        total_len: bytes.len() as u64,
        sections: infos,
    })
}

/// Decodes a snapshot into ready-to-serve artifacts.
///
/// `expected_fingerprint` is the [`spec_fingerprint`] of the spec the caller
/// wants artifacts for; a snapshot built for any other spec is rejected with
/// [`SnapshotError::FingerprintMismatch`] — the caller falls back to a full
/// build rather than ever serving the wrong corpus.  Every section checksum
/// is verified before any payload is interpreted.
pub fn decode(
    bytes: &[u8],
    expected_fingerprint: u64,
) -> Result<Arc<CorpusArtifacts>, SnapshotError> {
    let (_, fingerprint, sections) = read_table(bytes)?;
    if fingerprint != expected_fingerprint {
        return Err(SnapshotError::FingerprintMismatch {
            expected: expected_fingerprint,
            found: fingerprint,
        });
    }
    let section = |kind: SectionKind| -> Result<&[u8], SnapshotError> {
        let &(_, crc, payload) = sections
            .iter()
            .find(|&&(k, _, _)| k == kind)
            .ok_or(SnapshotError::SectionMissing { kind })?;
        if crc32(payload) != crc {
            return Err(SnapshotError::ChecksumMismatch { kind });
        }
        Ok(payload)
    };

    let papers = decode_papers(section(SectionKind::Papers)?)?;
    let references = decode_refs(section(SectionKind::Refs)?)?;
    if references.len() != papers.len() {
        return Err(SnapshotError::malformed(format!(
            "{} reference lists for {} papers",
            references.len(),
            papers.len()
        )));
    }
    let graph = decode_graph(section(SectionKind::Graph)?)?;
    let pagerank = decode_pagerank(section(SectionKind::PageRank)?)?;
    let inverted = decode_index(section(SectionKind::Index)?)?;
    let meta_json = std::str::from_utf8(section(SectionKind::Meta)?)
        .map_err(|_| SnapshotError::malformed("meta section is not UTF-8"))?;
    let meta: MetaSection = serde_json::from_str(meta_json)
        .map_err(|e| SnapshotError::malformed(format!("metadata does not parse: {e:?}")))?;

    let corpus = Arc::new(
        Corpus::from_parts(
            papers,
            references,
            graph,
            inverted,
            meta.topics,
            meta.venues,
            meta.survey_bank,
        )
        .map_err(SnapshotError::malformed)?,
    );
    CorpusArtifacts::from_parts(corpus, pagerank)
        .map_err(|e| SnapshotError::malformed(e.to_string()))
}

/// Reads and decodes the snapshot at `path` for the given expected
/// fingerprint.  The one-call form the registry and CLI use.
pub fn try_load(
    path: &str,
    expected_fingerprint: u64,
) -> Result<Arc<CorpusArtifacts>, SnapshotError> {
    let bytes = std::fs::read(path).map_err(|e| SnapshotError::Io {
        what: format!("{path}: {e}"),
    })?;
    decode(&bytes, expected_fingerprint)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_spec() -> CorpusSpec {
        CorpusSpec::small(0x5EED)
    }

    fn demo_artifacts(spec: &CorpusSpec) -> Arc<CorpusArtifacts> {
        CorpusArtifacts::build(spec.build_corpus().unwrap()).unwrap()
    }

    fn assert_same_artifacts(a: &CorpusArtifacts, b: &CorpusArtifacts) {
        let (ca, cb) = (a.corpus(), b.corpus());
        assert_eq!(ca.papers(), cb.papers());
        assert_eq!(ca.graph().edge_count(), cb.graph().edge_count());
        for n in ca.graph().nodes() {
            assert_eq!(ca.graph().references(n), cb.graph().references(n));
            assert_eq!(ca.graph().cited_by(n), cb.graph().cited_by(n));
        }
        for i in 0..ca.len() {
            let id = PaperId::from_index(i);
            assert_eq!(ca.references_of(id), cb.references_of(id));
        }
        assert_eq!(a.pagerank(), b.pagerank());
        assert_eq!(
            a.index().inverted().doc_count(),
            b.index().inverted().doc_count()
        );
        assert_eq!(
            a.index().inverted().term_count(),
            b.index().inverted().term_count()
        );
        assert_eq!(
            ca.survey_bank()
                .iter()
                .map(|s| &s.query)
                .collect::<Vec<_>>(),
            cb.survey_bank()
                .iter()
                .map(|s| &s.query)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn round_trip_preserves_artifacts_and_bytes() {
        let spec = demo_spec();
        let fingerprint = spec_fingerprint(&spec);
        let artifacts = demo_artifacts(&spec);
        let bytes = encode(&artifacts, fingerprint).unwrap();
        let decoded = decode(&bytes, fingerprint).unwrap();
        assert_same_artifacts(&artifacts, &decoded);
        // Encoding is deterministic, so re-encoding the decoded artifacts
        // reproduces the exact bytes.
        let re_encoded = encode(&decoded, fingerprint).unwrap();
        assert_eq!(bytes, re_encoded);
    }

    #[test]
    fn decoded_artifacts_serve_identical_results() {
        let spec = demo_spec();
        let fingerprint = spec_fingerprint(&spec);
        let artifacts = demo_artifacts(&spec);
        let bytes = encode(&artifacts, fingerprint).unwrap();
        let decoded = decode(&bytes, fingerprint).unwrap();
        let survey = artifacts.corpus().survey_bank().iter().next().unwrap();
        let (query, year) = (survey.query.clone(), survey.year);
        let request = rpg_repager::system::PathRequest {
            max_year: Some(year),
            ..rpg_repager::system::PathRequest::new(&query, 25)
        };
        let mut scratch = rpg_repager::PipelineScratch::new();
        let a = artifacts.generate(&request, &mut scratch).unwrap();
        let b = decoded.generate(&request, &mut scratch).unwrap();
        assert!(a.same_result(&b));
        assert_eq!(a.reading_list, b.reading_list);
    }

    #[test]
    fn fingerprint_gates_decoding() {
        let spec = demo_spec();
        let fingerprint = spec_fingerprint(&spec);
        let artifacts = demo_artifacts(&spec);
        let bytes = encode(&artifacts, fingerprint).unwrap();
        let other = spec_fingerprint(&CorpusSpec::small(0x0DD));
        assert_ne!(fingerprint, other);
        assert_eq!(
            decode(&bytes, other).unwrap_err(),
            SnapshotError::FingerprintMismatch {
                expected: other,
                found: fingerprint,
            }
        );
    }

    #[test]
    fn spec_fingerprint_canonicalises_and_excludes_the_path() {
        let base = CorpusSpec::small(9);
        let spelled_small = CorpusSpec {
            scale: Some("small".to_string()),
            ..base.clone()
        };
        assert_eq!(spec_fingerprint(&base), spec_fingerprint(&spelled_small));
        let with_path = CorpusSpec {
            snapshot: Some("/tmp/x.rpgsnap".to_string()),
            ..base.clone()
        };
        assert_eq!(spec_fingerprint(&base), spec_fingerprint(&with_path));
        let full = CorpusSpec {
            scale: Some("full".to_string()),
            ..base.clone()
        };
        let aliased = CorpusSpec {
            scale: Some("default".to_string()),
            ..base.clone()
        };
        assert_eq!(spec_fingerprint(&full), spec_fingerprint(&aliased));
        assert_ne!(spec_fingerprint(&base), spec_fingerprint(&full));
        assert_ne!(
            spec_fingerprint(&base),
            spec_fingerprint(&CorpusSpec::small(10))
        );
        assert_ne!(
            spec_fingerprint(&base),
            spec_fingerprint(&CorpusSpec {
                papers_per_topic: Some(12),
                ..base.clone()
            })
        );
        assert_ne!(spec_fingerprint(&base), NO_SPEC_FINGERPRINT);
    }

    #[test]
    fn inspect_reports_sections_and_checksums() {
        let spec = demo_spec();
        let fingerprint = spec_fingerprint(&spec);
        let bytes = encode(&demo_artifacts(&spec), fingerprint).unwrap();
        let info = inspect(&bytes).unwrap();
        assert_eq!(info.format_version, FORMAT_VERSION);
        assert_eq!(info.fingerprint, fingerprint);
        assert_eq!(info.total_len, bytes.len() as u64);
        assert_eq!(info.sections.len(), SectionKind::ALL.len());
        let mut expected_offset = (HEADER_LEN + TABLE_ENTRY_LEN * SectionKind::ALL.len()) as u64;
        for (section, kind) in info.sections.iter().zip(SectionKind::ALL) {
            assert_eq!(section.kind, kind);
            assert_eq!(section.offset, expected_offset);
            assert!(section.crc_ok, "{kind} checksum invalid");
            assert!(section.len > 0, "{kind} section empty");
            expected_offset += section.len;
        }
        assert_eq!(expected_offset, bytes.len() as u64);
    }

    #[test]
    fn header_corruption_yields_typed_errors() {
        let spec = demo_spec();
        let fingerprint = spec_fingerprint(&spec);
        let bytes = encode(&demo_artifacts(&spec), fingerprint).unwrap();

        assert_eq!(
            decode(&[], fingerprint).unwrap_err(),
            SnapshotError::Truncated {
                what: "snapshot header".to_string(),
            }
        );

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(
            decode(&bad_magic, fingerprint).unwrap_err(),
            SnapshotError::BadMagic
        );

        let mut future = bytes.clone();
        future[8] = 0xFF; // format version low byte
        assert_eq!(
            decode(&future, fingerprint).unwrap_err(),
            SnapshotError::UnsupportedVersion {
                found: u16::from_le_bytes([0xFF, bytes[9]]),
            }
        );
    }

    #[test]
    fn bit_flips_in_any_section_are_caught() {
        let spec = demo_spec();
        let fingerprint = spec_fingerprint(&spec);
        let bytes = encode(&demo_artifacts(&spec), fingerprint).unwrap();
        let info = inspect(&bytes).unwrap();
        for section in &info.sections {
            let mut corrupted = bytes.clone();
            let mid = (section.offset + section.len / 2) as usize;
            corrupted[mid] ^= 0x10;
            assert_eq!(
                decode(&corrupted, fingerprint).unwrap_err(),
                SnapshotError::ChecksumMismatch { kind: section.kind },
                "flip in {} not caught",
                section.kind
            );
        }
    }

    #[test]
    fn truncation_at_every_section_boundary_is_caught() {
        let spec = demo_spec();
        let fingerprint = spec_fingerprint(&spec);
        let bytes = encode(&demo_artifacts(&spec), fingerprint).unwrap();
        let info = inspect(&bytes).unwrap();
        for section in &info.sections {
            let truncated = &bytes[..section.offset as usize];
            let err = decode(truncated, fingerprint).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated { .. }),
                "truncation before {} yielded {err:?}",
                section.kind
            );
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn varint_and_zigzag_round_trip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let signed = [0i64, -1, 1, -64, 64, i64::MIN, i64::MAX];
        for &v in &signed {
            put_zigzag(&mut buf, v);
        }
        let mut r = Reader::new(&buf, "test");
        for &v in &values {
            assert_eq!(r.varint().unwrap(), v);
        }
        for &v in &signed {
            assert_eq!(r.zigzag().unwrap(), v);
        }
        assert!(r.is_done());
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // A payload claiming u64::MAX elements must fail fast instead of
        // attempting the allocation.
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        let mut r = Reader::new(&buf, "test");
        assert!(matches!(
            r.count().unwrap_err(),
            SnapshotError::Malformed { .. }
        ));
    }
}

#[cfg(all(test, feature = "proptests"))]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Builds artifacts and their fingerprint for a sampled spec: `papers`
    /// of 0 means "papers_per_topic omitted".
    fn sampled_artifacts(seed: u64, papers: usize) -> (Arc<CorpusArtifacts>, u64) {
        let spec = CorpusSpec {
            papers_per_topic: (papers > 0).then_some(papers),
            ..CorpusSpec::small(seed)
        };
        let artifacts = CorpusArtifacts::build(spec.build_corpus().unwrap()).unwrap();
        (artifacts, spec_fingerprint(&spec))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Round-trip identity over randomly generated artifacts: decoding
        /// an encoding yields artifacts that re-encode to identical bytes
        /// (encoding is deterministic, so byte identity implies structural
        /// identity for every persisted column).
        #[test]
        fn round_trip_identity(seed in 0u64..1 << 48, papers in 0usize..14) {
            let (artifacts, fingerprint) = sampled_artifacts(seed, papers);
            let bytes = encode(&artifacts, fingerprint).unwrap();
            let decoded = decode(&bytes, fingerprint).unwrap();
            prop_assert_eq!(encode(&decoded, fingerprint).unwrap(), bytes);
            prop_assert_eq!(decoded.corpus().len(), artifacts.corpus().len());
            prop_assert_eq!(decoded.pagerank(), artifacts.pagerank());
        }

        /// Corruption matrix: truncating at an arbitrary point, flipping a
        /// bit anywhere, rewriting the version, or decoding with the wrong
        /// fingerprint always yields a typed error — never a panic and
        /// never a silently decoded artifact.
        #[test]
        fn corruption_never_panics_or_decodes(
            seed in 0u64..1 << 32,
            cut in 0.0f64..1.0,
            flip_at in 0.0f64..1.0,
            flip_bit in 0u8..8,
        ) {
            let spec = CorpusSpec::small(seed);
            let fingerprint = spec_fingerprint(&spec);
            let artifacts = CorpusArtifacts::build(spec.build_corpus().unwrap()).unwrap();
            let bytes = encode(&artifacts, fingerprint).unwrap();

            let cut = (cut * bytes.len() as f64) as usize;
            prop_assert!(decode(&bytes[..cut.min(bytes.len() - 1)], fingerprint).is_err());

            let mut flipped = bytes.clone();
            let at = ((flip_at * bytes.len() as f64) as usize).min(bytes.len() - 1);
            flipped[at] ^= 1 << flip_bit;
            // A typed error is the expected outcome; if the flip lands in
            // bytes the CRC does not cover it must not change anything
            // observable, so re-encoding must reproduce the original bytes.
            if let Ok(decoded) = decode(&flipped, fingerprint) {
                prop_assert_eq!(encode(&decoded, fingerprint).unwrap(), bytes);
            }

            let mut wrong_version = bytes.clone();
            wrong_version[8] = wrong_version[8].wrapping_add(1);
            prop_assert!(matches!(
                decode(&wrong_version, fingerprint),
                Err(SnapshotError::UnsupportedVersion { .. })
            ));

            prop_assert!(matches!(
                decode(&bytes, fingerprint.wrapping_add(1)),
                Err(SnapshotError::FingerprintMismatch { .. })
            ));
        }
    }
}
