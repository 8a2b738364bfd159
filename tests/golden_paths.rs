//! Golden reading paths: the exact output the paper's method returns for
//! every SurveyBank survey of the demonstration corpus, pinned as a digest.
//!
//! Each survey is run in the evaluation form the paper uses (`max_year` =
//! the survey's year, the survey itself excluded, `top_k` = 30), and the
//! canonical encoding of its result ([`api::output_result_value`]: the
//! reading list, the path's nodes and edges, the seeds and the subgraph
//! size) is reduced to a 64-bit FNV-1a digest. Any optimisation or refactor
//! that changes a single reading path fails here, naming the surveys that
//! moved and printing the table that would match.
//!
//! Changing [`GOLDEN`] is a claim that the method's output changed on
//! purpose; it needs a `CHANGES.md` note saying why.
//!
//! [`SECTIONS`] pins everything a corpus build produces: the length and
//! CRC-32 of each of the six snapshot sections (papers, refs, graph,
//! PageRank, text index, meta) for the demonstration corpus and the
//! default-scale benchmark corpus. It is the byte-identity oracle of the
//! corpus generator and of `CorpusArtifacts::build`. Changing it is the
//! same kind of claim and needs the same kind of note.

use rpg_corpus::{generate, Corpus};
use rpg_repager::artifacts::CorpusArtifacts;
use rpg_repager::system::PathRequest;
use rpg_repro::demo_corpus;
use rpg_server::api;
use rpg_service::snapshot::{self, NO_SPEC_FINGERPRINT};
use rpg_service::PathService;
use std::sync::Arc;

/// The evaluation-form reading-list length.
const TOP_K: usize = 30;

/// `(survey paper id, FNV-1a-64 of the encoded result)`, in survey order.
const GOLDEN: &[(u32, u64)] = &[
    (676, 0x45881e45150d3ae8),
    (680, 0x2378c965f090eb6c),
    (684, 0xc465db8ca7235f53),
    (699, 0x954bc481ad5e9083),
    (720, 0x617a064f2fa80764),
    (722, 0xffb4b5aabe1c3e1a),
    (742, 0xbf9101f2f8754d1d),
    (748, 0x404cab5f076dec01),
    (751, 0xb8037b14de1640ef),
    (757, 0x93b040a1ec76c8cd),
    (767, 0x56aae6803a0e0735),
    (785, 0xbd6a980c6d5c6695),
    (792, 0x922045bcafd5af35),
    (884, 0xddf67103582b3804),
    (897, 0x036f0662b418bc16),
    (940, 0xe81a24164e60af3c),
    (954, 0xfa9da67192099d90),
    (963, 0x8e2c3d67b4af0862),
    (968, 0xbfa539757c03154c),
    (970, 0xcd5c812a876b3003),
    (982, 0x932c58d1507d2b3e),
    (986, 0xf89179d0ead361ed),
    (993, 0xbf8c6ebd08f6c59d),
    (995, 0x781887b7dda7ebf5),
    (1000, 0x94b4448cfbc48751),
    (1001, 0x7df7c16ed35d3399),
    (1006, 0x8904eb07efd46cb6),
    (1082, 0xa2894bcf04687f95),
    (1084, 0x26660efe8e3ecd33),
    (1120, 0xf99421082d5a5f1b),
    (1140, 0x32f1056bf1c18b43),
    (1177, 0xb702dd130581cc1c),
    (1180, 0x610153b7b982d9f3),
    (1189, 0x08e6ae88130cc246),
    (1193, 0x1b63acbc6c3d5ab2),
    (1196, 0x5d4e15c275e024d7),
    (1198, 0xaadd980ca19f77cf),
    (1202, 0xdd2f9ec188a133d9),
    (1214, 0xb579ed447dc95868),
    (1215, 0xbc88b4d6ace46f01),
    (1216, 0xf879eb2887bfde3c),
    (1218, 0x7a8308cfa5caa413),
    (1219, 0x336d8ee229cd573c),
    (1220, 0x0042e423ec3f3b5f),
    (1221, 0x8499c92b327453b6),
    (1222, 0x17fb35d4c9483368),
    (1223, 0x76acf42aeeb60bca),
    (1225, 0xc7af7689845e051e),
];

/// `(corpus, section, payload length in bytes, its CRC-32)`, in container
/// order per corpus.
const SECTIONS: &[(&str, &str, u64, u32)] = &[
    ("demo", "papers", 451_398, 0xa105_c363),
    ("demo", "refs", 24_483, 0x2903_4d2a),
    ("demo", "graph", 15_250, 0x4ec4_1960),
    ("demo", "pagerank", 9_819, 0xb26a_181c),
    ("demo", "index", 65_985, 0x51a6_e98c),
    ("demo", "meta", 49_052, 0x3a9d_8f1e),
    ("default scale", "papers", 1_846_734, 0xbb57_a5a2),
    ("default scale", "refs", 204_240, 0x2eaa_7761),
    ("default scale", "graph", 125_630, 0x33c0_8e30),
    ("default scale", "pagerank", 40_859, 0x7d2c_b333),
    ("default scale", "index", 254_854, 0x819f_6cb6),
    ("default scale", "meta", 157_389, 0xb2c0_1fb1),
];

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn every_survey_reading_path_matches_its_golden_digest() {
    let corpus = demo_corpus();
    let service = PathService::build(corpus.clone()).expect("demo artifacts build");
    let table: Vec<(u32, u64)> = corpus
        .survey_bank()
        .iter()
        .map(|survey| {
            let exclude = [survey.paper];
            let output = service
                .generate(&PathRequest {
                    max_year: Some(survey.year),
                    exclude: &exclude,
                    ..PathRequest::new(&survey.query, TOP_K)
                })
                .unwrap_or_else(|e| panic!("survey {}: {e}", survey.paper.0));
            let encoded = serde_json::to_string(&api::output_result_value(&output))
                .expect("result serialises");
            (survey.paper.0, fnv1a64(encoded.as_bytes()))
        })
        .collect();
    if table != GOLDEN {
        let moved: Vec<u32> = table
            .iter()
            .filter(|row| !GOLDEN.contains(row))
            .map(|(paper, _)| *paper)
            .collect();
        println!("const GOLDEN: &[(u32, u64)] = &[");
        for (paper, digest) in &table {
            println!("    ({paper}, 0x{digest:016x}),");
        }
        println!("];");
        panic!(
            "{} of {} reading paths differ from the golden table (surveys {moved:?}); \
             the matching table is printed above",
            moved.len(),
            table.len()
        );
    }
}

#[test]
fn snapshot_section_bytes_match_their_pins() {
    let corpora: [(&str, Arc<Corpus>); 2] = [
        ("demo", demo_corpus()),
        (
            "default scale",
            Arc::new(generate(&rpg_bench::bench_corpus_config())),
        ),
    ];
    let mut table: Vec<(&str, &str, u64, u32)> = Vec::new();
    for (name, corpus) in corpora {
        let artifacts = CorpusArtifacts::build(corpus).expect("artifacts build");
        let bytes = snapshot::encode(&artifacts, NO_SPEC_FINGERPRINT).expect("encodes");
        let info = snapshot::inspect(&bytes).expect("inspects");
        table.extend(
            info.sections
                .iter()
                .map(|section| (name, section.kind.name(), section.len, section.crc)),
        );
    }
    if table != SECTIONS {
        println!("const SECTIONS: &[(&str, &str, u64, u32)] = &[");
        for (corpus, section, len, crc) in &table {
            println!("    ({corpus:?}, {section:?}, {len}, 0x{crc:08x}),");
        }
        println!("];");
        panic!(
            "a corpus build changed: (corpus, section, bytes, CRC-32) differ from the pins; \
             the matching table is printed above"
        );
    }
}
