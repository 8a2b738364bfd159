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
//! purpose; it needs a `CHANGES.md` note saying why. Every in-process way
//! to run a request must reproduce it: `CorpusArtifacts::generate` on a
//! fresh and on a reused workspace, and a `CorpusRegistry` miss and the hit
//! that follows.
//!
//! [`SEED_RANKINGS`] pins the first stage alone: the full seed ranking
//! of each of those surveys (every admitted candidate with its score, in
//! rank order), digested the same way. A change that moves a single BM25
//! score fails here even when the top seeds, and so the reading path, stay
//! put. Changing it is the same kind of claim as changing [`GOLDEN`].
//!
//! [`SECTIONS`] pins everything a corpus build produces: the length and
//! CRC-32 of each of the six snapshot sections (papers, refs, graph,
//! PageRank, text index, meta) for the demonstration corpus and the
//! default-scale benchmark corpus. It is the byte-identity oracle of the
//! corpus generator and of `CorpusArtifacts::build`. Changing it is the
//! same kind of claim and needs the same kind of note.

use rpg_corpus::{generate, Corpus};
use rpg_engines::Query;
use rpg_repager::artifacts::CorpusArtifacts;
use rpg_repager::system::{PathRequest, RepagerOutput};
use rpg_repager::PipelineScratch;
use rpg_repro::{demo_artifacts, demo_corpus};
use rpg_server::api;
use rpg_service::snapshot::{self, NO_SPEC_FINGERPRINT};
use rpg_service::CorpusRegistry;
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

/// `(survey paper id, FNV-1a-64 of its seed ranking)`, in survey order.
const SEED_RANKINGS: &[(u32, u64)] = &[
    (676, 0xcba4e09e4650d6ba),
    (680, 0x575419dd4b3d53c4),
    (684, 0xecd102e44e6dfaf7),
    (699, 0x187e3ad6f006bf28),
    (720, 0x507145a399b1909c),
    (722, 0xdf5b80d69a12c46d),
    (742, 0x6f3236abf60a1635),
    (748, 0x7f9fe32ee49bc22f),
    (751, 0xa1a31b44fe925394),
    (757, 0xa03bfd96e81d1301),
    (767, 0x1314f0cc740e9f5e),
    (785, 0x9f9f97d47412a4d6),
    (792, 0xacf9bb50e764500f),
    (884, 0xb99f83caaeb03a83),
    (897, 0xde902c737679f1e4),
    (940, 0x2b29f883922c3721),
    (954, 0x8376ca54bf38d245),
    (963, 0x6ae0e2954127bcbf),
    (968, 0xb171928d05465038),
    (970, 0xd39967f3fbcf9eeb),
    (982, 0x4bd8fc2f3480c157),
    (986, 0x86d53bae3fc5033e),
    (993, 0xe0e05fafa23eba3c),
    (995, 0xa3bc67cba8df1c96),
    (1000, 0xcfa54bf7b9e97a94),
    (1001, 0x9193fbd858221dd0),
    (1006, 0x32abecca40a4c0b0),
    (1082, 0xa4c69ccb727f0d52),
    (1084, 0xc8ff8145e1b5eee7),
    (1120, 0xb3615cfde655ebd9),
    (1140, 0x20b474c398d6e8e3),
    (1177, 0x14937a10713c1fff),
    (1180, 0x9b70326148abf100),
    (1189, 0x438ffccbd7e2d654),
    (1193, 0x9b8da550db57078c),
    (1196, 0xc95655e96a5335f7),
    (1198, 0x22f352f35004eea8),
    (1202, 0xa63db274a1d11259),
    (1214, 0x2475a23d52bc1197),
    (1215, 0xfe1c29de0f41776b),
    (1216, 0xa45c5269543bb66b),
    (1218, 0x0975d6cd11c9a5e2),
    (1219, 0x7d49a84bb16ff146),
    (1220, 0xd8be34fb3de9ce5d),
    (1221, 0x914882748675fc9d),
    (1222, 0x96d3ab066053fc7d),
    (1223, 0xc73108b5aded0068),
    (1225, 0xe09d37c07e32add1),
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

/// The digest [`GOLDEN`] pins for one result.
fn result_digest(output: &RepagerOutput) -> u64 {
    let encoded =
        serde_json::to_string(&api::output_result_value(output)).expect("result serialises");
    fnv1a64(encoded.as_bytes())
}

#[test]
fn every_survey_reading_path_matches_its_golden_digest() {
    let artifacts = demo_artifacts();
    let registry = CorpusRegistry::new();
    registry.register_artifacts("demo", artifacts.clone());
    let mut reused = PipelineScratch::new();
    // One table per in-process way to run a request.
    let mut tables: [(&str, Vec<(u32, u64)>); 4] = [
        ("reused scratch", Vec::new()),
        ("fresh scratch", Vec::new()),
        ("registry miss", Vec::new()),
        ("registry hit", Vec::new()),
    ];
    for survey in artifacts.corpus().survey_bank().iter() {
        let paper = survey.paper.0;
        let exclude = [survey.paper];
        let request = PathRequest {
            max_year: Some(survey.year),
            exclude: &exclude,
            ..PathRequest::new(&survey.query, TOP_K)
        };
        let warm = artifacts
            .generate(&request, &mut reused)
            .unwrap_or_else(|e| panic!("survey {paper}: {e}"));
        let fresh = artifacts
            .generate(&request, &mut PipelineScratch::new())
            .unwrap_or_else(|e| panic!("survey {paper}: {e}"));
        let miss = registry
            .generate("demo", &request)
            .unwrap_or_else(|e| panic!("survey {paper}: {e}"));
        let hit = registry
            .generate("demo", &request)
            .unwrap_or_else(|e| panic!("survey {paper}: {e}"));
        assert!(!miss.cached && hit.cached, "survey {paper}: miss then hit");
        for ((_, table), output) in
            tables
                .iter_mut()
                .zip([&warm, &fresh, &*miss.output, &*hit.output])
        {
            table.push((paper, result_digest(output)));
        }
    }
    for (path, table) in &tables {
        if table == GOLDEN {
            continue;
        }
        let moved: Vec<u32> = table
            .iter()
            .filter(|row| !GOLDEN.contains(row))
            .map(|(paper, _)| *paper)
            .collect();
        println!("const GOLDEN: &[(u32, u64)] = &[");
        for (paper, digest) in table {
            println!("    ({paper}, 0x{digest:016x}),");
        }
        println!("];");
        panic!(
            "{} of {} reading paths run on the {path} path differ from the golden \
             table (surveys {moved:?}); the matching table is printed above",
            moved.len(),
            table.len()
        );
    }
}

#[test]
fn every_survey_seed_ranking_matches_its_pin() {
    let corpus = demo_corpus();
    let artifacts = CorpusArtifacts::build(corpus.clone()).expect("demo artifacts build");
    let table: Vec<(u32, u64)> = corpus
        .survey_bank()
        .iter()
        .map(|survey| {
            let exclude = [survey.paper];
            let ranking = artifacts.scholar().lexical().ranked_candidates(&Query {
                text: &survey.query,
                top_k: TOP_K,
                max_year: Some(survey.year),
                exclude: &exclude,
            });
            let mut bytes = Vec::with_capacity(ranking.len() * 12);
            for scored in &ranking {
                bytes.extend_from_slice(&scored.doc.to_le_bytes());
                bytes.extend_from_slice(&scored.score.to_bits().to_le_bytes());
            }
            (survey.paper.0, fnv1a64(&bytes))
        })
        .collect();
    if table != SEED_RANKINGS {
        let moved: Vec<u32> = table
            .iter()
            .filter(|row| !SEED_RANKINGS.contains(row))
            .map(|(paper, _)| *paper)
            .collect();
        println!("const SEED_RANKINGS: &[(u32, u64)] = &[");
        for (paper, digest) in &table {
            println!("    ({paper}, 0x{digest:016x}),");
        }
        println!("];");
        panic!(
            "{} of {} seed rankings differ from their pins (surveys {moved:?}); \
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
