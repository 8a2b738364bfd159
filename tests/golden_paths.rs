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
//! [`CUT_OFF_RANKINGS`] pins the same full ranking at the cut-offs the
//! evaluation form leaves out but `cold_generate` sends: `max_year` one and
//! two years before the survey's, and no cut-off, the survey still
//! excluded. Those are where the year filter drops the most candidates.
//!
//! [`SECTIONS`] pins everything a corpus build produces: the length and
//! CRC-32 of each of the six snapshot sections (papers, refs, graph,
//! PageRank, text index, meta) for the demonstration corpus and the
//! default-scale benchmark corpus. It is the byte-identity oracle of the
//! corpus generator and of `CorpusArtifacts::build`. Changing it is the
//! same kind of claim and needs the same kind of note.

use rpg_corpus::{generate, Corpus, Survey};
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

/// `(survey paper id, digest at year − 1, at year − 2, with no cut-off)`,
/// in survey order; each digest is taken as [`SEED_RANKINGS`]' is.
#[rustfmt::skip]
const CUT_OFF_RANKINGS: &[(u32, u64, u64, u64)] = &[
    (676, 0x16bce2cbf8ec651e, 0xe595f56fb810d5f6, 0x23d22e17f54f40b4),
    (680, 0xf2c06b4faa6c5f1e, 0xb4696b44a4068eaa, 0x542a7a886c953672),
    (684, 0x352bd75d80ddbf40, 0x2873d17ab0f236f2, 0x0f9764681181fd8e),
    (699, 0x85ad858f003ca019, 0xd633932167120342, 0x5208e73b5839d0f4),
    (720, 0xc11fff4f702e6c2a, 0x4e0dcdb52b51cdf6, 0xb620c7ad4561adfa),
    (722, 0xa5424da4bf53f0c4, 0xb3bf8ed1983d8c95, 0xbaf3bbb5b0f6235e),
    (742, 0xc700b0c3700a3c26, 0x09638b6d615391d8, 0x99dbd20c5463c748),
    (748, 0x65aeaaa6d16f1579, 0x1c56f3355ceb9e46, 0xd7189b9a3c35eddc),
    (751, 0xd9e5f5e7808361c7, 0xd7b9ae867eea2045, 0x89b1d714455d9b1e),
    (757, 0xb72e1d584ec7e987, 0xaa84738491c2eafd, 0x97716180a29e2772),
    (767, 0x57579435ab0979e5, 0x1d2f8ac82adfa952, 0x11613efb9deefa92),
    (785, 0x478bf80c4fff7859, 0xa29f508f635de636, 0xddea4aed52f484d6),
    (792, 0x99f4ced98c93b790, 0x76878443d1c2d1bc, 0xb7c713e76863af28),
    (884, 0x4cecb80622082d88, 0xdea4abf1f2a35181, 0x489491044af8e787),
    (897, 0x6f3eee021a60528b, 0x22bb8aeccf10f862, 0x0bdcb0a74854e98f),
    (940, 0x821d7986731a4776, 0x4b36c7cfc6c616c6, 0xc750117719b2e091),
    (954, 0x566940b994417e7b, 0x05b9388d8c064d07, 0xd92c05c0a80f66ae),
    (963, 0x325276ade55c5a21, 0x3f85ea069b34a568, 0x46849e4799b08260),
    (968, 0x34fd46703ea1da31, 0xe0bd5cfd3cc07376, 0x84303d47d2e3d661),
    (970, 0x77c687317e2e48d1, 0x2cd99030a2cf6c94, 0xc2684cd7b48626ac),
    (982, 0xcc1aa12710ed0d05, 0xd49a2af2a87aa333, 0xfde0a5a51d62320a),
    (986, 0x0b4580bd85e669fa, 0x749755a1de344b94, 0x708f50609d6dae95),
    (993, 0x04fb3008e805281b, 0xb4477cb452908cd3, 0x4776805c863e6aca),
    (995, 0xcb99d0272d82576f, 0x91d46a93692d259a, 0x8cefa1d69b133922),
    (1000, 0xc262cd9aa3ca1183, 0xdd88450ff3b249ac, 0x808ac58dd4ed4b3a),
    (1001, 0x9193fbd858221dd0, 0x9193fbd858221dd0, 0x768a333fe32ab5ea),
    (1006, 0x1c483bf370f7d48f, 0xe6791f9d2ac78c42, 0x275e3b182e349a96),
    (1082, 0x4585c80df7b0cffe, 0x0c1b2c846a021549, 0x5b2716906ee50f52),
    (1084, 0x54219c7499f2ce3c, 0xf8f86568d03838b3, 0x682a7ff0b9284d22),
    (1120, 0x580a256cfd913747, 0xc5fffb05dbe1984a, 0xc5209a0a1c1b37df),
    (1140, 0x8327f406caf3cf53, 0x8327f406caf3cf53, 0x20b474c398d6e8e3),
    (1177, 0x15f4e260ba5ac8f9, 0xf3cd992544d50205, 0x14937a10713c1fff),
    (1180, 0x7fe0a687dbce0040, 0x2c139de3f3882759, 0xe812f0fa55e6d8ba),
    (1189, 0x55210b5a90506ffd, 0xfd8fcbd62a9ba97f, 0x4f55076e71208e05),
    (1193, 0x434ce958503db2e9, 0xa084f5b23523659e, 0x9b8da550db57078c),
    (1196, 0x461c8149478bf55d, 0xbb307129916be393, 0x2075d5e49ed076ba),
    (1198, 0xe149b07d285ebcb8, 0xc25e1312e8693a30, 0x22f352f35004eea8),
    (1202, 0x6013b5c35dab446c, 0x43cf990750479121, 0x4258902fec295bec),
    (1214, 0x6964caf9459de233, 0x41f40788f8f0778e, 0x2475a23d52bc1197),
    (1215, 0xb816af044b355071, 0x7a1762af39ac5d0c, 0xfe1c29de0f41776b),
    (1216, 0xc9d3e909d90ea260, 0xcadbe56dce0e15e9, 0xa45c5269543bb66b),
    (1218, 0x3f54aee833e28dd1, 0x22291efc48a1c85b, 0x0975d6cd11c9a5e2),
    (1219, 0x7d49a84bb16ff146, 0x7102f406dd31aa36, 0x7d49a84bb16ff146),
    (1220, 0xd8be34fb3de9ce5d, 0x294393176efa12fe, 0xd8be34fb3de9ce5d),
    (1221, 0x914882748675fc9d, 0x78feff38bdf65072, 0x914882748675fc9d),
    (1222, 0x74d8de280e6a3840, 0x35ac99fa760b34b8, 0x96d3ab066053fc7d),
    (1223, 0x8ceccebdd344aef9, 0x3ea5c52506e7df10, 0xc73108b5aded0068),
    (1225, 0x0db7ac99bedcc353, 0x9db8db1ded8e20bc, 0xe09d37c07e32add1),
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

/// The digest [`SEED_RANKINGS`] pins: every candidate's doc id and score
/// bits, in rank order, for `survey`'s query at `max_year` with the survey
/// excluded.
fn seed_ranking_digest(artifacts: &CorpusArtifacts, survey: &Survey, max_year: Option<u16>) -> u64 {
    let exclude = [survey.paper];
    let ranking = artifacts.scholar().lexical().ranked_candidates(&Query {
        text: &survey.query,
        top_k: TOP_K,
        max_year,
        exclude: &exclude,
    });
    let mut bytes = Vec::with_capacity(ranking.len() * 12);
    for scored in &ranking {
        bytes.extend_from_slice(&scored.doc.to_le_bytes());
        bytes.extend_from_slice(&scored.score.to_bits().to_le_bytes());
    }
    fnv1a64(&bytes)
}

#[test]
fn every_survey_seed_ranking_matches_its_pin() {
    let corpus = demo_corpus();
    let artifacts = CorpusArtifacts::build(corpus.clone()).expect("demo artifacts build");
    let table: Vec<(u32, u64)> = corpus
        .survey_bank()
        .iter()
        .map(|survey| {
            let digest = seed_ranking_digest(&artifacts, survey, Some(survey.year));
            (survey.paper.0, digest)
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
fn every_survey_seed_ranking_matches_its_pin_at_other_cut_offs() {
    let corpus = demo_corpus();
    let artifacts = CorpusArtifacts::build(corpus.clone()).expect("demo artifacts build");
    let table: Vec<(u32, u64, u64, u64)> = corpus
        .survey_bank()
        .iter()
        .map(|survey| {
            let at = |max_year| seed_ranking_digest(&artifacts, survey, max_year);
            (
                survey.paper.0,
                at(Some(survey.year.saturating_sub(1))),
                at(Some(survey.year.saturating_sub(2))),
                at(None),
            )
        })
        .collect();
    if table != CUT_OFF_RANKINGS {
        let moved: Vec<u32> = table
            .iter()
            .filter(|row| !CUT_OFF_RANKINGS.contains(row))
            .map(|(paper, ..)| *paper)
            .collect();
        println!("const CUT_OFF_RANKINGS: &[(u32, u64, u64, u64)] = &[");
        for (paper, back_one, back_two, open) in &table {
            println!("    ({paper}, 0x{back_one:016x}, 0x{back_two:016x}, 0x{open:016x}),");
        }
        println!("];");
        panic!(
            "{} of {} surveys' cut-off seed rankings differ from their pins (surveys \
             {moved:?}); the matching table is printed above",
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
