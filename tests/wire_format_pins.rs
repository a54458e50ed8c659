//! Golden pins of the two wire formats: the α-invariant fingerprints the
//! query layer keys on, and the portable word layout the artifact store
//! writes to disk. Each fails when a tag, the order of a node's fields or
//! the α-encoding's scope numbering changes; a deliberate format change
//! bumps `FORMAT_VERSION` and re-pins these values. The CC-CC column of
//! [`CORPUS_PINS`] fingerprints the translation's output, so it also moves,
//! with no format change, when closure conversion emits different code
//! (as when the projection prelude stopped binding unread variables); the
//! CC column and the hand-built terms' pins move with the format only.

use cccc::compiler::translate::translate;
use cccc::source::{self, builder as s, prelude};
use cccc::target::{self, builder as t};

/// `fingerprint_alpha` of each `prelude::corpus()` entry and of its CC-CC
/// translation in the empty environment, in corpus order.
const CORPUS_PINS: [(&str, &str, &str); 33] = [
    ("poly_id", "2b58e1da69ff7b7cca9dc96a20c89103", "7ef13a1401bfc1790adc7784fb3eca5c"),
    ("poly_const", "459002357ceb40b17453d6544e6d03ed", "679372133a2ec815a0b9b0027e65d4ea"),
    ("poly_compose", "376da3c38cb0a138bc000c2518543422", "5c96deedf6a9e56c43c25a6c1ed92ee8"),
    ("apply_twice", "925b92251099fca1efc78d3853c98faa", "672e04007d5f5a19fe3955d4b023f6b8"),
    ("not", "84e2f11757a282f8d33761d53e22a637", "b90f38e3735562eeade651c8a90ed699"),
    ("and", "95e215692aaf201ee2b9764dd772f4b8", "65e9be985a1cb34ba40fde8b850a3e53"),
    ("or", "d5cb58337906da6618d60f6094dd3a26", "8a133ee4bfc120821c06b49cdb2ef1f7"),
    ("xor", "1bfa6721b075c6c93a59df6f153bde7a", "bb2f481c0f8ff18891e7b147fbdc0120"),
    ("church_zero", "39d40d76fcd847feee85531db87f0cf3", "4e0f446f858309701cfcc18fe46deca5"),
    ("church_three", "8356adb80f8f57e6741914cdc04d032d", "30504428f63b48d6a7473a902487238c"),
    ("church_succ", "3729540a3dce960380e22408b8d50e4d", "c5a381c5f49d89d9973e7a20952c3e66"),
    ("church_add", "a549764217e2aea9536cf5900ef8ad80", "3750d67f9828b5b61ad89950a0055685"),
    ("church_mul", "12ebf51f5b6912412c4e33977660e326", "29e1bc68d7b73a76b6704f05f247cf3f"),
    ("church_is_even", "1449500ff0fca22220f77caacfb932e0", "ad9c6a0160579852f1fafc904caea966"),
    ("church_true", "eec21ffef1e2bd14974035fa4c02f191", "10bff3c93945564de159df12939af214"),
    ("church_false", "6b53d1badcb8bd1445c3744324e0e6fc", "d078fd4827841530a1790ebad4b55c65"),
    (
        "church_bool_to_ground",
        "2f7ff8b7e88b6e5c46072cf35be9babc",
        "d4601a5d25e5ec700c7c55d8caf1e6e1",
    ),
    ("is_true_predicate", "89b8c3a0c6ebed604e1cf749b02c659c", "6b43d3c580fb9d0b3f8c7b34b84ab74d"),
    (
        "refined_true_witness",
        "dcc1a2b3b2e77a00aa48ba9e82c322ba",
        "55df8f5be0faaf77bfe4ccc6457c091e",
    ),
    ("poly_swap", "ce79162f095547bd1327fa7f2dc3119c", "213c5b8e176191f4e4ac4c67982a2053"),
    ("false_ty", "f8e7099029add52ca768bf853a08bb49", "f8e7099029add52ca768bf853a08bb49"),
    ("church_nat_ty", "2d35411a63f988e93c62464f4ae02108", "2d35411a63f988e93c62464f4ae02108"),
    ("refined_true_ty", "9fd0d29798bc6a73995a4813f1f07e42", "0ce7b5764697d35c05f9d04480a9ea4f"),
    ("id_applied_to_bool", "3fb52d2561ac1476010160294ba6659f", "fd4baa4f511726aaadaa83923ad36e12"),
    ("id_self_application", "3eb2862feaf8d9112478e423999bd5a0", "5b554bedbccaa3217d19ca71bcf5b1b2"),
    ("compose_not_not", "e7561b1513ba2026bb30b4966823d3be", "76409c5ffc01020e231fa3afc9dd2096"),
    ("twice_not_true", "9e81969d8b3a6ae59ad25c6ec1013c94", "e88ae3008d4b40d2be55df536af65feb"),
    ("let_bound_identity", "be5e0f87d78c1cb79a57c55e45a66eeb", "5adb2e43363d0150afae70dbeb219145"),
    ("nested_let_pair", "3381618524d69c36fa38edc02d5d8def", "eb42b36a258da46e53ab522c4351cac3"),
    (
        "dependent_pair_of_type_and_value",
        "5d9257c5e85f083efa69299eb29315b5",
        "a4ff0d71a1cae91a014bfc5241fe9323",
    ),
    ("swap_bool_pair", "5d6ad67659e8e708e04536516aa9b278", "8d27803d777116eb60313e6a097d5ed6"),
    (
        "add_two_three_is_even",
        "9534631df1f432723ce7d7fbf4a2bc0b",
        "e9070b5b4cee6250e961622a17e0b737",
    ),
    (
        "mul_two_three_is_even",
        "3fc0225d83516b5864051265bf37a24e",
        "9df3093f664dfb9abe234fd953fbf40a",
    ),
];

#[test]
fn corpus_alpha_fingerprints_are_pinned() {
    let corpus = prelude::corpus();
    let actual: Vec<(String, String, String)> = corpus
        .iter()
        .map(|entry| {
            let translated = translate(&source::Env::new(), &entry.term).unwrap();
            (
                entry.name.to_owned(),
                source::wire::fingerprint_alpha(&entry.term).to_string(),
                target::wire::fingerprint_alpha(&translated).to_string(),
            )
        })
        .collect();
    assert_eq!(actual.len(), CORPUS_PINS.len());
    for ((name, source_fp, target_fp), (pin_name, pin_source, pin_target)) in
        actual.iter().zip(CORPUS_PINS)
    {
        assert_eq!(name, pin_name);
        assert_eq!(source_fp, pin_source, "CC α-fingerprint of `{name}` moved");
        assert_eq!(target_fp, pin_target, "CC-CC α-fingerprint of `{name}` moved");
    }
}

/// A CC term with all 14 constructors, plain names only.
fn every_cc_constructor() -> source::Term {
    s::lam(
        "A",
        s::star(),
        s::lam(
            "p",
            s::sigma("x", s::var("A"), s::bool_ty()),
            s::let_(
                "q",
                s::pi("B", s::star(), s::boxu()),
                s::app(s::var("f"), s::fst(s::var("p"))),
                s::pair(
                    s::ite(s::snd(s::var("p")), s::tt(), s::ff()),
                    s::var("q"),
                    s::sigma("y", s::var("A"), s::bool_ty()),
                ),
            ),
        ),
    )
}

/// A CC-CC term with all 18 constructors, plain names only.
fn every_cccc_constructor() -> target::Term {
    let env_ty = t::sigma("x", t::star(), t::unit_ty());
    let code = t::code(
        "n",
        env_ty.clone(),
        "y",
        t::fst(t::var("n")),
        t::ite(t::ff(), t::var("y"), t::tt()),
    );
    let code_ty = t::code_ty(
        "n",
        env_ty.clone(),
        "y",
        t::fst(t::var("n")),
        t::pi("z", t::boxu(), t::bool_ty()),
    );
    t::let_(
        "k",
        code_ty,
        code,
        t::app(
            t::closure(t::var("k"), t::pair(t::star(), t::unit_val(), env_ty)),
            t::snd(t::var("w")),
        ),
    )
}

/// The writer nonce's position in a portable buffer: it differs per
/// process, so the pins mask it.
const NONCE_WORD: usize = 2;

fn masked(words: &[u64]) -> Vec<u64> {
    let mut words = words.to_vec();
    words[NONCE_WORD] = 0;
    words
}

/// `encode_portable(every_cc_constructor())`: the marker, 7 symbol-table
/// entries, the (masked) nonce, each entry as length, bytes and
/// disambiguator, then the body, one line per node, children before their
/// parent's closing line; `0, i` is a back-reference to node `i`.
#[rustfmt::skip]
const CC_PORTABLE_WORDS: [u64; 64] = [
    u64::MAX, 7, 0,
    1, 65, 0,  1, 112, 0,  1, 120, 0,  1, 113, 0,  1, 66, 0,  1, 102, 0,  1, 121, 0,
    5, 0,           // λ A :
    2,              //   ⋆ (node 0)
    5, 1,           //   λ p :
    8, 2, 1, 0, 12, //     Σ x : A (1). 𝔹 (2) (3)
    7, 3,           //     let q :
    4, 4, 0, 0, 3,  //       Π B : ⋆. □ (4) (5)
    6, 1, 5,        //       = f (6)
    10, 1, 1,       //         (fst p (7) (8)) (9)
    9,              //       in ⟨
    14, 11, 0, 7,   //         if snd p (10)
    13, 1, 13, 0,   //         then true (11) else false (12) (13),
    1, 3,           //         q (14)
    8, 6, 0, 1, 0, 2, //       ⟩ as Σ y : A. 𝔹 (15) (16) (17) (18)
];

/// `encode_portable(every_cccc_constructor())`, laid out as
/// [`CC_PORTABLE_WORDS`]; code and code types write both binders before
/// their three children.
#[rustfmt::skip]
const CCCC_PORTABLE_WORDS: [u64; 64] = [
    u64::MAX, 6, 0,
    1, 107, 0,  1, 110, 0,  1, 121, 0,  1, 120, 0,  1, 122, 0,  1, 119, 0,
    9, 0,              // let k :
    6, 1, 2,           //   Code (n :
    10, 3, 2, 14,      //     Σ x : ⋆ (0). 1 (1) (2),
    12, 1, 1,          //     y : fst n (3) (4)).
    4, 4, 3, 16,       //     Π z : □ (5). 𝔹 (6) (7) (8)
    5, 1, 2, 0, 2, 0, 4, //   = λ (n : (2), y : (4)).
    18, 17, 0, 1, 2, 17, 1, // if false (9) then y (10) else true (11) (12) (13)
    8,                 // in
    7, 1, 0,           //   ⟪k (14),
    11, 0, 0, 15, 0, 2, //    ⟨⋆, ⟨⟩ (15)⟩ as (2) (16)⟫ (17)
    13, 1, 5,          //   (snd w (18) (19)) (20)
];

#[test]
fn cc_portable_words_are_pinned() {
    let term = every_cc_constructor();
    let wire = source::wire::encode_portable(&term);
    assert_eq!(masked(wire.words()), CC_PORTABLE_WORDS, "{:?}", masked(wire.words()));
    let decoded = source::wire::decode(&wire).unwrap();
    assert!(source::subst::alpha_eq(&term, &decoded));
}

#[test]
fn cccc_portable_words_are_pinned() {
    let term = every_cccc_constructor();
    let wire = target::wire::encode_portable(&term);
    assert_eq!(masked(wire.words()), CCCC_PORTABLE_WORDS, "{:?}", masked(wire.words()));
    let decoded = target::wire::decode(&wire).unwrap();
    assert!(target::subst::alpha_eq(&term, &decoded));
}

#[test]
fn all_constructor_alpha_fingerprints_are_pinned() {
    assert_eq!(
        source::wire::fingerprint_alpha(&every_cc_constructor()).to_string(),
        "8c9ca792d5deb1319457087aee0ff3d5"
    );
    assert_eq!(
        target::wire::fingerprint_alpha(&every_cccc_constructor()).to_string(),
        "26a3fe95a0cc3430d64869a4ae26d9bc"
    );
}
