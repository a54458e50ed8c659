//! Resident build workers: a session keeps its workers, and with them
//! their interners and memo tables, from one build to the next. The warm
//! state must pay for itself (a rebuild re-checks fewer code blocks) and
//! stay within fixed bounds however many builds a session runs, and a
//! unit's panic must not cost the session a worker.

use cccc_core::pipeline::CompilerOptions;
use cccc_driver::workloads::{diamond, session_from};
use cccc_driver::{BuildReport, PanicPlan, Session, UnitStatus};
use cccc_source as src;
use cccc_source::builder as s;
use cccc_source::typecheck::LAM_GENERATION_CAP;
use cccc_target::typecheck::CODE_GENERATION_CAP;
use cccc_util::intern::CONV_GENERATION_CAP;

/// The `[Code]` memo misses summed over a build's units.
fn code_memo_misses(report: &BuildReport) -> u64 {
    report.units.iter().filter_map(|u| u.caches.as_ref()).map(|c| c.code_memo.memo_misses).sum()
}

#[test]
fn a_rebuild_after_clear_cache_hits_the_warm_code_memo() {
    let mut session = session_from(&diamond(3, 2), CompilerOptions::default());
    let first = session.build(1).unwrap();
    session.clear_cache();
    let second = session.build(1).unwrap();
    assert!(first.is_success() && second.is_success());
    // Clearing the cache re-runs every phase …
    assert_eq!(second.queries, first.queries);
    // … but on the same worker, whose `[Code]` memo still holds the code
    // blocks the first build checked.
    let (cold, warm) = (code_memo_misses(&first), code_memo_misses(&second));
    assert!(cold > 0, "the first build checks code blocks");
    assert!(warm < cold, "the rebuild missed the [Code] memo {warm} times, the first build {cold}");
}

/// The `n`th edit of the diamond's `base`, an implementation-only edit:
/// `λ A : ⋆. λ x : A. let ids : A → A = e in x`, where `e` is a balanced
/// tree of `if`s over `16 + n % 3` identities, branching on the bits of
/// `n`. Every edit is new — no two are α-equivalent, and each identity
/// binds its own name — so each build checks λs, code blocks and
/// conversions no memo has seen, while the terms stay the same size.
fn base_variant(n: usize) -> src::Term {
    let identities: Vec<src::Term> = (0..16 + n % 3)
        .map(|k| {
            let y = format!("y{n}_{k}");
            s::lam(&y, s::var("A"), s::var(&y))
        })
        .collect();
    let mut bit = 0;
    let ids = balanced(identities, |a, b| {
        bit += 1;
        s::ite(s::bool_lit((n >> bit) & 1 == 1), a, b)
    });
    let body = s::let_("ids", s::arrow(s::var("A"), s::var("A")), ids, s::var("x"));
    s::lam("A", s::star(), s::lam("x", s::var("A"), body))
}

/// Joins `items` pairwise, level by level, into one balanced tree.
fn balanced<T>(mut items: Vec<T>, mut join: impl FnMut(T, T) -> T) -> T {
    while items.len() > 1 {
        let mut level = Vec::with_capacity(items.len() / 2 + 1);
        let mut rest = items.into_iter();
        while let Some(a) = rest.next() {
            level.push(match rest.next() {
                Some(b) => join(a, b),
                None => a,
            });
        }
        items = level;
    }
    items.pop().expect("at least one item")
}

#[test]
fn a_thousand_edits_keep_every_worker_table_bounded() {
    // One worker, no store: every table size below is a deterministic
    // function of the edit stream.
    let mut session = session_from(&diamond(3, 2), CompilerOptions::default());
    // The largest CC and CC-CC interner tables over builds 1–500 and
    // 501–1000.
    let mut largest = [[0usize; 2]; 2];
    let mut rotations = [0u64; 4];
    for build in 0..1000 {
        session.update_unit("base", &base_variant(build)).unwrap();
        let report = session.build(1).unwrap();
        assert!(report.is_success(), "build {build}: {}", report.summary());
        for caches in report.units.iter().filter_map(|u| u.caches.as_ref()) {
            assert!(caches.source_conv_table <= 2 * CONV_GENERATION_CAP, "build {build}");
            assert!(caches.target_conv_table <= 2 * CONV_GENERATION_CAP, "build {build}");
            assert!(caches.code_memo_table <= 2 * CODE_GENERATION_CAP, "build {build}");
            assert!(caches.lam_memo_table <= 2 * LAM_GENERATION_CAP, "build {build}");
            rotations[0] += caches.source_conv.rotations;
            rotations[1] += caches.target_conv.rotations;
            rotations[2] += caches.code_memo.rotations;
            rotations[3] += caches.lam_memo.rotations;
            let half = &mut largest[build / 500];
            half[0] = half[0].max(caches.source_intern_table);
            half[1] = half[1].max(caches.target_intern_table);
        }
    }
    // Every memo reached its cap, so the bounds above were exercised.
    assert!(
        rotations.iter().all(|&r| r > 0),
        "memo rotations (CC, CC-CC, [Code], [Lam]): {rotations:?}"
    );
    assert!(largest[1][0] <= largest[0][0], "the CC interner grew: {largest:?}");
    assert!(largest[1][1] <= largest[0][1], "the CC-CC interner grew: {largest:?}");
}

#[test]
fn a_unit_panic_leaves_the_session_all_its_workers() {
    let mut session = session_from(&diamond(4, 2), CompilerOptions::default());
    session.set_panic_plan(Some(PanicPlan::on_nth_compile(2)));
    let panicked = session.build(2).unwrap();
    assert_eq!(panicked.panicked_count(), 1, "{}", panicked.summary());
    session.set_panic_plan(None);
    let healed = session.build(2).unwrap();
    assert!(healed.is_success(), "{}", healed.summary());
    assert_eq!(healed.workers, 2);
    assert!(healed.units.iter().all(|u| u.worker < 2));
    // Only the panicked unit and what it blocked run again.
    let rerun: Vec<&str> = healed
        .units
        .iter()
        .filter(|u| u.status == UnitStatus::Compiled)
        .map(|u| u.name.as_str())
        .collect();
    assert_eq!(rerun.len(), panicked.units.iter().filter(|u| !u.status.is_ok()).count());
    assert_eq!(session.observe("top").unwrap(), Some(true));
}

#[test]
fn sessions_move_between_threads_with_their_workers() {
    let mut session = Session::single_program(CompilerOptions::default(), &s::tt());
    assert!(session.build(1).unwrap().is_success());
    let session = std::thread::spawn(move || {
        session.clear_cache();
        assert!(session.build(1).unwrap().is_success());
        session
    })
    .join()
    .unwrap();
    assert_eq!(session.observe("main").unwrap(), Some(true));
}
