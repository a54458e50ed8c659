//! Separate compilation and type-safe linking (§1 and §5.2).
//!
//! Run with:
//!
//! ```text
//! cargo run --example separate_compilation
//! ```
//!
//! The paper's motivation: a verified component is compiled separately from
//! the components it links with, and the *types* preserved by compilation
//! are what lets the linker reject ill-behaved clients. This example builds
//! a small "library" interface (a polymorphic identity plus a flag), a
//! client component written against it, compiles the client and the library
//! implementations separately, links them in CC-CC, and shows that
//!
//! 1. the linked program computes the same result as linking in CC and then
//!    compiling (Theorem 5.7), and
//! 2. an implementation that does not satisfy the interface is rejected by
//!    the CC-CC type checker at link time — no segfault, no "be careful".

use cccc::compiler::link;
use cccc::compiler::verify::check_separate_compilation;
use cccc::compiler::Compiler;
use cccc::source::{self, builder as s, prelude};
use cccc::target;
use cccc::util::Symbol;

fn main() {
    // The interface the client is written against:
    //   id   : Π A : ⋆. Π x : A. A
    //   flag : Bool
    let id_name = Symbol::intern("id");
    let flag_name = Symbol::intern("flag");
    let interface = source::Env::new()
        .with_assumption(id_name, prelude::poly_id_ty())
        .with_assumption(flag_name, s::bool_ty());
    println!("interface Γ = {interface}");

    // The client component: Γ ⊢ if id Bool flag then false else true : Bool
    let client =
        s::ite(s::app(s::app(s::var("id"), s::bool_ty()), s::var("flag")), s::ff(), s::tt());
    println!("client component e = {client}");

    // A library implementation (the closing substitution γ).
    let library: link::SourceSubstitution =
        vec![(id_name, prelude::poly_id()), (flag_name, s::tt())];
    println!("\nlibrary γ(id)   = {}", library[0].1);
    println!("library γ(flag) = {}", library[1].1);

    // ---------------------------------------------------------------
    // Path 1: link in CC, then run.
    let linked_source = link::link_source(&client, &library);
    let source_observation = link::observe_source(&linked_source).unwrap();
    println!("\nlink-then-run in CC      : {source_observation}");

    // Path 2: compile the client and the library separately, link the
    // compiled artifacts in CC-CC, then run.
    let compiler = Compiler::new();
    let compiled_client = compiler.compile(&interface, &client).unwrap();
    let compiled_library = link::translate_substitution(&interface, &library).unwrap();
    let linked_target = link::link_target(&compiled_client.target, &compiled_library);
    let target_observation = link::observe_target(&linked_target).unwrap();
    println!("compile-separately-then-link in CC-CC : {target_observation}");

    assert_eq!(source_observation, target_observation);
    println!("\nTheorem 5.7 (correctness of separate compilation) verified for this component.");

    // The same fact through the generic checker (it also validates Γ ⊢ γ).
    let observed = check_separate_compilation(&interface, &client, &library).unwrap();
    assert_eq!(observed, source_observation);

    // ---------------------------------------------------------------
    // Type-safe linking: a bogus "library" whose `id` does not have the
    // interface type is rejected *before* linking — this is exactly the
    // OCaml-segfault scenario from §1 that type preservation rules out.
    let bogus: link::SourceSubstitution = vec![
        (id_name, s::lam("x", s::bool_ty(), s::var("x"))), // monomorphic, wrong type
        (flag_name, s::tt()),
    ];
    match link::check_source_substitution(&interface, &bogus) {
        Err(error) => println!("\nbogus library rejected at link time:\n  {error}"),
        Ok(()) => unreachable!("the bogus library must not satisfy the interface"),
    }

    // And the corresponding check on the compiled side: the compiled bogus
    // implementation does not check against the compiled interface type.
    let compiled_interface_ty =
        cccc::compiler::translate::translate(&source::Env::new(), &prelude::poly_id_ty()).unwrap();
    let compiled_bogus =
        cccc::compiler::translate::translate(&source::Env::new(), &bogus[0].1).unwrap();
    let rejected =
        target::typecheck::check(&target::Env::new(), &compiled_bogus, &compiled_interface_ty);
    assert!(rejected.is_err());
    println!("\nthe compiled bogus implementation is also rejected by the CC-CC type checker:");
    println!("  {}", rejected.unwrap_err());

    println!("\nseparate compilation with type-safe linking demonstrated.");

    // ---------------------------------------------------------------
    // The same workflow as a *module build*: the library pieces and the
    // client become named compilation units in the driver's unit graph.
    // Workers compile ready units in parallel (each on its own interner),
    // the artifact cache keys every unit by its source + its imports'
    // interface fingerprints, and linking binds each compiled module once
    // in a `let` telescope (ζ-equivalent to substituting it, as above).
    use cccc::driver::session::Session;

    let mut session = Session::new(Default::default());
    session.add_unit("id", &[], &prelude::poly_id()).unwrap();
    session.add_unit("flag", &[], &s::tt()).unwrap();
    session.add_unit("client", &["id", "flag"], &client).unwrap();

    let cold = session.build(2).unwrap();
    println!("\ndriver cold build : {}", cold.summary());
    assert_eq!(cold.compiled_count(), 3);

    let warm = session.build(2).unwrap();
    println!("driver warm build : {}", warm.summary());
    assert_eq!(warm.compiled_count(), 0, "a no-change rebuild re-verifies nothing");

    let driver_observation = session.observe("client").unwrap().unwrap();
    assert_eq!(driver_observation, source_observation);
    println!(
        "driver-linked client observes {driver_observation} — \
         same as link-then-run in CC."
    );
}
