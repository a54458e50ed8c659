//! The two universes ⋆ and □, shared by CC (Figure 1) and CC-CC
//! (Figure 5), so closure conversion and the model map `Sort(u)` to
//! `Sort(u)`.

/// A universe of CC or CC-CC.
///
/// `⋆` ([`Universe::Star`]) is the impredicative universe of small types
/// (the types of programs); `□` ([`Universe::Box`]) is the predicative
/// universe of large types (the types of types). `□` is not a term: it never
/// appears in well-typed programs, only as the inferred type of `⋆` and of
/// kinds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Universe {
    /// The impredicative universe `⋆` of small types.
    Star,
    /// The predicative universe `□` of large types.
    Box,
}
