//! Call-site extraction and resolution over the symbol table.
//!
//! Resolution is name-based and deliberately conservative in the direction
//! each rule needs (DESIGN.md §9):
//!
//! * `recv.name(…)` — a method call through any receiver resolves to **every**
//!   workspace `impl` method named `name`. This over-approximates trait-object
//!   and generic dispatch (the receiver's type is unknown at the token level),
//!   which is sound for reachability-style rules: a spurious edge can only add
//!   findings, never hide one. A receiver that is literally `self` is narrowed
//!   to the enclosing `impl` type's own methods when one matches.
//! * `Qual::name(…)` — resolved against the workspace type registry: a known
//!   type's methods, a known trait's implementors, or (for module-style paths
//!   like `wire::decode_view`) free functions named `name`.
//! * `name(…)` — free functions named `name`.
//!
//! Calls into `std` or vendored code resolve to nothing: the analyses treat
//! external callees as panic-free and lock-free, and cover their known
//! panicking surfaces (indexing, `unwrap`) syntactically at the call site
//! instead.

use crate::lexer::TokKind;
use crate::symbols::{FnId, Symbols};
use crate::FileLex;

/// One call site inside a function body.
pub(crate) struct CallSite {
    /// Token index of the callee name.
    pub tok: usize,
    /// 1-based source line of the call.
    pub line: u32,
    /// Resolved workspace callees (empty for external calls).
    pub callees: Vec<FnId>,
}

/// Per-function call sites, indexed by caller [`FnId`].
pub(crate) struct CallGraph {
    pub sites: Vec<Vec<CallSite>>,
}

/// Identifiers that look like calls (`ident (`) but are control flow or
/// binding syntax.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "return", "loop", "in", "as", "move", "else", "let", "mut",
    "ref", "break", "continue", "where", "unsafe", "fn", "impl", "dyn", "await", "box", "yield",
    "union", "use", "pub", "crate", "super", "Self",
];

/// Build the call graph: walk every function body and resolve its call
/// sites against the symbol table.
pub(crate) fn build(files: &[FileLex], sym: &Symbols) -> CallGraph {
    let mut sites: Vec<Vec<CallSite>> = Vec::with_capacity(sym.fns.len());
    for def in &sym.fns {
        let f = &files[def.file];
        let toks = &f.toks;
        let mut list: Vec<CallSite> = Vec::new();
        for i in def.body.clone() {
            let t = &toks[i];
            if t.kind != TokKind::Ident || !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
                continue;
            }
            let name = t.text.as_str();
            let callees = if i > 0 && toks[i - 1].is_punct('.') {
                resolve_method(sym, def.owner.as_deref(), toks, i, name)
            } else if i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
                let qual = toks
                    .get(i.wrapping_sub(3))
                    .filter(|q| q.kind == TokKind::Ident)
                    .map(|q| q.text.as_str());
                resolve_qualified(sym, def.owner.as_deref(), qual, name)
            } else if NON_CALL_KEYWORDS.contains(&name) {
                continue;
            } else {
                resolve_free(sym, name)
            };
            list.push(CallSite {
                tok: i,
                line: t.line,
                callees,
            });
        }
        sites.push(list);
    }
    CallGraph { sites }
}

/// Candidates for `name` filtered by `keep`, in definition order (stable:
/// files are walked sorted, bodies front to back).
fn candidates(sym: &Symbols, name: &str, keep: impl Fn(FnId) -> bool) -> Vec<FnId> {
    sym.by_name
        .get(name)
        .map(|ids| {
            ids.iter()
                .copied()
                .filter(|&id| !sym.fns[id].is_test && keep(id))
                .collect()
        })
        .unwrap_or_default()
}

fn resolve_method(
    sym: &Symbols,
    owner: Option<&str>,
    toks: &[crate::lexer::Tok],
    i: usize,
    name: &str,
) -> Vec<FnId> {
    // `self.name(…)`: the receiver type is known — restrict to the enclosing
    // impl type's own methods. (If none match, the call targets a trait
    // default or inherited method we don't model; resolve to nothing rather
    // than to every same-named method in the workspace.)
    let recv_is_self = i >= 2
        && toks[i - 2].is_ident("self")
        && !toks.get(i.wrapping_sub(3)).is_some_and(|p| p.is_punct('.'));
    if recv_is_self {
        if let Some(o) = owner {
            return candidates(sym, name, |id| sym.fns[id].owner.as_deref() == Some(o));
        }
    }
    // Any other receiver: every workspace impl method with this name.
    candidates(sym, name, |id| sym.fns[id].owner.is_some())
}

fn resolve_qualified(
    sym: &Symbols,
    owner: Option<&str>,
    qual: Option<&str>,
    name: &str,
) -> Vec<FnId> {
    let qual = match qual {
        Some("Self") => owner,
        q => q,
    };
    let Some(q) = qual else {
        return Vec::new();
    };
    if sym.types.contains(q) {
        let own = candidates(sym, name, |id| sym.fns[id].owner.as_deref() == Some(q));
        if !own.is_empty() {
            return own;
        }
        return Vec::new();
    }
    if sym.traits.contains(q) {
        // `Trait::method(x)` UFCS: any implementor.
        return candidates(sym, name, |id| sym.fns[id].owner.is_some());
    }
    // Module-style path (`wire::decode_view`, `checkpoint::restore`): the
    // final segment names a free function.
    resolve_free(sym, name)
}

fn resolve_free(sym: &Symbols, name: &str) -> Vec<FnId> {
    candidates(sym, name, |id| sym.fns[id].owner.is_none())
}
