//! Interprocedural passes over the call graph: panic-reachability from the
//! daemon entry points, global lock-order over the collector crate, and
//! transitive hot-path lock detection.
//!
//! Every finding these passes raise carries a full witness call path
//! (`serve → process_frame → shard::fold → […]` with file:line per hop),
//! rendered by `ldp-lint --explain` and embedded in `--format json`.

use crate::callgraph::CallGraph;
use crate::lexer::{Tok, TokKind};
use crate::rules::{Raw, LOCK_CALLS};
use crate::symbols::{FnDef, FnId, Symbols};
use crate::{FileLex, Hop};
use std::collections::VecDeque;

// ---------------------------------------------------------------------------
// Panic-reachability
// ---------------------------------------------------------------------------

/// Methods that panic on the error/none case.
const UNWRAP_METHODS: &[&str] = &["unwrap", "expect", "unwrap_unchecked"];

/// Unconditionally panicking macros. `assert!` family is deliberately *not*
/// a panic site: an assert is an explicit, message-carrying precondition
/// check, and its presence is what makes nearby raw indexing "checked" (see
/// `bounds_evidence`).
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Identifiers before `[` that mean the bracket is *not* an indexing
/// expression (array literals / types in expression position).
const NON_INDEX_PREV: &[&str] = &[
    "mut", "in", "dyn", "return", "break", "as", "else", "match", "if", "while", "loop", "unsafe",
    "move", "ref",
];

struct PanicSite {
    line: u32,
    what: &'static str,
    detail: String,
}

/// The daemon entry points: everything an adversarial peer can drive.
fn is_seed(def: &FnDef, rel: &str) -> bool {
    if def.is_test {
        return false;
    }
    if rel.ends_with("collector/src/server.rs") {
        return def.name == "serve" || def.name == "process_frame";
    }
    if rel.ends_with("protocols/src/wire.rs") {
        return def.name.starts_with("decode_") || def.name.starts_with("read_");
    }
    if rel.ends_with("collector/src/checkpoint.rs") {
        return def.name == "restore" || def.name == "checkpoint";
    }
    if rel.ends_with("collector/src/wal.rs") {
        return def.name == "read_segments";
    }
    false
}

/// True when the function body carries *any* bounds discipline that
/// discharges raw indexing/slicing: a length read, a checked accessor, a
/// `MAX_*` cap, modular reduction, or an assert. This is deliberately
/// whole-body rather than flow-sensitive — a lexer cannot order guards
/// against uses, so the rule asks only that the function demonstrates it
/// thought about bounds at all; functions that index with no evidence
/// anywhere are the ones a hostile length reaches.
fn bounds_evidence(toks: &[Tok], def: &FnDef) -> bool {
    for i in def.body.clone() {
        let t = &toks[i];
        if t.is_punct('%') {
            return true;
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text.starts_with("MAX_") {
            return true;
        }
        let callish = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
        let macroish = toks.get(i + 1).is_some_and(|n| n.is_punct('!'));
        let guard_call = matches!(
            t.text.as_str(),
            "len"
                | "is_empty"
                | "get"
                | "get_mut"
                | "min"
                | "clamp"
                | "checked_len"
                | "split_at_checked"
                | "div_ceil"
        );
        let guard_macro = matches!(
            t.text.as_str(),
            "assert"
                | "assert_eq"
                | "assert_ne"
                | "debug_assert"
                | "debug_assert_eq"
                | "debug_assert_ne"
        );
        if (callish && guard_call) || (macroish && guard_macro) {
            return true;
        }
    }
    false
}

fn panic_sites(
    f: &FileLex,
    def: &FnDef,
    call_sites: &[crate::callgraph::CallSite],
) -> Vec<PanicSite> {
    let toks = &f.toks;
    let evidence = bounds_evidence(toks, def);
    let mut sites = Vec::new();
    for i in def.body.clone() {
        if f.test_mask[i] {
            continue;
        }
        let t = &toks[i];
        if t.kind == TokKind::Ident {
            if UNWRAP_METHODS.contains(&t.text.as_str())
                && i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                // `self.expect(…)` resolving to a method on the enclosing
                // type merely shares `Option::expect`'s name (e.g. the
                // client's frame-kind check); its body is analyzed through
                // the call graph instead. Only the precise receiver-`self`
                // resolution is trusted here — on arbitrary receivers the
                // resolver over-approximates, and skipping those would blind
                // the pass to every real `.expect()`.
                && !(i >= 2
                    && toks[i - 2].is_ident("self")
                    && call_sites
                        .iter()
                        .any(|s| s.tok == i && !s.callees.is_empty()))
            {
                sites.push(PanicSite {
                    line: t.line,
                    what: "panicking call",
                    detail: format!("`.{}()`", t.text),
                });
            }
            if PANIC_MACROS.contains(&t.text.as_str())
                && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
            {
                sites.push(PanicSite {
                    line: t.line,
                    what: "panicking macro",
                    detail: format!("`{}!`", t.text),
                });
            }
        } else if t.is_punct('[') && !evidence && i > 0 {
            let p = &toks[i - 1];
            let indexing = (p.kind == TokKind::Ident && !NON_INDEX_PREV.contains(&p.text.as_str()))
                || p.is_punct(']')
                || p.is_punct(')');
            // `v[..]` re-slices the whole range and cannot panic; `v[0]` has a
            // compile-time-constant index (adversary input never reaches the
            // bound, and on arrays the compiler checks it outright).
            let full_range = toks.get(i + 1).is_some_and(|a| a.is_punct('.'))
                && toks.get(i + 2).is_some_and(|b| b.is_punct('.'))
                && toks.get(i + 3).is_some_and(|c| c.is_punct(']'));
            let const_index = toks.get(i + 1).is_some_and(|a| a.kind == TokKind::Num)
                && toks.get(i + 2).is_some_and(|b| b.is_punct(']'));
            if indexing && !full_range && !const_index {
                sites.push(PanicSite {
                    line: t.line,
                    what: "unchecked indexing",
                    detail: "`[…]` with no bounds evidence in the function".to_string(),
                });
            }
        }
    }
    sites
}

fn hop(sym: &Symbols, files: &[FileLex], id: FnId, line: u32) -> Hop {
    Hop {
        func: sym.fns[id].qual_name(),
        rel: files[sym.fns[id].file].rel.clone(),
        line,
    }
}

/// Turn a BFS parent map into the seed → … → `id` hop list; each hop's line
/// is where it calls the next function, and the last hop carries `last_line`
/// (the offending site).
fn witness_from_parents(
    sym: &Symbols,
    files: &[FileLex],
    parent: &[Option<(FnId, u32)>],
    id: FnId,
    last_line: u32,
) -> Vec<Hop> {
    let mut chain = vec![id];
    let mut cur = id;
    while let Some((p, _)) = parent[cur] {
        chain.push(p);
        cur = p;
    }
    chain.reverse();
    let mut hops = Vec::with_capacity(chain.len());
    for w in chain.windows(2) {
        let call_line = parent[w[1]].map(|(_, l)| l).unwrap_or(0);
        hops.push(hop(sym, files, w[0], call_line));
    }
    hops.push(hop(sym, files, id, last_line));
    hops
}

/// The panic-reachability pass: BFS from every daemon entry point, then one
/// finding per panic site inside a reached function, each with a shortest
/// witness path. Returns `(file index, raw finding)` pairs.
pub(crate) fn panic_paths(
    files: &[FileLex],
    sym: &Symbols,
    graph: &CallGraph,
) -> Vec<(usize, Raw)> {
    let n = sym.fns.len();
    let mut parent: Vec<Option<(FnId, u32)>> = vec![None; n];
    let mut visited = vec![false; n];
    let mut queue: VecDeque<FnId> = VecDeque::new();
    for (id, def) in sym.fns.iter().enumerate() {
        if is_seed(def, &files[def.file].rel) {
            visited[id] = true;
            queue.push_back(id);
        }
    }
    while let Some(id) = queue.pop_front() {
        for site in &graph.sites[id] {
            for &c in &site.callees {
                if !visited[c] && !sym.fns[c].is_test {
                    visited[c] = true;
                    parent[c] = Some((id, site.line));
                    queue.push_back(c);
                }
            }
        }
    }
    let mut out = Vec::new();
    for (id, def) in sym.fns.iter().enumerate() {
        if !visited[id] {
            continue;
        }
        for site in panic_sites(&files[def.file], def, &graph.sites[id]) {
            let path = witness_from_parents(sym, files, &parent, id, site.line);
            let seed = path.first().map(|h| h.func.clone()).unwrap_or_default();
            out.push((
                def.file,
                Raw {
                    rule: "panic-path",
                    line: site.line,
                    message: format!(
                        "{} {} in `{}` is reachable from daemon entry `{seed}` \
                         ({} hops); return a typed error instead",
                        site.what,
                        site.detail,
                        def.qual_name(),
                        path.len(),
                    ),
                    call_path: path,
                },
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Lock facts and closures
// ---------------------------------------------------------------------------

/// Lock classes in sanctioned acquisition order. The collector's discipline
/// is registry → slot → shard; any observed edge against that order closes a
/// cycle with the sanctioned forward edges and is reported.
pub(crate) const LOCK_CLASS_NAMES: [&str; 3] = ["registry (`rounds`)", "slot (`inner`)", "shard"];

/// Classify a lock call by what it locks: helper style `read_lock(&self.X)`
/// inspects the argument list; method style `self.X.read()` inspects the
/// receiver chain. Returns the class rank or `None` for locks outside the
/// collector's ordered classes.
fn classify_lock(toks: &[Tok], call: usize) -> Option<u8> {
    let mut names: Vec<&str> = Vec::new();
    let mut depth = 0i32;
    let mut j = call + 1;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.kind == TokKind::Ident {
            names.push(&t.text);
        }
        j += 1;
    }
    if call > 0 && toks[call - 1].is_punct('.') {
        let mut k = call - 1;
        let mut steps = 0;
        while k > 0 && steps < 12 {
            let t = &toks[k - 1];
            if t.kind == TokKind::Ident {
                names.push(&t.text);
            } else if !(t.is_punct('.') || t.is_punct('&') || t.is_punct(')') || t.is_punct('(')) {
                break;
            }
            k -= 1;
            steps += 1;
        }
    }
    if names.contains(&"rounds") {
        Some(0)
    } else if names.iter().any(|n| *n == "inner" || *n == "slot") {
        Some(1)
    } else if names.iter().any(|n| *n == "shards" || *n == "shard") {
        Some(2)
    } else {
        None
    }
}

/// If the call at `i` is the initializer of `let [mut] name = …`, return the
/// binding name.
fn let_binding_before(toks: &[Tok], i: usize) -> Option<String> {
    let mut j = i;
    let mut steps = 0;
    while j > 0 && steps < 6 {
        if toks[j - 1].is_punct('=') {
            let name = toks.get(j.checked_sub(2)?)?;
            if name.kind == TokKind::Ident && name.text != "=" {
                return Some(name.text.clone());
            }
            return None;
        }
        let t = &toks[j - 1];
        if !(t.kind == TokKind::Ident || t.is_punct('&') || t.is_punct('.') || t.is_punct(':')) {
            return None;
        }
        j -= 1;
        steps += 1;
    }
    None
}

/// Lock call names that acquire unconditionally (the workspace helpers and
/// `Mutex::lock`). Bare `read`/`write` only count when the receiver/argument
/// classifies into an ordered class, so `io::Read::read` stays invisible.
const ALWAYS_LOCK: &[&str] = &["lock", "try_lock", "read_lock", "write_lock"];

/// Per-function local lock behaviour.
pub(crate) struct LockFacts {
    /// Classes acquired directly in this body: `(class, first line)`.
    acquires: Vec<(u8, u32)>,
    /// First line of *any* lock acquisition (class-ordered or not).
    any_lock: Option<u32>,
    /// Direct nesting: `(held class, acquired class, line)`.
    local_edges: Vec<(u8, u8, u32)>,
    /// Parallel to the function's call-site list: classes held entering
    /// each call.
    held_at: Vec<Vec<u8>>,
}

/// Closures over the call graph.
pub(crate) struct Locks {
    pub facts: Vec<LockFacts>,
    /// Per function: bitmask of lock classes acquired by it or anything it
    /// transitively calls.
    acq_closure: Vec<u8>,
    /// Per function: does it (transitively) acquire any lock at all?
    any_closure: Vec<bool>,
}

fn lock_facts_one(f: &FileLex, def: &FnDef, sites: &[crate::callgraph::CallSite]) -> LockFacts {
    let toks = &f.toks;
    let mut facts = LockFacts {
        acquires: Vec::new(),
        any_lock: None,
        local_edges: Vec::new(),
        held_at: vec![Vec::new(); sites.len()],
    };
    let mut depth = 0i32;
    // Live guards: (class, binding name or None for a temporary, block depth).
    let mut guards: Vec<(u8, Option<String>, i32)> = Vec::new();
    let mut sp = 0usize;
    for i in def.body.clone() {
        let t = &toks[i];
        if sp < sites.len() && sites[sp].tok == i {
            let mut held: Vec<u8> = guards.iter().map(|&(c, _, _)| c).collect();
            held.sort_unstable();
            held.dedup();
            facts.held_at[sp] = held;
            sp += 1;
        }
        if t.is_punct('{') {
            depth += 1;
            continue;
        }
        if t.is_punct('}') {
            depth -= 1;
            guards.retain(|&(_, ref name, d)| name.is_some() && d <= depth);
            continue;
        }
        if t.is_punct(';') {
            guards.retain(|(_, name, _)| name.is_some());
            continue;
        }
        if f.test_mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "drop"
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Ident)
        {
            let name = &toks[i + 2].text;
            guards.retain(|(_, g, _)| g.as_deref() != Some(name));
            continue;
        }
        if !LOCK_CALLS.contains(&t.text.as_str())
            || !toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            continue;
        }
        let class = classify_lock(toks, i);
        let acquires_any = ALWAYS_LOCK.contains(&t.text.as_str()) || class.is_some();
        if acquires_any && facts.any_lock.is_none() {
            facts.any_lock = Some(t.line);
        }
        if let Some(c) = class {
            let mut held: Vec<u8> = guards.iter().map(|&(h, _, _)| h).collect();
            held.sort_unstable();
            held.dedup();
            for h in held {
                facts.local_edges.push((h, c, t.line));
            }
            if !facts.acquires.iter().any(|&(a, _)| a == c) {
                facts.acquires.push((c, t.line));
            }
            guards.push((c, let_binding_before(toks, i), depth));
        }
    }
    facts
}

/// Compute per-function lock facts and their transitive closures over the
/// call graph (simple fixpoint; the graph is small).
pub(crate) fn lock_closures(files: &[FileLex], sym: &Symbols, graph: &CallGraph) -> Locks {
    let n = sym.fns.len();
    let facts: Vec<LockFacts> = sym
        .fns
        .iter()
        .enumerate()
        .map(|(id, def)| lock_facts_one(&files[def.file], def, &graph.sites[id]))
        .collect();
    let mut acq: Vec<u8> = facts
        .iter()
        .map(|f| f.acquires.iter().fold(0u8, |m, &(c, _)| m | (1 << c)))
        .collect();
    let mut any: Vec<bool> = facts.iter().map(|f| f.any_lock.is_some()).collect();
    loop {
        let mut changed = false;
        for id in 0..n {
            let mut m = acq[id];
            let mut a = any[id];
            for site in &graph.sites[id] {
                for &c in &site.callees {
                    m |= acq[c];
                    a |= any[c];
                }
            }
            if m != acq[id] || a != any[id] {
                acq[id] = m;
                any[id] = a;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    Locks {
        facts,
        acq_closure: acq,
        any_closure: any,
    }
}

/// BFS from `start` to the nearest function that locally satisfies `local`;
/// returns the hop chain ending at that function's relevant line.
fn closure_witness(
    sym: &Symbols,
    files: &[FileLex],
    graph: &CallGraph,
    start: FnId,
    local: impl Fn(FnId) -> Option<u32>,
    follow: impl Fn(FnId) -> bool,
) -> Vec<Hop> {
    let n = sym.fns.len();
    let mut parent: Vec<Option<(FnId, u32)>> = vec![None; n];
    let mut visited = vec![false; n];
    let mut queue = VecDeque::new();
    visited[start] = true;
    queue.push_back(start);
    while let Some(id) = queue.pop_front() {
        if let Some(line) = local(id) {
            return witness_from_parents(sym, files, &parent, id, line);
        }
        for site in &graph.sites[id] {
            for &c in &site.callees {
                if !visited[c] && follow(c) {
                    visited[c] = true;
                    parent[c] = Some((id, site.line));
                    queue.push_back(c);
                }
            }
        }
    }
    Vec::new()
}

// ---------------------------------------------------------------------------
// Global lock-order
// ---------------------------------------------------------------------------

/// The global lock-order pass: per-function acquisition/held-at-call-site
/// facts, closed over the call graph. Any acquisition edge against the
/// sanctioned registry → slot → shard order closes a cycle in the lock graph
/// and is reported with the witness call path to the offending acquisition.
/// Same-class nesting (e.g. two shard mutexes in sequence) is out of scope —
/// shard locks are ordered by index at the data-structure level.
pub(crate) fn lock_order_global(
    files: &[FileLex],
    sym: &Symbols,
    graph: &CallGraph,
    locks: &Locks,
) -> Vec<(usize, Raw)> {
    let mut out = Vec::new();
    for (id, def) in sym.fns.iter().enumerate() {
        if def.is_test || !files[def.file].rel.contains("collector/src/") {
            continue;
        }
        let facts = &locks.facts[id];
        for &(h, a, line) in &facts.local_edges {
            if h > a {
                out.push((
                    def.file,
                    Raw {
                        rule: "lock-order",
                        line,
                        message: order_message(h, a, &def.qual_name()),
                        call_path: vec![hop(sym, files, id, line)],
                    },
                ));
            }
        }
        for (si, site) in graph.sites[id].iter().enumerate() {
            let held = &facts.held_at[si];
            if held.is_empty() {
                continue;
            }
            let mut seen: Vec<(u8, u8)> = Vec::new();
            for &c in &site.callees {
                for a in 0..3u8 {
                    if locks.acq_closure[c] & (1 << a) == 0 {
                        continue;
                    }
                    for &h in held {
                        if h <= a || seen.contains(&(h, a)) {
                            continue;
                        }
                        seen.push((h, a));
                        let mut path = vec![hop(sym, files, id, site.line)];
                        path.extend(closure_witness(
                            sym,
                            files,
                            graph,
                            c,
                            |g| {
                                locks.facts[g]
                                    .acquires
                                    .iter()
                                    .find(|&&(cl, _)| cl == a)
                                    .map(|&(_, l)| l)
                            },
                            |g| locks.acq_closure[g] & (1 << a) != 0,
                        ));
                        out.push((
                            def.file,
                            Raw {
                                rule: "lock-order",
                                line: site.line,
                                message: order_message(h, a, &def.qual_name()),
                                call_path: path,
                            },
                        ));
                    }
                }
            }
        }
    }
    out
}

fn order_message(held: u8, acquired: u8, func: &str) -> String {
    format!(
        "{} lock acquired in `{func}` while a {} guard is held; \
         the sanctioned order is registry → slot → shard",
        LOCK_CLASS_NAMES[acquired as usize], LOCK_CLASS_NAMES[held as usize],
    )
}

// ---------------------------------------------------------------------------
// Transitive hot-path
// ---------------------------------------------------------------------------

/// The transitive hot-path pass: a call from inside a `hot-path(begin/end)`
/// region into any function whose closure acquires a lock. Literal lock
/// calls on the marked lines are covered by the token-level `hot-path-lock`
/// scan; this pass adds the cross-function cases.
pub(crate) fn hot_path_transitive(
    files: &[FileLex],
    sym: &Symbols,
    graph: &CallGraph,
    locks: &Locks,
    regions: &[Vec<(u32, u32)>],
) -> Vec<(usize, Raw)> {
    let mut out = Vec::new();
    for (id, def) in sym.fns.iter().enumerate() {
        if def.is_test {
            continue;
        }
        let regs = &regions[def.file];
        if regs.is_empty() {
            continue;
        }
        let f = &files[def.file];
        for site in &graph.sites[id] {
            if f.test_mask[site.tok] || !regs.iter().any(|&(a, b)| site.line > a && site.line < b) {
                continue;
            }
            for &c in &site.callees {
                if !locks.any_closure[c] {
                    continue;
                }
                let mut path = vec![hop(sym, files, id, site.line)];
                path.extend(closure_witness(
                    sym,
                    files,
                    graph,
                    c,
                    |g| locks.facts[g].any_lock,
                    |g| locks.any_closure[g],
                ));
                let acquirer = path.last().map(|h| h.func.clone()).unwrap_or_default();
                out.push((
                    def.file,
                    Raw {
                        rule: "hot-path-lock",
                        line: site.line,
                        message: format!(
                            "call to `{}` inside a hot-path region acquires a lock \
                             (in `{acquirer}`); folds must run lock-free under the \
                             already-held shard lock",
                            sym.fns[c].qual_name(),
                        ),
                        call_path: path,
                    },
                ));
                break;
            }
        }
    }
    out
}
