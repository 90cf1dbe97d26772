//! Lock-discipline analysis over the serving layer and the coordinator.
//!
//! Three questions, all answered on the token tree (no type checker, so
//! every resolution step is deliberately conservative and documented):
//!
//! 1. **Which locks exist?** A struct scan over the analyzed crates
//!    finds every `Mutex`/`RwLock`/`Condvar` field; a lock's identity is
//!    `Struct.field` (e.g. `SessionSlot.engine`).
//! 2. **Is a guard ever held across an engine entry point?** Guard
//!    bindings from `.lock()`/`.read()`/`.write()` are tracked to end of
//!    scope (or `drop(name)`); chain continuations other than
//!    `.expect(..)`/`.unwrap()` demote the binding to a
//!    statement-temporary (`let gm = slot.engine.lock().take()` binds an
//!    engine, not a guard). `Condvar::wait(g)` keeps the passed guard
//!    alive. A call to a solver/engine entry point — directly by name,
//!    or transitively through the call graph — while any guard is held
//!    is a `lock-across-entry` finding: the solver can run for
//!    milliseconds, and a guard held that long stalls every other path
//!    to the lock.
//! 3. **Can the acquisition order deadlock?** Every "lock B acquired
//!    while lock A is held" event (direct, or through a called
//!    function's transitive acquisition set) is an edge A→B in the
//!    acquisition-order graph; a cycle is a potential AB/BA deadlock
//!    and fails CI.
//!
//! Receiver resolution for acquisitions: `self.field` resolves against
//! the `impl` type's own fields; a bare `receiver.field` resolves when
//! the field name names exactly one known lock field across the
//! analyzed structs; anything else (e.g. `stdout().lock()`) is not a
//! tracked lock and is ignored.
//!
//! Call resolution is *typed*, never merged by bare name (an early
//! bare-name prototype conflated every `new`/`push`/`get` in two crates
//! into one node and fabricated 9 deadlock cycles): `Type::f(..)` and
//! `Self::f(..)` resolve through the path; `self.f(..)` resolves to the
//! enclosing `impl`; `expr.field.f(..)` resolves when `field` has a
//! unique known struct type; a lone `recv.f(..)` or free `f(..)` falls
//! back to the unique analyzed function of that name, if there is
//! exactly one. Anything still ambiguous stays unresolved — the
//! analysis loses that edge rather than inventing one.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::Path;

use crate::lex::TokKind;
use crate::source::SourceFinding;
use crate::tree::{parse, scan_items, Group, TokenTree};

/// Crates covered by the lock analysis: the hand-rolled scheduling in
/// gm-serve and the session/solver-cache layer in gridmind-core.
pub const LOCK_CRATES: &[&str] = &["serve", "core"];

/// Solver/engine entry points a held guard must never span: the
/// conversational engine, the one memo path, and every solver entry.
/// The bare Newton `solve` is left out: entries match by call name, and
/// `solve` would also match every factor's `lu.solve(..)`.
pub const ENGINE_ENTRY_FNS: &[&str] = &[
    "ask",
    "memoized",
    "solve_acopf",
    "solve_scopf",
    "solve_dcopf",
    "solve_base",
    "solve_from",
    "solve_dc",
    "solve_fast_decoupled",
    "run_batch",
    "run_n1",
    "run_n1_cached",
    "run_gen_n1",
    "evaluate_outage",
    "n_minus_2_preview",
];

/// One discovered lock field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockInfo {
    /// Identity: `Struct.field`.
    pub id: String,
    /// `Mutex`, `RwLock`, or `Condvar`.
    pub kind: &'static str,
    /// Declaring file (repo-relative).
    pub file: String,
    /// Declaration line.
    pub line: usize,
}

/// One acquisition-order edge: `acquired` was taken while `held` was
/// held, at `site`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct OrderEdge {
    /// The lock already held.
    pub held: String,
    /// The lock acquired under it.
    pub acquired: String,
    /// `file:line` of the acquisition (or call) site.
    pub site: String,
}

/// Outcome of the lock analysis.
#[derive(Debug, Default)]
pub struct LockReport {
    /// Every `Mutex`/`RwLock`/`Condvar` field in the analyzed crates.
    pub locks: Vec<LockInfo>,
    /// Acquisition-order edges (deduplicated, sorted).
    pub edges: Vec<OrderEdge>,
    /// `lock-across-entry` findings.
    pub findings: Vec<SourceFinding>,
    /// Cycles in the order graph (each a lock-id sequence; empty =
    /// acyclic = deadlock-free ordering).
    pub cycles: Vec<Vec<String>>,
    /// Number of functions analyzed.
    pub functions_analyzed: usize,
}

impl LockReport {
    /// True when no guard spans an entry point and the order graph is
    /// acyclic.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.cycles.is_empty()
    }
}

/// A struct field: lock fields feed the inventory, every typed field
/// feeds call-receiver resolution.
#[derive(Debug, Clone)]
struct FieldInfo {
    owner: String,
    field: String,
    /// Identifier tokens of the declared type, in order.
    type_idents: Vec<String>,
    /// `Some` for `Mutex`/`RwLock`/`Condvar` fields.
    lock_kind: Option<&'static str>,
    file: String,
    line: usize,
}

struct FnDef<'a> {
    name: String,
    impl_type: String,
    file: String,
    body: &'a Group,
}

/// `(impl type or "", fn name)` — the call-graph node identity.
type FnKey = (String, String);

/// Method names excluded from the unique-name fallback (see
/// [`Tables::unique_fn`]): the std prelude and collection vocabulary.
const FOREIGN_METHOD_NAMES: &[&str] = &[
    "get",
    "get_mut",
    "push",
    "pop",
    "insert",
    "remove",
    "len",
    "is_empty",
    "clear",
    "clone",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "contains",
    "contains_key",
    "push_back",
    "pop_front",
    "position",
    "take",
    "replace",
    "send",
    "recv",
    "join",
    "entry",
    "keys",
    "values",
    "extend",
    "drain",
    "retain",
    "map",
    "filter",
    "collect",
    "first",
    "last",
    "to_string",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "fetch_add",
    "load",
    "store",
    "min",
    "max",
    "abs",
];

/// Per-function direct facts (phase A) and transitive closure (fixpoint).
#[derive(Debug, Default, Clone)]
struct FnFacts {
    locks: BTreeSet<String>,
    calls: BTreeSet<FnKey>,
    entry: bool,
}

/// Name-resolution tables shared by both analysis phases.
struct Tables {
    fields: Vec<FieldInfo>,
    /// Field name → declared type, when every field of that name agrees
    /// on one known (impl'd) type.
    unique_field_type: BTreeMap<String, String>,
    /// `(owner, field)` → known type.
    field_type: BTreeMap<(String, String), String>,
    fn_keys: BTreeSet<FnKey>,
    /// Fn name → all keys carrying it (for the unique-name fallback).
    fns_by_name: BTreeMap<String, BTreeSet<FnKey>>,
}

impl Tables {
    /// Lock-receiver resolution (see module docs).
    fn resolve_lock(&self, impl_type: &str, is_self: bool, field: &str) -> Option<String> {
        if is_self {
            if let Some(f) = self
                .fields
                .iter()
                .find(|f| f.lock_kind.is_some() && f.owner == impl_type && f.field == field)
            {
                return Some(format!("{}.{}", f.owner, f.field));
            }
        }
        let mut hits = self
            .fields
            .iter()
            .filter(|f| f.lock_kind.is_some() && f.field == field);
        match (hits.next(), hits.next()) {
            (Some(only), None) => Some(format!("{}.{}", only.owner, only.field)),
            // Ambiguous non-self field: conservatively unresolvable (a
            // wrong guess would fabricate order edges).
            _ => None,
        }
    }

    /// Unique-name fallback: the single analyzed function of this name.
    /// Never fires for std-prelude/collection method names — with an
    /// untyped receiver those are overwhelmingly `Vec`/`HashMap`/`Option`
    /// calls, and matching them to a same-named analyzed function
    /// fabricates edges (`state.order.push(k)` is `Vec::push`, not
    /// `BoundedQueue::push`). Typed receivers still resolve such names
    /// through the field table.
    fn unique_fn(&self, name: &str) -> Option<FnKey> {
        if FOREIGN_METHOD_NAMES.contains(&name) {
            return None;
        }
        match self.fns_by_name.get(name) {
            Some(keys) if keys.len() == 1 => keys.iter().next().cloned(),
            _ => None,
        }
    }
}

/// Analyzes `(path, text)` source pairs. Exposed (rather than only the
/// directory walker) so the golden corpus can feed fixture files.
pub fn analyze_lock_sources(files: &[(String, String)]) -> LockReport {
    let parsed: Vec<(String, Vec<TokenTree>)> = files
        .iter()
        .map(|(path, text)| (path.clone(), parse(text).0))
        .collect();

    // ---- pass 1: field inventory + function inventory.
    let mut fields: Vec<FieldInfo> = Vec::new();
    let mut fns: Vec<FnDef> = Vec::new();
    for (path, trees) in &parsed {
        collect_items(trees, path, "", &mut fields, &mut fns);
    }
    let mut fn_keys: BTreeSet<FnKey> = BTreeSet::new();
    let mut fns_by_name: BTreeMap<String, BTreeSet<FnKey>> = BTreeMap::new();
    for f in &fns {
        let key = (f.impl_type.clone(), f.name.clone());
        fn_keys.insert(key.clone());
        fns_by_name.entry(f.name.clone()).or_default().insert(key);
    }
    let impl_types: BTreeSet<&str> = fn_keys
        .iter()
        .filter(|(t, _)| !t.is_empty())
        .map(|(t, _)| t.as_str())
        .collect();
    let mut field_type: BTreeMap<(String, String), String> = BTreeMap::new();
    let mut unique_field_type: BTreeMap<String, String> = BTreeMap::new();
    let mut ambiguous: BTreeSet<String> = BTreeSet::new();
    for f in &fields {
        let Some(ty) = f
            .type_idents
            .iter()
            .find(|t| impl_types.contains(t.as_str()))
        else {
            continue;
        };
        field_type.insert((f.owner.clone(), f.field.clone()), ty.clone());
        match unique_field_type.get(&f.field) {
            None if !ambiguous.contains(&f.field) => {
                unique_field_type.insert(f.field.clone(), ty.clone());
            }
            Some(prev) if prev != ty => {
                unique_field_type.remove(&f.field);
                ambiguous.insert(f.field.clone());
            }
            _ => {}
        }
    }
    let tables = Tables {
        fields,
        unique_field_type,
        field_type,
        fn_keys,
        fns_by_name,
    };

    // ---- pass 2 (phase A): direct facts per function.
    let mut direct: BTreeMap<FnKey, FnFacts> = BTreeMap::new();
    for f in &fns {
        let mut facts = FnFacts::default();
        collect_direct(&f.body.trees, &f.impl_type, &tables, &mut facts);
        let merged = direct
            .entry((f.impl_type.clone(), f.name.clone()))
            .or_default();
        merged.locks.extend(facts.locks);
        merged.calls.extend(facts.calls);
        merged.entry |= facts.entry;
    }

    // ---- fixpoint: transitive lock sets + entry reachability.
    let mut trans = direct.clone();
    loop {
        let mut changed = false;
        let snapshot = trans.clone();
        for facts in trans.values_mut() {
            for callee in facts.calls.clone() {
                if let Some(c) = snapshot.get(&callee) {
                    let before = facts.locks.len();
                    facts.locks.extend(c.locks.iter().cloned());
                    changed |= facts.locks.len() != before;
                    if c.entry && !facts.entry {
                        facts.entry = true;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // ---- pass 3 (phase B): guard tracking, edges, findings.
    let mut rep = LockReport {
        functions_analyzed: fns.len(),
        ..LockReport::default()
    };
    let mut edge_set: BTreeSet<OrderEdge> = BTreeSet::new();
    for f in &fns {
        let mut held: Vec<HeldGuard> = Vec::new();
        let mut ctx = WalkCtx {
            impl_type: &f.impl_type,
            file: &f.file,
            fn_name: &f.name,
            tables: &tables,
            trans: &trans,
            edges: &mut edge_set,
            findings: &mut rep.findings,
        };
        walk_block(&f.body.trees, &mut ctx, &mut held);
    }
    rep.edges = edge_set.into_iter().collect();

    for f in &tables.fields {
        if let Some(kind) = f.lock_kind {
            rep.locks.push(LockInfo {
                id: format!("{}.{}", f.owner, f.field),
                kind,
                file: f.file.clone(),
                line: f.line,
            });
        }
    }
    rep.locks.sort_by(|a, b| a.id.cmp(&b.id));
    rep.cycles = find_cycles(&rep.edges);
    rep.findings
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    rep
}

/// Directory-walking entry point: analyzes all of [`LOCK_CRATES`].
pub fn lint_locks(repo_root: &Path) -> io::Result<LockReport> {
    let mut files = Vec::new();
    for krate in LOCK_CRATES {
        let src = repo_root.join("crates").join(krate).join("src");
        if !src.is_dir() {
            continue;
        }
        let mut paths = Vec::new();
        collect_rs(&src, &mut paths)?;
        for path in paths {
            let rel = path
                .strip_prefix(repo_root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            files.push((rel, fs::read_to_string(&path)?));
        }
    }
    Ok(analyze_lock_sources(&files))
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
    Ok(())
}

/// Recursively collects struct fields and function bodies, skipping
/// `#[cfg(test)]` items. `impl_type` is the enclosing `impl` target ("",
/// outside an impl).
fn collect_items<'a>(
    trees: &'a [TokenTree],
    file: &str,
    impl_type: &str,
    fields: &mut Vec<FieldInfo>,
    fns: &mut Vec<FnDef<'a>>,
) {
    for item in scan_items(trees) {
        if item.is_cfg_test() {
            continue;
        }
        let Some(body) = item.body else { continue };
        match item.kind {
            "struct" => collect_struct_fields(&item.name, body, file, fields),
            "impl" => collect_items(&body.trees, file, &item.name, fields, fns),
            "mod" => collect_items(&body.trees, file, impl_type, fields, fns),
            "fn" => fns.push(FnDef {
                name: item.name.clone(),
                impl_type: impl_type.to_string(),
                file: file.to_string(),
                body,
            }),
            _ => {}
        }
    }
}

/// Splits a struct body on top-level commas and records every field
/// with its type identifiers; `Mutex`/`RwLock`/`Condvar` fields are
/// additionally tagged as locks.
fn collect_struct_fields(owner: &str, body: &Group, file: &str, fields: &mut Vec<FieldInfo>) {
    for chunk in body
        .trees
        .split(|t| t.leaf().is_some_and(|l| l.is_punct(',')))
    {
        // Skip attrs and visibility: `#[..]* [pub[(..)]] name : type`.
        let mut i = 0;
        while i < chunk.len() {
            if chunk[i].is_punct('#') {
                i += 2; // '#' + bracket group
            } else if chunk[i].is_ident("pub") {
                i += 1;
                if chunk.get(i).and_then(TokenTree::group).is_some() {
                    i += 1;
                }
            } else {
                break;
            }
        }
        let (Some(name), Some(colon)) = (chunk.get(i), chunk.get(i + 1)) else {
            continue;
        };
        if !colon.is_punct(':') || colon_is_path(chunk, i + 1) {
            continue;
        }
        let Some(name_tok) = name.leaf().filter(|t| t.kind == TokKind::Ident) else {
            continue;
        };
        let ty = &chunk[i + 2..];
        let type_idents = type_idents(ty);
        let lock_kind = if type_idents.iter().any(|t| t == "Mutex") {
            Some("Mutex")
        } else if type_idents.iter().any(|t| t == "RwLock") {
            Some("RwLock")
        } else if type_idents.iter().any(|t| t == "Condvar") {
            Some("Condvar")
        } else {
            None
        };
        fields.push(FieldInfo {
            owner: owner.to_string(),
            field: name_tok.text.clone(),
            type_idents,
            lock_kind,
            file: file.to_string(),
            line: name_tok.line,
        });
    }
}

/// All identifier tokens of a type expression, including inside
/// generic-argument groups (`Arc<Mutex<T>>` → `[Arc, Mutex, T]`).
fn type_idents(trees: &[TokenTree]) -> Vec<String> {
    let mut out = Vec::new();
    for t in trees {
        match t {
            TokenTree::Leaf(tok) if tok.kind == TokKind::Ident => out.push(tok.text.clone()),
            TokenTree::Group(g) => out.extend(type_idents(&g.trees)),
            _ => {}
        }
    }
    out
}

/// True when the `:` at `i` is half of a `::` path separator.
fn colon_is_path(chunk: &[TokenTree], i: usize) -> bool {
    chunk.get(i + 1).is_some_and(|t| t.is_punct(':')) || i > 0 && chunk[i - 1].is_punct(':')
}

/// Phase A: direct acquisitions, direct callee keys, direct entry
/// calls — a flat recursive scan with no guard tracking.
fn collect_direct(trees: &[TokenTree], impl_type: &str, tables: &Tables, facts: &mut FnFacts) {
    for i in 0..trees.len() {
        if let Some((lock, _)) = acquisition_at(trees, i, impl_type, tables) {
            facts.locks.insert(lock);
        }
        if let Some(name) = call_name_at(trees, i) {
            if ENGINE_ENTRY_FNS.contains(&name) {
                facts.entry = true;
            }
            if let Some(key) = resolve_call(trees, i, impl_type, tables) {
                facts.calls.insert(key);
            }
        }
        if let TokenTree::Group(g) = &trees[i] {
            collect_direct(&g.trees, impl_type, tables, facts);
        }
    }
}

/// Detects a guard acquisition at `i`: `.` `{lock,read,write}` `()`.
/// Returns `(lock id, index after the paren group)`.
fn acquisition_at(
    trees: &[TokenTree],
    i: usize,
    impl_type: &str,
    tables: &Tables,
) -> Option<(String, usize)> {
    if !trees[i].is_punct('.') {
        return None;
    }
    let name = trees.get(i + 1)?.leaf()?;
    if !matches!(name.text.as_str(), "lock" | "read" | "write") {
        return None;
    }
    let g = trees.get(i + 2)?.group()?;
    if g.delim != '(' || !g.trees.is_empty() {
        return None;
    }
    let segs = receiver_path(trees, i);
    if segs.is_empty() {
        return None;
    }
    let is_self = segs[0] == "self";
    let field = segs[segs.len() - 1];
    if field == "self" {
        return None;
    }
    tables
        .resolve_lock(impl_type, is_self, field)
        .map(|lock| (lock, i + 3))
}

/// The `ident (. ident)*` receiver run ending just before the `.` at
/// `dot`, left-to-right. Empty when the receiver is not a plain path
/// (e.g. a call result).
fn receiver_path(trees: &[TokenTree], dot: usize) -> Vec<&str> {
    let mut segs: Vec<&str> = Vec::new();
    let mut j = dot;
    while j >= 1 {
        let Some(tok) = trees[j - 1].leaf() else {
            break;
        };
        if tok.kind == TokKind::Ident {
            segs.push(&tok.text);
            if j >= 2 && trees[j - 2].is_punct('.') {
                j -= 2;
                continue;
            }
        }
        break;
    }
    segs.reverse();
    segs
}

/// The called name at `i` when `i` is `ident` `(..)` and not a
/// definition (`fn ident(..)`) or macro (`ident!(..)` never matches:
/// the group is not adjacent).
fn call_name_at(trees: &[TokenTree], i: usize) -> Option<&str> {
    let tok = trees[i].leaf()?;
    if tok.kind != TokKind::Ident {
        return None;
    }
    let g = trees.get(i + 1)?.group()?;
    if g.delim != '(' {
        return None;
    }
    if i > 0 && trees[i - 1].leaf().is_some_and(|t| t.is_ident("fn")) {
        return None;
    }
    Some(&tok.text)
}

/// Typed call resolution (see module docs). `None` = unresolved: the
/// call contributes nothing rather than a guessed edge.
fn resolve_call(trees: &[TokenTree], i: usize, impl_type: &str, tables: &Tables) -> Option<FnKey> {
    let name = call_name_at(trees, i)?;
    // Acquisitions and guard plumbing are handled structurally, never
    // as call-graph nodes.
    if matches!(name, "lock" | "read" | "write" | "wait" | "drop") {
        return None;
    }
    let in_table = |key: FnKey| -> Option<FnKey> {
        if tables.fn_keys.contains(&key) {
            Some(key)
        } else {
            None
        }
    };
    // `Type::name(..)` / `Self::name(..)`.
    if i >= 3
        && trees[i - 1].is_punct(':')
        && trees[i - 2].is_punct(':')
        && trees[i - 3]
            .leaf()
            .is_some_and(|t| t.kind == TokKind::Ident)
    {
        let ty = &trees[i - 3].leaf()?.text;
        let ty = if ty == "Self" { impl_type } else { ty };
        return in_table((ty.to_string(), name.to_string()));
    }
    // Method call: resolve the receiver to a type.
    if i >= 1 && trees[i - 1].is_punct('.') {
        let segs = receiver_path(trees, i - 1);
        match segs.as_slice() {
            ["self"] => {
                if let Some(key) = in_table((impl_type.to_string(), name.to_string())) {
                    return Some(key);
                }
            }
            ["self", field] => {
                if let Some(ty) = tables
                    .field_type
                    .get(&(impl_type.to_string(), (*field).to_string()))
                {
                    return in_table((ty.clone(), name.to_string()));
                }
            }
            [.., field] if segs.len() >= 2 => {
                if let Some(ty) = tables.unique_field_type.get(*field) {
                    return in_table((ty.clone(), name.to_string()));
                }
            }
            _ => {}
        }
        // Lone local receiver (or unknown field): unique-name fallback.
        return tables.unique_fn(name);
    }
    // Free call.
    in_table((String::new(), name.to_string())).or_else(|| tables.unique_fn(name))
}

#[derive(Debug)]
struct HeldGuard {
    lock: String,
    /// `Some(name)`: let-bound, lives to end of block or `drop(name)`.
    /// `None`: statement temporary.
    binding: Option<String>,
}

struct WalkCtx<'a> {
    impl_type: &'a str,
    file: &'a str,
    fn_name: &'a str,
    tables: &'a Tables,
    trans: &'a BTreeMap<FnKey, FnFacts>,
    edges: &'a mut BTreeSet<OrderEdge>,
    findings: &'a mut Vec<SourceFinding>,
}

/// Phase B block walker. Statements end at `;` or at a top-level brace
/// group (expression statements: `if`/`match`/`loop` bodies) — which
/// keeps an `if let Some(x) = y.read().get(..)` scrutinee temporary
/// alive exactly through the construct's body. Guards bound inside a
/// block die when the block exits.
fn walk_block(trees: &[TokenTree], ctx: &mut WalkCtx<'_>, held: &mut Vec<HeldGuard>) {
    let block_base = held.len();
    let mut i = 0;
    while i < trees.len() {
        // One statement: [i, end).
        let stmt_base = held.len();
        let binding = stmt_binding(&trees[i..]);
        let mut j = i;
        while j < trees.len() {
            if trees[j].leaf().is_some_and(|t| t.is_punct(';')) {
                j += 1;
                break;
            }
            if let Some((lock, after)) = acquisition_at(trees, j, ctx.impl_type, ctx.tables) {
                let line = trees[j].line();
                for h in held.iter() {
                    if h.lock != lock {
                        ctx.edges.insert(OrderEdge {
                            held: h.lock.clone(),
                            acquired: lock.clone(),
                            site: format!("{}:{line}", ctx.file),
                        });
                    }
                }
                let is_guard_binding = binding.is_some() && chain_stays_guard(trees, after);
                held.push(HeldGuard {
                    lock,
                    binding: if is_guard_binding {
                        binding.map(str::to_string)
                    } else {
                        None
                    },
                });
                j = after;
                continue;
            }
            if let Some(name) = call_name_at(trees, j) {
                let line = trees[j].line();
                if name == "drop" {
                    // `drop(g)` releases the named guard.
                    if let Some(g) = trees.get(j + 1).and_then(TokenTree::group) {
                        if let [only] = g.trees.as_slice() {
                            if let Some(tok) = only.leaf() {
                                held.retain(|h| h.binding.as_deref() != Some(&tok.text));
                            }
                        }
                    }
                } else if !held.is_empty() {
                    let callee = resolve_call(trees, j, ctx.impl_type, ctx.tables)
                        .and_then(|key| ctx.trans.get(&key));
                    let is_entry =
                        ENGINE_ENTRY_FNS.contains(&name) || callee.is_some_and(|c| c.entry);
                    if is_entry {
                        let held_ids: Vec<&str> = held.iter().map(|h| h.lock.as_str()).collect();
                        ctx.findings.push(SourceFinding {
                            file: ctx.file.to_string(),
                            line,
                            rule: "lock-across-entry",
                            excerpt: format!(
                                "guard on {} held across engine entry `{name}(..)` in `{}` — \
                                 check the value out of the lock instead",
                                held_ids.join(" + "),
                                ctx.fn_name,
                            ),
                        });
                    }
                    if let Some(c) = callee {
                        for m in &c.locks {
                            for h in held.iter() {
                                if &h.lock != m {
                                    ctx.edges.insert(OrderEdge {
                                        held: h.lock.clone(),
                                        acquired: m.clone(),
                                        site: format!("{}:{line}", ctx.file),
                                    });
                                }
                            }
                        }
                    }
                }
            }
            if let TokenTree::Group(g) = &trees[j] {
                walk_block(&g.trees, ctx, held);
                if g.delim == '{' {
                    // Expression-statement body (if/match/loop/fn-block):
                    // ends the statement, releasing its temporaries.
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
        // Statement end: temporaries acquired in it die; let-bound
        // guards survive to block exit.
        let mut idx = 0;
        held.retain(|h| {
            let keep = idx < stmt_base || h.binding.is_some();
            idx += 1;
            keep
        });
        i = j.max(i + 1);
    }
    held.truncate(block_base);
}

/// `let [mut] name = …` → the bound name (`_` and destructuring
/// patterns bind no guard).
fn stmt_binding(stmt: &[TokenTree]) -> Option<&str> {
    if !stmt.first()?.is_ident("let") {
        return None;
    }
    let mut i = 1;
    if stmt.get(i)?.is_ident("mut") {
        i += 1;
    }
    let tok = stmt.get(i)?.leaf()?;
    if tok.kind != TokKind::Ident || tok.text == "_" {
        return None;
    }
    if !stmt.get(i + 1)?.is_punct('=') {
        return None;
    }
    Some(&tok.text)
}

/// After an acquisition's `()` group at `after`, does the chain keep
/// guard-ness to the end of the statement? Only `.expect(..)` and
/// `.unwrap()` preserve the guard; `.take()`, `.as_ref()`, field
/// access, `=` … all mean the binding holds something else and the
/// guard is a statement temporary.
fn chain_stays_guard(trees: &[TokenTree], mut j: usize) -> bool {
    loop {
        match trees.get(j) {
            None => return true,
            Some(t) if t.is_punct(';') => return true,
            Some(t) if t.is_punct('.') => {
                let name = trees.get(j + 1).and_then(TokenTree::leaf);
                let args = trees.get(j + 2).and_then(TokenTree::group);
                match (name, args) {
                    (Some(n), Some(_)) if n.text == "expect" || n.text == "unwrap" => {
                        j += 3;
                    }
                    _ => return false,
                }
            }
            Some(_) => return false,
        }
    }
}

/// DFS cycle detection over the order graph. Returns each elementary
/// cycle found (first-discovered per strongly connected loop, enough to
/// fail CI and name the locks involved).
fn find_cycles(edges: &[OrderEdge]) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.held).or_default().insert(&e.acquired);
    }
    fn dfs<'a>(
        node: &'a str,
        adj: &BTreeMap<&'a str, BTreeSet<&'a str>>,
        path: &mut Vec<&'a str>,
        done: &mut BTreeSet<&'a str>,
        cycles: &mut Vec<Vec<String>>,
    ) {
        if let Some(pos) = path.iter().position(|n| *n == node) {
            let cycle: Vec<String> = path[pos..].iter().map(|s| (*s).to_string()).collect();
            if !cycles.iter().any(|c| same_cycle(c, &cycle)) {
                cycles.push(cycle);
            }
            return;
        }
        if done.contains(node) {
            return;
        }
        path.push(node);
        if let Some(nexts) = adj.get(node) {
            for next in nexts {
                dfs(next, adj, path, done, cycles);
            }
        }
        path.pop();
        done.insert(node);
    }
    let mut cycles: Vec<Vec<String>> = Vec::new();
    let mut done: BTreeSet<&str> = BTreeSet::new();
    let starts: Vec<&str> = adj.keys().copied().collect();
    for start in starts {
        if !done.contains(start) {
            let mut path = Vec::new();
            dfs(start, &adj, &mut path, &mut done, &mut cycles);
        }
    }
    cycles
}

/// Two cycles are the same up to rotation.
fn same_cycle(a: &[String], b: &[String]) -> bool {
    a.len() == b.len()
        && !a.is_empty()
        && (0..a.len()).any(|r| (0..a.len()).all(|i| a[(r + i) % a.len()] == b[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(src: &str) -> LockReport {
        analyze_lock_sources(&[("fixture.rs".to_string(), src.to_string())])
    }

    const SLOT: &str = "
        pub struct Slot {
            state: Mutex<State>,
            pub engine: Mutex<Option<Engine>>,
        }
    ";

    #[test]
    fn struct_scan_finds_lock_fields() {
        let rep = analyze(SLOT);
        let ids: Vec<&str> = rep.locks.iter().map(|l| l.id.as_str()).collect();
        assert_eq!(ids, ["Slot.engine", "Slot.state"]);
        assert_eq!(rep.locks[0].kind, "Mutex");
    }

    #[test]
    fn condvar_fields_are_inventoried() {
        let rep = analyze("struct Q { inner: Mutex<Inner>, ready: Condvar, capacity: usize }");
        let kinds: Vec<&str> = rep.locks.iter().map(|l| l.kind).collect();
        assert_eq!(kinds, ["Mutex", "Condvar"]);
    }

    #[test]
    fn guard_held_across_ask_is_flagged() {
        let src = format!(
            "{SLOT}
            fn serve(slot: &Slot, gm: &mut Engine) {{
                let mut engine = slot.engine.lock();
                let reply = gm.ask(query);
                drop(engine);
            }}"
        );
        let rep = analyze(&src);
        assert_eq!(rep.findings.len(), 1, "{:?}", rep.findings);
        assert_eq!(rep.findings[0].rule, "lock-across-entry");
        assert!(rep.findings[0].excerpt.contains("Slot.engine"));
    }

    #[test]
    fn checkout_pattern_is_clean() {
        let src = format!(
            "{SLOT}
            fn serve(slot: &Slot) {{
                let mut gm = slot.engine.lock().take().unwrap_or_else(make_engine);
                let reply = gm.ask(query);
                *slot.engine.lock() = Some(gm);
            }}"
        );
        let rep = analyze(&src);
        assert!(rep.findings.is_empty(), "{:?}", rep.findings);
    }

    #[test]
    fn drop_releases_the_guard_before_the_entry_call() {
        let src = format!(
            "{SLOT}
            fn serve(slot: &Slot, gm: &mut Engine) {{
                let g = slot.engine.lock();
                drop(g);
                let reply = gm.ask(query);
            }}"
        );
        assert!(analyze(&src).findings.is_empty());
    }

    #[test]
    fn std_guard_with_expect_still_tracks() {
        let src = format!(
            "{SLOT}
            fn serve(slot: &Slot, gm: &mut Engine) {{
                let g = slot.engine.lock().expect(\"poisoned\");
                let reply = gm.ask(query);
            }}"
        );
        assert_eq!(analyze(&src).findings.len(), 1);
    }

    #[test]
    fn transitive_entry_through_call_graph_is_flagged() {
        let src = format!(
            "{SLOT}
            fn inner_solve(gm: &mut Engine) {{ gm.ask(query); }}
            fn serve(slot: &Slot, gm: &mut Engine) {{
                let g = slot.state.lock();
                inner_solve(gm);
            }}"
        );
        let rep = analyze(&src);
        assert_eq!(rep.findings.len(), 1, "{:?}", rep.findings);
        assert!(rep.findings[0].excerpt.contains("inner_solve"));
        assert!(rep.findings[0].excerpt.contains("Slot.state"));
    }

    #[test]
    fn ab_ba_cycle_is_detected() {
        let src = "
            struct A { m: Mutex<u32> }
            struct B { n: Mutex<u32> }
            fn f(a: &A, b: &B) {
                let g = a.m.lock();
                let h = b.n.lock();
            }
            fn g(a: &A, b: &B) {
                let h = b.n.lock();
                let g = a.m.lock();
            }
        ";
        let rep = analyze(src);
        assert_eq!(rep.edges.len(), 2, "{:?}", rep.edges);
        assert_eq!(rep.cycles.len(), 1, "{:?}", rep.cycles);
        assert!(!rep.is_clean());
    }

    #[test]
    fn consistent_order_is_acyclic() {
        let src = "
            struct A { m: Mutex<u32> }
            struct B { n: Mutex<u32> }
            fn f(a: &A, b: &B) {
                let g = a.m.lock();
                let h = b.n.lock();
            }
            fn g2(a: &A, b: &B) {
                let g = a.m.lock();
                let h = b.n.lock();
            }
        ";
        let rep = analyze(src);
        // Two sites, one direction: edges dedupe by (held, acquired, site).
        let pairs: BTreeSet<(&str, &str)> = rep
            .edges
            .iter()
            .map(|e| (e.held.as_str(), e.acquired.as_str()))
            .collect();
        assert_eq!(pairs.len(), 1, "{:?}", rep.edges);
        assert!(rep.cycles.is_empty());
        assert!(rep.is_clean());
    }

    #[test]
    fn transitive_edge_through_called_function() {
        let src = "
            struct A { m: Mutex<u32> }
            struct B { n: Mutex<u32> }
            impl B {
                fn bump(&self) { let g = self.n.lock(); }
            }
            fn f(a: &A, b: &B) {
                let g = a.m.lock();
                b.bump();
            }
        ";
        let rep = analyze(src);
        assert_eq!(rep.edges.len(), 1, "{:?}", rep.edges);
        assert_eq!(rep.edges[0].held, "A.m");
        assert_eq!(rep.edges[0].acquired, "B.n");
    }

    #[test]
    fn typed_resolution_does_not_merge_same_named_fns() {
        // Two `refresh` methods: only B's takes a lock. A call through a
        // receiver typed as C must not inherit B's acquisitions.
        let src = "
            struct A { m: Mutex<u32> }
            struct B { n: Mutex<u32> }
            struct C { v: u32 }
            struct Holder { c: C }
            impl B {
                fn refresh(&self) { let g = self.n.lock(); }
            }
            impl C {
                fn refresh(&self) {}
            }
            impl Holder {
                fn f(&self, a: &A) {
                    let g = a.m.lock();
                    self.c.refresh();
                }
            }
        ";
        let rep = analyze(src);
        assert!(rep.edges.is_empty(), "{:?}", rep.edges);
    }

    #[test]
    fn type_path_calls_resolve() {
        let src = "
            struct A { m: Mutex<u32> }
            struct B { n: Mutex<u32> }
            impl B {
                fn init() { let g = GLOBAL.n.lock(); }
            }
            fn f(a: &A) {
                let g = a.m.lock();
                B::init();
            }
        ";
        let rep = analyze(src);
        assert_eq!(rep.edges.len(), 1, "{:?}", rep.edges);
        assert_eq!(rep.edges[0].acquired, "B.n");
    }

    #[test]
    fn field_typed_receiver_resolves_through_the_struct_table() {
        let src = "
            struct Q { inner: Mutex<u32> }
            struct Shared { queue: Q }
            impl Q {
                fn push(&self) { let g = self.inner.lock(); }
            }
            struct R { slots: RwLock<Map> }
            impl R {
                fn f(&self, shared: &Shared) {
                    let w = self.slots.write();
                    shared.queue.push();
                }
            }
        ";
        let rep = analyze(src);
        assert_eq!(rep.edges.len(), 1, "{:?}", rep.edges);
        assert_eq!(rep.edges[0].held, "R.slots");
        assert_eq!(rep.edges[0].acquired, "Q.inner");
    }

    #[test]
    fn statement_temporary_does_not_span_statements() {
        let src = "
            struct A { m: Mutex<u32> }
            fn f(a: &A, gm: &mut Engine) {
                a.m.lock().push(1);
                gm.ask(query);
            }
        ";
        assert!(analyze(src).findings.is_empty());
    }

    #[test]
    fn if_let_scrutinee_temporary_spans_the_body() {
        let src = "
            struct R { slots: RwLock<Map> }
            fn f(r: &R, gm: &mut Engine) {
                if let Some(s) = r.slots.read().get(id) {
                    gm.ask(query);
                }
                gm.ask(query2);
            }
        ";
        let rep = analyze(src);
        assert_eq!(rep.findings.len(), 1, "{:?}", rep.findings);
        assert!(rep.findings[0].excerpt.contains("R.slots"));
    }

    #[test]
    fn self_field_resolution_disambiguates_shared_names() {
        let src = "
            struct A { inner: Mutex<u32> }
            struct B { inner: Mutex<u32> }
            impl A {
                fn f(&self, b: &B, gm: &mut Engine) {
                    let g = self.inner.lock();
                    gm.ask(query);
                }
            }
        ";
        let rep = analyze(src);
        assert_eq!(rep.findings.len(), 1);
        assert!(rep.findings[0].excerpt.contains("A.inner"));
    }

    #[test]
    fn unknown_receivers_are_ignored() {
        let src = "
            fn f(gm: &mut Engine) {
                let out = stdout().lock();
                gm.ask(query);
            }
        ";
        let rep = analyze(src);
        assert!(rep.findings.is_empty());
        assert!(rep.locks.is_empty());
    }

    #[test]
    fn cfg_test_items_are_excluded() {
        let src = "
            struct A { m: Mutex<u32> }
            #[cfg(test)]
            mod tests {
                fn f(a: &A, gm: &mut Engine) {
                    let g = a.m.lock();
                    gm.ask(query);
                }
            }
        ";
        assert!(analyze(src).findings.is_empty());
    }

    #[test]
    fn block_exit_releases_bound_guards() {
        let src = "
            struct A { m: Mutex<u32> }
            fn f(a: &A, gm: &mut Engine) {
                {
                    let g = a.m.lock();
                }
                gm.ask(query);
            }
        ";
        assert!(analyze(src).findings.is_empty());
    }
}
