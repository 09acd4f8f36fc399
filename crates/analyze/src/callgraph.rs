//! Workspace-wide call graph over the [`crate::parser`] output.
//!
//! Nodes are live (non-test) function items; edges come from heuristic
//! call resolution: name match first, refined by receiver shape —
//! `self.m()` prefers methods of the caller's own impl type,
//! `Type::f()` prefers associated fns of `Type`, and `var.m()` prefers
//! impl types whose snake_case matches the receiver variable
//! (`comm.barrier()` → `Comm::barrier`, `node_mlp.forward()` →
//! `Mlp::forward`). When the refinement finds nothing the resolver
//! falls back to every same-named candidate: the graph deliberately
//! **over**-approximates, because the rules built on it reason about
//! reachability of hazards — a missing edge hides a bug, a spurious one
//! costs at most a reasoned suppression.

use std::collections::{btree_map::Entry, BTreeMap, BTreeSet, VecDeque};

use crate::context::FileContext;
use crate::parser::{CallSite, FnInfo, Receiver};

/// One node: fn `f` of `files[file]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRef {
    /// Index into the file list the graph was built from.
    pub file: usize,
    /// Index into that file's `parsed.fns`.
    pub f: usize,
}

/// The resolved call graph.
pub struct CallGraph {
    nodes: Vec<NodeRef>,
    /// Per node: union of its call sites' resolved targets (sorted,
    /// deduped).
    edges: Vec<Vec<usize>>,
}

/// `CamelCase` → `camel_case`, for receiver-variable ↔ type matching.
fn snake_case(ty: &str) -> String {
    let mut out = String::with_capacity(ty.len() + 4);
    for (i, c) in ty.chars().enumerate() {
        if c.is_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.extend(c.to_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

/// Whether receiver variable `var` plausibly holds a value of type `ty`:
/// `comm` ↔ `Comm`, `node_mlp` ↔ `Mlp`, `pending` ↔ `PendingExchange`
/// (prefix), but not accidental substring hits. Deliberately NOT a
/// suffix match (`layer` ↔ `ConsistentMpLayer`): generic words like
/// `layer` name the *nearest* such type, not a specific one, and a
/// wrong confident match is worse than falling back.
fn var_matches_ty(var: &str, ty: &str) -> bool {
    let snake = snake_case(ty);
    var == snake || var.ends_with(&format!("_{snake}")) || snake.starts_with(var) && var.len() >= 4
}

impl CallGraph {
    /// Build the graph over every live fn in `files`. Test files and
    /// `#[cfg(test)]` regions contribute no nodes, so a same-named test
    /// helper can never create false reachability into live code.
    pub fn build(files: &[FileContext]) -> CallGraph {
        use crate::context::FileKind;
        let mut nodes = Vec::new();
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (file, ctx) in files.iter().enumerate() {
            if ctx.kind == FileKind::Test {
                continue;
            }
            for (f, info) in ctx.parsed.fns.iter().enumerate() {
                if ctx.in_test(info.span.start) {
                    continue;
                }
                by_name
                    .entry(info.name.as_str())
                    .or_default()
                    .push(nodes.len());
                nodes.push(NodeRef { file, f });
            }
        }
        let fn_of = |n: &NodeRef| -> &FnInfo { &files[n.file].parsed.fns[n.f] };
        let edges = nodes
            .iter()
            .map(|node| {
                let caller = fn_of(node);
                let union: BTreeSet<usize> = caller
                    .calls
                    .iter()
                    .flat_map(|call| resolve(call, caller, node.file, &by_name, &nodes, files))
                    .collect();
                union.into_iter().collect()
            })
            .collect();
        CallGraph { nodes, edges }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The `(file, fn)` reference of node `n`.
    pub fn node(&self, n: usize) -> NodeRef {
        self.nodes[n]
    }

    /// All outgoing edges of node `n`.
    pub fn callees(&self, n: usize) -> &[usize] {
        &self.edges[n]
    }

    /// Breadth-first search from `start`: the first node satisfying
    /// `hit`, with the node path from `start` to it. Nodes matching
    /// `skip` are neither expanded nor reported (except `start` itself,
    /// which is always expanded). Deterministic: edges are sorted.
    pub fn find_path(
        &self,
        start: usize,
        hit: impl Fn(usize) -> bool,
        skip: impl Fn(usize) -> bool,
    ) -> Option<Vec<usize>> {
        if hit(start) {
            return Some(vec![start]);
        }
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue = VecDeque::from([start]);
        let mut seen = BTreeSet::from([start]);
        while let Some(n) = queue.pop_front() {
            for &m in self.callees(n) {
                if !seen.insert(m) || (skip(m) && m != start) {
                    continue;
                }
                parent.insert(m, n);
                if hit(m) {
                    let mut path = vec![m];
                    let mut cur = m;
                    while let Some(&p) = parent.get(&cur) {
                        path.push(p);
                        cur = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(m);
            }
        }
        None
    }

    /// All nodes reachable from any of `starts` (inclusive), with one
    /// canonical BFS parent per node for path reconstruction. Nodes
    /// matching `skip` are reached but not expanded.
    pub fn reach_from(
        &self,
        starts: &[usize],
        skip: impl Fn(usize) -> bool,
    ) -> BTreeMap<usize, Option<usize>> {
        let mut parent: BTreeMap<usize, Option<usize>> = BTreeMap::new();
        let mut queue = VecDeque::new();
        for &s in starts {
            if let Entry::Vacant(e) = parent.entry(s) {
                e.insert(None);
                queue.push_back(s);
            }
        }
        while let Some(n) = queue.pop_front() {
            if skip(n) && parent[&n].is_some() {
                continue;
            }
            for &m in self.callees(n) {
                if let Entry::Vacant(e) = parent.entry(m) {
                    e.insert(Some(n));
                    queue.push_back(m);
                }
            }
        }
        parent
    }
}

/// The workspace view handed to interprocedural rules: every file's
/// context plus the call graph over them.
pub struct Workspace<'a> {
    /// All analyzed files, in walk order.
    pub files: &'a [FileContext],
    /// The call graph over `files`.
    pub graph: CallGraph,
}

impl<'a> Workspace<'a> {
    /// Build the graph over `files`.
    pub fn new(files: &'a [FileContext]) -> Workspace<'a> {
        Workspace {
            files,
            graph: CallGraph::build(files),
        }
    }

    /// The file context node `n` lives in.
    pub fn ctx(&self, n: usize) -> &FileContext {
        &self.files[self.graph.node(n).file]
    }

    /// The fn item of node `n`.
    pub fn fn_info(&self, n: usize) -> &FnInfo {
        let r = self.graph.node(n);
        &self.files[r.file].parsed.fns[r.f]
    }

    /// Human label of node `n`: `Type::name` or `name`.
    pub fn label(&self, n: usize) -> String {
        let f = self.fn_info(n);
        match &f.self_ty {
            Some(ty) => format!("{ty}::{}", f.name),
            None => f.name.clone(),
        }
    }

    /// Render a node path as `a → b → c` for diagnostics.
    pub fn chain(&self, path: &[usize]) -> String {
        path.iter()
            .map(|&n| self.label(n))
            .collect::<Vec<_>>()
            .join(" → ")
    }
}

/// First path components identifying the crate a file belongs to:
/// `crates/<name>/…` → `crates/<name>`, anything else → its first
/// component. Mirrors the layout the workspace walker scans.
fn crate_of(path: &str) -> &str {
    let mut it = path.match_indices('/');
    let first = it.next().map(|(i, _)| i);
    if path.starts_with("crates/") {
        let second = it.next().map(|(i, _)| i);
        &path[..second.unwrap_or(path.len())]
    } else {
        &path[..first.unwrap_or(path.len())]
    }
}

/// Resolve one call site to candidate nodes.
fn resolve(
    call: &CallSite,
    caller: &FnInfo,
    caller_file: usize,
    by_name: &BTreeMap<&str, Vec<usize>>,
    nodes: &[NodeRef],
    files: &[FileContext],
) -> Vec<usize> {
    let Some(cands) = by_name.get(call.callee.as_str()) else {
        return Vec::new();
    };
    let self_ty_of = |id: usize| -> Option<&str> {
        let n = nodes[id];
        files[n.file].parsed.fns[n.f].self_ty.as_deref()
    };
    // Fallback pool for receivers we can't type: same-crate candidates.
    // A var named after nothing we know (`pool`, `layer`, `st`) almost
    // always holds a local type; letting it bind across crate
    // boundaries drowned real chains in `Option::take`-shaped noise.
    let same_crate = |ids: &[usize]| -> Vec<usize> {
        let home = crate_of(&files[caller_file].path);
        ids.iter()
            .copied()
            .filter(|&id| crate_of(&files[nodes[id].file].path) == home)
            .collect()
    };
    let with_ty = |ty: &str| -> Vec<usize> {
        cands
            .iter()
            .copied()
            .filter(|&id| self_ty_of(id) == Some(ty))
            .collect()
    };
    let free: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&id| self_ty_of(id).is_none())
        .collect();
    match &call.recv {
        Receiver::Free => free,
        Receiver::SelfDot => {
            let refined = caller.self_ty.as_deref().map(&with_ty).unwrap_or_default();
            if refined.is_empty() {
                same_crate(cands)
            } else {
                refined
            }
        }
        Receiver::Ty(ty) => {
            let ty = if ty == "Self" {
                caller.self_ty.as_deref().unwrap_or("Self")
            } else {
                ty.as_str()
            };
            let refined = with_ty(ty);
            if refined.is_empty() {
                // `module::f(…)` paths resolve as free fns; a qualifier
                // naming no known type otherwise contributes no edge
                // (enum variants, std types).
                free
            } else {
                refined
            }
        }
        Receiver::Var(var) => {
            let refined: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&id| self_ty_of(id).is_some_and(|ty| var_matches_ty(var, ty)))
                .collect();
            if refined.is_empty() {
                same_crate(cands)
            } else {
                refined
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{FileContext, FileKind};

    fn graph_of(files: &[(&str, &str)]) -> (Vec<FileContext>, CallGraph) {
        let ctxs: Vec<FileContext> = files
            .iter()
            .map(|(path, src)| FileContext::new(path, FileKind::Lib, src))
            .collect();
        let g = CallGraph::build(&ctxs);
        (ctxs, g)
    }

    fn node_named(ctxs: &[FileContext], g: &CallGraph, name: &str) -> usize {
        (0..g.len())
            .find(|&n| {
                let r = g.node(n);
                ctxs[r.file].parsed.fns[r.f].name == name
            })
            .unwrap_or_else(|| panic!("node `{name}` must exist"))
    }

    #[test]
    fn free_and_qualified_calls_resolve() {
        let (ctxs, g) = graph_of(&[(
            "a.rs",
            "
            fn top() { helper(); Registry::fetch(); }
            fn helper() {}
            struct Registry;
            impl Registry { fn fetch() {} }
            ",
        )]);
        let top = node_named(&ctxs, &g, "top");
        let helper = node_named(&ctxs, &g, "helper");
        let fetch = node_named(&ctxs, &g, "fetch");
        assert_eq!(g.callees(top), &[helper, fetch]);
    }

    #[test]
    fn receiver_type_heuristic_prefers_matching_impl() {
        // Two `forward` impls: `node_mlp.forward()` must resolve to
        // Mlp::forward only, NOT to Layer::forward (whose transitive
        // effects would differ).
        let (ctxs, g) = graph_of(&[(
            "a.rs",
            "
            struct Mlp; struct Layer;
            impl Mlp { fn forward(&self) {} }
            impl Layer { fn forward(&self) { blocking_sync(); } }
            fn blocking_sync() {}
            fn caller(node_mlp: &Mlp) { node_mlp.forward(); }
            ",
        )]);
        let caller = node_named(&ctxs, &g, "caller");
        let mlp_fwd = (0..g.len())
            .find(|&n| {
                let r = g.node(n);
                let f = &ctxs[r.file].parsed.fns[r.f];
                f.name == "forward" && f.self_ty.as_deref() == Some("Mlp")
            })
            .expect("Mlp::forward node");
        assert_eq!(g.callees(caller), &[mlp_fwd]);
    }

    #[test]
    fn untyped_receiver_fallback_stays_in_crate() {
        // `pool.take()` where no known type matches `pool`: the
        // fallback may bind any same-crate `take`, but must NOT cross
        // into another crate (that's how Option::take-shaped calls in
        // crates/tensor were binding blocking comm ops in crates/comm).
        let (ctxs, g) = graph_of(&[
            (
                "crates/tensor/src/tape.rs",
                "
                struct BufPool;
                impl BufPool { fn take(&mut self) {} }
                fn value_copy(pool: &mut BufPool) { pool.take(); }
                ",
            ),
            (
                "crates/comm/src/backend.rs",
                "
                struct ThreadRecvOp;
                impl ThreadRecvOp { fn take(&mut self) { recv(); } }
                fn recv() {}
                ",
            ),
        ]);
        let copy = node_named(&ctxs, &g, "value_copy");
        let pool_take = (0..g.len())
            .find(|&n| {
                let r = g.node(n);
                let f = &ctxs[r.file].parsed.fns[r.f];
                f.name == "take" && f.self_ty.as_deref() == Some("BufPool")
            })
            .expect("BufPool::take node");
        assert_eq!(g.callees(copy), &[pool_take]);
    }

    #[test]
    fn self_calls_prefer_own_impl_and_fall_back_across_files() {
        let (ctxs, g) = graph_of(&[
            (
                "a.rs",
                "
                struct A;
                impl A {
                    fn run(&self) { self.step(); }
                    fn step(&self) {}
                }
                ",
            ),
            (
                "b.rs",
                "
                struct B;
                impl B { fn step(&self) {} }
                fn poke(b: &B) { b.step(); }
                ",
            ),
        ]);
        let run = node_named(&ctxs, &g, "run");
        let a_step = (0..g.len())
            .find(|&n| {
                let r = g.node(n);
                let f = &ctxs[r.file].parsed.fns[r.f];
                f.name == "step" && f.self_ty.as_deref() == Some("A")
            })
            .expect("A::step node");
        assert_eq!(g.callees(run), &[a_step], "self.step() stays in impl A");
        // `b.step()` matches B via the snake_case heuristic… which here
        // ("b" vs "B") falls back to all candidates — over-approximation
        // is the documented contract.
        let poke = node_named(&ctxs, &g, "poke");
        assert!(!g.callees(poke).is_empty());
    }

    #[test]
    fn reachability_paths_are_reconstructible() {
        let (ctxs, g) = graph_of(&[(
            "a.rs",
            "
            fn entry() { middle(); }
            fn middle() { deep(); }
            fn deep() { hazard(); }
            fn hazard() {}
            ",
        )]);
        let entry = node_named(&ctxs, &g, "entry");
        let hazard = node_named(&ctxs, &g, "hazard");
        let path = g
            .find_path(entry, |n| n == hazard, |_| false)
            .expect("hazard is reachable");
        let names: Vec<&str> = path
            .iter()
            .map(|&n| {
                let r = g.node(n);
                ctxs[r.file].parsed.fns[r.f].name.as_str()
            })
            .collect();
        assert_eq!(names, ["entry", "middle", "deep", "hazard"]);
    }

    #[test]
    fn test_fns_contribute_no_nodes() {
        let (ctxs, g) = graph_of(&[(
            "a.rs",
            "
            fn live() {}
            #[cfg(test)]
            mod tests {
                fn live() { hazard_only_in_tests(); }
            }
            ",
        )]);
        assert_eq!(g.len(), 1, "only the live fn is a node");
        assert_eq!(node_named(&ctxs, &g, "live"), 0);
    }
}
