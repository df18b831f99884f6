//! Call-graph extraction and reachability.

use crate::solver::{Encl, Solver};
use aji_ast::{FileId, Loc, Project};
use aji_support::hash::FxHashSet;
use std::collections::{BTreeMap, BTreeSet};

/// The computed call graph, in terms of source locations (comparable with
/// the dynamic call graphs produced by the interpreter).
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// All call edges (call-site location → callee definition location).
    pub edges: BTreeSet<(Loc, Loc)>,
    /// Per-site callee sets (sites with no callees map to empty sets and
    /// are included so metrics can count unresolved sites).
    pub site_targets: BTreeMap<Loc, BTreeSet<Loc>>,
    /// Function definitions reachable from the top-level code of the main
    /// package's modules.
    pub reachable_functions: BTreeSet<Loc>,
    /// All function definitions in the project.
    pub all_functions: BTreeSet<Loc>,
    /// Modules loaded (directly or transitively) from reachable code.
    pub reachable_modules: BTreeSet<FileId>,
}

impl CallGraph {
    /// Number of call edges (distinct call-site → callee pairs, as in the
    /// paper's "Number of call edges" metric).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of call sites with at least one callee.
    pub fn resolved_sites(&self) -> usize {
        self.site_targets.values().filter(|t| !t.is_empty()).count()
    }

    /// Number of call sites with at most one callee.
    pub fn monomorphic_sites(&self) -> usize {
        self.site_targets.values().filter(|t| t.len() <= 1).count()
    }

    /// Total number of call sites.
    pub fn total_sites(&self) -> usize {
        self.site_targets.len()
    }
}

/// Extracts the call graph and computes reachability from the main
/// package's module top-levels.
pub fn extract(solver: &Solver, project: &Project) -> CallGraph {
    let mut cg = CallGraph::default();

    for f in &solver.funcs {
        cg.all_functions.insert(f.loc);
    }
    for s in &solver.sites {
        cg.site_targets.entry(s.loc).or_default();
    }
    for (site, f) in &solver.call_edges {
        let sloc = solver.sites[*site as usize].loc;
        let floc = solver.funcs[f.0 as usize].loc;
        cg.edges.insert((sloc, floc));
        cg.site_targets.entry(sloc).or_default().insert(floc);
    }

    // Reachability: roots are the main package's module top-levels.
    let mut reachable: FxHashSet<Encl> = FxHashSet::default();
    let mut reachable_files: FxHashSet<FileId> = FxHashSet::default();
    for (i, file) in project.files.iter().enumerate() {
        if Project::is_main_package_path(&file.path) {
            reachable.insert(Encl::Module(FileId(i as u32)));
            reachable_files.insert(FileId(i as u32));
        }
    }
    // Fixpoint over call and module edges.
    loop {
        let mut changed = false;
        for (site, f) in &solver.call_edges {
            let encl = solver.sites[*site as usize].enclosing;
            if reachable.contains(&encl) {
                changed |= reachable.insert(Encl::Func(*f));
            }
        }
        for (site, file) in &solver.module_edges {
            let encl = solver.sites[*site as usize].enclosing;
            if reachable.contains(&encl) {
                changed |= reachable.insert(Encl::Module(*file));
                changed |= reachable_files.insert(*file);
            }
        }
        if !changed {
            break;
        }
    }
    for (i, f) in solver.funcs.iter().enumerate() {
        if reachable.contains(&Encl::Func(crate::solver::FuncIdx(i as u32))) {
            cg.reachable_functions.insert(f.loc);
        }
    }
    cg.reachable_modules = reachable_files.into_iter().collect();
    cg
}
