//! Top-level analysis driver: resolve scopes → generate constraints →
//! solve the baseline → apply hints (\[DPR\]/\[DPW\]/module hints) to the
//! solved state → solve the delta → extract each call graph.

use crate::callgraph::{extract, CallGraph};
use crate::gen::{generate, GenOutput};
use crate::scopes;
use crate::solver::{CellKind, Constraint, SolverStats, Token, TokenData};
use aji_approx::Hints;
use aji_ast::{Loc, Project};
use std::time::{Duration, Instant};

/// Which hint rules the analysis applies. The baseline disables all of
/// them; Table 2's `*`-marked row corresponds to write hints only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisOptions {
    /// Apply \[DPR\] (read hints).
    pub use_read_hints: bool,
    /// Apply \[DPW\] (write hints).
    pub use_write_hints: bool,
    /// Resolve dynamic `require` through module hints (§3's extension).
    pub use_module_hints: bool,
    /// §4's discussed *non-relational* alternative to \[DPW\]: model each
    /// dynamic write site as static writes `E.p1 = E'' ∧ … ∧ E.pn = E''`
    /// for the observed names. Loses the relational precision of \[DPW\];
    /// provided for the ablation study.
    pub nonrelational_writes: bool,
    /// §6's "unknown function arguments" extension: treat a dynamic read
    /// whose base was the proxy but whose key was a known string as a
    /// static read — only where no ordinary read hints exist.
    pub use_proxy_read_hints: bool,
}

impl AnalysisOptions {
    /// The baseline static analysis: dynamic property accesses ignored.
    pub fn baseline() -> Self {
        AnalysisOptions {
            use_read_hints: false,
            use_write_hints: false,
            use_module_hints: false,
            nonrelational_writes: false,
            use_proxy_read_hints: false,
        }
    }

    /// The extended analysis with the paper's hint rules enabled.
    pub fn extended() -> Self {
        AnalysisOptions {
            use_read_hints: true,
            use_write_hints: true,
            use_module_hints: true,
            nonrelational_writes: false,
            use_proxy_read_hints: false,
        }
    }

    /// The §4 non-relational ablation: write hints replaced by
    /// per-site property-name injection.
    pub fn nonrelational() -> Self {
        AnalysisOptions {
            use_write_hints: false,
            nonrelational_writes: true,
            ..Self::extended()
        }
    }

    /// The extended analysis plus the §6 proxy-read extension.
    pub fn with_proxy_reads() -> Self {
        AnalysisOptions {
            use_proxy_read_hints: true,
            ..Self::extended()
        }
    }

    /// Folds the rule configuration into `h` as one bit per rule — the
    /// cache-key contribution the `aji serve` hint store uses so a solved
    /// call graph is never reused under a different rule set (e.g. an
    /// `AJI_PTA_ABLATE` ablation run must miss a cache warmed without it).
    pub fn fingerprint_into(&self, h: &mut aji_support::Fnv64) {
        let bits = u64::from(self.use_read_hints)
            | u64::from(self.use_write_hints) << 1
            | u64::from(self.use_module_hints) << 2
            | u64::from(self.nonrelational_writes) << 3
            | u64::from(self.use_proxy_read_hints) << 4
            | u64::from(rule_ablated("dpw")) << 5;
        h.write_u64(bits);
    }
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        Self::extended()
    }
}

/// Test-only ablation switch: `true` when the `AJI_PTA_ABLATE`
/// environment variable names `rule` (comma-separated, case-insensitive).
///
/// The soundness oracle's regression test sets `AJI_PTA_ABLATE=dpw` to
/// silently disable the \[DPW\] rule *without* touching
/// [`AnalysisOptions`] — mimicking how a real unsoundness regression
/// would slip in: the configuration still claims write hints are on, but
/// the rule no longer fires. Production paths never set the variable, so
/// the switch is inert outside tests.
#[must_use]
pub fn rule_ablated(rule: &str) -> bool {
    match std::env::var("AJI_PTA_ABLATE") {
        Ok(v) => v.split(',').any(|r| r.trim().eq_ignore_ascii_case(rule)),
        Err(_) => false,
    }
}

/// Result of one static analysis run.
#[derive(Debug)]
pub struct Analysis {
    /// The computed call graph.
    pub call_graph: CallGraph,
    /// Solver statistics.
    pub solver_stats: SolverStats,
    /// Wall-clock analysis time in seconds (excluding parsing). For a
    /// [`Pta::extend`] after [`Pta::solve`], the extension alone.
    pub analysis_seconds: f64,
    /// Number of hints that were actually applied (matched a known site
    /// or token).
    pub hints_applied: usize,
}

/// The points-to analysis of one project: constraints generated once,
/// the baseline solved once, and hint rules added on top.
///
/// \[DPR\], \[DPW\], the §4 non-relational writes and the §6 proxy reads
/// only add facts — tokens to cells, or constraints that replay the
/// tokens already present — so the extended fixpoint is a superset of
/// the baseline's, and [`Pta::extend`] reaches it by solving only the
/// delta. Module hints are the exception, which the solver handles
/// itself (see [`crate::solver::Solver::add_module_hints`]). The
/// result, [`SolverStats`] included, is the same whether the hints
/// arrive before the first solve or after it.
///
/// Clone a solved `Pta` to extend one baseline under several hint
/// configurations.
///
/// # Example
///
/// ```
/// use aji_approx::{approximate_interpret_parsed, ApproxOptions};
/// use aji_ast::Project;
/// use aji_pta::{AnalysisOptions, Pta};
///
/// let mut project = Project::new("demo");
/// project.add_file(
///     "index.js",
///     "var api = {};\n\
///      ['run'].forEach(function(m) { api[m] = function() { return 1; }; });\n\
///      api.run();",
/// );
/// let parsed = aji_parser::parse_project(&project).unwrap();
/// let mut pta = Pta::new(&project, &parsed);
/// let baseline = pta.solve();
/// let hints = approximate_interpret_parsed(&project, &parsed, &ApproxOptions::default()).hints;
/// let extended = pta.extend(&hints, &AnalysisOptions::extended());
/// assert!(baseline.call_graph.edges.is_subset(&extended.call_graph.edges));
/// assert!(extended.call_graph.edge_count() > baseline.call_graph.edge_count());
/// ```
#[derive(Clone)]
pub struct Pta<'p> {
    project: &'p Project,
    gen: GenOutput,
    /// Time spent since the last returned [`Analysis`], charged to the
    /// next one.
    unbilled: Duration,
}

impl<'p> Pta<'p> {
    /// Resolves scopes and generates the baseline constraints. `parsed`
    /// must be the parse of `project` (the project supplies the file
    /// paths and the main package; the ASTs come from `parsed`).
    pub fn new(project: &'p Project, parsed: &aji_parser::ParsedProject) -> Self {
        let start = Instant::now();
        let res = {
            let _s = aji_obs::span("resolve-scopes");
            scopes::resolve(&parsed.modules)
        };
        let paths: Vec<String> = project.files.iter().map(|f| f.path.clone()).collect();
        let gen = {
            let _s = aji_obs::span("generate");
            generate(&parsed.modules, &parsed.source_map, &res, paths)
        };
        Pta {
            project,
            gen,
            unbilled: start.elapsed(),
        }
    }

    /// Solves the constraints added so far and extracts the call graph —
    /// after [`Pta::new`], the baseline analysis of Figure 3's first five
    /// rules.
    pub fn solve(&mut self) -> Analysis {
        self.finish(0)
    }

    /// Applies the hint rules `opts` enables to the current state, solves
    /// the delta and extracts the call graph. After [`Pta::solve`] this is
    /// the extended analysis; `analysis_seconds` and `hints_applied` then
    /// cover this extension only.
    pub fn extend(&mut self, hints: &Hints, opts: &AnalysisOptions) -> Analysis {
        let start = Instant::now();
        let hints_applied = {
            let _s = aji_obs::span("apply-hints");
            self.apply_hints(hints, opts)
        };
        self.unbilled += start.elapsed();
        self.finish(hints_applied)
    }

    fn finish(&mut self, hints_applied: usize) -> Analysis {
        let start = Instant::now();
        let solver = &mut self.gen.solver;
        {
            let _s = aji_obs::span("solve");
            solver.solve();
        }
        let call_graph = {
            let _s = aji_obs::span("extract-cg");
            extract(solver, self.project)
        };
        let analysis_seconds = (std::mem::take(&mut self.unbilled) + start.elapsed()).as_secs_f64();
        aji_obs::counter_add("pta.cells", solver.stats.cells as u64);
        aji_obs::counter_add("pta.tokens", solver.stats.tokens as u64);
        aji_obs::counter_add("pta.call_edges", call_graph.edge_count() as u64);
        aji_obs::counter_add("pta.hints_applied", hints_applied as u64);
        Analysis {
            call_graph,
            solver_stats: solver.stats.clone(),
            analysis_seconds,
            hints_applied,
        }
    }

    /// The token a hint location denotes: function tokens first, then
    /// known (or freshly minted) object allocation-site tokens. Line-0
    /// sentinel locations denote module `exports` / `module` objects (see
    /// the interpreter's module loader).
    fn token_at(&mut self, loc: Loc) -> Token {
        let GenOutput {
            solver,
            funcs_by_loc,
            objs_by_loc,
            ..
        } = &mut self.gen;
        if loc.line == 0 {
            return if loc.col == 0 {
                solver.token(TokenData::Exports(loc.file))
            } else {
                solver.token(TokenData::ModuleObj(loc.file))
            };
        }
        if let Some(owner) = loc.prototype_owner() {
            if let Some(f) = funcs_by_loc.get(&owner) {
                return solver.token(TokenData::Proto(*f));
            }
            return solver.token(TokenData::Obj(loc));
        }
        if let Some(f) = funcs_by_loc.get(&loc) {
            solver.token(TokenData::Func(*f))
        } else if let Some(t) = objs_by_loc.get(&loc) {
            *t
        } else {
            solver.token(TokenData::Obj(loc))
        }
    }

    /// Adds the facts of every hint rule `opts` enables; returns how many
    /// hints matched a known site or token.
    fn apply_hints(&mut self, h: &Hints, opts: &AnalysisOptions) -> usize {
        // Flight-recorder sink, fetched once: one `HintApply` event per rule
        // application, named by the rule and detailed by the property (or
        // location/path) it injected. Hint maps iterate in `BTreeMap` order,
        // so the event stream is deterministic.
        let rec = aji_obs::trace_recorder();
        let record = |rule: &str, detail: &str| {
            if let Some(rec) = &rec {
                rec.record(aji_obs::TraceKind::HintApply, rule, detail);
            }
        };
        let mut hints_applied = 0;
        if opts.use_write_hints && !rule_ablated("dpw") {
            // [DPW]: t_{ℓ''} ∈ ⟦t_ℓ.p⟧
            for w in &h.writes {
                let t_obj = self.token_at(w.obj);
                let t_val = self.token_at(w.value);
                let solver = &mut self.gen.solver;
                let prop = solver.interner.intern(&w.prop);
                let field = solver.cell(CellKind::Field(t_obj, prop));
                solver.add_token(field, t_val);
                hints_applied += 1;
                record("dpw", &w.prop);
            }
        }
        if opts.use_read_hints {
            // [DPR]: t_{ℓ'} ∈ ⟦E[E']⟧
            for (op, locs) in &h.reads {
                let Some(&(_, cell)) = self.gen.dyn_reads.get(op) else {
                    continue;
                };
                for l in locs {
                    let t = self.token_at(*l);
                    self.gen.solver.add_token(cell, t);
                    hints_applied += 1;
                    if rec.is_some() {
                        record("dpr", &l.to_string());
                    }
                }
            }
        }
        let solver = &mut self.gen.solver;
        if opts.nonrelational_writes {
            // §4's discussed alternative: every observed name at a write
            // site becomes a static write of the site's value expression
            // into that property of *all* base objects.
            for (site, props) in &h.write_props {
                let Some(&(base, src)) = self.gen.dyn_writes.get(site) else {
                    continue;
                };
                for p in props {
                    let prop = solver.interner.intern(p);
                    solver.add_constraint(base, Constraint::Store { prop, src });
                    hints_applied += 1;
                    record("nonrel-write", p);
                }
            }
        }
        if opts.use_proxy_read_hints {
            // §6 extension: only where no ordinary read hints exist.
            for (site, props) in &h.proxy_reads {
                if h.reads.contains_key(site) {
                    continue;
                }
                let Some(&(base, dst)) = self.gen.dyn_reads.get(site) else {
                    continue;
                };
                for p in props {
                    let prop = solver.interner.intern(p);
                    solver.add_constraint(base, Constraint::Load { prop, dst });
                    hints_applied += 1;
                    record("proxy-read", p);
                }
            }
        }
        if opts.use_module_hints {
            for (site, paths) in &h.modules {
                hints_applied += paths.len();
                for p in paths {
                    record("module", p);
                }
                solver.add_module_hints(*site, paths.iter().cloned());
            }
        }
        hints_applied
    }
}

/// Runs the static call graph and points-to analysis on a project.
///
/// With `hints == None` (or all hint options disabled) this is the
/// baseline analysis of Figure 3's first five rules; with hints it
/// additionally applies \[DPR\] and \[DPW\].
///
/// Parses the project first; callers that already hold a
/// [`aji_parser::ParsedProject`] should use [`analyze_parsed`], and
/// callers that want both the baseline and the extended analysis should
/// use [`Pta`], which shares one generation and one baseline solve.
///
/// # Errors
///
/// Returns a parse error if any project file fails to parse.
pub fn analyze(
    project: &Project,
    hints: Option<&Hints>,
    opts: &AnalysisOptions,
) -> Result<Analysis, aji_parser::ParseError> {
    let parsed = aji_parser::parse_project(project)?;
    Ok(analyze_parsed(project, &parsed, hints, opts))
}

/// [`analyze`] over an already-parsed project: one [`Pta`] with the
/// hints applied before its only solve.
///
/// Infallible: parse errors are the only failure mode of the analysis,
/// and the caller has already parsed. `parsed` must be the parse of
/// `project` (the project supplies vulnerability annotations and file
/// paths; the AST and source map come from `parsed`).
pub fn analyze_parsed(
    project: &Project,
    parsed: &aji_parser::ParsedProject,
    hints: Option<&Hints>,
    opts: &AnalysisOptions,
) -> Analysis {
    let mut pta = Pta::new(project, parsed);
    match hints {
        Some(h) => pta.extend(h, opts),
        None => pta.solve(),
    }
}
