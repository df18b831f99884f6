//! `hot-drivers`: one op is `aji::dynamic_call_graph_parsed` on one of
//! the 36 Table-1 projects with its driver wrapped in a loop. Edit ops
//! parse their edited sources first; no other op parses, and none runs
//! pta or approximate interpretation.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use aji::PipelineOptions;
use aji_ast::{Loc, Project};
use aji_interp::InterpOptions;
use aji_parser::ParsedProject;

use crate::inputs::{self, Plan};
use crate::layers::Layers;
use crate::measure::{cpu_ms, peak_rss_mb};
use crate::trace::Tracer;
use crate::{
    catch, finish, interp_new, timed_setup, Config, Failures, Measured, Outcome, Pooled, Timing,
    SETUPS,
};

type Edges = BTreeSet<(Loc, Loc)>;

/// One op: parse when the variant has no set-up parse, then run the
/// looped driver.
fn op(project: &Project, parsed: Option<&ParsedProject>, interp: &InterpOptions) -> Option<Edges> {
    match parsed {
        Some(parsed) => aji::dynamic_call_graph_parsed(project, parsed, interp),
        None => aji::dynamic_call_graph(project, interp),
    }
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let interp = InterpOptions::default();
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        let (s, state) = timed_setup(|probes| {
            let start = Instant::now();
            let corpus = aji_corpus::table1_benchmarks();
            generate_ms.push(start.elapsed().as_secs_f64() * 1e3);
            let plan = inputs::hot_plan(&corpus, cfg.seed, cfg.seconds);
            let mut parsed: Vec<Option<ParsedProject>> = vec![None; plan.variants.len()];
            for o in plan.ops.iter().filter(|o| !o.edit) {
                if parsed[o.variant].is_none() {
                    let project = &plan.variants[o.variant];
                    let p = aji_parser::parse_project(project).ok();
                    if let Some(p) = &p {
                        black_box(aji::dynamic_call_graph_parsed(project, p, &interp));
                    }
                    parsed[o.variant] = p;
                    probes.record();
                }
            }
            (corpus, plan, parsed)
        });
        setup_s.push(s);
        inputs = Some(state);
    }
    let (corpus, plan, parsed) = inputs.expect("at least one set-up");

    let mut failures = Failures::default();
    let mut timing = Timing::default();
    let mut seen: HashMap<usize, (usize, Edges)> = HashMap::new();
    let mut counts: Vec<(usize, usize, usize)> = Vec::new();
    for (k, o) in plan.ops.iter().enumerate() {
        let project = &plan.variants[o.variant];
        let pre = parsed[o.variant].as_ref();
        let cpu0 = cpu_ms("thread-self").unwrap_or(0.0);
        let start = Instant::now();
        let result = catch(|| op(project, pre, &interp));
        let elapsed = start.elapsed();
        timing.cpu_ms += cpu_ms("thread-self").unwrap_or(0.0) - cpu0;
        timing.record(elapsed, o.edit);
        match result {
            Ok(Some(edges)) => {
                counts.push((k, o.project, edges.len()));
                match seen.get(&o.variant) {
                    Some((first, e)) if *e != edges => {
                        failures.fail(k, format!("{}: edges differ from op {first}", project.name))
                    }
                    Some(_) => {}
                    None => {
                        seen.insert(o.variant, (k, edges));
                    }
                }
            }
            Ok(None) => failures.fail(k, format!("{}: driver did not start", project.name)),
            Err(panic) => failures.fail(k, format!("{}: panicked: {panic}", project.name)),
        }
    }
    timing.peak_rss_mb = peak_rss_mb("self").unwrap_or(0.0);
    let pooled = verify(&corpus, &plan, &seen, &counts, &interp, &mut failures);
    let measured = Measured {
        ops: plan.ops.len(),
        failures,
        timing,
        setup_s,
        generate_ms,
        pooled,
    };
    finish(cfg, measured, |layers, failures| {
        Ok(traced(
            cfg, &plan, &parsed, &seen, &interp, layers, failures,
        ))
    })
}

/// Checks every op's edge count against a single pass of its project's
/// driver, and pools the recall and precision of the static extended
/// call graph of each project's first unedited variant against that
/// op's dynamic edges.
fn verify(
    corpus: &[Project],
    plan: &Plan,
    seen: &HashMap<usize, (usize, Edges)>,
    counts: &[(usize, usize, usize)],
    interp: &InterpOptions,
    failures: &mut Failures,
) -> Pooled {
    let single: Vec<Option<usize>> = corpus
        .iter()
        .map(|p| aji::dynamic_call_graph(&inputs::wrap_driver(p, 1), interp).map(|e| e.len()))
        .collect();
    for &(k, i, n) in counts {
        if single[i] != Some(n) {
            failures.fail(
                k,
                format!(
                    "{}: {n} dynamic edges, a single pass gives {:?}",
                    corpus[i].name, single[i]
                ),
            );
        }
    }
    let mut firsts: BTreeMap<usize, usize> = BTreeMap::new();
    for o in plan
        .ops
        .iter()
        .filter(|o| !o.edit && seen.contains_key(&o.variant))
    {
        firsts.entry(o.project).or_insert(o.variant);
    }
    let mut pooled = Pooled::default();
    for (&i, &v) in &firsts {
        let (k, edges) = &seen[&v];
        match aji::run_benchmark(&plan.variants[v], &PipelineOptions::default()) {
            Ok(r)
                if r.baseline_call_graph
                    .edges
                    .is_subset(&r.extended_call_graph.edges) =>
            {
                pooled.add(&r.extended_call_graph, edges)
            }
            Ok(_) => failures.fail(
                *k,
                format!(
                    "{}: extended call graph misses baseline edges",
                    corpus[i].name
                ),
            ),
            Err(e) => failures.fail(*k, format!("{}: {e}", corpus[i].name)),
        }
    }
    pooled
}

fn traced(
    cfg: &Config,
    plan: &Plan,
    parsed: &[Option<ParsedProject>],
    seen: &HashMap<usize, (usize, Edges)>,
    interp: &InterpOptions,
    layers: &mut Layers,
    failures: &mut Failures,
) -> Timing {
    let mut tr = Tracer::default();
    let mut timing = Timing::default();
    for (k, o) in plan.ops.iter().enumerate() {
        let project = &plan.variants[o.variant];
        let pre = parsed[o.variant].as_ref();
        let reg = Arc::new(aji_obs::Registry::new());
        let start = Instant::now();
        let result = catch(|| {
            let id = tr.begin("op", k);
            let out = traced_op(&mut tr, layers, k, project, pre, interp, &reg);
            tr.end(id);
            out
        });
        timing.record(start.elapsed(), o.edit);
        layers.add_dyncg_counters(&reg.report());
        match (result, seen.get(&o.variant)) {
            (Ok((fresh, Some(n))), first) => {
                if let Some((_, edges)) = first.filter(|(_, e)| e.len() != n) {
                    failures.fail(
                        k,
                        format!(
                            "{}: traced run has {n} edges, untraced {}",
                            project.name,
                            edges.len()
                        ),
                    );
                }
                if let Some(p) = pre.or(fresh.as_ref()) {
                    interp_new(&mut tr, k, project, p, interp);
                }
            }
            (Ok((_, None)), _) => {
                failures.fail(k, format!("{}: driver did not start", project.name))
            }
            (Err(panic), _) => failures.fail(k, format!("{}: panicked: {panic}", project.name)),
        }
    }
    layers.collect_spans(&tr);
    if let Err(e) = tr.write(&cfg.trace_path()) {
        eprintln!("perfbench: cannot write the trace: {e}");
    }
    timing
}

/// One traced op, inside its `op` span: returns the parse it made, if
/// any, and its dynamic edge count.
fn traced_op(
    tr: &mut Tracer,
    layers: &mut Layers,
    k: usize,
    project: &Project,
    pre: Option<&ParsedProject>,
    interp: &InterpOptions,
    reg: &Arc<aji_obs::Registry>,
) -> (Option<ParsedProject>, Option<usize>) {
    let fresh = match pre {
        Some(_) => None,
        None => {
            layers.parse_bytes += project
                .files
                .iter()
                .map(|f| f.src.len() as u64)
                .sum::<u64>();
            tr.span("parse", k, || aji_parser::parse_project(project))
                .ok()
        }
    };
    let edges = pre.or(fresh.as_ref()).and_then(|p| {
        tr.span("dyncg", k, || {
            aji_obs::scoped(reg, || aji::dynamic_call_graph_parsed(project, p, interp))
        })
    });
    (fresh, edges.map(|e| e.len()))
}
