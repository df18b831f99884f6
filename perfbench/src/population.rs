//! `population`: one op is a cold `aji::run_benchmark` of one of the 141
//! corpus projects, dynamic call graph included, on this thread.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use aji::{BenchmarkReport, PipelineOptions};
use aji_ast::Project;
use aji_pta::{Accuracy, AnalysisOptions, CallGraph, CgMetrics};

use crate::inputs::{self, Plan};
use crate::layers::Layers;
use crate::measure::{cpu_ms, peak_rss_mb};
use crate::trace::Tracer;
use crate::{
    catch, finish, interp_new, timed_setup, Config, Failures, Measured, Outcome, Pooled, Timing,
    SETUPS,
};

/// The deterministic part of one op's output, kept from the first op on
/// each variant.
struct Seen {
    op: usize,
    json: String,
    layers: Composition,
}

/// What the traced run recomposes layer by layer.
#[derive(PartialEq, Debug)]
struct Composition {
    baseline: CgMetrics,
    extended: CgMetrics,
    hints: usize,
    dynamic_edges: usize,
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let opts = PipelineOptions::with_dynamic_cg();
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        let (s, (corpus, plan)) = timed_setup(|probes| {
            let start = Instant::now();
            let corpus = aji_corpus::full_population();
            generate_ms.push(start.elapsed().as_secs_f64() * 1e3);
            let plan = inputs::population_plan(&corpus, cfg.seed, cfg.seconds);
            for p in &corpus {
                black_box(aji::run_benchmark(p, &opts).ok());
                probes.record();
            }
            (corpus, plan)
        });
        setup_s.push(s);
        inputs = Some((corpus, plan));
    }
    let (corpus, plan) = inputs.expect("at least one set-up");

    let mut failures = Failures::default();
    let mut seen = HashMap::new();
    let mut firsts = BTreeMap::new();
    let timing = timed(&plan, &opts, &mut seen, &mut firsts, &mut failures);
    let pooled = verify(&corpus, &firsts, &opts, &mut failures);
    let measured = Measured {
        ops: plan.ops.len(),
        failures,
        timing,
        setup_s,
        generate_ms,
        pooled,
    };
    finish(cfg, measured, |layers, failures| {
        Ok(traced(cfg, &plan, &seen, &opts, layers, failures))
    })
}

fn timed(
    plan: &Plan,
    opts: &PipelineOptions,
    seen: &mut HashMap<usize, Seen>,
    firsts: &mut BTreeMap<usize, (usize, CallGraph, Accuracy)>,
    failures: &mut Failures,
) -> Timing {
    let mut timing = Timing::default();
    for (k, op) in plan.ops.iter().enumerate() {
        let project = &plan.variants[op.variant];
        let cpu0 = cpu_ms("thread-self").unwrap_or(0.0);
        let start = Instant::now();
        let result = catch(|| aji::run_benchmark(project, opts));
        let elapsed = start.elapsed();
        timing.cpu_ms += cpu_ms("thread-self").unwrap_or(0.0) - cpu0;
        timing.record(elapsed, op.edit);
        let report = match result {
            Ok(Ok(report)) => report,
            Ok(Err(e)) => {
                failures.fail(k, format!("{}: {e}", project.name));
                continue;
            }
            Err(panic) => {
                failures.fail(k, format!("{}: panicked: {panic}", project.name));
                continue;
            }
        };
        if let Err(reason) = check(k, op.variant, &report, seen) {
            failures.fail(k, format!("{}: {reason}", project.name));
            continue;
        }
        if let (false, Some(accuracy)) = (op.edit, report.accuracy) {
            firsts
                .entry(op.project)
                .or_insert((k, report.extended_call_graph, accuracy.extended));
        }
    }
    timing.peak_rss_mb = peak_rss_mb("self").unwrap_or(0.0);
    timing
}

/// The per-op output checks.
fn check(
    k: usize,
    variant: usize,
    report: &BenchmarkReport,
    seen: &mut HashMap<usize, Seen>,
) -> Result<(), String> {
    if !report
        .baseline_call_graph
        .edges
        .is_subset(&report.extended_call_graph.edges)
    {
        return Err("extended call graph misses baseline edges".into());
    }
    let Some(accuracy) = &report.accuracy else {
        return Err("no dynamic call graph".into());
    };
    let json = report.metrics_json().to_string();
    match seen.get(&variant) {
        Some(first) if first.json != json => Err(format!("output differs from op {}", first.op)),
        Some(_) => Ok(()),
        None => {
            seen.insert(
                variant,
                Seen {
                    op: k,
                    json,
                    layers: Composition {
                        baseline: report.baseline.clone(),
                        extended: report.extended.clone(),
                        hints: report.hint_count,
                        dynamic_edges: accuracy.dynamic_edges,
                    },
                },
            );
            Ok(())
        }
    }
}

/// Pooled recall and precision over the corpus, from the first unedited
/// op of each project, after checking that the op's reported accuracy
/// is what its call graph gives against a fresh dynamic call graph.
fn verify(
    corpus: &[Project],
    firsts: &BTreeMap<usize, (usize, CallGraph, Accuracy)>,
    opts: &PipelineOptions,
    failures: &mut Failures,
) -> Pooled {
    let mut pooled = Pooled::default();
    for (&i, (k, cg, accuracy)) in firsts {
        let dynamic = aji::dynamic_call_graph(&corpus[i], &opts.dynamic_interp).unwrap_or_default();
        if Accuracy::compare(cg, &dynamic) != *accuracy {
            failures.fail(
                *k,
                format!("{}: reported accuracy disagrees", corpus[i].name),
            );
        }
        pooled.add(cg, &dynamic);
    }
    pooled
}

/// The traced run: the same op sequence, each op composed from the
/// layers' public functions with a span around each call.
fn traced(
    cfg: &Config,
    plan: &Plan,
    seen: &HashMap<usize, Seen>,
    opts: &PipelineOptions,
    layers: &mut Layers,
    failures: &mut Failures,
) -> Timing {
    let mut tr = Tracer::default();
    let mut timing = Timing::default();
    for (k, op) in plan.ops.iter().enumerate() {
        let project = &plan.variants[op.variant];
        let approx_reg = Arc::new(aji_obs::Registry::new());
        let dyn_reg = Arc::new(aji_obs::Registry::new());
        let start = Instant::now();
        let result = catch(|| {
            let id = tr.begin("op", k);
            let out = compose(&mut tr, layers, k, project, opts, (&approx_reg, &dyn_reg));
            tr.end(id);
            out
        });
        timing.record(start.elapsed(), op.edit);
        layers.add_interp_counters(&approx_reg.report());
        layers.add_dyncg_counters(&dyn_reg.report());
        match result {
            Ok(Ok((parsed, c))) => {
                if let Some(s) = seen.get(&op.variant).filter(|s| s.layers != c) {
                    failures.fail(
                        k,
                        format!(
                            "{}: layers compose to {c:?}, op reported {:?}",
                            project.name, s.layers
                        ),
                    );
                }
                interp_new(&mut tr, k, project, &parsed, &opts.dynamic_interp);
            }
            Ok(Err(e)) => failures.fail(k, format!("{}: {e}", project.name)),
            Err(panic) => failures.fail(k, format!("{}: panicked: {panic}", project.name)),
        }
    }
    layers.collect_spans(&tr);
    if let Err(e) = tr.write(&cfg.trace_path()) {
        eprintln!("perfbench: cannot write the trace: {e}");
    }
    timing
}

/// `run_benchmark`'s pipeline, one public call per layer.
fn compose(
    tr: &mut Tracer,
    layers: &mut Layers,
    k: usize,
    project: &Project,
    opts: &PipelineOptions,
    (approx_reg, dyn_reg): (&Arc<aji_obs::Registry>, &Arc<aji_obs::Registry>),
) -> Result<(aji_parser::ParsedProject, Composition), String> {
    let parsed = tr
        .span("parse", k, || aji_parser::parse_project(project))
        .map_err(|e| e.to_string())?;
    layers.parse_bytes += project
        .files
        .iter()
        .map(|f| f.src.len() as u64)
        .sum::<u64>();

    let baseline = tr.span("pta.baseline", k, || {
        aji_pta::analyze_parsed(project, &parsed, None, &AnalysisOptions::baseline())
    });
    let approx = tr.span("approx", k, || {
        aji_obs::scoped(approx_reg, || {
            aji_approx::approximate_interpret_parsed(project, &parsed, &opts.approx)
        })
    });
    let extended = tr.span("pta.extended", k, || {
        aji_pta::analyze_parsed(project, &parsed, Some(&approx.hints), &opts.analysis)
    });
    let dynamic = tr
        .span("dyncg", k, || {
            aji_obs::scoped(dyn_reg, || {
                aji::dynamic_call_graph_parsed(project, &parsed, &opts.dynamic_interp)
            })
        })
        .ok_or("no dynamic call graph")?;
    // The pipeline's own work between the layers.
    let composition = Composition {
        baseline: CgMetrics::of(&baseline.call_graph),
        extended: CgMetrics::of(&extended.call_graph),
        hints: approx.hints.len(),
        dynamic_edges: dynamic.len(),
    };
    black_box(Accuracy::compare(&baseline.call_graph, &dynamic));
    black_box(Accuracy::compare(&extended.call_graph, &dynamic));
    black_box(aji::vuln_function_locs_parsed(project, &parsed));

    layers.propagations += baseline.solver_stats.propagations + extended.solver_stats.propagations;
    layers.hints_applied += extended.hints_applied as u64;
    layers.hints += approx.hints.len() as u64;
    let s = &approx.stats;
    layers.approx_steps += s.total_steps;
    layers.items_aborted += s.items_aborted as u64;
    layers.items_processed += s.items_processed as u64;
    layers.functions_visited += s.functions_visited as u64;
    layers.functions_total += s.functions_total as u64;
    Ok((parsed, composition))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_injected_output_mismatch_fails_the_op() {
        let project = &aji_corpus::pattern_projects()[0];
        let mut report = aji::run_benchmark(project, &PipelineOptions::with_dynamic_cg()).unwrap();
        let mut seen = HashMap::new();
        let mut failures = Failures::default();
        for k in 0..2 {
            if let Err(e) = check(k, 0, &report, &mut seen) {
                failures.fail(k, e);
            }
        }
        assert_eq!(failures.count(), 0, "identical outputs pass");

        report.hint_count += 1;
        if let Err(e) = check(2, 0, &report, &mut seen) {
            failures.fail(2, e);
        }
        let outcome = Outcome {
            attempted: 3,
            failures,
            metrics: Vec::new(),
            notes: Vec::new(),
        };
        let json = outcome.result_json();
        assert_eq!(
            json.get("failed").and_then(aji_support::Json::as_f64),
            Some(1.0)
        );
        assert_eq!(json.get("correct"), Some(&aji_support::Json::Bool(false)));
        assert!(outcome.failure_reasons()[0].contains("differs from op 0"));
    }

    #[test]
    fn a_lost_baseline_edge_fails_the_op() {
        let project = &aji_corpus::pattern_projects()[0];
        let mut report = aji::run_benchmark(project, &PipelineOptions::with_dynamic_cg()).unwrap();
        let edge = *report
            .baseline_call_graph
            .edges
            .iter()
            .next()
            .expect("a baseline edge");
        report.extended_call_graph.edges.remove(&edge);
        assert!(check(0, 0, &report, &mut HashMap::new()).is_err());
    }
}
