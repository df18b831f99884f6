//! End-to-end and per-layer benchmark of the aji pipeline, its
//! interpreter and its daemon. See `README.md` in this directory for the
//! workloads, the metrics and how to run it.

pub mod daemon;
pub mod host;
pub mod hot;
pub mod inputs;
pub mod layers;
pub mod measure;
pub mod population;
pub mod trace;

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use aji_ast::Loc;
use aji_pta::CallGraph;
use aji_support::{Json, ToJson};

use crate::host::Probes;
use crate::layers::Layers;
use crate::measure::{median, Samples};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["population", "hot-drivers", "daemon-edits"];

/// One run's arguments.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// The `aji-serve` executable the daemon-edits workload starts.
    pub daemon: PathBuf,
}

impl Config {
    /// Where the traced run writes its spans, relative to the checkout.
    pub fn trace_path(&self) -> PathBuf {
        PathBuf::from(format!(
            ".perfbench/trace-{}-{}.json",
            self.workload, self.seed
        ))
    }
}

/// Failed ops, with the first few reasons kept for stderr.
#[derive(Default)]
pub struct Failures {
    count: usize,
    reasons: Vec<String>,
}

impl Failures {
    pub fn fail(&mut self, op: usize, reason: impl Into<String>) {
        self.count += 1;
        if self.reasons.len() < 10 {
            self.reasons.push(format!("op {op}: {}", reason.into()));
        }
    }

    /// Fails `n` ops that never ran, the connection they needed being
    /// gone.
    pub fn fail_unrun(&mut self, n: usize) {
        self.count += n;
    }

    pub fn count(&self) -> usize {
        self.count
    }
}

/// A metric as printed: name, value, unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run reports.
pub struct Outcome {
    pub attempted: usize,
    pub failures: Failures,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name,
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.failures.count == 0)),
            ("attempted", self.attempted.to_json()),
            ("failed", self.failures.count.to_json()),
            ("metrics", Json::obj(metrics)),
        ])
    }

    pub fn failure_reasons(&self) -> &[String] {
        &self.failures.reasons
    }
}

/// Pooled recall and per-call precision of extended call graphs against
/// dynamic call graphs, summed over projects.
#[derive(Default)]
pub struct Pooled {
    matched: usize,
    dynamic: usize,
    precision_sum: f64,
    precision_sites: usize,
}

impl Pooled {
    /// Adds one project: `cg` against its dynamic edges. Per-call
    /// precision follows `aji_pta::Accuracy::compare`: each call site
    /// with dynamic edges and static targets contributes the share of
    /// its static targets that the dynamic run confirmed.
    pub fn add(&mut self, cg: &CallGraph, dynamic: &BTreeSet<(Loc, Loc)>) {
        self.matched += dynamic.iter().filter(|e| cg.edges.contains(e)).count();
        self.dynamic += dynamic.len();
        let mut by_site: BTreeMap<Loc, BTreeSet<Loc>> = BTreeMap::new();
        for (site, callee) in dynamic {
            by_site.entry(*site).or_default().insert(*callee);
        }
        for (site, targets) in &by_site {
            if let Some(stat) = cg.site_targets.get(site).filter(|t| !t.is_empty()) {
                self.precision_sum += stat.intersection(targets).count() as f64 / stat.len() as f64;
                self.precision_sites += 1;
            }
        }
    }

    pub fn recall_pct(&self) -> f64 {
        100.0 * self.matched as f64 / self.dynamic.max(1) as f64
    }

    pub fn precision_pct(&self) -> f64 {
        100.0 * self.precision_sum / self.precision_sites.max(1) as f64
    }
}

/// The untraced phase's measurements, common to every workload.
#[derive(Default)]
pub struct Timing {
    /// Raw op times in milliseconds, and whether each op was an edit.
    ops: Vec<(f64, bool)>,
    /// One host probe after each op.
    probes: Probes,
    /// Raw CPU milliseconds of the process doing the analysis, over the
    /// ops.
    pub cpu_ms: f64,
    /// VmHWM of that process, MiB.
    pub peak_rss_mb: f64,
}

/// Op times scaled to the probe's reference speed.
struct Scaled {
    all: Samples,
    edits: Samples,
    /// Scaled over raw total time.
    factor: f64,
}

impl Timing {
    /// Records one op, then probes the host.
    pub fn record(&mut self, elapsed: Duration, edit: bool) {
        self.ops.push((elapsed.as_secs_f64() * 1e3, edit));
        self.probes.record();
    }

    fn scaled(&self) -> Scaled {
        let mut all = Samples::default();
        let mut edits = Samples::default();
        let mut raw = 0.0;
        for (&(ms, edit), f) in self.ops.iter().zip(self.probes.factors()) {
            raw += ms;
            all.push_ms(ms * f);
            if edit {
                edits.push_ms(ms * f);
            }
        }
        let factor = all.total_s() * 1e3 / raw;
        Scaled { all, edits, factor }
    }

    /// Scaled ops per second.
    pub fn ops_per_s(&self) -> f64 {
        let s = self.scaled();
        s.all.len() as f64 / s.all.total_s()
    }

    pub fn probe_mean_ms(&self) -> f64 {
        self.probes.mean_ms()
    }

    fn raw_ops_per_s(&self) -> f64 {
        self.ops.len() as f64 * 1e3 / self.ops.iter().map(|o| o.0).sum::<f64>()
    }
}

/// Times one set-up. `f` calls [`Probes::record`] between its units of
/// work; the probes' own time is left out and the rest is scaled to the
/// probe's reference speed. Returns seconds and `f`'s result.
pub fn timed_setup<T>(f: impl FnOnce(&mut Probes) -> T) -> (f64, T) {
    let mut probes = Probes::default();
    let start = Instant::now();
    let out = f(&mut probes);
    let raw_s = start.elapsed().as_secs_f64() - probes.total_ms() / 1e3;
    (raw_s * probes.factor(), out)
}

fn pct(s: &Samples, p: f64) -> f64 {
    s.percentile(p).unwrap_or(f64::NAN)
}

/// The end-to-end metrics, in `BENCHMARK.json` order, plus notes giving
/// each percentile's sample count and the unscaled figures.
pub fn end_to_end(timing: &Timing, setup_s: f64, pooled: &Pooled) -> (Vec<Metric>, Vec<String>) {
    let s = timing.scaled();
    let ops = s.all.len() as f64;
    let metrics = vec![
        metric("ops_per_s", ops / s.all.total_s(), "1/s"),
        metric("latency_p50_ms", pct(&s.all, 50.0), "ms"),
        metric("latency_p90_ms", pct(&s.all, 90.0), "ms"),
        metric("edit_latency_p50_ms", pct(&s.edits, 50.0), "ms"),
        metric("edit_latency_p90_ms", pct(&s.edits, 90.0), "ms"),
        metric("cpu_ms_per_op", timing.cpu_ms * s.factor / ops, "ms"),
        metric("peak_rss_mb", timing.peak_rss_mb, "MiB"),
        metric("setup_s", setup_s, "s"),
        metric("recall_pct", pooled.recall_pct(), "%"),
        metric("precision_pct", pooled.precision_pct(), "%"),
    ];
    let notes = vec![
        format!(
            "latency: {} samples, {} above p90",
            s.all.len(),
            s.all.above(90.0)
        ),
        format!(
            "edit latency: {} samples, {} above p90",
            s.edits.len(),
            s.edits.above(90.0)
        ),
        format!(
            "unscaled: {:.2} ops/s, {:.3} CPU ms/op; mean probe {:.4} ms (reference {} ms)",
            timing.raw_ops_per_s(),
            timing.cpu_ms / ops,
            timing.probes.mean_ms(),
            host::PROBE_REF_MS
        ),
    ];
    (metrics, notes)
}

/// What a workload's untraced phase measured.
pub struct Measured {
    pub ops: usize,
    pub failures: Failures,
    pub timing: Timing,
    /// Each set-up's scaled seconds.
    pub setup_s: Vec<f64>,
    /// Each set-up's corpus generation, ms.
    pub generate_ms: Vec<f64>,
    pub pooled: Pooled,
}

/// The run's outcome. With `--trace 0`, the end-to-end metrics; with
/// `--trace 1`, the per-layer metrics of the traced phase that `traced`
/// runs over the same ops.
pub fn finish(
    cfg: &Config,
    mut m: Measured,
    traced: impl FnOnce(&mut Layers, &mut Failures) -> Result<Timing, String>,
) -> Result<Outcome, String> {
    if !cfg.trace {
        let (metrics, notes) = end_to_end(&m.timing, median(&m.setup_s), &m.pooled);
        return Ok(Outcome {
            attempted: m.ops,
            failures: m.failures,
            metrics,
            notes,
        });
    }
    let mut layers = Layers {
        corpus_generate_ms: median(&m.generate_ms),
        ..Layers::default()
    };
    let traced_timing = traced(&mut layers, &mut m.failures)?;
    layers.set_overhead(&m.timing, &traced_timing);
    Ok(Outcome {
        attempted: 2 * m.ops,
        failures: m.failures,
        metrics: layers.metrics(),
        notes: Vec::new(),
    })
}

/// The traced run's `interp.new` span: an `Interp` built over the op's
/// parse with a no-op tracer, outside the op's own span.
pub fn interp_new(
    tr: &mut trace::Tracer,
    k: usize,
    project: &aji_ast::Project,
    parsed: &aji_parser::ParsedProject,
    opts: &aji_interp::InterpOptions,
) {
    let interp = tr.span("interp.new", k, || {
        aji_interp::Interp::with_parsed(
            project,
            parsed,
            opts.clone(),
            Box::new(aji_interp::NoopTracer),
        )
    });
    drop(interp);
}

/// Runs `f`, turning a panic into an error message.
pub fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| e.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// Runs one workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    match cfg.workload.as_str() {
        "population" => population::run(cfg),
        "hot-drivers" => hot::run(cfg),
        "daemon-edits" => daemon::run(cfg),
        other => Err(format!(
            "unknown workload '{other}' (expected one of {WORKLOADS:?})"
        )),
    }
}
