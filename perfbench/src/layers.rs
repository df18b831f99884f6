//! Per-layer totals of a traced run and the metrics derived from them.
//!
//! Every workload reports every per-layer metric. A layer that does no
//! timed work on a workload reads 0 there (the serve layer on population
//! and hot-drivers; parse, pta and approx on hot-drivers outside its
//! edit ops); README.md lists which layer each workload exercises.

use aji_obs::ObsReport;

use crate::trace::Tracer;
use crate::{metric, Metric, Timing};

/// Sums over a traced phase. Times are milliseconds.
#[derive(Default)]
pub struct Layers {
    pub corpus_generate_ms: f64,
    pub ops: usize,
    pub probe_ms: f64,
    pub pipeline_self_ms: f64,

    pub parse_ms: f64,
    pub parses: usize,
    pub parse_bytes: u64,

    pub pta_baseline_ms: f64,
    pub pta_extended_ms: f64,
    pub pta_runs: usize,
    pub propagations: u64,
    pub hints_applied: u64,
    pub hints: u64,

    pub approx_ms: f64,
    pub approx_runs: usize,
    pub approx_steps: u64,
    pub items_aborted: u64,
    pub items_processed: u64,
    pub functions_visited: u64,
    pub functions_total: u64,

    pub interp_new_ms: f64,
    pub interp_news: usize,
    pub dyncg_ms: f64,
    pub dyncg_runs: usize,
    pub interp_steps: u64,
    pub vm_compiles: u64,
    pub ic_hits: u64,
    pub ic_misses: u64,
    pub budget_exhaustions: u64,

    pub serve_read_ms: f64,
    pub serve_reads: usize,
    pub serve_invalidate_ms: f64,
    pub serve_invalidates: usize,
    pub serve_reanalyze_ms: f64,
    pub serve_reanalyzes: usize,
    pub serve_mode_switch_ms: f64,
    pub serve_mode_switches: usize,
    pub serve_rtt_ms: f64,
    pub serve_rtts: usize,
    pub response_hits: u64,
    pub response_lookups: u64,
    pub parse_hits: u64,
    pub parse_lookups: u64,
    pub hint_hits: u64,
    pub hint_lookups: u64,
    pub store_modules: u64,

    pub overhead_pct: f64,
}

/// `total / n`, or 0 when nothing was counted.
fn per(total: f64, n: f64) -> f64 {
    if n > 0.0 {
        total / n
    } else {
        0.0
    }
}

impl Layers {
    /// Adds the span totals of a traced phase. Span names are shared by
    /// every workload: `op` around each op, then one per layer call.
    pub fn collect_spans(&mut self, tr: &Tracer) {
        self.ops += tr.count("op");
        self.pipeline_self_ms += tr.self_ms("op");
        self.parse_ms += tr.total_ms("parse");
        self.parses += tr.count("parse");
        self.pta_baseline_ms += tr.total_ms("pta.baseline");
        self.pta_extended_ms += tr.total_ms("pta.extended");
        self.pta_runs += tr.count("pta.baseline");
        self.approx_ms += tr.total_ms("approx");
        self.approx_runs += tr.count("approx");
        self.interp_new_ms += tr.total_ms("interp.new");
        self.interp_news += tr.count("interp.new");
        self.dyncg_ms += tr.total_ms("dyncg");
        self.dyncg_runs += tr.count("dyncg");
        self.serve_read_ms += tr.total_ms("serve.read");
        self.serve_reads += tr.count("serve.read");
        self.serve_invalidate_ms += tr.total_ms("serve.invalidate");
        self.serve_invalidates += tr.count("serve.invalidate");
        self.serve_reanalyze_ms += tr.total_ms("serve.reanalyze");
        self.serve_reanalyzes += tr.count("serve.reanalyze");
        self.serve_mode_switch_ms += tr.total_ms("serve.mode_switch");
        self.serve_mode_switches += tr.count("serve.mode_switch");
        self.serve_rtt_ms += tr.total_ms("serve.rtt");
        self.serve_rtts += tr.count("serve.rtt");
    }

    /// Tracing cost: how far the traced phase's scaled ops/s falls below
    /// the untraced phase's, in percent; and the traced phase's mean
    /// probe time.
    pub fn set_overhead(&mut self, untraced: &Timing, traced: &Timing) {
        let (u, t) = (untraced.ops_per_s(), traced.ops_per_s());
        self.overhead_pct = 100.0 * (u - t) / u;
        self.probe_ms = traced.probe_mean_ms();
    }

    /// Adds the interpreter counters of one scoped registry's report.
    pub fn add_interp_counters(&mut self, report: &ObsReport) {
        let c = |name| report.counter(name).unwrap_or(0);
        self.vm_compiles += c("interp.vm_compiles");
        self.ic_hits += c("interp.ic_hits");
        self.ic_misses += c("interp.ic_misses");
        self.budget_exhaustions += c("interp.budget_exhaustions");
    }

    /// Adds the counters of the registry scoped over a dynamic call graph
    /// run, whose steps are the concrete interpreter's.
    pub fn add_dyncg_counters(&mut self, report: &ObsReport) {
        self.interp_steps += report.counter("interp.steps").unwrap_or(0);
        self.add_interp_counters(report);
    }

    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let pta_ms = self.pta_baseline_ms + self.pta_extended_ms;
        vec![
            metric("corpus.generate_ms", self.corpus_generate_ms, "ms"),
            metric(
                "parse.ms_per_op",
                per(self.parse_ms, self.parses as f64),
                "ms",
            ),
            metric(
                "parse.mb_per_s",
                per(self.parse_bytes as f64 / 1e3, self.parse_ms),
                "MB/s",
            ),
            metric("parse.bytes", self.parse_bytes as f64, "bytes"),
            metric(
                "pta.baseline_ms_per_op",
                per(self.pta_baseline_ms, self.pta_runs as f64),
                "ms",
            ),
            metric(
                "pta.extended_ms_per_op",
                per(self.pta_extended_ms, self.pta_runs as f64),
                "ms",
            ),
            metric("pta.propagations", self.propagations as f64, "count"),
            metric(
                "pta.ns_per_propagation",
                per(pta_ms * 1e6, self.propagations as f64),
                "ns",
            ),
            metric(
                "pta.hints_applied_ratio",
                per(self.hints_applied as f64, self.hints as f64),
                "ratio",
            ),
            metric(
                "approx.ms_per_op",
                per(self.approx_ms, self.approx_runs as f64),
                "ms",
            ),
            metric("approx.steps", self.approx_steps as f64, "count"),
            metric(
                "approx.ns_per_step",
                per(self.approx_ms * 1e6, self.approx_steps as f64),
                "ns",
            ),
            metric(
                "approx.items_aborted_ratio",
                per(self.items_aborted as f64, self.items_processed as f64),
                "ratio",
            ),
            metric(
                "approx.coverage",
                per(self.functions_visited as f64, self.functions_total as f64),
                "ratio",
            ),
            metric(
                "interp.new_ms",
                per(self.interp_new_ms, self.interp_news as f64),
                "ms",
            ),
            metric(
                "dyncg.ms_per_op",
                per(self.dyncg_ms, self.dyncg_runs as f64),
                "ms",
            ),
            metric("interp.steps", self.interp_steps as f64, "count"),
            metric(
                "interp.ns_per_step",
                per(self.dyncg_ms * 1e6, self.interp_steps as f64),
                "ns",
            ),
            metric("interp.vm_compiles", self.vm_compiles as f64, "count"),
            metric(
                "interp.ic_hit_ratio",
                per(self.ic_hits as f64, (self.ic_hits + self.ic_misses) as f64),
                "ratio",
            ),
            metric(
                "interp.budget_exhaustions",
                self.budget_exhaustions as f64,
                "count",
            ),
            metric(
                "pipeline.self_ms",
                per(self.pipeline_self_ms, self.ops as f64),
                "ms",
            ),
            metric(
                "serve.read_ms",
                per(self.serve_read_ms, self.serve_reads as f64),
                "ms",
            ),
            metric(
                "serve.invalidate_ms",
                per(self.serve_invalidate_ms, self.serve_invalidates as f64),
                "ms",
            ),
            metric(
                "serve.reanalyze_ms",
                per(self.serve_reanalyze_ms, self.serve_reanalyzes as f64),
                "ms",
            ),
            metric(
                "serve.mode_switch_ms",
                per(self.serve_mode_switch_ms, self.serve_mode_switches as f64),
                "ms",
            ),
            metric(
                "serve.rtt_ms",
                per(self.serve_rtt_ms, self.serve_rtts as f64),
                "ms",
            ),
            metric(
                "serve.response_hit_ratio",
                per(self.response_hits as f64, self.response_lookups as f64),
                "ratio",
            ),
            metric(
                "serve.parse_hit_ratio",
                per(self.parse_hits as f64, self.parse_lookups as f64),
                "ratio",
            ),
            metric(
                "serve.hint_hit_ratio",
                per(self.hint_hits as f64, self.hint_lookups as f64),
                "ratio",
            ),
            metric("serve.store_modules", self.store_modules as f64, "count"),
            metric("obs.overhead_pct", self.overhead_pct, "%"),
            metric("host.probe_ms", self.probe_ms, "ms"),
        ]
    }
}
