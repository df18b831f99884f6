//! `daemon-edits`: the `aji-serve` binary runs as its own process; one
//! client sends a seeded stream of reads, edits and mode switches over
//! one Unix-socket connection, one request at a time.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use aji::PipelineOptions;
use aji_ast::Project;
use aji_obs::ObsReport;
use aji_pta::Accuracy;
use aji_support::hash::fnv64;
use aji_support::{wire, Json};

use crate::host::Probes;
use crate::inputs::{self, DaemonOp};
use crate::layers::Layers;
use crate::measure::{cpu_ms, peak_rss_mb};
use crate::trace::Tracer;
use crate::{finish, timed_setup, Config, Failures, Measured, Outcome, Pooled, Timing, SETUPS};

/// A daemon child process. Dropping it without [`Daemon::shutdown`] —
/// the failure path — kills the process, waits for it and removes the
/// socket.
pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    /// Starts `exe --socket socket`, an `aji-serve` daemon.
    pub fn spawn(exe: &Path, socket: &Path) -> Result<Daemon, String> {
        if let Some(dir) = socket.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        }
        let child = Command::new(exe)
            .arg("--socket")
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        Ok(Daemon {
            child: Some(child),
            socket: socket.to_path_buf(),
        })
    }

    pub fn pid(&self) -> String {
        self.child.as_ref().map_or(0, Child::id).to_string()
    }

    /// Connects once the socket accepts; fails if the daemon exits or ten
    /// seconds pass first.
    pub fn connect(&mut self) -> Result<Conn, String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match UnixStream::connect(&self.socket) {
                Ok(stream) => return Conn::new(stream),
                Err(e) => {
                    if let Some(child) = self.child.as_mut() {
                        if let Ok(Some(status)) = child.try_wait() {
                            return Err(format!("the daemon exited before listening: {status}"));
                        }
                    }
                    if Instant::now() > deadline {
                        return Err(format!("the daemon did not listen within 10 s: {e}"));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }

    /// Sends `shutdown`, waits for the process to end and checks that it
    /// exited cleanly and removed its socket.
    pub fn shutdown(mut self, conn: &mut Conn) -> Result<(), String> {
        let resp = conn.request(&Json::obj(vec![("op", Json::Str("shutdown".into()))]));
        let mut child = self.child.take().expect("a live daemon has a child");
        let status = child
            .wait()
            .map_err(|e| format!("cannot wait for the daemon: {e}"))?;
        result_of(resp?)?;
        if !status.success() {
            return Err(format!("the daemon exited with {status}"));
        }
        if self.socket.exists() {
            return Err(format!("the daemon left its socket {:?}", self.socket));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One client connection speaking `aji_support::wire` frames.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn new(stream: UnixStream) -> Result<Conn, String> {
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Encodes a request frame; done before a timer starts.
    pub fn frame(req: &Json) -> Vec<u8> {
        let mut buf = Vec::new();
        wire::write_frame(&mut buf, req).expect("writing to a Vec cannot fail");
        buf
    }

    /// Writes one encoded frame and reads the response line: the timed
    /// part of a request.
    pub fn exchange(&mut self, frame: &[u8]) -> Result<String, String> {
        self.writer
            .write_all(frame)
            .map_err(|e| format!("cannot send: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("the daemon closed the connection".into()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("cannot receive: {e}")),
        }
    }

    /// One untimed request.
    pub fn request(&mut self, req: &Json) -> Result<Json, String> {
        decode(&self.exchange(&Conn::frame(req))?)
    }
}

/// Decodes a response line with the wire framing.
fn decode(line: &str) -> Result<Json, String> {
    match wire::read_frame(&mut line.as_bytes()) {
        Ok(Some(frame)) => Ok(frame),
        Ok(None) => Err("empty response".into()),
        Err(e) => Err(e.to_string()),
    }
}

/// The `result` of an `"ok": true` frame.
fn result_of(frame: Json) -> Result<Json, String> {
    if frame.get("ok") != Some(&Json::Bool(true)) {
        let error = frame
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("no error text");
        return Err(format!("daemon error: {error}"));
    }
    frame
        .get("result")
        .cloned()
        .ok_or_else(|| "response has no result".into())
}

fn analyze(project: &Project, dynamic: bool, obs: bool) -> Json {
    let mut pairs = vec![
        ("op", Json::Str("analyze".into())),
        ("project", project.to_json()),
    ];
    if dynamic {
        pairs.push(("dynamic", Json::Bool(true)));
    }
    if obs {
        pairs.push(("obs", Json::Bool(true)));
    }
    Json::obj(pairs)
}

fn pipeline_options(dynamic: bool) -> PipelineOptions {
    PipelineOptions {
        dynamic_cg: dynamic,
        ..PipelineOptions::default()
    }
}

/// A daemon whose store holds a static answer for every corpus project.
struct Filled {
    daemon: Daemon,
    conn: Conn,
}

fn fill(
    cfg: &Config,
    corpus: &[Project],
    tag: &str,
    probes: &mut Probes,
) -> Result<Filled, String> {
    let socket = PathBuf::from(format!(".perfbench/d{}-{tag}.sock", std::process::id()));
    let mut daemon = Daemon::spawn(&cfg.daemon, &socket)?;
    let mut conn = daemon.connect()?;
    for p in corpus {
        result_of(conn.request(&analyze(p, false, false))?)
            .map_err(|e| format!("filling the store with {}: {e}", p.name))?;
        probes.record();
    }
    Ok(Filled { daemon, conn })
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut live = None;
    for n in 0..SETUPS {
        let (s, state) = timed_setup(|probes| {
            let start = Instant::now();
            let corpus = aji_corpus::full_population();
            generate_ms.push(start.elapsed().as_secs_f64() * 1e3);
            let ops = inputs::daemon_plan(&corpus, cfg.seed, cfg.seconds);
            fill(cfg, &corpus, &n.to_string(), probes).map(|filled| (corpus, ops, filled))
        });
        let (corpus, ops, filled) = state?;
        setup_s.push(s);
        if n + 1 < SETUPS {
            let Filled { daemon, mut conn } = filled;
            daemon.shutdown(&mut conn)?;
        } else {
            live = Some((corpus, ops, filled));
        }
    }
    let (corpus, ops, Filled { daemon, mut conn }) = live.expect("at least one set-up");

    let mut failures = Failures::default();
    let mut seen = HashMap::new();
    let mut timing = Timing::default();
    let pid = daemon.pid();
    let cpu0 = cpu_ms(&pid).unwrap_or(0.0);
    let driven = drive(
        &mut conn,
        &corpus,
        &ops,
        &mut seen,
        &mut failures,
        &mut timing,
        None,
    );
    timing.cpu_ms = cpu_ms(&pid).unwrap_or(0.0) - cpu0;
    timing.peak_rss_mb = peak_rss_mb(&pid).unwrap_or(0.0);
    match driven {
        Ok(()) => daemon.shutdown(&mut conn)?,
        Err(e) => eprintln!("perfbench: lost the daemon: {e}"),
    }
    let pooled = verify(&corpus, &ops, &seen, &mut failures);
    let measured = Measured {
        ops: ops.len(),
        failures,
        timing,
        setup_s,
        generate_ms,
        pooled,
    };
    finish(cfg, measured, |layers, failures| {
        traced(cfg, &corpus, &ops, &mut seen, layers, failures)
    })
}

/// Answers keyed by (project, edits applied, dynamic): the op that first
/// got the answer and a digest of its `result` text.
type Seen = HashMap<(usize, usize, bool), (usize, u64)>;

/// What the traced phase adds to [`drive`].
struct TraceCtx<'a> {
    tr: &'a mut Tracer,
    layers: &'a mut Layers,
}

/// Sends the op sequence from the corpus' initial sources. A
/// request-level failure fails its op; a lost connection fails the op
/// and every later one, and ends the sequence with an error.
fn drive(
    conn: &mut Conn,
    corpus: &[Project],
    ops: &[DaemonOp],
    seen: &mut Seen,
    failures: &mut Failures,
    timing: &mut Timing,
    mut trace: Option<TraceCtx>,
) -> Result<(), String> {
    let obs = trace.is_some();
    let mut state = corpus.to_vec();
    let mut version = vec![0usize; corpus.len()];
    for (k, op) in ops.iter().enumerate() {
        // Frames, span names and the answers each op expects are
        // settled before the timer starts.
        let (p, frames, names, answers): (usize, Vec<Vec<u8>>, &[&'static str], Vec<bool>) =
            match *op {
                DaemonOp::Edit { project, module, n } => {
                    state[project] = inputs::with_edit(&state[project], module, n);
                    version[project] += 1;
                    let invalidate = Json::obj(vec![
                        ("op", Json::Str("invalidate".into())),
                        ("name", Json::Str(state[project].name.clone())),
                        ("path", Json::Str(state[project].files[module].path.clone())),
                    ]);
                    let frames = vec![
                        Conn::frame(&invalidate),
                        Conn::frame(&analyze(&state[project], false, obs)),
                    ];
                    (
                        project,
                        frames,
                        &["serve.invalidate", "serve.reanalyze"],
                        vec![false],
                    )
                }
                DaemonOp::ModeSwitch { project } => {
                    let frames = vec![
                        Conn::frame(&analyze(&state[project], false, false)),
                        Conn::frame(&analyze(&state[project], true, obs)),
                    ];
                    (project, frames, &["serve.mode_switch"], vec![false, true])
                }
                DaemonOp::Read { project } => {
                    let frames = vec![Conn::frame(&analyze(&state[project], false, false))];
                    (project, frames, &["serve.read"], vec![false])
                }
            };
        let start = Instant::now();
        let lines: Result<Vec<String>, String> = match trace.as_mut() {
            None => frames.iter().map(|f| conn.exchange(f)).collect(),
            Some(t) => {
                let span = t.tr.begin("op", k);
                let lines = if names.len() == 1 {
                    t.tr.span(names[0], k, || {
                        frames.iter().map(|f| conn.exchange(f)).collect()
                    })
                } else {
                    frames
                        .iter()
                        .zip(names)
                        .map(|(f, name)| t.tr.span(name, k, || conn.exchange(f)))
                        .collect()
                };
                t.tr.end(span);
                lines
            }
        };
        let elapsed = start.elapsed();
        timing.record(elapsed, matches!(op, DaemonOp::Edit { .. }));
        let lines = match lines {
            Ok(lines) => lines,
            Err(e) => {
                // The daemon is gone: this op and every later one fail.
                failures.fail(k, format!("{}: {e}", state[p].name));
                failures.fail_unrun(ops.len() - k - 1);
                return Err(e);
            }
        };
        // Edits answer invalidate first; its result is not an analysis.
        let analyses = &lines[lines.len() - answers.len()..];
        for (line, &dynamic) in analyses.iter().zip(&answers) {
            let frame = match decode(line) {
                Ok(frame) => frame,
                Err(e) => {
                    failures.fail(k, e);
                    continue;
                }
            };
            if let Some(t) = trace.as_mut() {
                if let Some(report) = frame
                    .get("obs")
                    .and_then(|o| ObsReport::from_json_str(&o.to_string()).ok())
                {
                    add_daemon_layers(t.layers, &report);
                    let hints = frame.get("result").and_then(|r| r.get("hint_count"));
                    t.layers.hints += hints.and_then(Json::as_f64).unwrap_or(0.0) as u64;
                }
            }
            if let Err(e) = check(k, (p, version[p], dynamic), frame, seen) {
                failures.fail(k, format!("{}: {e}", state[p].name));
            }
        }
        if let Err(e) = lines[..lines.len() - answers.len()]
            .iter()
            .try_for_each(|l| decode(l).and_then(result_of).map(drop))
        {
            failures.fail(k, format!("{}: invalidate: {e}", state[p].name));
        }
        if let (Some(t), DaemonOp::Edit { .. }) = (trace.as_mut(), op) {
            let stats = Conn::frame(&Json::obj(vec![("op", Json::Str("stats".into()))]));
            if let Err(e) = t.tr.span("serve.rtt", k, || conn.exchange(&stats)) {
                failures.fail_unrun(ops.len() - k - 1);
                return Err(e);
            }
        }
    }
    Ok(())
}

/// An analyze answer must be `ok` and byte-identical to the first
/// answer for the same sources and mode.
fn check(k: usize, key: (usize, usize, bool), frame: Json, seen: &mut Seen) -> Result<(), String> {
    let text = result_of(frame)?.to_string();
    let digest = fnv64(0, text.as_bytes());
    match seen.get(&key) {
        Some(&(first, d)) if d != digest => Err(format!("answer differs from op {first}")),
        Some(_) => Ok(()),
        None => {
            seen.insert(key, (k, digest));
            Ok(())
        }
    }
}

/// Replays the op sequence in process: every distinct answer must equal
/// a cache-free `run_benchmark(...).metrics_json()` of the same sources.
/// Pools recall and precision over the distinct dynamic answers.
fn verify(corpus: &[Project], ops: &[DaemonOp], seen: &Seen, failures: &mut Failures) -> Pooled {
    let mut pooled = Pooled::default();
    let mut done = HashSet::new();
    let mut state = corpus.to_vec();
    let mut version = vec![0usize; corpus.len()];
    for op in ops {
        let (p, modes): (usize, &[bool]) = match *op {
            DaemonOp::Edit { project, module, n } => {
                state[project] = inputs::with_edit(&state[project], module, n);
                version[project] += 1;
                (project, &[false])
            }
            DaemonOp::ModeSwitch { project } => (project, &[false, true]),
            DaemonOp::Read { project } => (project, &[false]),
        };
        for &dynamic in modes {
            let key = (p, version[p], dynamic);
            let Some(&(k, digest)) = seen.get(&key) else {
                continue;
            };
            if !done.insert(key) {
                continue;
            }
            let report = match aji::run_benchmark(&state[p], &pipeline_options(dynamic)) {
                Ok(r) => r,
                Err(e) => {
                    failures.fail(k, format!("{}: in-process run: {e}", state[p].name));
                    continue;
                }
            };
            let text = report.metrics_json().to_string();
            if fnv64(0, text.as_bytes()) != digest {
                failures.fail(
                    k,
                    format!("{}: answer differs from an in-process run", state[p].name),
                );
            }
            if !report
                .baseline_call_graph
                .edges
                .is_subset(&report.extended_call_graph.edges)
            {
                failures.fail(
                    k,
                    format!(
                        "{}: extended call graph misses baseline edges",
                        state[p].name
                    ),
                );
            }
            if let (true, Some(accuracy)) = (dynamic, &report.accuracy) {
                let interp = pipeline_options(true).dynamic_interp;
                let edges = aji::dynamic_call_graph(&state[p], &interp).unwrap_or_default();
                if Accuracy::compare(&report.extended_call_graph, &edges) != accuracy.extended {
                    failures.fail(k, format!("{}: reported accuracy disagrees", state[p].name));
                }
                pooled.add(&report.extended_call_graph, &edges);
            }
        }
    }
    pooled
}

/// Layer times and counts from the daemon's per-request aji-obs report,
/// the one view into work done in the other process.
fn add_daemon_layers(layers: &mut Layers, report: &ObsReport) {
    let ms = |name| report.span_named(name).map_or(0.0, |s| s.seconds() * 1e3);
    let runs = |name| report.span_named(name).map_or(0, |s| s.count as usize);
    layers.pta_baseline_ms += ms("baseline-pta");
    layers.pta_extended_ms += ms("extended-pta");
    layers.pta_runs += runs("baseline-pta");
    layers.approx_ms += ms("approx-interp");
    layers.approx_runs += runs("approx-interp");
    layers.dyncg_ms += ms("dynamic-cg");
    layers.dyncg_runs += runs("dynamic-cg");
    let c = |name| report.counter(name).unwrap_or(0);
    layers.propagations += c("pta.propagations");
    layers.hints_applied += c("pta.hints_applied");
    layers.add_interp_counters(report);
}

/// Store counters from a `stats` answer.
fn store_stats(conn: &mut Conn) -> Result<(HashMap<String, u64>, u64), String> {
    let result = result_of(conn.request(&Json::obj(vec![("op", Json::Str("stats".into()))]))?)?;
    let counters = result
        .get("store")
        .and_then(Json::as_obj)
        .ok_or("stats has no store counters")?
        .iter()
        .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(0.0) as u64))
        .collect();
    let modules = result
        .get("sizes")
        .and_then(|s| s.get("modules"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0) as u64;
    Ok((counters, modules))
}

/// The traced run: a fresh, filled daemon, the same op sequence with a
/// span per request, `"obs": true` on every analyze that runs the
/// pipeline, and a `stats` round trip after each edit.
fn traced(
    cfg: &Config,
    corpus: &[Project],
    ops: &[DaemonOp],
    seen: &mut Seen,
    layers: &mut Layers,
    failures: &mut Failures,
) -> Result<Timing, String> {
    let Filled { daemon, mut conn } = fill(cfg, corpus, "traced", &mut Probes::default())?;
    let (before, _) = store_stats(&mut conn)?;
    let mut tr = Tracer::default();
    let mut timing = Timing::default();
    let ctx = TraceCtx {
        tr: &mut tr,
        layers: &mut *layers,
    };
    drive(
        &mut conn,
        corpus,
        ops,
        seen,
        failures,
        &mut timing,
        Some(ctx),
    )
    .map_err(|e| format!("lost the traced daemon: {e}"))?;
    let (after, modules) = store_stats(&mut conn)?;
    daemon.shutdown(&mut conn)?;
    layers.collect_spans(&tr);
    let delta =
        |name: &str| after.get(name).copied().unwrap_or(0) - before.get(name).copied().unwrap_or(0);
    layers.response_hits = delta("response_hits");
    layers.response_lookups = delta("response_hits") + delta("response_misses");
    layers.parse_hits = delta("parse_hits");
    layers.parse_lookups = delta("parse_hits") + delta("parse_misses");
    layers.hint_hits = delta("hint_hits");
    layers.hint_lookups = delta("hint_hits") + delta("hint_misses");
    layers.store_modules = modules;
    if let Err(e) = tr.write(&cfg.trace_path()) {
        eprintln!("perfbench: cannot write the trace: {e}");
    }
    Ok(timing)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(result: &str) -> Json {
        Json::parse(&format!(
            r#"{{"ok":true,"op":"analyze","result":{result}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn an_injected_answer_mismatch_or_error_fails_the_op() {
        let mut seen = Seen::new();
        let key = (3, 1, false);
        assert!(check(0, key, answer(r#"{"hint_count":2}"#), &mut seen).is_ok());
        assert!(check(1, key, answer(r#"{"hint_count":2}"#), &mut seen).is_ok());
        let err = check(2, key, answer(r#"{"hint_count":3}"#), &mut seen).unwrap_err();
        assert!(err.contains("differs from op 0"), "{err}");
        let refused = Json::parse(r#"{"ok":false,"op":"analyze","error":"boom"}"#).unwrap();
        assert!(check(3, (4, 0, false), refused, &mut seen).is_err());
    }
}
