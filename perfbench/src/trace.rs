//! The traced run (`--trace 1`): per-layer metrics.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a layer's public functions, kept in memory and written out as
//! JSON lines (`.perfbench/trace-<workload>-<seed>.jsonl`) when the run
//! ends. A span records its name, start, end, parent and request id;
//! a layer's self time is its duration minus its children's.
//!
//! Where the untraced path hides a layer inside one call, the traced
//! run calls the layers one by one instead (the verify pipeline with
//! direct `Solver::prove` calls, and the engine pipeline) and checks
//! that this replica gives the same verdicts and programs as the
//! untraced path. Every phase covers every layer's inputs from the
//! seed, so one traced run prints every per-layer metric whichever
//! workload it is named for; the phases share `--seconds` equally.

use crate::calib::Calibration;
use crate::check::{self, Digest};
use crate::inputs::{self, Slot};
use crate::optimize::{Passes, ROUNDS};
use crate::serve;
use crate::stats::{median, Metric, RunResult};
use crate::verify::{self, RegRule, Rule, MAX_ERRORS};
use crate::Args;
use cobalt_dsl::{LabelEnv, Optimization, PureAnalysis};
use cobalt_engine::{AnalyzedProc, Engine, EngineError};
use cobalt_il::{Proc, Program};
use cobalt_lint::{LintContext, RuleLintOptions};
use cobalt_logic::Limits;
use cobalt_serve::exec::{execute, request_fingerprint, ExecConfig};
use cobalt_serve::{Request, RequestOp, Response};
use cobalt_support::pool::Cancel;
use cobalt_verify::{
    fingerprint_obligation, obligations_for_analysis_with, obligations_for_optimization_with,
    BankMode, Prepared, ResumeMode, RetryPolicy, SemanticMeanings, Session,
};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    req: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Later spans belong to request `id`.
    pub fn request(&mut self, id: u64) {
        self.req = id;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start: self.now(),
            end: 0,
            parent: self.stack.last().copied(),
            req: self.req,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end = self.now();
        out
    }

    /// A position to aggregate from.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Per span name, total duration and self time (ms) of the spans
    /// recorded since `from` that match `keep`.
    pub fn totals(
        &self,
        from: usize,
        keep: impl Fn(&Span) -> bool,
    ) -> BTreeMap<String, (f64, f64)> {
        let spans = &self.spans[from..];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent.filter(|&p| p >= from) {
                child_ns[p - from] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<String, (f64, f64)> = BTreeMap::new();
        for (s, child) in spans.iter().zip(child_ns) {
            if keep(s) {
                let e = out.entry(s.name.clone()).or_default();
                e.0 += (s.end - s.start) as f64 / 1e6;
                e.1 += (s.end - s.start).saturating_sub(child) as f64 / 1e6;
            }
        }
        out
    }

    /// Durations (ms) of each span named `name` since `from`.
    pub fn durations(&self, from: usize, name: &str) -> Vec<f64> {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e6)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}}}",
                s.name, s.start, s.end, s.req
            )?;
        }
        out.flush()
    }
}

/// Per-round layer figures; each metric is the median over rounds.
#[derive(Debug, Default)]
struct Rounds(BTreeMap<&'static str, Vec<f64>>);

impl Rounds {
    fn add(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }
}

/// Everything one traced run gathers.
struct Run {
    tr: Tracer,
    rounds: Rounds,
    /// Seconds of traced and untraced work over the same operations.
    traced_s: f64,
    untraced_s: f64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Run {
    fn wrong(&mut self, e: String) {
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(e);
        }
    }
}

fn self_ms(t: &BTreeMap<String, (f64, f64)>, name: &str) -> f64 {
    t.get(name).map_or(0.0, |v| v.1)
}

fn total_ms(t: &BTreeMap<String, (f64, f64)>, name: &str) -> f64 {
    t.get(name).map_or(0.0, |v| v.0)
}

/// Calibration kernel runs before and after the phases.
const KERNEL_SAMPLES: usize = 20;

pub fn run(args: &Args) -> Result<RunResult, String> {
    let phase = Duration::from_secs_f64(args.seconds / 4.0);
    let mut run = Run {
        tr: Tracer::new(),
        rounds: Rounds::default(),
        traced_s: 0.0,
        untraced_s: 0.0,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    // The host's speed around the phases, for comparing runs.
    let mut cal = Calibration::default();
    (0..KERNEL_SAMPLES).for_each(|_| cal.sample());
    verify_phase(args.seed, phase, &mut run)?;
    let journal = args
        .work_dir
        .join(format!("trace-warm-{}.cobj", std::process::id()));
    let warm = warm_phase(args.seed, phase, &journal, &mut run);
    std::fs::remove_file(&journal).ok();
    warm?;
    engine_phase(args.seed, phase, &mut run)?;
    serve_phase(args.seed, phase, &mut run)?;
    (0..KERNEL_SAMPLES).for_each(|_| cal.sample());

    let dump = args.work_dir.join(format!(
        "trace-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    run.tr
        .write_jsonl(&dump)
        .map_err(|e| format!("{}: {e}", dump.display()))?;
    let overhead = 100.0 * (run.traced_s - run.untraced_s) / run.untraced_s;
    eprintln!(
        "perfbench: tracing overhead {overhead:.1}% ({:.3} s traced vs {:.3} s untraced); spans in {}",
        run.traced_s,
        run.untraced_s,
        dump.display()
    );
    let mut metrics: Vec<Metric> = run
        .rounds
        .0
        .iter()
        .map(|(name, v)| Metric::new(*name, median(v), unit_of(name)))
        .collect();
    metrics.push(Metric::new("trace.overhead_pct", overhead, "%"));
    metrics.push(Metric::new("host.kernel_ms", cal.median_ms(), "ms"));
    Ok(RunResult {
        errors: run.errors,
        attempted: run.attempted,
        failed: run.failed,
        metrics,
    })
}

fn unit_of(name: &str) -> &'static str {
    if name.contains("_ms") {
        "ms"
    } else if name.contains("_us") {
        "us"
    } else if name.ends_with("code_size") {
        "stmts"
    } else if name.contains("steps") {
        "steps"
    } else {
        "count"
    }
}

/// Runs `round` at least once and until `phase` has passed.
fn for_phase(
    phase: Duration,
    mut round: impl FnMut(u64) -> Result<(), String>,
) -> Result<(), String> {
    let start = Instant::now();
    let mut i = 0;
    loop {
        round(i)?;
        i += 1;
        if start.elapsed() >= phase {
            return Ok(());
        }
    }
}

// ---- verify (cold): lint → obligations → fingerprint → prove ----

/// What the replica decided for one rule: each obligation's id and
/// whether it proved, plus the solver's search counts.
#[derive(Debug, Default)]
struct Decided {
    verdicts: Vec<(String, bool)>,
    splits: usize,
    instances: usize,
    branches: usize,
}

fn discharge(tr: &mut Tracer, mut p: Prepared, tiers: &[Limits], d: &mut Decided) {
    // The checker's retry schedule: escalate only past resource limits.
    for (ti, tier) in tiers.iter().enumerate() {
        p.solver.set_limits(tier.clone());
        let outcome = tr.span("logic.prove", |_| p.solver.prove(&p.task));
        let stats = outcome.stats();
        d.splits += stats.splits;
        d.instances += stats.instances;
        d.branches += stats.branches;
        if outcome.is_proved() || !outcome.is_resource_limited() || ti + 1 == tiers.len() {
            d.verdicts.push((p.id.clone(), outcome.is_proved()));
            return;
        }
    }
}

fn replica_rule(
    tr: &mut Tracer,
    r: &RegRule,
    tiers: &[Limits],
    (env, meanings): (&LabelEnv, &SemanticMeanings),
) -> Result<Decided, String> {
    let ctx = LintContext::new(env);
    let opts = RuleLintOptions::structural();
    let diags = tr.span("lint.gate", |_| match &r.rule {
        Rule::Analysis(a) => cobalt_lint::lint_analysis(a, &ctx, &opts),
        Rule::Opt(o) => cobalt_lint::lint_optimization(o, &ctx, &opts),
    });
    if diags.has_errors() {
        return Err(format!("{}: lint gate rejected a registry rule", r.name()));
    }
    let prepared = tr
        .span("verify.oblig", |_| match &r.rule {
            Rule::Analysis(a) => {
                obligations_for_analysis_with(a, env, meanings, BankMode::BatchShared)
            }
            Rule::Opt(o) => {
                obligations_for_optimization_with(o, env, meanings, BankMode::BatchShared)
            }
        })
        .map_err(|e| format!("{}: {e}", r.name()))?;
    tr.span("verify.fingerprint", |_| {
        let src = match &r.rule {
            Rule::Analysis(a) => format!("{a:?}"),
            Rule::Opt(o) => format!("{o:?}"),
        };
        for p in &prepared {
            std::hint::black_box(fingerprint_obligation(&src, p, tiers));
        }
    });
    let mut d = Decided::default();
    tr.span("verify.discharge", |tr| {
        for p in prepared {
            discharge(tr, p, tiers, &mut d);
        }
    });
    Ok(d)
}

fn verify_phase(seed: u64, phase: Duration, run: &mut Run) -> Result<(), String> {
    let (v, rules) = (verify::verifier(), verify::registry(true));
    let tiers = RetryPolicy::default().tiers;
    let (env, meanings) = (LabelEnv::standard(), SemanticMeanings::standard());
    for_phase(phase, |pass| {
        let order = inputs::rule_order(seed, pass, rules.len());
        // Untraced pass first: the reference verdicts and time.
        let t = Instant::now();
        let mut want = Vec::with_capacity(rules.len());
        for &i in &order {
            let report = rules[i]
                .verify(&v)
                .map_err(|e| format!("{}: {e}", rules[i].name()))?;
            want.push(report);
        }
        run.untraced_s += t.elapsed().as_secs_f64();
        let from = run.tr.mark();
        let (mut splits, mut instances, mut branches, mut obligations) = (0, 0, 0, 0);
        let mut reject_req = None;
        let t = Instant::now();
        for (&i, report) in order.iter().zip(&want) {
            let r = &rules[i];
            let req = (pass << 8) | i as u64;
            run.tr.request(req);
            let d = run
                .tr
                .span("rule", |tr| replica_rule(tr, r, &tiers, (&env, &meanings)))?;
            run.attempted += 1;
            let reference: Vec<(String, bool)> = report
                .outcomes
                .iter()
                .map(|o| (o.id.clone(), o.proved))
                .collect();
            if d.verdicts != reference {
                run.wrong(format!(
                    "{}: traced verdicts differ from the checker's",
                    r.name()
                ));
            }
            if let Err(e) = check::verdict(report, r.sound) {
                run.wrong(e);
            }
            if !r.sound {
                reject_req = Some(req);
            }
            (splits, instances, branches) = (
                splits + d.splits,
                instances + d.instances,
                branches + d.branches,
            );
            obligations += d.verdicts.len();
        }
        let traced = t.elapsed().as_secs_f64();
        let t = run.tr.totals(from, |_| true);
        // Fingerprinting is work the cold path does not do.
        run.traced_s += traced - total_ms(&t, "verify.fingerprint") / 1e3;
        let reject = run.tr.totals(from, |s| Some(s.req) == reject_req);
        let r = &mut run.rounds;
        r.add("lint.gate_ms", total_ms(&t, "lint.gate"));
        r.add("verify.oblig_ms", total_ms(&t, "verify.oblig"));
        r.add("verify.obligations", obligations as f64);
        r.add("verify.fingerprint_ms", total_ms(&t, "verify.fingerprint"));
        r.add("verify.discharge_ms", total_ms(&t, "verify.discharge"));
        r.add(
            "verify.checker_overhead_ms",
            self_ms(&t, "verify.discharge"),
        );
        r.add("logic.prove_ms", total_ms(&t, "logic.prove"));
        r.add("logic.reject_ms", total_ms(&reject, "logic.prove"));
        r.add("logic.splits", splits as f64);
        r.add("logic.instances", instances as f64);
        r.add("logic.branches", branches as f64);
        Ok(())
    })
}

// ---- verify (warm): journal open → replay → compact ----

fn warm_phase(
    seed: u64,
    phase: Duration,
    journal: &std::path::Path,
    run: &mut Run,
) -> Result<(), String> {
    let (v, rules) = (verify::verifier(), verify::registry(false));
    verify::fill_journal(&v, &rules, journal)?;
    for_phase(phase, |pass| {
        let order = inputs::rule_order(seed, pass, rules.len());
        let t = Instant::now();
        let mut untraced = Ok(());
        verify::warm_pass(&v, &rules, &order, journal, |_, _, checked, _| {
            untraced = untraced.clone().and(checked);
        })?;
        run.untraced_s += t.elapsed().as_secs_f64();
        if let Err(e) = untraced {
            run.wrong(e);
        }
        let from = run.tr.mark();
        let t = Instant::now();
        let tr = &mut run.tr;
        let mut s = tr
            .span("journal.open", |_| {
                Session::with_journal(v.clone(), journal, ResumeMode::Resume)
            })
            .map_err(|e| format!("journal: {e}"))?;
        let records = s.load_report().records;
        let mut checks = Vec::new();
        for &i in &order {
            let r = &rules[i];
            tr.request((pass << 8) | i as u64);
            let report = tr.span("verify.replay", |_| r.verify_in(&mut s));
            checks.push(
                report
                    .map_err(|e| e.to_string())
                    .and_then(|rep| check::replayed(&rep)),
            );
        }
        tr.span("journal.compact", |_| s.finish());
        run.traced_s += t.elapsed().as_secs_f64();
        run.attempted += checks.len() as u64;
        for e in checks.into_iter().filter_map(Result::err) {
            run.wrong(e);
        }
        if let Some(why) = s.degraded() {
            run.wrong(format!("journal degraded: {why}"));
        }
        let t = run.tr.totals(from, |_| true);
        run.rounds
            .add("journal.open_ms", total_ms(&t, "journal.open"));
        run.rounds
            .add("journal.compact_ms", total_ms(&t, "journal.compact"));
        run.rounds.add("journal.records", records as f64);
        Ok(())
    })
}

// ---- engine: cfg → analysis → apply, per pass and round ----

/// The engine pipeline of `OptimizeSession` (per procedure: every
/// round runs each pass on a fresh CFG with the analyses re-run),
/// called layer by layer.
fn replica_proc(
    tr: &mut Tracer,
    engine: &Engine,
    proc: &Proc,
    analyses: &[PureAnalysis],
    pipeline: &[Optimization],
) -> Result<(Proc, usize, usize), EngineError> {
    let mut current = proc.clone();
    let (mut applied, mut rounds) = (0, 0);
    for round in 0..ROUNDS {
        let mut round_applied = 0;
        for opt in pipeline {
            let mut ap = tr.span("engine.cfg", |_| AnalyzedProc::new(current.clone()))?;
            tr.span("engine.analysis", |_| {
                analyses
                    .iter()
                    .try_for_each(|a| engine.run_pure_analysis(&mut ap, a).map(drop))
            })?;
            let (next, sites) = tr.span(format!("engine.apply.{}", opt.name), |_| {
                engine.apply(&ap, opt)
            })?;
            round_applied += sites.len();
            current = next;
        }
        applied += round_applied;
        rounds = round + 1;
        if round_applied == 0 {
            break;
        }
    }
    Ok((current, applied, rounds))
}

/// [`replica_proc`] over every procedure of a program: the optimized
/// program, rewrites applied, and rounds (the most any procedure took).
fn replica_program(
    tr: &mut Tracer,
    engine: &Engine,
    program: &Program,
    passes: &Passes,
) -> Result<(Program, usize, usize), EngineError> {
    let mut out = program.clone();
    let (mut applied, mut rounds) = (0, 0);
    for proc in &program.procs {
        let (optimized, a, r) = replica_proc(tr, engine, proc, &passes.analyses, &passes.pipeline)?;
        out = out.with_proc_replaced(optimized);
        applied += a;
        rounds = rounds.max(r);
    }
    Ok((out, applied, rounds))
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

fn engine_phase(seed: u64, phase: Duration, run: &mut Run) -> Result<(), String> {
    let (passes, engine) = (Passes::standard(), Engine::new(LabelEnv::standard()));
    for_phase(phase, |round| {
        let from = run.tr.mark();
        let tr = &mut run.tr;
        let corpus = tr.span("il.gen", |_| inputs::corpus(seed, round));
        let (mut rewrites, mut rounds) = (0, 0);
        let (mut steps_in, mut steps_out, mut code_size) = (0, 0, 0);
        let mut traced = Duration::ZERO;
        let mut wrong = Vec::new();
        for (i, p) in corpus.iter().enumerate() {
            tr.request((round << 8) | i as u64);
            // Alternate which path runs first, so neither always finds
            // the caches the other warmed.
            let session = |tr: &mut Tracer| {
                timed(|| tr.span("engine.session", |_| passes.optimize(&p.program)))
            };
            let replica = |tr: &mut Tracer| {
                timed(|| {
                    tr.span("engine.replica", |tr| {
                        replica_program(tr, &engine, &p.program, &passes)
                    })
                })
            };
            let (((want, report), untraced), (replicated, t)) = if round % 2 == 0 {
                let s = session(tr);
                (s, replica(tr))
            } else {
                let r = replica(tr);
                (session(tr), r)
            };
            let (got, applied, max_rounds) =
                replicated.map_err(|e| format!("round {round} program {i}: {e}"))?;
            run.untraced_s += untraced.as_secs_f64();
            traced += t;
            run.attempted += 1;
            if got != want || (applied, max_rounds) != (report.applied, report.rounds) {
                wrong.push(format!(
                    "round {round} program {i}: the traced engine pipeline differs from OptimizeSession"
                ));
            }
            match check::equivalent(&check::reference(&p.program), &want) {
                Ok(steps) => steps_out += steps,
                Err(e) => wrong.push(format!("round {round} program {i}: {e}")),
            }
            steps_in += returning_steps(&p.program);
            code_size += check::code_size(&want);
            rewrites += report.applied;
            rounds += report.rounds;
        }
        run.traced_s += traced.as_secs_f64();
        wrong.into_iter().for_each(|e| run.wrong(e));
        let t = run.tr.totals(from, |_| true);
        let apply: f64 = t
            .iter()
            .filter(|(k, _)| k.starts_with("engine.apply."))
            .map(|(_, v)| v.0)
            .sum();
        let layers = total_ms(&t, "engine.cfg") + total_ms(&t, "engine.analysis") + apply;
        let r = &mut run.rounds;
        r.add("il.gen_ms", total_ms(&t, "il.gen"));
        r.add("engine.cfg_ms", total_ms(&t, "engine.cfg"));
        r.add("engine.analysis_ms", total_ms(&t, "engine.analysis"));
        r.add("engine.apply_ms", apply);
        for (metric, span) in [
            ("engine.apply_ms.cse", "engine.apply.cse"),
            ("engine.apply_ms.copy_prop", "engine.apply.copy_prop"),
            ("engine.apply_ms.dae", "engine.apply.dae"),
            ("engine.apply_ms.const_prop", "engine.apply.const_prop"),
        ] {
            r.add(metric, total_ms(&t, span));
        }
        r.add(
            "engine.session_overhead_ms",
            total_ms(&t, "engine.session") - layers,
        );
        r.add("engine.rewrites", rewrites as f64);
        r.add("engine.rounds", rounds as f64);
        r.add("engine.code_size", code_size as f64);
        r.add("engine.run_steps", steps_out as f64);
        r.add("il.interp_steps_in", steps_in as f64);
        Ok(())
    })
}

/// Non-`skip` statements the interpreter executes over the run
/// arguments on which the program returns.
fn returning_steps(p: &Program) -> u64 {
    inputs::RUN_ARGS
        .iter()
        .map(|&a| check::run(p, a))
        .filter(|(v, _)| v.is_some())
        .map(|(_, n)| n)
        .sum()
}

// ---- serve: fingerprint, codec, round trip, execution ----

/// A client connection reused for many requests.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        writer.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    fn exchange(&mut self, req: &Request) -> Result<Response, String> {
        // One write per request line: split writes would meet Nagle's
        // algorithm and the peer's delayed ACK.
        let line = format!("{}\n", req.encode());
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| e.to_string())?;
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        Response::decode(line.trim_end()).map_err(|e| e.0)
    }
}

fn daemon_stats(cfg: &cobalt_serve::ClientConfig) -> Result<BTreeMap<String, f64>, String> {
    let resp = serve::send(cfg, "stats".into(), RequestOp::Stats).ok_or("stats request failed")?;
    Ok(resp
        .output
        .split_whitespace()
        .filter_map(|kv| {
            let (k, v) = kv.split_once('=')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect())
}

/// Warm hits per round on a reused and on fresh connections.
const PROBES: usize = 10;

fn serve_phase(seed: u64, phase: Duration, run: &mut Run) -> Result<(), String> {
    let w = serve::set_up(seed)?;
    let addr = w.daemon.addr().to_string();
    let exec_cfg = ExecConfig::default();
    let mut conn = Conn::open(&addr).map_err(|e| format!("connect: {e}"))?;
    let result = for_phase(phase, |round| {
        let from = run.tr.mark();
        let before = daemon_stats(&w.cfg)?;
        for (n, slot) in inputs::serve_round(seed, round, w.warm.len())
            .into_iter()
            .enumerate()
        {
            let req_id = (round << 8) | n as u64;
            let tr = &mut run.tr;
            tr.request(req_id);
            let ask = match &slot {
                Slot::Warm(k) => &w.warm[*k],
                Slot::Cold(ask) => ask,
            };
            let op = serve::op_of(ask);
            let resp = tr.span("serve.request", |tr| {
                tr.span("serve.fingerprint", |_| {
                    std::hint::black_box(request_fingerprint(&op, &exec_cfg))
                });
                let req = Request {
                    id: format!("t{req_id}"),
                    op: op.clone(),
                };
                let resp = tr.span("serve.rtt", |_| {
                    serve::send(&w.cfg, req.id.clone(), op.clone())
                });
                if let Some(resp) = &resp {
                    tr.span("serve.codec", |_| {
                        std::hint::black_box(Request::decode(&req.encode()).ok());
                        std::hint::black_box(Response::decode(&resp.encode()).ok());
                    });
                }
                resp
            });
            run.attempted += 1;
            let Some(resp) = resp else {
                run.failed += 1;
                continue;
            };
            let want = match slot {
                Slot::Warm(k) => Ok(w.want[k].clone()),
                Slot::Cold(_) => {
                    let want = tr.span("serve.exec", |_| execute(&op, &exec_cfg, &Cancel::new()));
                    serve::known_answer(ask, &want).map(|()| want)
                }
            };
            let got = Digest::of_response(&resp);
            if let Err(e) = want.and_then(|want| check::payload(&got, &Digest::of_exec(&want))) {
                run.wrong(format!("request {}: {e}", resp.id));
            }
        }
        let after = daemon_stats(&w.cfg)?;
        // Warm hits on one reused connection, then on fresh ones.
        for n in 0..PROBES {
            let k = n % w.warm.len();
            let req = Request {
                id: format!("p{round}-{n}"),
                op: serve::op_of(&w.warm[k]),
            };
            let resp = run.tr.span("serve.warm_rtt", |_| conn.exchange(&req))?;
            let fresh = run.tr.span("serve.fresh_rtt", |_| {
                serve::send(&w.cfg, req.id.clone(), req.op.clone())
            });
            run.attempted += 2;
            for got in [Some(resp), fresh] {
                match got {
                    Some(got) => {
                        let got = Digest::of_response(&got);
                        if let Err(e) = check::payload(&got, &Digest::of_exec(&w.want[k])) {
                            run.wrong(format!("probe {}: {e}", req.id));
                        }
                    }
                    None => run.failed += 1,
                }
            }
        }
        let us = |name: &str| -> Vec<f64> {
            run.tr
                .durations(from, name)
                .iter()
                .map(|ms| ms * 1e3)
                .collect()
        };
        let (fingerprint, codec) = (us("serve.fingerprint"), us("serve.codec"));
        let (warm_rtt, fresh_rtt) = (
            median(&run.tr.durations(from, "serve.warm_rtt")),
            median(&run.tr.durations(from, "serve.fresh_rtt")),
        );
        let exec = run.tr.durations(from, "serve.exec");
        let r = &mut run.rounds;
        r.add("serve.fingerprint_us", median(&fingerprint));
        r.add("serve.codec_us", median(&codec));
        r.add("serve.warm_rtt_ms", warm_rtt);
        r.add("serve.accept_wait_ms", fresh_rtt - warm_rtt);
        r.add("serve.exec_ms", median(&exec));
        for key in ["cache_hits", "fresh", "coalesced", "shed"] {
            let name: &'static str = match key {
                "cache_hits" => "serve.cache_hits",
                "fresh" => "serve.fresh",
                "coalesced" => "serve.coalesced",
                _ => "serve.shed",
            };
            r.add(
                name,
                after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0),
            );
        }
        Ok(())
    });
    drop(conn);
    serve::stop(w.daemon);
    result
}
