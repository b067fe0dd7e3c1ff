//! The verify workloads: `verify-registry` proves the whole registry
//! cold through `Verifier`; `verify-warm` re-verifies it through a
//! journaled `Session` that replays every outcome.

use crate::stats::{ms_since, Measured, RunResult};
use crate::{check, inputs, Args};
use cobalt_dsl::{LabelEnv, Optimization, PureAnalysis};
use cobalt_verify::{Report, ResumeMode, SemanticMeanings, Session, Verifier, VerifyError};
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Most wrong answers a run keeps (one is enough to fail it).
pub const MAX_ERRORS: usize = 20;

/// Rules whose traced proofs took at least 100 case splits when the
/// benchmark was written — the §6 rejection (2173) among them. Fixed
/// here so that `hard_p50_ms` keeps measuring the same rules when the
/// prover gets faster.
pub const HARD_RULES: [&str; 8] = [
    "copy_prop",                // 595 splits
    "load_elim",                // 364
    "cse",                      // 182
    "taint",                    // 137
    "const_prop",               // 123
    "const_prop_call",          // 123
    "dae",                      // 107
    "buggy_load_elim_no_alias", // 2173
];

/// `tail_ms` quantile: each pass verifies 14 rules, so the tail is the
/// slowest rule but one of every pass.
const TAIL_Q: f64 = 0.9;

#[derive(Debug, Clone)]
pub enum Rule {
    Analysis(Box<PureAnalysis>),
    Opt(Box<Optimization>),
}

/// A registry rule with its known answer.
#[derive(Debug, Clone)]
pub struct RegRule {
    pub rule: Rule,
    pub sound: bool,
    pub hard: bool,
}

impl RegRule {
    fn new(rule: Rule, sound: bool) -> RegRule {
        let mut r = RegRule {
            rule,
            sound,
            hard: false,
        };
        r.hard = HARD_RULES.contains(&r.name());
        r
    }

    pub fn name(&self) -> &str {
        match &self.rule {
            Rule::Analysis(a) => &a.name,
            Rule::Opt(o) => &o.name,
        }
    }

    pub fn verify(&self, v: &Verifier) -> Result<Report, VerifyError> {
        match &self.rule {
            Rule::Analysis(a) => v.verify_analysis(a),
            Rule::Opt(o) => v.verify_optimization(o),
        }
    }

    pub fn verify_in(&self, s: &mut Session) -> Result<Report, VerifyError> {
        match &self.rule {
            Rule::Analysis(a) => s.verify_analysis(a),
            Rule::Opt(o) => s.verify_optimization(o),
        }
    }
}

/// The taint analysis and the 12 optimizations, which must prove, and
/// with `include_buggy` the §6 `load_elim_no_alias`, which must not.
pub fn registry(include_buggy: bool) -> Vec<RegRule> {
    let mut rules: Vec<RegRule> = cobalt_opts::all_analyses()
        .into_iter()
        .map(|a| RegRule::new(Rule::Analysis(Box::new(a)), true))
        .chain(
            cobalt_opts::all_optimizations()
                .into_iter()
                .map(|o| RegRule::new(Rule::Opt(Box::new(o)), true)),
        )
        .collect();
    if include_buggy {
        rules.extend(
            cobalt_opts::buggy_optimizations()
                .into_iter()
                .map(|o| RegRule::new(Rule::Opt(Box::new(o)), false)),
        );
    }
    rules
}

/// The checker as `cobalt verify --jobs 1` builds it.
pub fn verifier() -> Verifier {
    Verifier::new(LabelEnv::standard(), SemanticMeanings::standard()).with_jobs(1)
}

fn note(m: &mut Measured, result: Result<(), String>) {
    if let Err(e) = result {
        if m.errors.len() < MAX_ERRORS {
            m.errors.push(e);
        }
    }
}

fn window(args: &Args) -> Duration {
    Duration::from_secs_f64(args.seconds)
}

/// `verify-registry`: whole registry passes, one operation per rule
/// verdict, rules in a seeded order per pass.
pub fn registry_workload(args: &Args) -> Result<RunResult, String> {
    let mut m = Measured::calibrated();
    let mut built = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (v, rules) = (verifier(), registry(true));
        // Untimed warm-up pass, checked like the timed ones.
        for r in &rules {
            let report = r.verify(&v).map_err(|e| format!("{}: {e}", r.name()))?;
            check::verdict(&report, r.sound)?;
        }
        m.setup_s.push(t.elapsed().as_secs_f64());
        built = Some((v, rules));
    }
    let (v, rules) = built.expect("at least one set-up");
    m.start_window(rules.len());
    let start = Instant::now();
    let mut pass = 0;
    while start.elapsed() < window(args) {
        for i in inputs::rule_order(args.seed, pass, rules.len()) {
            let r = &rules[i];
            let t = Instant::now();
            let result = r.verify(&v);
            let ms = ms_since(t);
            m.busy_s += ms / 1e3;
            match result {
                Ok(report) => {
                    m.work += report.outcomes.len() as f64;
                    m.op(pass, Some(ms), r.hard);
                    note(&mut m, check::verdict(&report, r.sound));
                }
                Err(e) => {
                    eprintln!("perfbench: {}: {e}", r.name());
                    m.op(pass, None, r.hard);
                }
            }
        }
        pass += 1;
        m.end_round();
    }
    Ok(m.finish(TAIL_Q))
}

/// Proves `rules` into a fresh journal at `path`.
pub fn fill_journal(v: &Verifier, rules: &[RegRule], path: &Path) -> Result<(), String> {
    let mut s = Session::with_journal(v.clone(), path, ResumeMode::Fresh)
        .map_err(|e| format!("journal {}: {e}", path.display()))?;
    for r in rules {
        let report = r
            .verify_in(&mut s)
            .map_err(|e| format!("{}: {e}", r.name()))?;
        check::verdict(&report, r.sound)?;
    }
    s.finish();
    match s.degraded() {
        Some(why) => Err(format!("journal degraded while filling: {why}")),
        None => Ok(()),
    }
}

/// One warm pass: resume the journal, replay every rule in `order`,
/// compact. Each rule's latency (or `None` on error) goes to `op`.
pub fn warm_pass(
    v: &Verifier,
    rules: &[RegRule],
    order: &[usize],
    path: &Path,
    mut op: impl FnMut(&RegRule, Option<f64>, Result<(), String>, usize),
) -> Result<(), String> {
    let mut s = Session::with_journal(v.clone(), path, ResumeMode::Resume)
        .map_err(|e| format!("journal {}: {e}", path.display()))?;
    for &i in order {
        let r = &rules[i];
        let t = Instant::now();
        let result = r.verify_in(&mut s);
        let ms = ms_since(t);
        match result {
            Ok(report) => op(r, Some(ms), check::replayed(&report), report.outcomes.len()),
            Err(e) => op(r, None, Err(format!("{}: {e}", r.name())), 0),
        }
    }
    s.finish();
    match s.degraded() {
        Some(why) => Err(format!("journal degraded: {why}")),
        None => Ok(()),
    }
}

/// `verify-warm`: warm passes over a journal filled during set-up; one
/// operation per replayed rule verdict.
pub fn warm_workload(args: &Args) -> Result<RunResult, String> {
    let path = args
        .work_dir
        .join(format!("verify-warm-{}.cobj", std::process::id()));
    let result = warm_run(args, &path);
    std::fs::remove_file(&path).ok();
    result
}

fn warm_run(args: &Args, path: &Path) -> Result<RunResult, String> {
    let mut m = Measured::calibrated();
    let mut built = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (v, rules) = (verifier(), registry(false));
        fill_journal(&v, &rules, path)?;
        let order: Vec<usize> = (0..rules.len()).collect();
        let mut first_error = Ok(());
        warm_pass(&v, &rules, &order, path, |_, _, checked, _| {
            first_error = first_error.clone().and(checked);
        })?;
        first_error?;
        m.setup_s.push(t.elapsed().as_secs_f64());
        built = Some((v, rules));
    }
    let (v, rules) = built.expect("at least one set-up");
    m.start_window(rules.len());
    let start = Instant::now();
    let mut pass = 0;
    while start.elapsed() < window(args) {
        let order = inputs::rule_order(args.seed, pass, rules.len());
        let t = Instant::now();
        let mut ops = Vec::with_capacity(order.len());
        let outcome = warm_pass(&v, &rules, &order, path, |r, ms, checked, obligations| {
            ops.push((r.hard, ms, checked, obligations));
        });
        m.busy_s += t.elapsed().as_secs_f64();
        for (hard, ms, checked, obligations) in ops {
            m.work += obligations as f64;
            m.op(pass, ms, hard);
            if ms.is_some() {
                note(&mut m, checked);
            }
        }
        note(&mut m, outcome);
        pass += 1;
        m.end_round();
    }
    Ok(m.finish(TAIL_Q))
}
