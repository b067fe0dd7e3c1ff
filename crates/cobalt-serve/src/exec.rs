//! Request execution: the daemon-side equivalent of `cobalt verify` /
//! `cobalt optimize --resilient`, rendered **deterministically**.
//!
//! Two invariants anchor the whole serve design:
//!
//! 1. **Byte-identical payloads.** The `output` text for a given
//!    request is a pure function of the request — no timings, no
//!    worker-count artifacts, no cache-state artifacts. That is what
//!    makes a cached replay indistinguishable from a fresh run, and
//!    what `scripts/verify.sh` byte-diffs against the one-shot CLI.
//!    Verify reports render through [`Report::summary_stable`]
//!    (`cobalt-verify`); optimize reports through
//!    `PipelineReport::summary`, which never had timings.
//! 2. **Fingerprint = proof-relevant inputs only.** The request
//!    fingerprint covers the operation, the full source text, the
//!    verdict-relevant options, and the prover limit *tiers* — but
//!    deliberately not wall-clock budgets, mirroring the obligation
//!    fingerprints of `cobalt-verify::Session` ("a deadline bounds a
//!    run, not a proof"). Budget-limited outcomes exit 3 and are never
//!    cached, so excluding budgets cannot alias distinct results.

use crate::cache::CachedResult;
use crate::proto::RequestOp;
use cobalt_dsl::LabelEnv;
use cobalt_engine::{Budget, Engine, OptimizeSession};
use cobalt_il::{parse_program, pretty_program, validate};
use cobalt_support::journal::Fnv64;
use cobalt_support::pool::Cancel;
use cobalt_verify::{Report, RetryPolicy, SemanticMeanings, Verifier};
use std::sync::OnceLock;
use std::time::Duration;

/// Exit code when an obligation genuinely failed (unsound) — mirrors
/// the CLI contract.
pub const EXIT_UNSOUND: u8 = 2;
/// Exit code when failures were resource limits only (inconclusive).
pub const EXIT_RESOURCE_LIMITED: u8 = 3;

/// Version tag mixed into every request fingerprint; bump on any
/// change to the fingerprint inputs or the rendered output format so
/// stale caches invalidate wholesale instead of aliasing.
const FINGERPRINT_VERSION: &str = "cobalt-serve-fp-v1";

/// Per-request execution settings, fixed at daemon startup (requests
/// choose *what* to run; the daemon's operator chooses the budgets it
/// runs under).
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Prover retry policy (limit tiers + per-report deadline).
    pub policy: RetryPolicy,
    /// Engine wall-clock budget per optimize request.
    pub timeout: Option<Duration>,
    /// Engine fixpoint step cap per procedure.
    pub max_steps: Option<u64>,
    /// Worker threads *inside* one request (obligation-/procedure-
    /// level parallelism), as distinct from the daemon's cross-request
    /// dispatch workers.
    pub jobs: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            policy: RetryPolicy::default(),
            timeout: None,
            max_steps: None,
            jobs: 1,
        }
    }
}

/// Fingerprint of the built-in registry: every analysis and
/// optimization name plus its full `Debug` AST (buggy variants
/// included — `include_buggy` requests cover them). Computed once;
/// the registry is process-constant.
fn registry_fingerprint() -> u64 {
    static FP: OnceLock<u64> = OnceLock::new();
    *FP.get_or_init(|| {
        let mut h = Fnv64::new();
        for a in cobalt_opts::all_analyses() {
            h.write(a.name.as_bytes()).write(b"\0");
            h.write(format!("{a:?}").as_bytes()).write(b"\0");
        }
        for o in cobalt_opts::all_optimizations()
            .iter()
            .chain(cobalt_opts::buggy_optimizations().iter())
        {
            h.write(o.name.as_bytes()).write(b"\0");
            h.write(format!("{o:?}").as_bytes()).write(b"\0");
        }
        h.finish()
    })
}

/// Stable fingerprint of one request under one execution config. See
/// the module docs for what is — and deliberately is not — covered.
pub fn request_fingerprint(op: &RequestOp, cfg: &ExecConfig) -> u64 {
    let mut h = Fnv64::new();
    h.write(FINGERPRINT_VERSION.as_bytes()).write(b"\0");
    match op {
        RequestOp::Verify {
            suite,
            include_buggy,
        } => {
            h.write(b"verify\0");
            match suite {
                Some(src) => {
                    h.write(b"suite\0").write(src.as_bytes());
                }
                None => {
                    h.write(b"registry\0")
                        .write(format!("{:016x}", registry_fingerprint()).as_bytes());
                }
            }
            h.write(b"\0");
            h.write(&[u8::from(*include_buggy)]).write(b"\0");
            for tier in &cfg.policy.tiers {
                h.write(format!("{tier:?}").as_bytes()).write(b"\0");
            }
        }
        RequestOp::Optimize {
            program,
            passes,
            rounds,
        } => {
            h.write(b"optimize\0");
            h.write(program.as_bytes()).write(b"\0");
            h.write(passes.as_bytes()).write(b"\0");
            h.write(&rounds.to_le_bytes()).write(b"\0");
            // Optimize applies the *verified* suite, so the registry
            // is a proof-relevant input here too.
            h.write(format!("{:016x}", registry_fingerprint()).as_bytes())
                .write(b"\0");
        }
        // Control ops are never executed through the cache; give them
        // distinct fingerprints anyway so a bug upstream cannot alias
        // them onto real work.
        RequestOp::Ping => {
            h.write(b"ping\0");
        }
        RequestOp::Stats => {
            h.write(b"stats\0");
        }
        RequestOp::Shutdown => {
            h.write(b"shutdown\0");
        }
    }
    h.finish()
}

/// One executed result, ready to answer with and (when deterministic)
/// to cache.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// CLI-compatible exit code.
    pub exit: u8,
    /// Human verdict: `proved`, `unsound`, `resource-limited`, `ok`,
    /// `error`.
    pub verdict: String,
    /// The deterministic report text.
    pub output: String,
}

impl ExecResult {
    fn error(msg: impl Into<String>) -> ExecResult {
        ExecResult {
            exit: 1,
            verdict: "error".into(),
            output: msg.into(),
        }
    }

    /// Packages the result for the proof cache.
    pub fn to_cached(&self, op: &RequestOp) -> CachedResult {
        CachedResult {
            op: match op {
                RequestOp::Verify { .. } => "verify",
                RequestOp::Optimize { .. } => "optimize",
                RequestOp::Ping => "ping",
                RequestOp::Stats => "stats",
                RequestOp::Shutdown => "shutdown",
            }
            .into(),
            exit: self.exit,
            verdict: self.verdict.clone(),
            output: self.output.clone(),
        }
    }
}

/// Executes one verify/optimize request. `cancel` is the request's
/// cancellation token: tripping it (drain deadline) makes in-flight
/// proving/fixpoints stop at their next budget check and the request
/// report as resource-limited — never as proved, never as unsound.
///
/// Control ops (`ping`/`stats`/`shutdown`) are the server's job and
/// answer `error` here.
pub fn execute(op: &RequestOp, cfg: &ExecConfig, cancel: &Cancel) -> ExecResult {
    match op {
        RequestOp::Verify {
            suite,
            include_buggy,
        } => exec_verify(suite.as_deref(), *include_buggy, cfg, cancel),
        RequestOp::Optimize {
            program,
            passes,
            rounds,
        } => exec_optimize(program, passes, *rounds as usize, cfg, cancel),
        RequestOp::Ping | RequestOp::Stats | RequestOp::Shutdown => {
            ExecResult::error("control operations are not executable requests")
        }
    }
}

/// The serve-side `cobalt verify`: same verdict logic and report lines
/// as the CLI, rendered without timings.
fn exec_verify(
    suite: Option<&str>,
    include_buggy: bool,
    cfg: &ExecConfig,
    cancel: &Cancel,
) -> ExecResult {
    let (opts, analyses) = match suite {
        None => (cobalt_opts::all_optimizations(), cobalt_opts::all_analyses()),
        Some(src) => match cobalt_dsl::parse_suite(src) {
            Ok(suite) => (suite.optimizations, suite.analyses),
            Err(e) => return ExecResult::error(format!("suite parse error: {e}")),
        },
    };
    // Fail-fast is off: an unsound obligation must not cancel its
    // siblings, or the outcome set — and so the FAILED lines of an
    // exit-2 payload, which *is* cached — would depend on completion
    // timing instead of being a pure function of the request. The
    // request token is observed per batch through a linked child
    // (`Verifier::with_cancel`), so a drain trip still stands every
    // rule's batch down while nothing the checker does can trip the
    // request token itself.
    let verifier = Verifier::new(LabelEnv::standard(), SemanticMeanings::standard())
        .with_retry_policy(cfg.policy.clone())
        .with_jobs(cfg.jobs)
        .with_cancel(cancel.clone())
        .with_fail_fast(false);
    let mut out = String::new();
    let mut unsound = false;
    let mut limited = false;
    let mut note_report = |report: &Report, out: &mut String| {
        if !report.all_proved() {
            if report.only_resource_limited_failures() {
                limited = true;
            } else {
                unsound = true;
            }
        }
        out.push_str(&report.summary_stable());
        out.push('\n');
        for o in report.outcomes.iter().filter(|o| !o.proved) {
            out.push_str(&format!(
                "  FAILED {}{} — {}\n",
                o.id,
                if o.resource_limited {
                    " (resource-limited)"
                } else {
                    ""
                },
                o.detail
            ));
        }
    };
    for a in &analyses {
        match verifier.verify_analysis(a) {
            Ok(report) => note_report(&report, &mut out),
            Err(e) => return ExecResult::error(e.to_string()),
        }
    }
    for o in &opts {
        match verifier.verify_optimization(o) {
            Ok(report) => note_report(&report, &mut out),
            Err(e) => return ExecResult::error(e.to_string()),
        }
    }
    if include_buggy {
        for o in cobalt_opts::buggy_optimizations() {
            let report = match verifier.verify_optimization(&o) {
                Ok(report) => report,
                Err(e) => return ExecResult::error(e.to_string()),
            };
            let rejected = !report.all_proved();
            // A buggy variant that verifies is itself a soundness
            // regression: fail the request (same as the CLI).
            if !rejected {
                unsound = true;
            }
            out.push_str(&format!(
                "{} — {}\n",
                report.summary_stable(),
                if rejected {
                    "correctly rejected"
                } else {
                    "UNEXPECTEDLY PROVED"
                }
            ));
        }
    }
    if unsound {
        out.push_str("some obligations failed\n");
        ExecResult {
            exit: EXIT_UNSOUND,
            verdict: "unsound".into(),
            output: out,
        }
    } else if limited {
        out.push_str("proving hit resource limits (inconclusive, not unsound)\n");
        ExecResult {
            exit: EXIT_RESOURCE_LIMITED,
            verdict: "resource-limited".into(),
            output: out,
        }
    } else {
        out.push_str("all optimizations proved sound\n");
        ExecResult {
            exit: 0,
            verdict: "proved".into(),
            output: out,
        }
    }
}

/// The serve-side `cobalt optimize --resilient`: pass quarantine, not
/// error propagation, so one failing pass degrades instead of killing
/// the request.
fn exec_optimize(
    program: &str,
    passes: &str,
    rounds: usize,
    cfg: &ExecConfig,
    cancel: &Cancel,
) -> ExecResult {
    let prog = match parse_program(program) {
        Ok(p) => p,
        Err(e) => return ExecResult::error(format!("program parse error: {e}")),
    };
    if let Err(e) = validate(&prog) {
        return ExecResult::error(e.to_string());
    }
    let suite = if passes == "all" {
        cobalt_opts::default_pipeline()
    } else {
        let registry = cobalt_opts::all_optimizations();
        let mut suite = Vec::new();
        for name in passes.split(',') {
            match registry.iter().find(|o| o.name == name) {
                Some(o) => suite.push(o.clone()),
                None => return ExecResult::error(format!("unknown pass `{name}`")),
            }
        }
        suite
    };
    let mut budget = Budget::unlimited().with_cancel(cancel.clone());
    if let Some(d) = cfg.timeout {
        budget = budget.with_deadline(d);
    }
    if let Some(n) = cfg.max_steps {
        budget = budget.with_max_steps(n);
    }
    let engine = Engine::new(LabelEnv::standard()).with_budget(budget);
    let mut session = OptimizeSession::new(engine).with_jobs(cfg.jobs);
    let (optimized, report) =
        session.optimize_program(&prog, &cobalt_opts::all_analyses(), &suite, rounds);
    session.finish();
    let mut out = String::new();
    out.push_str(&format!("// {}\n", report.summary()));
    for f in &report.failures {
        out.push_str(&format!("// skipped: {f}\n"));
    }
    out.push_str(&pretty_program(&optimized));
    if report.resource_limited() {
        ExecResult {
            exit: EXIT_RESOURCE_LIMITED,
            verdict: "resource-limited".into(),
            output: out,
        }
    } else {
        ExecResult {
            exit: 0,
            verdict: "ok".into(),
            output: out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUITE: &str = "forward const_prop {
        stmt(Y := C) followed by !mayDef(Y)
        until X := Y => X := C
        with witness eta(Y) == C
    }";

    const UNSOUND_SUITE: &str = "forward bad_prop {
        stmt(Y := C) followed by !mayDef(X)
        until X := Y => X := C
        with witness eta(Y) == C
    }";

    const PROGRAM: &str = "proc main(x) { decl a; decl c; a := 2; c := a; return c; }";

    fn verify_op(suite: &str) -> RequestOp {
        RequestOp::Verify {
            suite: Some(suite.into()),
            include_buggy: false,
        }
    }

    #[test]
    fn verify_suite_proves_and_renders_without_timings() {
        let r = execute(&verify_op(SUITE), &ExecConfig::default(), &Cancel::new());
        assert_eq!(r.exit, 0, "{}", r.output);
        assert_eq!(r.verdict, "proved");
        assert!(r.output.contains("obligations proved"), "{}", r.output);
        assert!(r.output.ends_with("all optimizations proved sound\n"));
        assert!(!r.output.contains(" in "), "timing leaked: {}", r.output);
    }

    #[test]
    fn verify_output_is_byte_identical_across_jobs_and_repeats() {
        let sequential = execute(&verify_op(SUITE), &ExecConfig::default(), &Cancel::new());
        let parallel = execute(
            &verify_op(SUITE),
            &ExecConfig {
                jobs: 4,
                ..ExecConfig::default()
            },
            &Cancel::new(),
        );
        assert_eq!(sequential.output, parallel.output);
        assert_eq!(sequential.exit, parallel.exit);
        let again = execute(&verify_op(SUITE), &ExecConfig::default(), &Cancel::new());
        assert_eq!(sequential.output, again.output);
    }

    #[test]
    fn verify_unsound_suite_exits_2() {
        let r = execute(
            &verify_op(UNSOUND_SUITE),
            &ExecConfig::default(),
            &Cancel::new(),
        );
        assert_eq!(r.exit, EXIT_UNSOUND, "{}", r.output);
        assert_eq!(r.verdict, "unsound");
        assert!(r.output.contains("FAILED"), "{}", r.output);
    }

    #[test]
    fn verify_bad_suite_and_bad_program_are_typed_errors() {
        let r = execute(&verify_op("forward {{{"), &ExecConfig::default(), &Cancel::new());
        assert_eq!(r.exit, 1);
        assert_eq!(r.verdict, "error");
        let r = execute(
            &RequestOp::Optimize {
                program: "proc main(".into(),
                passes: "all".into(),
                rounds: 1,
            },
            &ExecConfig::default(),
            &Cancel::new(),
        );
        assert_eq!(r.exit, 1);
        assert_eq!(r.verdict, "error");
    }

    #[test]
    fn unsound_rule_never_poisons_later_batches_or_the_request_token() {
        // Regression: exec_verify shares one request-level token across
        // every per-rule batch. The parallel discharge path must not
        // trip it — or the first unsound rule would cancel every later
        // rule's batch, reporting sound rules (and, under
        // include_buggy, would-be-UNEXPECTEDLY-PROVED variants) as
        // resource-limited/"correctly rejected" by cancellation, with
        // timing-dependent bytes landing in the exit-2 cache.
        let both = format!("{UNSOUND_SUITE}\n{SUITE}");
        let cfg = ExecConfig {
            jobs: 4,
            ..ExecConfig::default()
        };
        let cancel = Cancel::new();
        let first = execute(&verify_op(&both), &cfg, &cancel);
        assert_eq!(first.exit, EXIT_UNSOUND, "{}", first.output);
        assert!(
            !cancel.is_tripped(),
            "verification must never trip the caller's request token"
        );
        assert!(
            first.output.contains("const_prop"),
            "the sound rule still reports: {}",
            first.output
        );
        assert!(
            !first.output.contains("resource-limited"),
            "no batch was cancelled by its unsound predecessor: {}",
            first.output
        );
        // Exit-2 payloads are cached and replayed, so they must be a
        // pure function of the request — byte-identical on repeats.
        for _ in 0..3 {
            let again = execute(&verify_op(&both), &cfg, &Cancel::new());
            assert_eq!(again.output, first.output);
            assert_eq!(again.exit, first.exit);
        }
    }

    #[test]
    fn pre_tripped_cancel_reports_resource_limited_never_unsound() {
        let cancel = Cancel::new();
        cancel.trip();
        let r = execute(&verify_op(SUITE), &ExecConfig::default(), &cancel);
        assert_eq!(r.exit, EXIT_RESOURCE_LIMITED, "{}", r.output);
        assert_eq!(r.verdict, "resource-limited");
    }

    #[test]
    fn optimize_rewrites_and_is_deterministic() {
        let op = RequestOp::Optimize {
            program: PROGRAM.into(),
            passes: "const_prop".into(),
            rounds: 2,
        };
        let a = execute(&op, &ExecConfig::default(), &Cancel::new());
        assert_eq!(a.exit, 0, "{}", a.output);
        assert_eq!(a.verdict, "ok");
        assert!(a.output.contains("c := 2"), "{}", a.output);
        let b = execute(
            &op,
            &ExecConfig {
                jobs: 3,
                ..ExecConfig::default()
            },
            &Cancel::new(),
        );
        assert_eq!(a.output, b.output);
    }

    #[test]
    fn optimize_zero_timeout_is_resource_limited_not_cached() {
        let op = RequestOp::Optimize {
            program: PROGRAM.into(),
            passes: "all".into(),
            rounds: 2,
        };
        let r = execute(
            &op,
            &ExecConfig {
                timeout: Some(Duration::ZERO),
                ..ExecConfig::default()
            },
            &Cancel::new(),
        );
        assert_eq!(r.exit, EXIT_RESOURCE_LIMITED, "{}", r.output);
        assert!(
            !crate::cache::CachedResult::cacheable(r.exit),
            "budget-limited outcomes must never be cached"
        );
        // The printed program is still the (unoptimized, correct)
        // input — resilient semantics.
        assert!(r.output.contains("proc main"), "{}", r.output);
    }

    #[test]
    fn fingerprints_separate_proof_relevant_inputs_and_ignore_budgets() {
        let cfg = ExecConfig::default();
        let base = request_fingerprint(&verify_op(SUITE), &cfg);
        assert_eq!(base, request_fingerprint(&verify_op(SUITE), &cfg), "stable");
        assert_ne!(base, request_fingerprint(&verify_op(UNSOUND_SUITE), &cfg));
        assert_ne!(
            base,
            request_fingerprint(
                &RequestOp::Verify {
                    suite: Some(SUITE.into()),
                    include_buggy: true
                },
                &cfg
            )
        );
        assert_ne!(
            base,
            request_fingerprint(&RequestOp::Verify { suite: None, include_buggy: false }, &cfg)
        );
        // Limit tiers are proof-relevant.
        let mut capped = ExecConfig::default();
        for tier in &mut capped.policy.tiers {
            tier.max_splits = 1;
        }
        assert_ne!(base, request_fingerprint(&verify_op(SUITE), &capped));
        // Wall-clock budgets are not.
        let impatient = ExecConfig {
            timeout: Some(Duration::from_millis(1)),
            max_steps: Some(3),
            ..ExecConfig::default()
        };
        assert_eq!(base, request_fingerprint(&verify_op(SUITE), &impatient));
        // Optimize requests separate on program, passes, and rounds.
        let opt = |program: &str, passes: &str, rounds: u32| {
            request_fingerprint(
                &RequestOp::Optimize {
                    program: program.into(),
                    passes: passes.into(),
                    rounds,
                },
                &cfg,
            )
        };
        let o = opt(PROGRAM, "all", 4);
        assert_ne!(o, opt(PROGRAM, "all", 2));
        assert_ne!(o, opt(PROGRAM, "const_prop", 4));
        assert_ne!(o, opt("proc main(x) { return x; }", "all", 4));
        assert_ne!(o, base);
    }
}
