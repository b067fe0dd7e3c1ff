//! Crash-safe, parallel optimization sessions: an [`OptimizeSession`]
//! wraps an [`Engine`] and an optional persistent fixpoint journal so
//! that a killed `cobalt optimize --journal` run resumes *warm* —
//! procedures whose pipeline already completed cleanly are replayed
//! from the journal as cached instead of being re-optimized — and runs
//! per-procedure pipelines on the shared worker pool
//! (`cobalt optimize --jobs N`). See `DESIGN.md` §13.
//!
//! # Fingerprints
//!
//! A journaled procedure result is only reused when its **content
//! fingerprint** matches: an FNV-64 hash over the input procedure's
//! pretty-printed body, every pure analysis and optimization of the
//! pipeline (their full `Debug` AST renderings, in order), the round
//! cap, the lint-prepass switch, and the budget's step cap. Any
//! semantic change to what the pipeline would compute invalidates the
//! entry. The wall-clock deadline is deliberately *not* an input: it
//! bounds a run, not a result — a procedure optimized under one
//! deadline is byte-identical under another (a procedure whose run was
//! *degraded* by any budget is never journaled at all).
//!
//! # Determinism
//!
//! Results are delivered by `pool::run_ordered` in procedure order, so
//! optimized-program bytes, pipeline reports, and journal bytes are
//! byte-identical at any `--jobs` count. Journal records contain
//! nothing run-relative (no timestamps, no worker ids).
//!
//! # Degradation
//!
//! Journal trouble — open failure, lock contention, a write error, an
//! injected `engine.journal` fault — switches the session to
//! unjournaled optimization: output, reports, and exit codes are
//! unchanged, only warmth is lost, and [`OptimizeSession::degraded`]
//! says why.

use crate::engine::Engine;
use crate::resilient::{FailureKind, PassFailure, PipelineReport};
use cobalt_dsl::{Optimization, PureAnalysis};
use cobalt_il::{parse_program, pretty_proc, Proc, Program};
use cobalt_support::journal::{Fnv64, Keep, LoadReport, ResumeMode, Store, DEFAULT_LOCK_WAIT};
use cobalt_support::pool::{self, Cancel, TaskResult};
use std::path::Path;

/// Version tag mixed into every fingerprint; bump on any change to the
/// fingerprint inputs or the record format so stale journals invalidate
/// wholesale instead of aliasing.
const FINGERPRINT_VERSION: &str = "cobalt-engine-fp-v1";

/// Stable content fingerprint of one procedure's optimization pipeline.
///
/// Inputs: the fingerprint version, the pretty-printed input procedure,
/// the `Debug` rendering of every pure analysis and optimization (in
/// pipeline order), `max_rounds`, the lint-prepass switch, and the
/// budget step cap. Nothing run-relative (deadline, jobs, paths).
pub fn fingerprint_proc(
    proc: &Proc,
    analyses: &[PureAnalysis],
    opts: &[Optimization],
    max_rounds: usize,
    lint_prepass: bool,
    max_steps: Option<u64>,
) -> u64 {
    let mut h = Fnv64::new();
    h.write(FINGERPRINT_VERSION.as_bytes()).write(b"\0");
    h.write(pretty_proc(proc).as_bytes()).write(b"\0");
    for a in analyses {
        h.write(format!("{a:?}").as_bytes()).write(b"\0");
    }
    h.write(b"|\0");
    for o in opts {
        h.write(format!("{o:?}").as_bytes()).write(b"\0");
    }
    h.write(format!("rounds={max_rounds};lint={lint_prepass};steps={max_steps:?}").as_bytes());
    h.finish()
}

cobalt_support::journal_record! {
    /// One journaled procedure outcome. Only *clean* pipelines (no
    /// quarantined passes) are journaled, so a cached replay never hides
    /// a degradation note.
    #[derive(Debug, Clone)]
    struct JournalEntry {
        proc: String = "proc",
        applied: usize = "applied",
        rounds: usize = "rounds",
        /// The optimized procedure, pretty-printed (re-parseable — the
        /// round trip is pinned by the IL tests).
        body: String = "body",
    }
}

/// A resumable, parallel optimization session. See the
/// [module docs](self).
#[derive(Debug)]
pub struct OptimizeSession {
    engine: Engine,
    jobs: usize,
    store: Store<JournalEntry>,
}

impl OptimizeSession {
    /// A session without a journal, running procedures sequentially:
    /// optimization behaves exactly like
    /// [`Engine::optimize_program_resilient`].
    pub fn new(engine: Engine) -> OptimizeSession {
        OptimizeSession {
            engine,
            jobs: 1,
            store: Store::in_memory(),
        }
    }

    /// Runs per-procedure pipelines on up to `jobs` pool workers.
    /// Output bytes are identical at any jobs count; only wall-clock
    /// changes.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> OptimizeSession {
        self.jobs = jobs.max(1);
        self
    }

    /// Attaches (creating if absent) the fixpoint journal at `path`
    /// under its advisory exclusive lock and builds the resume cache
    /// from its intact records.
    ///
    /// **Never fails**: any trouble — unopenable path, lock contention,
    /// an injected `engine.journal` fault — degrades the session to
    /// unjournaled optimization with output and exit codes unchanged
    /// ([`degraded`](Self::degraded) says why). This is deliberately
    /// laxer than the verification session's typed open error: a
    /// missing optimization cache must never block compilation.
    #[must_use]
    pub fn with_journal(mut self, path: impl AsRef<Path>, mode: ResumeMode) -> OptimizeSession {
        self.store = Store::open_or_degrade(
            path.as_ref(),
            mode,
            DEFAULT_LOCK_WAIT,
            Some("engine.journal"),
        );
        self
    }

    /// Why the session is running unjournaled, if it is.
    pub fn degraded(&self) -> Option<&str> {
        self.store.degraded()
    }

    /// What the journal loader found on disk (corruption statistics).
    pub fn load_report(&self) -> &LoadReport {
        self.store.load_report()
    }

    /// Whether a journal is attached and healthy.
    pub fn is_journaled(&self) -> bool {
        self.store.is_journaled()
    }

    /// Optimizes every procedure of `program` with per-pass fault
    /// isolation, replaying journaled procedures as cached and running
    /// the rest on the worker pool. The merged [`PipelineReport`]
    /// counts replayed procedures in
    /// [`cached`](PipelineReport::cached).
    ///
    /// Never fails: budget exhaustion, pass errors, panics, and journal
    /// trouble all degrade (the report says how).
    pub fn optimize_program(
        &mut self,
        program: &Program,
        analyses: &[PureAnalysis],
        opts: &[Optimization],
        max_rounds: usize,
    ) -> (Program, PipelineReport) {
        let mut out = program.clone();
        let mut report = PipelineReport::default();
        let max_steps = self.engine.budget().max_steps();
        let lint = self.engine.lint_prepass_enabled();
        // This session's records, one slot per procedure: replayed hits
        // now, clean fresh results in the delivery sink. Kept in
        // procedure order, so compaction bytes are deterministic at any
        // jobs count.
        let mut kept: Vec<Option<u64>> = vec![None; program.procs.len()];
        let mut tasks: Vec<(usize, u64, Proc)> = Vec::new();
        for (i, proc) in program.procs.iter().enumerate() {
            let fp = fingerprint_proc(proc, analyses, opts, max_rounds, lint, max_steps);
            if let Some((optimized, rep)) = self.store.get(fp).and_then(|e| replay(proc, e)) {
                out = out.with_proc_replaced(optimized);
                report.absorb(rep);
                kept[i] = Some(fp);
                continue;
            }
            tasks.push((i, fp, proc.clone()));
        }

        if !tasks.is_empty() {
            // The fleet runs on a child of the caller's token: a caller
            // trip still stands every worker down, but the fleet's own
            // deadline trip below never writes the caller's token.
            let cancel = self
                .engine
                .budget()
                .cancel()
                .map_or_else(Cancel::new, Cancel::child);
            let meta: Vec<(usize, u64, String)> = tasks
                .iter()
                .map(|(i, fp, p)| (*i, *fp, p.name.to_string()))
                .collect();
            let engine = self.engine.clone();
            let store = &mut self.store;
            pool::run_ordered(
                self.jobs,
                tasks,
                &cancel,
                |_idx, (_, _, proc), cancel| {
                    let budget = engine.budget().fork().with_cancel(cancel.clone());
                    let worker = engine.clone().with_budget(budget);
                    let (optimized, rep) =
                        worker.optimize_proc_resilient(proc, analyses, opts, max_rounds);
                    // A blown wall-clock deadline is fatal to the whole
                    // run (the deadline is absolute and shared): cancel
                    // the fleet instead of letting every remaining
                    // procedure rediscover it the slow way.
                    if rep.failures.iter().any(|f| {
                        f.kind == FailureKind::ResourceLimited && f.reason.contains("deadline")
                    }) {
                        cancel.trip();
                    }
                    (optimized, rep)
                },
                |idx, result| {
                    let (i, fp, name) = &meta[idx];
                    match result {
                        TaskResult::Done((optimized, rep)) => {
                            if rep.failures.is_empty() && store.is_journaled() {
                                let entry = JournalEntry {
                                    proc: name.clone(),
                                    applied: rep.applied,
                                    rounds: rep.rounds,
                                    body: pretty_proc(&optimized),
                                };
                                store.append(*fp, entry);
                                kept[*i] = Some(*fp);
                            }
                            out = out.with_proc_replaced(optimized);
                            report.absorb(rep);
                        }
                        TaskResult::Panicked(msg) => {
                            // The supervised retry already happened; a
                            // procedure that dies twice is quarantined
                            // whole (its input text stays in `out`).
                            report.absorb(PipelineReport {
                                failures: vec![PassFailure {
                                    kind: FailureKind::Panic,
                                    proc: name.clone(),
                                    pass: "pipeline".into(),
                                    round: 0,
                                    reason: format!("panicked: {msg}"),
                                }],
                                ..PipelineReport::default()
                            });
                        }
                    }
                },
            );
        }
        for fp in kept.into_iter().flatten() {
            self.store.keep(fp);
        }
        (out, report)
    }

    /// Compacts the journal down to this session's outcomes and
    /// releases it. Compaction failure degrades (the appended records
    /// are still on disk and loadable); it never affects results.
    pub fn finish(&mut self) {
        self.store.finish(Keep::Session);
    }
}

/// Replays a cached entry for `proc`: parses the stored optimized body
/// and synthesizes the clean report. `None` (fall through to a fresh
/// run) if the record does not actually describe this procedure or its
/// body no longer parses.
fn replay(proc: &Proc, entry: &JournalEntry) -> Option<(Proc, PipelineReport)> {
    if entry.proc != proc.name.to_string() {
        return None;
    }
    let parsed = parse_program(&entry.body).ok()?;
    let replayed = parsed.procs.into_iter().next()?;
    if replayed.name != proc.name {
        return None;
    }
    let report = PipelineReport {
        applied: entry.applied,
        rounds: entry.rounds,
        cached: 1,
        failures: Vec::new(),
    };
    Some((replayed, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobalt_dsl::LabelEnv;

    fn proc_of(src: &str) -> Proc {
        parse_program(src).unwrap().procs.remove(0)
    }

    #[test]
    fn fingerprint_covers_pipeline_inputs() {
        let p = proc_of("proc main(x) { a := 2; return a; }");
        let q = proc_of("proc main(x) { a := 3; return a; }");
        let base = fingerprint_proc(&p, &[], &[], 5, false, None);
        assert_ne!(base, fingerprint_proc(&q, &[], &[], 5, false, None));
        assert_ne!(base, fingerprint_proc(&p, &[], &[], 6, false, None));
        assert_ne!(base, fingerprint_proc(&p, &[], &[], 5, true, None));
        assert_ne!(base, fingerprint_proc(&p, &[], &[], 5, false, Some(100)));
        assert_eq!(base, fingerprint_proc(&p, &[], &[], 5, false, None));
    }

    #[test]
    fn replay_rejects_name_mismatch_and_bad_bodies() {
        let p = proc_of("proc main(x) { return x; }");
        let good = JournalEntry {
            proc: "main".into(),
            applied: 0,
            rounds: 1,
            body: "proc main(x) { return x; }".into(),
        };
        assert!(replay(&p, &good).is_some());
        let mut wrong_name = good.clone();
        wrong_name.proc = "other".into();
        assert!(replay(&p, &wrong_name).is_none());
        let mut bad_body = good;
        bad_body.body = "not a program".into();
        assert!(replay(&p, &bad_body).is_none());
    }

    #[test]
    fn unjournaled_session_matches_resilient_driver() {
        let prog = parse_program("proc main(x) { a := 2; b := a; return b; }").unwrap();
        let engine = Engine::new(LabelEnv::standard());
        let (direct, direct_report) = engine.optimize_program_resilient(&prog, &[], &[], 5);
        let mut session = OptimizeSession::new(engine);
        let (out, report) = session.optimize_program(&prog, &[], &[], 5);
        assert_eq!(
            cobalt_il::pretty_program(&direct),
            cobalt_il::pretty_program(&out)
        );
        assert_eq!(report.applied, direct_report.applied);
        assert_eq!(report.cached, 0);
        assert!(!session.is_journaled());
    }
}
