//! `optimize-generated`: the execution engine (`OptimizeSession`,
//! default pipeline, 3 rounds, one job) over seeded generated programs.

use crate::inputs::{self, CorpusProgram};
use crate::stats::{ms_since, Measured, RunResult};
use crate::verify::MAX_ERRORS;
use crate::{check, Args};
use cobalt_dsl::{LabelEnv, Optimization, PureAnalysis};
use cobalt_engine::{Engine, OptimizeSession, PipelineReport};
use cobalt_il::Program;
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Pipeline rounds, as `cobalt optimize` runs them by default.
pub const ROUNDS: usize = 3;

/// `tail_ms` quantile: each round optimizes 9 programs, two of them of
/// 160 statements, so p90 lands in the middle of those programs' runs.
const TAIL_Q: f64 = 0.9;

/// The passes `cobalt optimize` runs: every analysis, then the default
/// pipeline.
pub struct Passes {
    pub analyses: Vec<PureAnalysis>,
    pub pipeline: Vec<Optimization>,
}

impl Passes {
    pub fn standard() -> Passes {
        Passes {
            analyses: cobalt_opts::all_analyses(),
            pipeline: cobalt_opts::default_pipeline(),
        }
    }

    /// `cobalt optimize --jobs 1` on one program.
    pub fn optimize(&self, program: &Program) -> (Program, PipelineReport) {
        let mut session = OptimizeSession::new(Engine::new(LabelEnv::standard())).with_jobs(1);
        let out = session.optimize_program(program, &self.analyses, &self.pipeline, ROUNDS);
        session.finish();
        out
    }
}

/// Source statements of a program (the unit of `work_per_s`).
pub fn statements(program: &Program) -> usize {
    program.procs.iter().map(|p| p.stmts.len()).sum()
}

/// An optimized program against its original: no pass failed, and it
/// returns what the original returns wherever the original returns.
pub fn check_optimized(
    original: &Program,
    optimized: &Program,
    report: &PipelineReport,
) -> Result<(), String> {
    if report.degraded() {
        return Err(report.summary());
    }
    check::equivalent(&check::reference(original), optimized).map(drop)
}

pub fn workload(args: &Args) -> Result<RunResult, String> {
    let mut m = Measured::calibrated();
    let mut built = None;
    for _ in 0..SETUPS {
        // Generate the first round and warm up on its smallest program.
        let t = Instant::now();
        let (passes, corpus) = (Passes::standard(), inputs::corpus(args.seed, 0));
        let first = &corpus[0].program;
        let (out, report) = passes.optimize(first);
        check_optimized(first, &out, &report).map_err(|e| format!("warm-up: {e}"))?;
        m.setup_s.push(t.elapsed().as_secs_f64());
        built = Some((passes, corpus));
    }
    let (passes, mut corpus) = built.expect("at least one set-up");
    m.start_window(corpus.len());
    let start = Instant::now();
    let mut round = 0;
    while start.elapsed() < Duration::from_secs_f64(args.seconds) {
        if round > 0 {
            corpus = inputs::corpus(args.seed, round);
        }
        for (i, CorpusProgram { program, hard }) in corpus.iter().enumerate() {
            let t = Instant::now();
            let (out, report) = passes.optimize(program);
            let ms = ms_since(t);
            m.busy_s += ms / 1e3;
            if report.degraded() {
                eprintln!("perfbench: round {round} program {i}: {}", report.summary());
                m.op(round, None, *hard);
                continue;
            }
            m.work += statements(program) as f64;
            m.op(round, Some(ms), *hard);
            if let Err(e) = check_optimized(program, &out, &report) {
                if m.errors.len() < MAX_ERRORS {
                    m.errors.push(format!("round {round} program {i}: {e}"));
                }
            }
        }
        round += 1;
        m.end_round();
    }
    Ok(m.finish(TAIL_Q))
}
