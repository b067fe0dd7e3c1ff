//! Correctness checks. Each compares an output with an answer computed
//! apart from the code path that produced it: the paper's known
//! verdicts, the `cobalt-il` interpreter run on the original program,
//! and `exec::execute` run in-process on the same request.

use cobalt_il::{Interp, Program, Stmt, Value};
use cobalt_serve::exec::ExecResult;
use cobalt_serve::Response;
use cobalt_verify::Report;

/// Interpreter step budget for the equivalence runs; generated programs
/// only branch forward, so this is never the limit.
const FUEL: u64 = 100_000;

/// A verify report against the rule's known answer: a sound rule
/// proves every obligation; the unsound one is rejected with an open
/// branch (evidence of unsoundness), not merely a resource limit.
pub fn verdict(report: &Report, sound: bool) -> Result<(), String> {
    let open_branch = report
        .outcomes
        .iter()
        .any(|o| !o.proved && !o.resource_limited);
    match (sound, report.all_proved()) {
        (true, true) => Ok(()),
        (true, false) => Err(format!(
            "{}: a sound rule was not proved: {:?}",
            report.name,
            report.failures()
        )),
        (false, true) => Err(format!("{}: an unsound rule was proved", report.name)),
        (false, false) if open_branch => Ok(()),
        (false, false) => Err(format!(
            "{}: an unsound rule was rejected only by a resource limit",
            report.name
        )),
    }
}

/// A warm report: every obligation proved and replayed from the journal.
pub fn replayed(report: &Report) -> Result<(), String> {
    verdict(report, true)?;
    match report.outcomes.iter().find(|o| !o.cached) {
        Some(o) => Err(format!(
            "{}: {} was not served from the journal",
            report.name, o.id
        )),
        None => Ok(()),
    }
}

/// Result of `main(arg)` and the non-`skip` statements executed.
pub fn run(program: &Program, arg: i64) -> (Option<Value>, u64) {
    let (trace, result) = Interp::new(program).with_fuel(FUEL).run_traced(arg);
    let steps = trace
        .iter()
        .filter(|e| !matches!(e.stmt, Some(Stmt::Skip) | None))
        .count() as u64;
    (result.ok(), steps)
}

/// The originals' results on [`crate::inputs::RUN_ARGS`]: `None` where
/// the original faults.
pub fn reference(program: &Program) -> Vec<Option<Value>> {
    crate::inputs::RUN_ARGS
        .iter()
        .map(|&a| run(program, a).0)
        .collect()
}

/// An optimized program returns what the original returns, wherever
/// the original returns. Gives the non-`skip` steps it executed there.
pub fn equivalent(reference: &[Option<Value>], optimized: &Program) -> Result<u64, String> {
    let mut steps = 0;
    for (&arg, want) in crate::inputs::RUN_ARGS.iter().zip(reference) {
        let Some(want) = want else { continue };
        let (got, n) = run(optimized, arg);
        if got != Some(*want) {
            return Err(format!("main({arg}) returned {got:?}, the original {want}"));
        }
        steps += n;
    }
    Ok(steps)
}

/// Non-`skip` statements of a program.
pub fn code_size(program: &Program) -> u64 {
    program
        .procs
        .iter()
        .flat_map(|p| &p.stmts)
        .filter(|s| !matches!(s, Stmt::Skip))
        .count() as u64
}

/// What a serve answer is compared by: exit code, verdict, and the
/// payload's length and FNV-1a hash. FNV-1a maps any one-byte change to
/// a different hash (each step is a bijection of the state), so a
/// changed byte is always caught.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    exit: u8,
    verdict: String,
    len: usize,
    hash: u64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

impl Digest {
    fn new(exit: u8, verdict: &str, output: &str) -> Digest {
        Digest {
            exit,
            verdict: verdict.to_string(),
            len: output.len(),
            hash: fnv1a(output.as_bytes()),
        }
    }

    /// A daemon response (status `ok`: other statuses are failures).
    pub fn of_response(r: &Response) -> Digest {
        Digest::new(r.exit, &r.verdict, &r.output)
    }

    /// `exec::execute` run in-process on the same request.
    pub fn of_exec(e: &ExecResult) -> Digest {
        Digest::new(e.exit, &e.verdict, &e.output)
    }
}

/// A daemon answer against the in-process one: exit code, verdict and
/// payload bytes equal.
pub fn payload(got: &Digest, want: &Digest) -> Result<(), String> {
    if (got.exit, &got.verdict) != (want.exit, &want.verdict) {
        return Err(format!(
            "exit {} `{}`, in-process {} `{}`",
            got.exit, got.verdict, want.exit, want.verdict
        ));
    }
    if (got.len, got.hash) != (want.len, want.hash) {
        return Err("payload differs from the in-process result".into());
    }
    Ok(())
}

/// The program an optimize payload carries (its `//` header lines
/// dropped).
pub fn optimized_program(output: &str) -> Result<Program, String> {
    let body: String = output
        .lines()
        .filter(|l| !l.starts_with("//"))
        .collect::<Vec<_>>()
        .join("\n");
    cobalt_il::parse_program(&body).map_err(|e| format!("optimize payload does not parse: {e}"))
}

#[cfg(test)]
mod tests {
    //! Each check must reject a planted wrong answer.
    use super::*;
    use crate::inputs;
    use cobalt_dsl::LabelEnv;
    use cobalt_serve::exec::{execute, ExecConfig};
    use cobalt_serve::{RequestOp, ServedFrom};
    use cobalt_support::pool::Cancel;
    use cobalt_verify::{SemanticMeanings, Verifier};

    fn verifier() -> Verifier {
        Verifier::new(LabelEnv::standard(), SemanticMeanings::standard())
    }

    #[test]
    fn verdict_rejects_the_buggy_rule_expected_to_prove() {
        let report = verifier()
            .verify_optimization(&cobalt_opts::buggy::load_elim_no_alias())
            .unwrap();
        assert!(verdict(&report, false).is_ok());
        assert!(
            verdict(&report, true).is_err(),
            "planted: §6 rule expected sound"
        );
        let sound = verifier().verify_optimization(&cobalt_opts::cse()).unwrap();
        assert!(verdict(&sound, true).is_ok());
        assert!(
            verdict(&sound, false).is_err(),
            "planted: sound rule expected unsound"
        );
    }

    #[test]
    fn verdict_rejects_a_resource_limited_rejection() {
        let starved = verifier().with_limits(cobalt_logic::Limits {
            max_splits: 0,
            ..cobalt_logic::Limits::default()
        });
        let report = starved
            .verify_optimization(&cobalt_opts::buggy::load_elim_no_alias())
            .unwrap();
        assert!(!report.all_proved());
        assert!(verdict(&report, false).is_err());
    }

    #[test]
    fn equivalence_rejects_a_swapped_program() {
        let corpus = inputs::corpus(1, 0);
        let (a, b) = (&corpus[0].program, &corpus[1].program);
        let reference = reference(a);
        assert!(equivalent(&reference, a).is_ok());
        assert!(
            equivalent(&reference, b).is_err(),
            "planted: another program"
        );
    }

    #[test]
    fn payload_rejects_one_changed_byte() {
        let op = RequestOp::Optimize {
            program: "proc main(x) { decl a; decl c; a := 2; c := a; return c; }".into(),
            passes: "all".into(),
            rounds: 3,
        };
        let want = execute(&op, &ExecConfig::default(), &Cancel::new());
        let good = Response::ok(
            "r",
            want.exit,
            &want.verdict,
            ServedFrom::Fresh,
            want.output.clone(),
        );
        let want_digest = Digest::of_exec(&want);
        assert!(payload(&Digest::of_response(&good), &want_digest).is_ok());
        for i in [0, want.output.len() / 2, want.output.len() - 1] {
            let mut bytes = want.output.clone().into_bytes();
            bytes[i] = if bytes[i] == b'1' { b'2' } else { b'1' };
            let bad = Response {
                output: String::from_utf8(bytes).unwrap(),
                ..good.clone()
            };
            let got = Digest::of_response(&bad);
            assert!(
                payload(&got, &want_digest).is_err(),
                "planted: byte {i} changed"
            );
        }
        let program = optimized_program(&good.output).unwrap();
        assert_eq!(
            cobalt_il::Interp::new(&program).run(0).unwrap(),
            Value::Int(2)
        );
    }
}
