//! Every input the workloads feed the program, generated from the
//! workload seed: the order rules are verified in, the program corpus,
//! the serve suites and the serve request order. The same seed gives
//! the same inputs; the program under test sees only these.

use cobalt_il::{
    generate, pretty_program, BaseExpr, Expr, GenConfig, Lhs, OpKind, Program, Stmt, Var,
};
use cobalt_support::rng::derive_seed;
use cobalt_support::Rng;
use std::collections::BTreeSet;

/// Independent random streams derived from one workload seed.
#[derive(Debug, Clone, Copy)]
enum Stream {
    RuleOrder = 1,
    Corpus = 2,
    WarmSet = 3,
    Requests = 4,
}

fn rng(seed: u64, stream: Stream, index: u64) -> Rng {
    Rng::seed_from_u64(derive_seed(derive_seed(seed, stream as u64), index))
}

/// The order a verify pass visits `n` rules in: a fresh permutation per
/// pass.
pub fn rule_order(seed: u64, pass: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    rng(seed, Stream::RuleOrder, pass).shuffle(&mut order);
    order
}

/// One program of the optimize corpus.
#[derive(Debug, Clone)]
pub struct CorpusProgram {
    pub program: Program,
    /// In the costly class: 160 statements, or several procedures.
    pub hard: bool,
}

/// Single-procedure sizes of the optimize corpus, one program each.
/// The engine's cost grows about quadratically with size: a
/// 160-statement program costs about seven 40-statement ones. Two of
/// 160 make the slowest class 2 programs in 9, so that p90 falls in the
/// middle of it rather than on its lowest samples.
pub const SINGLE_SIZES: [usize; 7] = [40, 60, 80, 100, 120, 160, 160];
/// Multi-procedure programs in the corpus: `main` of this many
/// statements calling three straight-line helpers.
pub const MULTI_PROGRAMS: usize = 2;
const MULTI_STMTS: usize = 80;

/// Makes every integer variable of `main` observable: before the final
/// `return r`, adds each of them into `r`. Generated programs mostly
/// return a constant, so without this the interpreter check could not
/// tell one optimized program from another. Variables that may hold a
/// location (targets of `new`, `&x`, copies of those, and anything
/// dereferenced) are left out.
fn observable(mut program: Program) -> Program {
    let Some(main) = program.procs.iter_mut().find(|p| p.name.as_str() == "main") else {
        return program;
    };
    let Some(Stmt::Return(r)) = main.stmts.last().cloned() else {
        return program;
    };
    let mut locations: BTreeSet<Var> = BTreeSet::new();
    loop {
        let before = locations.len();
        for s in &main.stmts {
            match s {
                Stmt::New(x) => {
                    locations.insert(x.clone());
                }
                Stmt::Assign(Lhs::Var(x), Expr::AddrOf(_)) => {
                    locations.insert(x.clone());
                }
                Stmt::Assign(Lhs::Var(x), Expr::Base(BaseExpr::Var(y)))
                    if locations.contains(y) =>
                {
                    locations.insert(x.clone());
                }
                Stmt::Assign(Lhs::Deref(p), e) => {
                    locations.insert(p.clone());
                    if let Expr::Deref(q) = e {
                        locations.insert(q.clone());
                    }
                }
                Stmt::Assign(_, Expr::Deref(p)) => {
                    locations.insert(p.clone());
                }
                _ => {}
            }
        }
        if locations.len() == before {
            break;
        }
    }
    let mut ints: Vec<Var> = main
        .stmts
        .iter()
        .filter_map(|s| match s {
            Stmt::Decl(x) => Some(x.clone()),
            _ => None,
        })
        .chain(std::iter::once(main.param.clone()))
        .filter(|x| *x != r && !locations.contains(x))
        .collect();
    ints.dedup();
    if locations.contains(&r) {
        return program;
    }
    let ret = main.stmts.pop().expect("the return checked above");
    for x in ints {
        main.stmts.push(Stmt::Assign(
            Lhs::Var(r.clone()),
            Expr::Op(
                OpKind::Add,
                vec![BaseExpr::Var(r.clone()), BaseExpr::Var(x)],
            ),
        ));
    }
    main.stmts.push(ret);
    program
}

/// Round `round` of the optimize corpus: one single-procedure program
/// of each of [`SINGLE_SIZES`] and [`MULTI_PROGRAMS`] multi-procedure
/// programs, all new each round, so that a run averages over many
/// programs of the same make-up.
pub fn corpus(seed: u64, round: u64) -> Vec<CorpusProgram> {
    let mut r = rng(seed, Stream::Corpus, round);
    let mut out = Vec::new();
    for &n in &SINGLE_SIZES {
        let cfg = GenConfig {
            num_helpers: 0,
            call_ratio: 0.0,
            ..GenConfig::sized(n, r.next_u64())
        };
        out.push(CorpusProgram {
            program: observable(generate(&cfg)),
            hard: n == 160,
        });
    }
    for _ in 0..MULTI_PROGRAMS {
        let cfg = GenConfig {
            num_helpers: 3,
            call_ratio: 0.1,
            ..GenConfig::sized(MULTI_STMTS, r.next_u64())
        };
        out.push(CorpusProgram {
            program: observable(generate(&cfg)),
            hard: true,
        });
    }
    out
}

/// Arguments every original and optimized program is run on.
pub const RUN_ARGS: [i64; 6] = [-7, -1, 0, 1, 2, 13];

/// Sound one-rule suites (`{name}` is replaced by the rule's name).
pub const SOUND_RULES: [&str; 7] = [
    "forward {name} {\n  stmt(Y := C)\n  followed by !mayDef(Y)\n  until X := Y => X := C\n  with witness eta(Y) == C\n}\n",
    "forward {name} {\n  stmt(Y := Z)\n  followed by !mayDef(Y) && !mayDef(Z)\n  until X := Y => X := Z\n  with witness eta(Y) == eta(Z)\n}\n",
    "forward {name} {\n  stmt(X := E) && unchanged(E)\n  followed by unchanged(E) && !mayDef(X)\n  until Y := E => Y := X\n  with witness eta(X) == eta(E)\n}\n",
    "forward {name} {\n  stmt(Y := C)\n  followed by !mayDef(Y)\n  until if Y goto I1 else I2 => if C goto I1 else I2\n  with witness eta(Y) == C\n}\n",
    "local {name} {\n  rewrite X := X => skip\n}\n",
    "local {name} {\n  rewrite if C goto I1 else I2 => if C goto I2 else I2\n  where C == 0\n}\n",
    "backward {name} {\n  (stmt(X := ...) || stmt(return ...)) && !mayUse(X)\n  preceded by !mayUse(X)\n  since X := E => skip\n  with witness old/X == new/X\n}\n",
];

/// Unsound one-rule suites: each must come back `unsound` (exit 2).
pub const UNSOUND_RULES: [&str; 2] = [
    // Guards the wrong variable: `Y` may be redefined in the region.
    "forward {name} {\n  stmt(Y := C)\n  followed by !mayDef(X)\n  until X := Y => X := C\n  with witness eta(Y) == C\n}\n",
    // Copy propagation that forgets that `Z` may change.
    "forward {name} {\n  stmt(Y := Z)\n  followed by !mayDef(Y)\n  until X := Y => X := Z\n  with witness eta(Y) == eta(Z)\n}\n",
];

/// What one serve request asks for, with its known answer class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ask {
    /// Verify a one-rule suite; `sound` is the known verdict.
    Suite { src: String, sound: bool },
    /// Verify the built-in registry with the §6 buggy variant included.
    Registry,
    /// Optimize an IL program (all passes, 3 rounds).
    Optimize { program: Program, src: String },
}

impl Ask {
    fn suite(template: &str, name: &str, sound: bool) -> Ask {
        Ask::Suite {
            src: template.replace("{name}", name),
            sound,
        }
    }

    fn optimize(program: Program) -> Ask {
        let src = pretty_program(&program);
        Ask::Optimize { program, src }
    }
}

/// Warm-set suites, programs, and requests per serve round.
pub const WARM_SUITES: usize = 12;
pub const WARM_PROGRAMS: usize = 6;
pub const ROUND: usize = 40;
/// Never-seen verify suites and optimize programs per round (10% and
/// 5% of [`ROUND`]); the rest are drawn from the warm set.
const COLD_SUITES: usize = 4;
const COLD_PROGRAMS: usize = 2;

fn small_program(r: &mut Rng) -> Program {
    let n = r.gen_range(16usize..=40);
    observable(generate(&GenConfig::sized(n, r.next_u64())))
}

/// The serve warm set: answered during set-up, then drawn with skew.
pub fn warm_set(seed: u64) -> Vec<Ask> {
    let mut r = rng(seed, Stream::WarmSet, 0);
    let mut asks = vec![Ask::Registry];
    for k in 0..WARM_SUITES {
        let name = format!("w{seed}_{k}");
        asks.push(if k % 4 == 3 {
            Ask::suite(r.choose::<&str>(&UNSOUND_RULES), &name, false)
        } else {
            Ask::suite(r.choose::<&str>(&SOUND_RULES), &name, true)
        });
    }
    for _ in 0..WARM_PROGRAMS {
        asks.push(Ask::optimize(small_program(&mut r)));
    }
    r.shuffle(&mut asks);
    asks
}

/// One serve request of a round: a warm-set index or a never-seen ask.
#[derive(Debug, Clone)]
pub enum Slot {
    Warm(usize),
    Cold(Ask),
}

/// Round `round` of the serve request order: [`ROUND`] requests, of
/// which 34 are skewed draws from a warm set of `warm` entries (weight
/// 1/(k+1) for the k-th) and 6 are never seen before.
pub fn serve_round(seed: u64, round: u64, warm: usize) -> Vec<Slot> {
    let mut r = rng(seed, Stream::Requests, round);
    let weights: Vec<f64> = (0..warm).map(|k| 1.0 / (k + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut slots = Vec::with_capacity(ROUND);
    for _ in 0..ROUND - COLD_SUITES - COLD_PROGRAMS {
        let mut x = r.gen_f64() * total;
        let k = weights
            .iter()
            .position(|w| {
                x -= w;
                x < 0.0
            })
            .unwrap_or(warm - 1);
        slots.push(Slot::Warm(k));
    }
    for i in 0..COLD_SUITES {
        let name = format!("c{seed}_{round}_{i}");
        // One never-seen suite in four is unsound.
        slots.push(Slot::Cold(if r.gen_bool(0.25) {
            Ask::suite(r.choose::<&str>(&UNSOUND_RULES), &name, false)
        } else {
            Ask::suite(r.choose::<&str>(&SOUND_RULES), &name, true)
        }));
    }
    for _ in 0..COLD_PROGRAMS {
        slots.push(Slot::Cold(Ask::optimize(small_program(&mut r))));
    }
    r.shuffle(&mut slots);
    slots
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let (a, b, c) = (corpus(5, 0), corpus(5, 0), corpus(6, 0));
        assert_eq!(a.len(), SINGLE_SIZES.len() + MULTI_PROGRAMS);
        assert!(a.iter().zip(&b).all(|(x, y)| x.program == y.program));
        assert!(a.iter().zip(&c).any(|(x, y)| x.program != y.program));
        assert_eq!(rule_order(5, 3, 14), rule_order(5, 3, 14));
        assert_ne!(warm_set(5), warm_set(6));
    }

    #[test]
    fn corpus_programs_compute_distinct_results() {
        let corpus = corpus(1, 0);
        let results: BTreeSet<String> = corpus
            .iter()
            .map(|p| format!("{:?}", crate::check::reference(&p.program)))
            .collect();
        assert!(results.len() > corpus.len() / 2, "{results:?}");
    }

    #[test]
    fn corpus_programs_validate() {
        for p in corpus(9, 0).into_iter().chain(corpus(9, 1)) {
            cobalt_il::validate(&p.program).unwrap();
        }
    }

    #[test]
    fn every_suite_template_parses() {
        for t in SOUND_RULES.iter().chain(&UNSOUND_RULES) {
            let suite = cobalt_dsl::parse_suite(&t.replace("{name}", "r1")).unwrap();
            assert_eq!(suite.optimizations.len() + suite.analyses.len(), 1, "{t}");
        }
    }

    #[test]
    fn rounds_have_the_stated_mix() {
        let round = serve_round(3, 0, 19);
        assert_eq!(round.len(), ROUND);
        let cold = round.iter().filter(|s| matches!(s, Slot::Cold(_))).count();
        assert_eq!(cold, COLD_SUITES + COLD_PROGRAMS);
    }
}
