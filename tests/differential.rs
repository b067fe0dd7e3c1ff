//! Experiment E7: empirical validation of Theorems 1 and 2 — proven
//! optimizations never change the observable behaviour of randomly
//! generated programs, and (noninterference, §4.1) applying *any
//! subset* of a pattern's legal transformations is equally safe.

use cobalt::dsl::LabelEnv;
use cobalt::engine::{AnalyzedProc, Engine};
use cobalt::il::{
    generate, BaseExpr, EvalError, Expr, GenConfig, Interp, Lhs, OpKind, Program, Stmt, Value, Var,
};
use cobalt_support::prop::Config;
use cobalt_support::props;
use std::collections::BTreeSet;

/// A generated program whose result depends on every integer variable
/// of `main`. Generated programs almost always return a constant, so
/// comparing bare return values could see almost no miscompilation;
/// this adds each variable into the returned one just before the final
/// `return`. Variables that may hold a location — targets of `new` and
/// `&x`, their copies, and anything dereferenced — are left out, since
/// adding a location is a run-time error.
fn observable_generate(config: &GenConfig) -> Program {
    let mut program = generate(config);
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
                Stmt::New(x) | Stmt::Assign(Lhs::Var(x), Expr::AddrOf(_)) => {
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
    if locations.contains(&r) {
        return program;
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
    ints.sort();
    ints.dedup();
    let ret = main.stmts.pop().expect("the return matched above");
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

/// Runs both programs on `arg`; panics if the original returns a value
/// and the transformed one disagrees (the paper's notion of semantic
/// equivalence: whenever `main(v1)` returns `v2`, it still does).
fn check_equivalent(orig: &Program, new: &Program, arg: i64, context: &str) {
    let a = Interp::new(orig).with_fuel(200_000).run(arg);
    match a {
        Ok(v) => {
            let b = Interp::new(new).with_fuel(400_000).run(arg);
            match b {
                Ok(w) => assert_eq!(v, w, "{context}: result changed for arg {arg}"),
                Err(e) => panic!("{context}: original returned {v}, transformed failed: {e}"),
            }
        }
        Err(EvalError::Stuck { .. }) | Err(EvalError::OutOfFuel) => {}
        Err(other) => panic!("{context}: unexpected {other}"),
    }
}

props! {
    config = Config::with_cases(48);

    fn suite_preserves_semantics_on_random_programs(seed in 0u64..5_000, arg in -4i64..10) {
        let prog = observable_generate(&GenConfig::sized(30, seed));
        let engine = Engine::new(LabelEnv::standard());
        let (optimized, _) = engine
            .optimize_program(
                &prog,
                &cobalt::opts::all_analyses(),
                &cobalt::opts::default_pipeline(),
                3,
            )
            .unwrap();
        // The full registry (PRE included) is still sound when
        // round-robined — only unprofitable; exercise it too.
        let (all_opt, _) = engine
            .optimize_program(
                &prog,
                &cobalt::opts::all_analyses(),
                &cobalt::opts::all_optimizations(),
                2,
            )
            .unwrap();
        check_equivalent(&prog, &optimized, arg, "default pipeline");
        check_equivalent(&prog, &all_opt, arg, "full registry");
    }

    fn random_subsets_of_legal_sites_are_safe(
        seed in 0u64..2_000,
        mask in 0usize..256,
        arg in -2i64..6,
    ) {
        // Noninterference (paper §4.1): every subset Δ' ⊆ Δ yields a
        // semantically equivalent program.
        let prog = observable_generate(&GenConfig::sized(24, seed));
        let engine = Engine::new(LabelEnv::standard());
        for opt in [cobalt::opts::const_prop(), cobalt::opts::dae(), cobalt::opts::cse()] {
            let main = prog.main().unwrap().clone();
            let ap = AnalyzedProc::new(main).unwrap();
            let delta = engine.legal_sites(&ap, &opt).unwrap();
            if delta.is_empty() {
                continue;
            }
            let subset: Vec<_> = delta
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << (i % 8)) != 0)
                .map(|(_, s)| s.clone())
                .collect();
            let new_main = engine.apply_sites(&ap, &opt, &subset).unwrap();
            let new_prog = prog.with_proc_replaced(new_main);
            check_equivalent(&prog, &new_prog, arg, &format!("subset of {}", opt.name));
        }
    }

    fn recursive_dae_preserves_semantics(seed in 0u64..3_000, arg in -3i64..8) {
        // The §5.2 self-composition feature, exercised end to end.
        let prog = observable_generate(&GenConfig::sized(24, seed));
        let engine = Engine::new(LabelEnv::standard());
        let main = prog.main().unwrap();
        let (optimized, _) =
            cobalt::engine::apply_recursive(&engine, main, &cobalt::opts::dae()).unwrap();
        let new_prog = prog.with_proc_replaced(optimized);
        check_equivalent(&prog, &new_prog, arg, "recursive DAE");
    }

    fn pre_pipeline_preserves_semantics(seed in 0u64..3_000, arg in -3i64..8) {
        let prog = observable_generate(&GenConfig::sized(26, seed));
        let engine = Engine::new(LabelEnv::standard());
        let (optimized, _) = engine
            .optimize_program(&prog, &[], &cobalt::opts::pre_pipeline(), 3)
            .unwrap();
        check_equivalent(&prog, &optimized, arg, "PRE pipeline");
    }
}

#[test]
fn buggy_variant_fails_differentially_where_sound_suite_does_not() {
    // Sanity: the differential harness is strong enough to catch the §6
    // bug on its known counterexample.
    let prog = cobalt::opts::buggy::counterexample_program();
    let engine = Engine::new(LabelEnv::standard());
    let ap = AnalyzedProc::new(prog.main().unwrap().clone()).unwrap();
    let (bad, _) = engine
        .apply(&ap, &cobalt::opts::buggy::load_elim_no_alias())
        .unwrap();
    let bad_prog = Program::new(vec![bad]);
    let orig = Interp::new(&prog).run(0).unwrap();
    let new = Interp::new(&bad_prog).run(0).unwrap();
    assert_ne!(orig, new);
    assert_eq!(orig, Value::Int(9));
}

/// Guards the helper itself: the epilogue must add statements, or the
/// properties above would compare constants again.
#[test]
fn observable_generate_adds_an_epilogue() {
    let config = GenConfig::sized(30, 0);
    let len = |p: &Program| p.main().unwrap().stmts.len();
    assert!(len(&observable_generate(&config)) > len(&generate(&config)));
}
