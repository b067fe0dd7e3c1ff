//! Resumable-session integration tests: fingerprint invalidation,
//! byte-for-byte cache reuse, and escalation-state resume across the
//! journal (DESIGN.md §10).

use cobalt_dsl::{Guard, LabelEnv, Optimization};
use cobalt_logic::Limits;
use cobalt_support::journal::Journal;
use cobalt_verify::{ResumeMode, RetryPolicy, SemanticMeanings, Session, Verifier};
use std::path::PathBuf;

fn tmp_journal(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "cobalt_session_{}_{name}.cobj",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    path
}

fn verifier() -> Verifier {
    Verifier::new(LabelEnv::standard(), SemanticMeanings::standard())
}

/// All journal payloads currently on disk, as strings, keyed by the
/// rule name embedded in each record.
fn payloads_by_rule(path: &PathBuf) -> Vec<(String, String)> {
    let opened = Journal::open(path).expect("journal reopens");
    assert!(!opened.report.corrupted(), "{:?}", opened.report);
    opened
        .records
        .iter()
        .map(|r| {
            let text = String::from_utf8(r.clone()).expect("records are utf-8");
            let rule = text
                .split('\t')
                .find_map(|f| f.strip_prefix("rule="))
                .expect("record carries its rule")
                .to_string();
            (rule, text)
        })
        .collect()
}

/// Mutating one rule in the registry invalidates exactly that rule's
/// cache entries: on resume its obligations re-prove fresh, while every
/// other rule's outcomes are replayed — and their journal records are
/// carried over byte-for-byte.
#[test]
fn fingerprint_invalidation_is_per_rule_and_cache_reuse_is_byte_for_byte() {
    let path = tmp_journal("invalidation");
    let registry = cobalt_opts::all_optimizations();
    assert!(registry.len() >= 3, "need a real registry for this test");

    let mut session = Session::with_journal(verifier(), &path, ResumeMode::Resume).unwrap();
    for opt in &registry {
        let report = session.verify_optimization(opt).unwrap();
        assert!(report.all_proved(), "{}", report.summary());
        assert_eq!(report.cached_count(), 0, "cold run: nothing cached");
    }
    session.finish();
    let before = payloads_by_rule(&path);

    // Mutate one rule: conjoin a vacuous `true` onto its where-clause.
    // Semantically identical (it still proves), structurally a
    // different AST — exactly the kind of change a fingerprint must
    // catch.
    let mutated_name = registry[1].name.clone();
    let mutated_registry: Vec<Optimization> = registry
        .iter()
        .map(|opt| {
            if opt.name != mutated_name {
                return opt.clone();
            }
            let mut m = opt.clone();
            m.pattern.where_clause =
                Guard::and([m.pattern.where_clause.clone(), Guard::True]);
            m
        })
        .collect();

    let mut session = Session::with_journal(verifier(), &path, ResumeMode::Resume).unwrap();
    for opt in &mutated_registry {
        let report = session.verify_optimization(opt).unwrap();
        assert!(report.all_proved(), "{}", report.summary());
        if opt.name == mutated_name {
            assert_eq!(
                report.cached_count(),
                0,
                "{}: mutated rule must re-prove every obligation",
                opt.name
            );
            assert!(report.summary().contains("obligations proved"));
        } else {
            assert_eq!(
                report.cached_count(),
                report.outcomes.len(),
                "{}: untouched rule must be fully cached: {}",
                opt.name,
                report.summary()
            );
            assert!(
                report.summary().contains("cached"),
                "{}",
                report.summary()
            );
        }
    }
    session.finish();
    let after = payloads_by_rule(&path);

    // Byte-for-byte: every record of every *untouched* rule survives
    // compaction unchanged.
    for name in registry.iter().map(|o| &o.name).filter(|n| **n != mutated_name) {
        let olds: Vec<&String> = before.iter().filter(|(r, _)| r == name).map(|(_, t)| t).collect();
        let news: Vec<&String> = after.iter().filter(|(r, _)| r == name).map(|(_, t)| t).collect();
        assert!(!olds.is_empty(), "{name}: rule journaled in run 1");
        assert_eq!(olds, news, "{name}: cached records must be reused byte-for-byte");
    }
    // And the mutated rule's records were all replaced (fingerprints
    // differ, so the old ones were dropped at compaction).
    let old_mutated: Vec<&String> = before
        .iter()
        .filter(|(r, _)| *r == mutated_name)
        .map(|(_, t)| t)
        .collect();
    let new_mutated: Vec<&String> = after
        .iter()
        .filter(|(r, _)| *r == mutated_name)
        .map(|(_, t)| t)
        .collect();
    assert_eq!(old_mutated.len(), new_mutated.len());
    for (old, new) in old_mutated.iter().zip(&new_mutated) {
        assert_ne!(old, new, "{mutated_name}: records must carry new fingerprints");
    }
    std::fs::remove_file(&path).ok();
}

/// A fully-warm resume replays the entire suite from the journal: every
/// outcome is `cached`, no prover attempt is made this run.
#[test]
fn warm_resume_replays_everything_without_proving() {
    let path = tmp_journal("warm");
    let analyses = cobalt_opts::all_analyses();
    let opts = cobalt_opts::all_optimizations();

    let mut cold = Session::with_journal(verifier(), &path, ResumeMode::Resume).unwrap();
    for a in &analyses {
        assert!(cold.verify_analysis(a).unwrap().all_proved());
    }
    for o in &opts {
        assert!(cold.verify_optimization(o).unwrap().all_proved());
    }
    cold.finish();

    let mut warm = Session::with_journal(verifier(), &path, ResumeMode::Resume).unwrap();
    for a in &analyses {
        let report = warm.verify_analysis(a).unwrap();
        assert!(report.all_proved());
        assert!(report.outcomes.iter().all(|o| o.cached), "{}", report.summary());
        assert_eq!(report.fresh_proved_count(), 0);
    }
    for o in &opts {
        let report = warm.verify_optimization(o).unwrap();
        assert!(report.all_proved());
        assert!(report.outcomes.iter().all(|o| o.cached), "{}", report.summary());
    }
    assert!(warm.degraded().is_none());
    std::fs::remove_file(&path).ok();
}

/// `ResumeMode::Fresh` discards the cache: the run after a fresh run is
/// cold again until it re-journals.
#[test]
fn fresh_mode_discards_the_cache() {
    let path = tmp_journal("fresh");
    let opt = cobalt_opts::all_optimizations().remove(0);

    let mut first = Session::with_journal(verifier(), &path, ResumeMode::Resume).unwrap();
    assert_eq!(first.verify_optimization(&opt).unwrap().cached_count(), 0);
    first.finish();

    let mut fresh = Session::with_journal(verifier(), &path, ResumeMode::Fresh).unwrap();
    let report = fresh.verify_optimization(&opt).unwrap();
    assert_eq!(report.cached_count(), 0, "fresh session must not reuse");
    assert!(report.all_proved());
    std::fs::remove_file(&path).ok();
}

/// Escalation state resumes: an obligation whose first run exhausted
/// the (degenerate) tier 0 resumes at tier 1 — observable because the
/// resumed run proves it in exactly one attempt, while a cold run under
/// the same policy needs two.
#[test]
fn resource_limited_failures_resume_escalation_at_the_recorded_tier() {
    let path = tmp_journal("escalation");
    let zero = Limits {
        max_splits: 0,
        max_inst_rounds: 0,
        max_terms: 0,
        deadline: None,
    };
    let two_tier = RetryPolicy {
        tiers: vec![zero.clone(), Limits::default()],
        report_deadline: None,
    };
    let opt = cobalt_opts::all_optimizations().remove(0);

    // Control: cold run under the two-tier policy needs 2 attempts per
    // obligation (tier 0 is degenerate and always resource-limits).
    let control = verifier()
        .with_retry_policy(two_tier.clone())
        .verify_optimization(&opt)
        .unwrap();
    assert!(control.all_proved());
    assert!(control.outcomes.iter().all(|o| o.attempts == 2), "{:#?}", control.outcomes);

    // Run 1: emulate a kill mid-escalation, deterministically. The
    // policy must keep the same tier list (tiers are fingerprint
    // inputs; the report deadline is not), so the kill comes from a
    // 60ms report deadline plus an injected 150ms delay at the
    // obligation fault point: the first attempt (tier 0) starts well
    // inside the budget, the delay then outlives the deadline, and
    // escalation is cut off with tier=1 recorded for obligation 0
    // while the rest never start (attempts=0, tier=0).
    let mut killed = Session::with_journal(
        verifier().with_retry_policy(
            two_tier
                .clone()
                .with_report_deadline(std::time::Duration::from_millis(60)),
        ),
        &path,
        ResumeMode::Resume,
    )
    .unwrap();
    let report = cobalt_support::fault::with_faults("checker.obligation:delay_ms@150", || {
        killed.verify_optimization(&opt).unwrap()
    });
    killed.finish();
    assert!(!report.all_proved(), "the deadline must cut the run short");
    assert!(report.only_resource_limited_failures(), "{:#?}", report.outcomes);
    let first = &report.outcomes[0];
    assert_eq!(
        first.attempts, 1,
        "first obligation must have exhausted exactly tier 0: {first:#?}"
    );

    // Run 2: same tiers, no deadline, no fault. The first obligation
    // resumes at tier 1 (one attempt); obligations the deadline
    // prevented from ever starting (attempts=0, tier=0) run cold (two
    // attempts).
    let mut resumed =
        Session::with_journal(verifier().with_retry_policy(two_tier), &path, ResumeMode::Resume)
            .unwrap();
    let report = resumed.verify_optimization(&opt).unwrap();
    resumed.finish();
    assert!(report.all_proved(), "{}", report.summary());
    assert_eq!(
        report.outcomes[0].attempts, 1,
        "resumed obligation skips the exhausted tier: {:#?}",
        report.outcomes[0]
    );
    assert!(
        report.outcomes[1..].iter().all(|o| o.attempts == 2),
        "never-attempted obligations start cold: {:#?}",
        report.outcomes
    );
    std::fs::remove_file(&path).ok();
}

/// Sessions without a journal behave exactly like the bare verifier.
#[test]
fn sessionless_verification_is_transparent() {
    let opt = cobalt_opts::all_optimizations().remove(0);
    let bare = verifier().verify_optimization(&opt).unwrap();
    let mut session = Session::new(verifier());
    let via_session = session.verify_optimization(&opt).unwrap();
    session.finish();
    assert!(session.degraded().is_none());
    assert_eq!(bare.outcomes.len(), via_session.outcomes.len());
    for (a, b) in bare.outcomes.iter().zip(&via_session.outcomes) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.proved, b.proved);
        assert!(!b.cached);
    }
}

/// A warm re-run that replays every record in file order has nothing to
/// compact: finishing leaves the journal file as it was — same inode,
/// same bytes, no rewrite and no fsync.
#[cfg(unix)]
#[test]
fn warm_same_order_rerun_leaves_the_journal_untouched() {
    use std::os::unix::fs::MetadataExt;
    let path = tmp_journal("untouched");
    let opts: Vec<Optimization> = cobalt_opts::all_optimizations()
        .into_iter()
        .take(3)
        .collect();
    let run = || {
        let mut session = Session::with_journal(verifier(), &path, ResumeMode::Resume).unwrap();
        for opt in &opts {
            assert!(session.verify_optimization(opt).unwrap().all_proved());
        }
        session.finish();
        assert!(session.degraded().is_none());
        let meta = std::fs::metadata(&path).unwrap();
        (meta.ino(), std::fs::read(&path).unwrap())
    };
    let cold = run();
    let warm = run();
    assert_eq!(warm, cold, "a warm same-order re-run rewrote the journal");
    std::fs::remove_file(&path).ok();
}
