//! Golden bytes of the `v1` journal records (DESIGN.md §10).
//!
//! One record of each store — a verification obligation outcome, an
//! engine procedure result and a serve cached response — is pinned as
//! literal bytes, both ways: what a fresh run writes, and what a
//! resumed run replays from a hand-placed record. A whole journal file
//! written by an earlier build (`tests/fixtures/verify_const_prop_v1.cobj`)
//! must still reopen and replay as cached. A change to a field, its
//! order, an escape or a fingerprint input fails here.

use cobalt::dsl::LabelEnv;
use cobalt::engine::{Engine, OptimizeSession};
use cobalt::il::{parse_program, pretty_program};
use cobalt::serve::{
    request_with_retry, ClientConfig, Request, RequestOp, Response, ServeConfig, ServedFrom,
    Server,
};
use cobalt::verify::{ResumeMode, SemanticMeanings, Session, Verifier};
use cobalt_support::journal::Journal;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The first obligation of `const_prop`, proved on the first attempt.
const VERIFY_RECORD: &str = "v1\tfp=b60179ce9076c564\trule=const_prop\tid=F1/assign_const\tproved=1\trl=0\tattempts=1\tesc=0\ttier=1\telapsed_us=214\tdetail=";

/// `PROGRAM`'s `main` after `const_prop` and `dae`.
const ENGINE_RECORD: &str = "v1\tfp=75665e98999a3101\tproc=main\tapplied=2\trounds=2\tbody=proc main(x) {\\n    /* 0 */ decl a;\\n    /* 1 */ skip;\\n    /* 2 */ b := 2;\\n    /* 3 */ return b;\\n}\\n";

/// The daemon's answer to `optimize_request()`.
const SERVE_RECORD: &str = "v1\tfp=6d9f00dee2a88257\top=optimize\texit=0\tverdict=ok\toutput=// 2 rewrites in 2 rounds\\nproc main(x) {\\n    /* 0 */ decl a;\\n    /* 1 */ skip;\\n    /* 2 */ b := 2;\\n    /* 3 */ return b;\\n}\\n";

const PROGRAM: &str = "proc main(x) { decl a; a := 2; b := a; return b; }";

fn scratch(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "cobalt_golden_{}_{tag}.cobj",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    path
}

fn records(path: &Path) -> Vec<String> {
    let opened = Journal::open(path).expect("journal reopens");
    assert!(!opened.report.corrupted(), "{:?}", opened.report);
    opened
        .records
        .into_iter()
        .map(|r| String::from_utf8(r).expect("records are utf-8"))
        .collect()
}

/// A journal holding exactly `payloads`, written through the raw
/// journal so the store under test only ever reads them.
fn journal_of(path: &Path, payloads: &[&str]) {
    let mut opened = Journal::open(path).expect("journal opens");
    for p in payloads {
        opened.journal.append(p.as_bytes()).expect("append");
    }
    opened.journal.sync().expect("sync");
}

fn with_field(record: &str, key: &str, value: &str) -> String {
    record
        .split('\t')
        .map(|f| match f.split_once('=') {
            Some((k, _)) if k == key => format!("{k}={value}"),
            _ => f.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\t")
}

fn verifier() -> Verifier {
    Verifier::new(LabelEnv::standard(), SemanticMeanings::standard())
}

#[test]
fn verify_record_bytes_are_pinned() {
    let path = scratch("verify");
    let mut cold = Session::with_journal(verifier(), &path, ResumeMode::Fresh).unwrap();
    assert!(cold
        .verify_optimization(&cobalt::opts::const_prop())
        .unwrap()
        .all_proved());
    cold.finish();
    let written = records(&path);
    // Everything but the measured time is deterministic.
    assert_eq!(with_field(&written[0], "elapsed_us", "214"), VERIFY_RECORD);

    // Replay: a hand-placed record is trusted as the cached outcome and
    // carried into the compacted journal byte for byte.
    let placed = with_field(VERIFY_RECORD, "elapsed_us", "4242");
    std::fs::remove_file(&path).ok();
    journal_of(&path, &[&placed]);
    let mut warm = Session::with_journal(verifier(), &path, ResumeMode::Resume).unwrap();
    let report = warm
        .verify_optimization(&cobalt::opts::const_prop())
        .unwrap();
    warm.finish();
    assert!(report.all_proved(), "{}", report.summary());
    assert!(report.outcomes[0].cached);
    assert_eq!(report.outcomes[0].elapsed, Duration::from_micros(4242));
    assert_eq!(report.cached_count(), 1, "{}", report.summary());
    assert_eq!(records(&path)[0], placed);
    std::fs::remove_file(&path).ok();
}

#[test]
fn engine_record_bytes_are_pinned() {
    let prog = parse_program(PROGRAM).unwrap();
    let opts = [cobalt::opts::const_prop(), cobalt::opts::dae()];
    let session = |path: &Path, mode| {
        OptimizeSession::new(Engine::new(LabelEnv::standard())).with_journal(path, mode)
    };
    let path = scratch("engine");
    let mut cold = session(&path, ResumeMode::Fresh);
    let (optimized, report) = cold.optimize_program(&prog, &[], &opts, 5);
    cold.finish();
    assert_eq!(report.cached, 0);
    assert_eq!(records(&path), vec![ENGINE_RECORD.to_string()]);

    // Replay: the placed record's counters come back, not a rerun's.
    let placed = with_field(ENGINE_RECORD, "applied", "7");
    std::fs::remove_file(&path).ok();
    journal_of(&path, &[&placed]);
    let mut warm = session(&path, ResumeMode::Resume);
    let (replayed, report) = warm.optimize_program(&prog, &[], &opts, 5);
    warm.finish();
    assert_eq!((report.cached, report.applied), (1, 7), "{report:?}");
    assert_eq!(pretty_program(&replayed), pretty_program(&optimized));
    assert_eq!(records(&path), vec![placed]);
    std::fs::remove_file(&path).ok();
}

fn optimize_request() -> Request {
    Request {
        id: "golden".into(),
        op: RequestOp::Optimize {
            program: PROGRAM.into(),
            passes: "const_prop,dae".into(),
            rounds: 5,
        },
    }
}

fn ask_daemon(path: &Path, mode: ResumeMode) -> Response {
    let handle = Server::start(ServeConfig {
        journal: Some((path.to_path_buf(), mode)),
        ..ServeConfig::default()
    })
    .unwrap();
    let cfg = ClientConfig {
        addr: handle.addr().to_string(),
        io_timeout: Duration::from_secs(120),
        retries: 0,
        backoff_base: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(100),
    };
    let resp = request_with_retry(&cfg, &optimize_request()).unwrap();
    handle.shutdown();
    let summary = handle.join();
    assert!(summary.degraded.is_none(), "{summary:?}");
    resp
}

#[test]
fn serve_record_bytes_are_pinned() {
    let path = scratch("serve");
    let fresh = ask_daemon(&path, ResumeMode::Fresh);
    assert_eq!(fresh.served, ServedFrom::Fresh);
    assert_eq!(records(&path), vec![SERVE_RECORD.to_string()]);

    // Replay: the daemon answers with the placed output, so it came
    // from the journal, not from a rerun.
    let placed = with_field(SERVE_RECORD, "output", "// replayed\\n");
    std::fs::remove_file(&path).ok();
    journal_of(&path, &[&placed]);
    let warm = ask_daemon(&path, ResumeMode::Resume);
    assert_eq!(warm.served, ServedFrom::Cache);
    assert_eq!((warm.exit, warm.output.as_str()), (0, "// replayed\n"));
    assert_eq!(records(&path), vec![placed]);
    std::fs::remove_file(&path).ok();
}

/// A proof journal written by an earlier build reopens and replays
/// every obligation as cached, and finishing leaves its bytes as they
/// were.
#[test]
fn earlier_verify_journal_replays_as_cached() {
    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/verify_const_prop_v1.cobj");
    let original = std::fs::read(&fixture).expect("fixture journal");
    let path = scratch("fixture");
    std::fs::write(&path, &original).unwrap();
    let mut session = Session::with_journal(verifier(), &path, ResumeMode::Resume).unwrap();
    assert!(!session.load_report().corrupted(), "{:?}", session.load_report());
    assert_eq!(session.load_report().records, 27);
    let report = session
        .verify_optimization(&cobalt::opts::const_prop())
        .unwrap();
    session.finish();
    assert!(report.all_proved(), "{}", report.summary());
    assert_eq!(report.cached_count(), report.outcomes.len(), "{}", report.summary());
    assert_eq!(report.fresh_proved_count(), 0);
    assert!(session.degraded().is_none());
    assert_eq!(std::fs::read(&path).unwrap(), original);
    std::fs::remove_file(&path).ok();
}
