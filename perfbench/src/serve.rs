//! `serve-mixed`: an in-process daemon under 2 closed-loop clients,
//! one connection per request as `cobalt client` does.

use crate::check::Digest;
use crate::inputs::{self, Ask, Slot};
use crate::stats::{ms_since, Measured, RunResult};
use crate::verify::MAX_ERRORS;
use crate::{alloc, check, Args};
use cobalt_serve::exec::{execute, ExecConfig, ExecResult};
use cobalt_serve::{
    client, ClientConfig, Request, RequestOp, Response, ServeConfig, Server, ServerHandle, Status,
};
use cobalt_support::pool::Cancel;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Closed-loop clients: one per vCPU of the reference host.
pub const CLIENTS: usize = 2;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// `tail_ms` quantile: 5% of requests are never-seen optimize requests,
/// the slowest class, so p97.5 lands in the middle of them.
const TAIL_Q: f64 = 0.975;

/// Warm requests sent after the cache is filled, before timing.
const WARMUP_REQUESTS: usize = 40;

/// The daemon as `cobalt serve --jobs 2` starts it, with an in-memory
/// proof cache.
pub fn start() -> Result<ServerHandle, String> {
    Server::start(ServeConfig {
        jobs: 2,
        queue_cap: 1024,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("daemon: {e}"))
}

pub fn client_config(daemon: &ServerHandle) -> ClientConfig {
    ClientConfig {
        addr: daemon.addr().to_string(),
        io_timeout: Duration::from_secs(60),
        ..ClientConfig::default()
    }
}

pub fn op_of(ask: &Ask) -> RequestOp {
    match ask {
        Ask::Suite { src, .. } => RequestOp::Verify {
            suite: Some(src.clone()),
            include_buggy: false,
        },
        Ask::Registry => RequestOp::Verify {
            suite: None,
            include_buggy: true,
        },
        Ask::Optimize { src, .. } => RequestOp::Optimize {
            program: src.clone(),
            passes: "all".into(),
            rounds: crate::optimize::ROUNDS as u32,
        },
    }
}

/// Checks an in-process result against the ask's known answer: a
/// sound suite and the registry prove (exit 0), an unsound suite is
/// rejected (exit 2), and an optimized program returns what its
/// original returns.
pub fn known_answer(ask: &Ask, got: &ExecResult) -> Result<(), String> {
    let exit = match ask {
        Ask::Suite { sound: false, .. } => 2,
        _ => 0,
    };
    if got.exit != exit {
        return Err(format!(
            "in-process exit {} (want {exit}): {}",
            got.exit, got.output
        ));
    }
    if let Ask::Optimize { program, .. } = ask {
        let optimized = check::optimized_program(&got.output)?;
        check::equivalent(&check::reference(program), &optimized)?;
    }
    Ok(())
}

/// `exec::execute` run in-process, checked by [`known_answer`].
pub fn expected(ask: &Ask) -> Result<ExecResult, String> {
    let want = execute(&op_of(ask), &ExecConfig::default(), &Cancel::new());
    known_answer(ask, &want)?;
    Ok(want)
}

/// One request on a fresh connection. A shed or error response, or a
/// transport failure, is a failed operation.
pub fn send(cfg: &ClientConfig, id: String, op: RequestOp) -> Option<Response> {
    match client::request_once(cfg, &Request { id, op }) {
        Ok(r) if r.status == Status::Ok => Some(r),
        Ok(r) => {
            eprintln!("perfbench: request {}: {:?} {}", r.id, r.status, r.error);
            None
        }
        Err(e) => {
            eprintln!("perfbench: request: {e}");
            None
        }
    }
}

/// A daemon with the warm set answered and the expected payloads.
pub struct Warmed {
    pub daemon: ServerHandle,
    pub cfg: ClientConfig,
    pub warm: Vec<Ask>,
    pub want: Vec<ExecResult>,
}

pub fn set_up(seed: u64) -> Result<Warmed, String> {
    let warm = inputs::warm_set(seed);
    let want = warm.iter().map(expected).collect::<Result<Vec<_>, _>>()?;
    let daemon = start()?;
    let cfg = client_config(&daemon);
    let warmup = inputs::serve_round(seed, u64::MAX, warm.len());
    let hits = warmup.iter().filter_map(|s| match s {
        Slot::Warm(k) => Some(*k),
        Slot::Cold(_) => None,
    });
    // Fill the cache with every warm ask, then warm up on hits.
    for (n, k) in (0..warm.len())
        .chain(hits.cycle().take(WARMUP_REQUESTS))
        .enumerate()
    {
        let resp = send(&cfg, format!("setup-{n}"), op_of(&warm[k]))
            .ok_or_else(|| format!("set-up request {n} failed"))?;
        check::payload(&Digest::of_response(&resp), &Digest::of_exec(&want[k]))
            .map_err(|e| format!("set-up request {n}: {e}"))?;
    }
    Ok(Warmed {
        daemon,
        cfg,
        warm,
        want,
    })
}

pub fn stop(daemon: ServerHandle) {
    daemon.shutdown();
    daemon.join();
}

/// One answered (or failed) request. The payload is kept as a digest,
/// so that the benchmark's own memory does not grow with responses.
struct Record {
    round: u64,
    pos: usize,
    ms: Option<f64>,
    digest: Option<Digest>,
}

/// The request feed shared by the clients: whole rounds, and no new
/// round once the window has closed. It also files the records and
/// takes each round's heap high-water mark.
struct Feed {
    seed: u64,
    warm: usize,
    round: u64,
    queue: Vec<(usize, Slot)>,
    start: Instant,
    window: Duration,
    closed: bool,
    records: Vec<Record>,
    /// The largest live heap of each round (MB), the feed's own buffers
    /// left out.
    peaks_mb: Vec<f64>,
}

impl Feed {
    fn own_bytes(&self) -> usize {
        self.records.capacity() * std::mem::size_of::<Record>()
            + self.peaks_mb.capacity() * std::mem::size_of::<f64>()
    }

    /// Files the previous request's record and hands out the next
    /// request: its round, position in the round, and what it asks.
    fn next(&mut self, done: Option<Record>) -> Option<(u64, usize, Slot)> {
        if let Some(r) = done {
            self.records.push(r);
        }
        if self.queue.is_empty() {
            if self.closed {
                return None;
            }
            if self.round > 0 {
                let peak = alloc::peak_bytes().saturating_sub(self.own_bytes());
                self.peaks_mb.push(peak as f64 / (1024.0 * 1024.0));
            }
            if self.start.elapsed() >= self.window {
                self.closed = true;
                return None;
            }
            let round = inputs::serve_round(self.seed, self.round, self.warm);
            self.queue = round.into_iter().enumerate().rev().collect();
            self.round += 1;
            // Room for this round's records, so the buffers stay put
            // within the round.
            self.records.reserve(2 * inputs::ROUND);
            self.peaks_mb.reserve(1);
            alloc::reset_peak();
        }
        self.queue.pop().map(|(pos, s)| (self.round - 1, pos, s))
    }
}

pub fn workload(args: &Args) -> Result<RunResult, String> {
    let mut m = Measured::default();
    let mut warmed = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        if let Some(old) = warmed.take().map(|w: Warmed| w.daemon) {
            stop(old);
        }
        warmed = Some(set_up(args.seed)?);
        m.setup_s.push(t.elapsed().as_secs_f64());
    }
    let w = warmed.expect("at least one set-up");
    let want: Vec<Digest> = w.want.iter().map(Digest::of_exec).collect();
    let feed = Mutex::new(Feed {
        seed: args.seed,
        warm: w.warm.len(),
        round: 0,
        queue: Vec::new(),
        start: Instant::now(),
        window: Duration::from_secs_f64(args.seconds),
        closed: false,
        records: Vec::new(),
        peaks_mb: Vec::new(),
    });
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                let mut done = None;
                loop {
                    let next = feed.lock().expect("feed lock poisoned").next(done.take());
                    let Some((round, pos, slot)) = next else {
                        break;
                    };
                    let ask = match &slot {
                        Slot::Warm(k) => &w.warm[*k],
                        Slot::Cold(ask) => ask,
                    };
                    let t = Instant::now();
                    let resp = send(&w.cfg, format!("r{round}-{pos}"), op_of(ask));
                    let ms = ms_since(t);
                    done = Some(Record {
                        round,
                        pos,
                        ms: resp.as_ref().map(|_| ms),
                        digest: resp.as_ref().map(Digest::of_response),
                    });
                }
            });
        }
    });
    m.busy_s = start.elapsed().as_secs_f64();
    stop(w.daemon);
    let feed = feed.into_inner().expect("feed lock poisoned");
    m.round_peaks_mb = feed.peaks_mb;
    // Check every answer; the never-seen asks' expected payloads are
    // computed now, outside the window.
    let mut rounds: BTreeMap<u64, Vec<Slot>> = BTreeMap::new();
    for r in &feed.records {
        let slot = &rounds
            .entry(r.round)
            .or_insert_with(|| inputs::serve_round(args.seed, r.round, w.warm.len()))[r.pos];
        m.op(r.round, r.ms, matches!(slot, Slot::Cold(_)));
        let Some(got) = &r.digest else { continue };
        m.work += 1.0;
        let checked = match slot {
            Slot::Warm(k) => check::payload(got, &want[*k]),
            Slot::Cold(ask) => {
                expected(ask).and_then(|e| check::payload(got, &Digest::of_exec(&e)))
            }
        };
        if let Err(e) = checked {
            if m.errors.len() < MAX_ERRORS {
                m.errors
                    .push(format!("request r{}-{}: {e}", r.round, r.pos));
            }
        }
    }
    Ok(m.finish(TAIL_Q))
}
