//! Persistent fetch worker pool and single-flight request coalescing.
//!
//! **Pool.** Every page the evaluator downloads is a [`Job`] submitted to
//! a [`FetchPool`] and comes back as a [`Done`]. The pool has two
//! executors behind one interface:
//!
//! * **threads** ([`with_pool`]): up to `workers` threads per evaluation
//!   serve every operator in the plan through a pair of `std::sync::mpsc`
//!   channels; the workers share the job receiver behind one lock.
//!   Workers start **on demand**: queueing the k-th job starts worker k,
//!   up to `workers`, and a started worker lives until the evaluation
//!   ends. An evaluation served wholly from the per-query or shared cache
//!   queues no job and so starts no thread, one with m misses starts
//!   min(m, `workers`). (Starting and joining an idle 4-worker scope cost
//!   ≈ 120–150 µs wall and ≈ 170–210 µs CPU on a 2-vCPU box.) The evaluator
//!   streams distinct links into the job channel and consumes wrapped
//!   tuples as they complete, so CPU-side work (row assembly) overlaps
//!   network latency.
//! * **inline** ([`FetchPool::inline`]): no threads at all — receiving a
//!   completion runs the next queued job on the calling thread. This is
//!   sequential fetching.
//!
//! [`crate::Fetch`] picks one per evaluation; every source can run under
//! either (`PageSource: Sync`).
//!
//! Both run a job through the same [`Runner::run`]. Completions of the
//! threaded pool arrive out of order; the evaluator's `follow` assembly is
//! keyed by URL, so results are independent of completion order.
//!
//! **Coalescing.** [`CoalescingSource`] wraps any `PageSource` with
//! single-flight semantics: when N callers (concurrent sessions, pool
//! workers) request the same URL at the same time, exactly one — the
//! *leader* — performs the inner fetch; the rest — *followers* — block and
//! receive the leader's result: the same page, by reference. This
//! deduplicates server GETs
//! without touching the paper's accounting: `page_accesses` is counted by
//! each evaluation at fetch *completion*, above this layer, so every
//! session reports exactly the numbers it would report uncoalesced (pinned
//! by the seeded simulation, `tests/sim.rs`).

use crate::source::{PageSource, SourceError};
use adm::{Symbol, Tuple, Url};
use obs::reqctx::RequestCtx;
use obs::trace::{EventKind, TraceSink};
use parking_lot::Mutex;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex as StdMutex};

/// A fetch request: the URL, its code in the evaluation's value
/// dictionary, and the page-scheme it is expected to match, interned.
/// `epoch` tags the drain the job belongs to (a deadline-aborted drain may
/// leave stale completions behind; later drains skip them by epoch),
/// `hedge` marks a tail-tolerant backup fetch.
#[derive(Debug)]
pub(crate) struct Job {
    pub url: Url,
    pub code: u32,
    pub scheme: Symbol,
    pub epoch: u64,
    pub hedge: bool,
}

/// The result of one page fetch: the wrapped tuple — behind the `Arc` its
/// holder gave out, or a fresh one around what the source produced — plus
/// the source's Last-Modified stamp when known.
pub(crate) type FetchOutcome = Result<(Arc<Tuple>, Option<u64>), SourceError>;

/// A completed fetch: the job it answers and what the source said.
/// `dispatched` is false only for a job its own request gave up on (its
/// deadline had expired or its URL was cancelled) before it cost the
/// server anything: skipped before it reached the source, or a coalesced
/// follower that stopped waiting on another fetch's flight. Any other
/// source call, even one answered `Cancelled`, may have cost the server a
/// request.
pub(crate) struct Done {
    pub job: Job,
    pub outcome: FetchOutcome,
    pub dispatched: bool,
}

thread_local! {
    /// Set by a coalesced follower that stopped waiting because its own
    /// request gave up on the URL: the source call it answers sent nothing
    /// to the server. [`Runner::attempt`] clears it before each source
    /// call and reads it after.
    static GAVE_UP_WAITING: Cell<bool> = const { Cell::new(false) };
}

/// What running one job takes; pool workers and the inline executor each
/// hold one.
pub(crate) struct Runner<'s, S: ?Sized> {
    source: &'s S,
    /// The request context the pool was built under (see
    /// [`obs::reqctx`]): its token skips cancelled jobs, and an observed
    /// request's clock is charged fetch time. Timing never touches
    /// results or counters.
    ctx: Option<RequestCtx>,
}

impl<S: PageSource + ?Sized> Runner<'_, S> {
    /// Runs `job` on the calling thread. A panic of the source unwinds
    /// through here.
    fn run(&self, job: Job) -> Done {
        let (outcome, dispatched) = self.attempt(&job);
        Done {
            job,
            outcome,
            dispatched,
        }
    }

    /// What the source said to `job`, and whether it was asked.
    fn attempt(&self, job: &Job) -> (FetchOutcome, bool) {
        let attr = self.ctx.as_ref().and_then(|c| c.trace.as_ref());
        let t0 = attr.map(|_| std::time::Instant::now());
        let url = &job.url;
        // Cooperative cancellation, checked before dispatch: a job whose
        // request has run out of time, or whose URL was cancelled, never
        // reaches the source, so the server sees no GET for it. A fetch
        // already inside the source is counted there, even when the
        // source cuts it off and answers `Cancelled`.
        let skip = self.ctx.as_ref().is_some_and(|c| {
            c.deadline.expired()
                || (c.cancel.as_ref()).is_some_and(|t| t.is_url_cancelled(url.as_str()))
        });
        let outcome = if skip {
            Err(SourceError::Cancelled(url.clone()))
        } else {
            GAVE_UP_WAITING.set(false);
            self.source.fetch_shared(url, job.scheme.as_str())
        };
        if let (Some(attr), Some(t0)) = (attr, t0) {
            attr.clock.add_us(t0.elapsed().as_micros() as u64);
        }
        (outcome, !skip && !GAVE_UP_WAITING.replace(false))
    }
}

/// Handle to a pool, of either executor. A threaded handle is only valid
/// inside [`with_pool`]'s closure; dropping it closes the job channel,
/// which is what terminates workers.
pub(crate) enum FetchPool<'s> {
    /// Worker threads behind a job and a completion channel, started as
    /// jobs are queued.
    Threads {
        job_tx: Sender<Job>,
        done_rx: Receiver<Done>,
        workers: Workers<'s>,
    },
    /// The inline executor: jobs queue here until a receive runs them.
    Inline {
        runner: Runner<'s, dyn PageSource + 's>,
        queue: RefCell<VecDeque<Job>>,
    },
}

impl<'s> FetchPool<'s> {
    /// The thread-less pool over `source`, running its jobs under the
    /// calling thread's request context.
    pub(crate) fn inline(source: &'s dyn PageSource) -> Self {
        FetchPool::Inline {
            runner: Runner {
                source,
                ctx: obs::reqctx::current(),
            },
            queue: RefCell::new(VecDeque::new()),
        }
    }

    /// Enqueues a fetch, tagged with the submitting drain's epoch and
    /// whether it is a hedge. Returns `false` if every worker has exited
    /// (the pool is shut down) — the caller must surface that as a source
    /// error rather than panic.
    #[must_use]
    pub(crate) fn submit_tagged(&self, job: Job) -> bool {
        match self {
            FetchPool::Threads {
                job_tx, workers, ..
            } => {
                if job_tx.send(job).is_err() {
                    return false;
                }
                workers.start_next();
                true
            }
            FetchPool::Inline { queue, .. } => {
                queue.borrow_mut().push_back(job);
                true
            }
        }
    }

    /// The next completion, in arrival (not submission) order: `Ok` on a
    /// completion, `Err(true)` when `timeout` elapsed first, `Err(false)`
    /// when no worker can answer: the pool shut down or has started none
    /// (or, inline, has no job left to run). The inline executor runs the
    /// next queued job here and never waits.
    pub(crate) fn recv_timeout(&self, timeout: std::time::Duration) -> Result<Done, bool> {
        match self {
            FetchPool::Threads {
                done_rx, workers, ..
            } => {
                // Until a worker starts, the spawner's sender holds the
                // channel open, yet nothing can answer.
                if workers.started.get() == 0 {
                    return Err(false);
                }
                done_rx.recv_timeout(timeout).map_err(|e| match e {
                    RecvTimeoutError::Timeout => true,
                    RecvTimeoutError::Disconnected => false,
                })
            }
            FetchPool::Inline { runner, queue } => {
                let job = queue.borrow_mut().pop_front().ok_or(false)?;
                Ok(runner.run(job))
            }
        }
    }

    /// Forgets the jobs an aborted drain left queued. Worker threads own
    /// their queue and skip such jobs through the cancel token instead.
    pub(crate) fn discard_queued(&self) {
        if let FetchPool::Inline { queue, .. } = self {
            queue.borrow_mut().clear();
        }
    }
}

/// The threaded pool's workers, started one per queued job until `cap`
/// run. A started worker serves until the pool handle drops.
pub(crate) struct Workers<'s> {
    cap: usize,
    started: Cell<usize>,
    /// The completion sender each new worker gets a clone of. The worker
    /// that reaches the cap takes it, so from then on only workers hold
    /// the completion channel open and `Err(false)` means what it says.
    done_tx: Cell<Option<Sender<Done>>>,
    /// Spawns worker `idx` on the pool's thread scope.
    spawn: &'s dyn Fn(usize, Sender<Done>),
}

impl Workers<'_> {
    /// Starts the next worker, unless `cap` already run.
    fn start_next(&self) {
        let Some(done_tx) = self.done_tx.take() else {
            return;
        };
        let n = self.started.get() + 1;
        self.started.set(n);
        if n < self.cap {
            self.done_tx.set(Some(done_tx.clone()));
        }
        (self.spawn)(n - 1, done_tx);
    }
}

/// Runs `f` with a pool of up to `workers` threads fetching from `source`.
/// No worker starts up front: queueing the k-th job starts worker k, up to
/// `workers`, so a call that queues nothing starts no thread. A started
/// worker lives for the rest of the call — every later `follow` in the
/// evaluated plan shares it — and exits when the pool handle is dropped.
/// Each worker runs under the request context of the thread that called
/// `with_pool`.
///
/// With a trace sink attached, every started worker records a terminal
/// `fetch.worker` event on its way out, carrying the number of jobs it
/// served and the shutdown reason: `drained` (job queue closed after a
/// graceful drain) or `abandoned` (the evaluator stopped listening —
/// an early abort). The records are buffered and flushed *after* the
/// workers have been joined, in worker order, so pooled traces stay
/// deterministic; a started worker index with **no** terminal event in an
/// exported trace therefore means that worker hung or died rather than
/// draining its queue.
pub(crate) fn with_pool<S, R>(
    source: &S,
    workers: usize,
    trace: Option<&TraceSink>,
    trace_parent: Option<u64>,
    f: impl FnOnce(&FetchPool<'_>) -> R,
) -> R
where
    S: PageSource,
{
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let job_rx = Mutex::new(job_rx);
    let (done_tx, done_rx) = mpsc::channel::<Done>();
    let terminals: Mutex<Vec<(usize, u64, &'static str)>> = Mutex::new(Vec::new());
    // Capture the calling thread's ambient request context so worker
    // threads honour its budget and charge fetch time (and attribute
    // coalesced waits) to the same request the evaluation serves.
    let reqctx = obs::reqctx::current();
    let traced = trace.is_some();
    let result = std::thread::scope(|scope| {
        let (job_rx, terminals, reqctx) = (&job_rx, &terminals, &reqctx);
        let spawn = |idx: usize, done_tx: Sender<Done>| {
            let reqctx = reqctx.clone();
            scope.spawn(move || {
                let runner = Runner {
                    source,
                    ctx: reqctx.clone(),
                };
                obs::reqctx::with_ctx(reqctx, || {
                    let mut jobs = 0u64;
                    let mut reason = "drained";
                    loop {
                        // The guard drops at the end of this statement, so
                        // workers take turns waiting but run jobs in
                        // parallel (a `while let` would hold it throughout).
                        let Ok(job) = job_rx.lock().recv() else { break };
                        // A panicking source must not take the worker (and
                        // with it the whole process, via the scope join)
                        // down: catch it and report the job as a source
                        // error instead.
                        let run = std::panic::AssertUnwindSafe(|| runner.attempt(&job));
                        let (outcome, dispatched) =
                            std::panic::catch_unwind(run).unwrap_or_else(|payload| {
                                let msg = payload
                                    .downcast_ref::<&str>()
                                    .map(|s| (*s).to_string())
                                    .or_else(|| payload.downcast_ref::<String>().cloned())
                                    .unwrap_or_else(|| "unknown panic".to_string());
                                let msg = format!("fetch worker panicked: {msg}");
                                (Err(SourceError::Other(msg)), true)
                            });
                        let done = Done {
                            job,
                            outcome,
                            dispatched,
                        };
                        jobs += 1;
                        if done_tx.send(done).is_err() {
                            // Evaluation aborted early (e.g. a source error):
                            // nobody is listening any more.
                            reason = "abandoned";
                            break;
                        }
                    }
                    if traced {
                        terminals.lock().push((idx, jobs, reason));
                    }
                });
            });
        };
        let pool = FetchPool::Threads {
            job_tx,
            done_rx,
            workers: Workers {
                cap: workers.max(1),
                started: Cell::new(0),
                done_tx: Cell::new(Some(done_tx)),
                spawn: &spawn,
            },
        };
        let result = f(&pool);
        drop(pool); // closes the job channel; workers drain and exit
        result
    });
    if let Some(sink) = trace {
        let mut records = terminals.into_inner();
        records.sort_by_key(|&(idx, _, _)| idx);
        for (idx, jobs, reason) in records {
            sink.event(
                EventKind::Fetch,
                "fetch.worker",
                trace_parent,
                vec![
                    ("worker".to_string(), idx.into()),
                    ("jobs".to_string(), jobs.into()),
                    ("reason".to_string(), reason.into()),
                ],
            );
        }
    }
    result
}

/// Hedged-GET configuration for the evaluator's pooled drain loop:
/// after `delay_us` without a completion, one backup fetch is launched
/// for the laggard; first response wins and the loser is cancelled
/// through the evaluator's [`obs::CancelToken`].
///
/// The counters are shared [`obs::Counter`] handles: a clone of the
/// config kept by the caller reads what the evaluator's hedging did.
/// Hedge completions are **never** charged to `page_accesses` (only the
/// first completion per URL is), keeping the paper's counters exact.
#[derive(Debug, Clone)]
pub struct HedgeConfig {
    /// Delay before launching the backup fetch, microseconds.
    pub delay_us: u64,
    /// Backup fetches launched.
    pub hedges: obs::Counter,
    /// Hedges whose response arrived before the primary's.
    pub hedge_wins: obs::Counter,
    /// Losing twins that cost the server no GET: cancelled before
    /// dispatch, or a coalesced follower of another fetch's flight woken
    /// by the cancel of the twin that won. A twin the source cut off
    /// mid-request is not one of them: it reached the server, and counts
    /// as a completed loser.
    pub hedge_cancelled: obs::Counter,
}

impl HedgeConfig {
    /// A config with fresh, unregistered counters.
    pub fn new(delay_us: u64) -> Self {
        HedgeConfig {
            delay_us,
            hedges: obs::Counter::new(),
            hedge_wins: obs::Counter::new(),
            hedge_cancelled: obs::Counter::new(),
        }
    }
}

/// One in-flight fetch: followers park on the condvar until the leader
/// publishes into the slot. The slot holds the page behind its `Arc`; the
/// leader and every follower leave with a reference to it.
struct Flight {
    slot: StdMutex<Option<FetchOutcome>>,
    cv: Condvar,
    /// `(request id, fetch.lead event id)` of the leader, when the
    /// leader carried a request context — lets followers link their
    /// join events to the fetch they waited on, across requests.
    leader_tag: StdMutex<Option<(u64, u64)>>,
}

impl Flight {
    fn new() -> Self {
        Flight {
            slot: StdMutex::new(None),
            cv: Condvar::new(),
            leader_tag: StdMutex::new(None),
        }
    }

    fn publish(&self, outcome: FetchOutcome) {
        *self.slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
        self.cv.notify_all();
    }
}

/// Point-in-time counters of a [`CoalescingSource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoalesceStats {
    /// Fetches that went to the inner source (one per coalition).
    pub leaders: u64,
    /// Fetches that joined an in-flight leader, whatever they were handed.
    pub followers: u64,
    /// Followers handed their leader's page: each one is a server GET
    /// that did not happen. A follower handed the leader's 404 or error
    /// is not one — a failed request is no GET to save.
    pub pages_shared: u64,
    /// Followers that stopped waiting on their own: their request's
    /// deadline expired or their URL was cancelled while they were
    /// parked on a leader.
    pub cancel_wakes: u64,
    /// Followers whose leader's own request gave up on the fetch (its
    /// deadline fired or it cancelled the URL, so the source answered
    /// the leader `Cancelled`): each fetched the page again, through a
    /// flight of its own, rather than inherit another request's give-up.
    pub releads: u64,
}

impl CoalesceStats {
    /// Server GETs avoided: one per follower handed its leader's page
    /// ([`CoalesceStats::pages_shared`]).
    pub fn saved_gets(&self) -> u64 {
        self.pages_shared
    }
}

/// Single-flight coalescing wrapper around a thread-safe [`PageSource`].
///
/// Composes like the other source wrappers (`ResilientSource`): it
/// borrows the inner source, so retry/breaker machinery stacks
/// *underneath* — one coalesced fetch runs the full
/// resilient path once and every follower shares the outcome, including
/// an error outcome (an error is cheaper to share than to rediscover
/// N times; the per-evaluation degradation policy still applies above).
/// The one outcome not shared is a `Cancelled` the leader's own budget
/// caused: a follower fetches again instead (a *relead*), so one
/// request's deadline never becomes another's missing page.
///
/// The paper's `page_accesses` counter is charged per evaluation at fetch
/// completion, above this layer, so coalescing never changes any
/// E1–E8 number — only the server's GET counter shrinks.
pub struct CoalescingSource<'a, S> {
    inner: &'a S,
    flights: StdMutex<HashMap<Url, Arc<Flight>>>,
    leaders: AtomicU64,
    followers: AtomicU64,
    pages_shared: AtomicU64,
    cancel_wakes: AtomicU64,
    releads: AtomicU64,
}

impl<'a, S: PageSource> CoalescingSource<'a, S> {
    /// Wraps `inner` with single-flight semantics.
    pub fn new(inner: &'a S) -> Self {
        CoalescingSource {
            inner,
            flights: StdMutex::new(HashMap::new()),
            leaders: AtomicU64::new(0),
            followers: AtomicU64::new(0),
            pages_shared: AtomicU64::new(0),
            cancel_wakes: AtomicU64::new(0),
            releads: AtomicU64::new(0),
        }
    }

    /// Current leader/follower counters.
    pub fn stats(&self) -> CoalesceStats {
        CoalesceStats {
            leaders: self.leaders.load(Ordering::SeqCst),
            followers: self.followers.load(Ordering::SeqCst),
            pages_shared: self.pages_shared.load(Ordering::SeqCst),
            cancel_wakes: self.cancel_wakes.load(Ordering::SeqCst),
            releads: self.releads.load(Ordering::SeqCst),
        }
    }

    fn lead(&self, url: &Url, scheme: &str, flight: &Arc<Flight>) -> FetchOutcome {
        self.leaders.fetch_add(1, Ordering::SeqCst);
        // Panic safety: if the inner fetch unwinds, the guard still
        // retires the flight and wakes the followers with an error —
        // a follower must never hang on a dead leader.
        struct Retire<'g, 'a, S> {
            src: &'g CoalescingSource<'a, S>,
            url: &'g Url,
            flight: &'g Arc<Flight>,
            outcome: Option<FetchOutcome>,
        }
        impl<S> Drop for Retire<'_, '_, S> {
            fn drop(&mut self) {
                {
                    let mut map = self.src.flights.lock().unwrap_or_else(|e| e.into_inner());
                    map.remove(self.url);
                }
                let outcome = self.outcome.take().unwrap_or_else(|| {
                    Err(SourceError::Other(format!(
                        "coalesced fetch leader panicked for {}",
                        self.url
                    )))
                });
                self.flight.publish(outcome);
            }
        }
        let mut retire = Retire {
            src: self,
            url,
            flight,
            outcome: None,
        };
        let outcome = self.inner.fetch_shared(url, scheme);
        retire.outcome = Some(outcome.clone());
        drop(retire);
        outcome
    }

    /// Waits for `flight`'s outcome. `None` when the leader's own request
    /// gave up on the fetch: a `Cancelled` the leader published is that
    /// request's deadline or cancel token, not this follower's, so the
    /// caller fetches again.
    fn follow_flight(
        &self,
        url: &Url,
        flight: &Arc<Flight>,
        ctx: Option<&RequestCtx>,
    ) -> Option<FetchOutcome> {
        self.followers.fetch_add(1, Ordering::SeqCst);
        // Followers with a finite deadline or a cancel token in scope
        // poll in short quanta so a budget exhaustion / relevance
        // cancellation wakes them without waiting out the leader; all
        // others park on the condvar for free exactly as before.
        let watched = ctx.filter(|c| c.has_budget());
        let mut slot = flight.slot.lock().unwrap_or_else(|e| e.into_inner());
        let outcome = loop {
            if let Some(outcome) = slot.as_ref() {
                break outcome.clone();
            }
            let Some(c) = watched else {
                slot = flight.cv.wait(slot).unwrap_or_else(|e| e.into_inner());
                continue;
            };
            let cancelled = c
                .cancel
                .as_ref()
                .is_some_and(|t| t.is_url_cancelled(url.as_str()));
            if cancelled || c.deadline.expired() {
                drop(slot);
                self.cancel_wakes.fetch_add(1, Ordering::SeqCst);
                GAVE_UP_WAITING.set(true);
                return Some(Err(SourceError::Cancelled(url.clone())));
            }
            let quantum = c
                .deadline
                .remaining()
                .unwrap_or(std::time::Duration::from_millis(1))
                .min(std::time::Duration::from_millis(1))
                .max(std::time::Duration::from_micros(50));
            slot = (flight.cv.wait_timeout(slot, quantum))
                .unwrap_or_else(|e| e.into_inner())
                .0;
        };
        if matches!(&outcome, Err(SourceError::Cancelled(_))) {
            self.releads.fetch_add(1, Ordering::SeqCst);
            return None;
        }
        if outcome.is_ok() {
            self.pages_shared.fetch_add(1, Ordering::SeqCst);
        }
        Some(outcome)
    }
}

impl<S: PageSource> PageSource for CoalescingSource<'_, S> {
    fn fetch(&self, url: &Url, scheme: &str) -> Result<Tuple, SourceError> {
        self.fetch_stamped(url, scheme).map(|(t, _)| t)
    }

    fn fetch_stamped(&self, url: &Url, scheme: &str) -> Result<(Tuple, Option<u64>), SourceError> {
        let (t, lm) = self.fetch_shared(url, scheme)?;
        Ok((Tuple::clone(&t), lm))
    }

    fn fetch_shared(&self, url: &Url, scheme: &str) -> FetchOutcome {
        loop {
            let ctx = obs::reqctx::current();
            let attr = ctx.as_ref().and_then(|c| c.trace.as_ref());
            let (flight, is_leader) = {
                let mut map = self.flights.lock().unwrap_or_else(|e| e.into_inner());
                match map.get(url) {
                    Some(f) => (Arc::clone(f), false),
                    None => {
                        let f = Arc::new(Flight::new());
                        if let Some(ctx) = attr {
                            // Tag the flight inside the map lock, before any
                            // follower can join: the join event's linkage
                            // must never observe a half-initialized leader.
                            let id = ctx.sink.event(
                                EventKind::Fetch,
                                "fetch.lead",
                                Some(ctx.parent),
                                vec![
                                    ("url".to_string(), url.as_str().into()),
                                    ("request".to_string(), ctx.request_id.into()),
                                ],
                            );
                            *f.leader_tag.lock().unwrap_or_else(|e| e.into_inner()) =
                                Some((ctx.request_id, id));
                        }
                        map.insert(url.clone(), Arc::clone(&f));
                        (f, true)
                    }
                }
            };
            if is_leader {
                return self.lead(url, scheme, &flight);
            }
            let t0 = attr.map(|_| std::time::Instant::now());
            let outcome = self.follow_flight(url, &flight, ctx.as_ref());
            if let Some(ctx) = attr {
                // The coalesced wait is attributed, not invisible: the
                // follower's own request records where the time went and
                // which leader fetch it shared.
                let mut fields = vec![
                    ("url".to_string(), url.as_str().into()),
                    ("request".to_string(), ctx.request_id.into()),
                    (
                        "waited_us".to_string(),
                        (t0.map(|t| t.elapsed().as_micros() as u64).unwrap_or(0)).into(),
                    ),
                ];
                if let Some((lreq, lid)) =
                    *flight.leader_tag.lock().unwrap_or_else(|e| e.into_inner())
                {
                    fields.push(("leader_request".to_string(), lreq.into()));
                    fields.push(("leader_fetch".to_string(), lid.into()));
                }
                ctx.sink
                    .event(EventKind::Fetch, "fetch.join", Some(ctx.parent), fields);
            }
            // A follower whose leader's own request gave up fetches
            // again (see `follow_flight`).
            if let Some(outcome) = outcome {
                return outcome;
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Runs `f` on a detached thread and fails if it has not finished
    /// within 60 s: a worker that hangs, or never starts, fails the test
    /// instead of wedging the suite. A panic of `f` is the test's panic.
    pub(crate) fn under_watchdog(what: &str, f: impl FnOnce() + Send + 'static) {
        let (finished_tx, finished_rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            f();
            let _ = finished_tx.send(());
        });
        match finished_rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Err(RecvTimeoutError::Timeout) => panic!("{what}: still running after 60 s"),
            _ => {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }

    /// The `fetch.worker` terminal events `sink` holds, in record order.
    fn worker_events(sink: &TraceSink) -> Vec<obs::trace::TraceEvent> {
        (sink.events().into_iter())
            .filter(|e| e.name == "fetch.worker")
            .collect()
    }

    /// Test shorthand: an untagged job for page-scheme `P`.
    fn enqueue(pool: &FetchPool<'_>, url: &str) -> bool {
        pool.submit_tagged(Job {
            url: Url::new(url),
            code: 0,
            scheme: Symbol::intern("P"),
            epoch: 0,
            hedge: false,
        })
    }

    /// Test shorthand: the next completion of a pool that must be alive.
    fn next_done(pool: &FetchPool<'_>) -> Done {
        pool.recv_timeout(std::time::Duration::from_secs(60))
            .expect("pool alive")
    }

    struct CountingSource(AtomicUsize);

    impl PageSource for CountingSource {
        fn fetch(&self, url: &Url, _scheme: &str) -> Result<Tuple, SourceError> {
            self.0.fetch_add(1, Ordering::SeqCst);
            if url.as_str().ends_with("missing") {
                Err(SourceError::NotFound(url.clone()))
            } else {
                Ok(Tuple::new().with("Path", url.as_str()))
            }
        }
    }

    #[test]
    fn pool_serves_multiple_batches_with_same_workers() {
        let src = CountingSource(AtomicUsize::new(0));
        let total = with_pool(&src, 4, None, None, |pool| {
            let mut done = 0;
            for batch in 0..3 {
                for i in 0..10 {
                    assert!(enqueue(pool, &format!("/b{batch}/{i}")));
                }
                for _ in 0..10 {
                    let d = next_done(pool);
                    assert!(d.outcome.is_ok());
                    done += 1;
                }
            }
            done
        });
        assert_eq!(total, 30);
        assert_eq!(src.0.load(Ordering::SeqCst), 30);
    }

    #[test]
    fn completions_report_not_found() {
        let src = CountingSource(AtomicUsize::new(0));
        with_pool(&src, 2, None, None, |pool| {
            assert!(enqueue(pool, "/ok"));
            assert!(enqueue(pool, "/missing"));
            let outcomes: Vec<_> = (0..2).map(|_| next_done(pool).outcome).collect();
            assert_eq!(outcomes.iter().filter(|o| o.is_ok()).count(), 1);
            assert!(outcomes
                .iter()
                .any(|o| matches!(o, Err(SourceError::NotFound(_)))));
        });
    }

    /// Dropping the pool must terminate its workers however much of the
    /// work was consumed (the scope join would hang otherwise). The cycles
    /// alternate a full drain with an early return after a jittered number
    /// of completions, so shutdown lands in every phase of a worker's
    /// take → run → send cycle. They run on a detached thread under a
    /// watchdog: a hung worker fails the test instead of wedging the suite.
    #[test]
    fn early_exit_leaves_no_hung_workers() {
        under_watchdog("a fetch worker hung on pool shutdown", || {
            let src = CountingSource(AtomicUsize::new(0));
            for cycle in 0..300 {
                let consumed = if cycle % 2 == 0 { 20 } else { cycle % 7 };
                with_pool(&src, 3, None, None, |pool| {
                    for i in 0..20 {
                        assert!(enqueue(pool, &format!("/{i}")));
                    }
                    for _ in 0..consumed {
                        next_done(pool);
                    }
                });
            }
        });
    }

    /// A pool that is never handed a job starts no thread, and no worker
    /// can answer it: a receive says so at once instead of waiting.
    #[test]
    fn a_pool_with_nothing_queued_starts_no_worker() {
        under_watchdog("an idle pool blocked", || {
            let sink = TraceSink::with_seed(1);
            let src = CountingSource(AtomicUsize::new(0));
            with_pool(&src, 4, Some(&sink), None, |pool| {
                let t0 = std::time::Instant::now();
                let got = pool.recv_timeout(std::time::Duration::from_secs(30));
                assert!(matches!(got, Err(false)), "no worker can answer");
                assert!(t0.elapsed() < std::time::Duration::from_secs(10));
            });
            assert!(worker_events(&sink).is_empty(), "no worker started");
        });
    }

    /// On-demand start still reaches full concurrency: with a cap of 4,
    /// four queued jobs are all inside the source at once before any is
    /// released, and a fifth job starts no fifth worker.
    #[test]
    fn workers_started_on_demand_run_jobs_concurrently() {
        under_watchdog("on-demand workers hung", || {
            let (gated, entered_rx, release_tx) = GatedSource::new(false);
            let sink = TraceSink::with_seed(1);
            // The closure owns the release side: if an assertion fails,
            // unwinding drops it and the gated workers fail instead of
            // blocking the pool's join.
            with_pool(&gated, 4, Some(&sink), None, move |pool| {
                for i in 0..4 {
                    assert!(enqueue(pool, &format!("/{i}")));
                }
                for inside in 0..4 {
                    let entered = entered_rx.recv_timeout(std::time::Duration::from_secs(10));
                    assert!(entered.is_ok(), "only {inside} of 4 jobs inside the source");
                }
                assert!(enqueue(pool, "/4"));
                for _ in 0..5 {
                    release_tx.send(()).unwrap();
                }
                assert!((0..5).all(|_| next_done(pool).outcome.is_ok()));
            });
            assert_eq!(gated.fetches.load(Ordering::SeqCst), 5);
            let events = worker_events(&sink);
            assert_eq!(events.len(), 4, "one terminal event per started worker");
            for (i, e) in events.iter().enumerate() {
                assert_eq!(e.field_u64("worker"), Some(i as u64), "worker order");
            }
        });
    }

    /// A source that panics on some URLs.
    struct PanickySource;

    impl PageSource for PanickySource {
        fn fetch(&self, url: &Url, _scheme: &str) -> Result<Tuple, SourceError> {
            if url.as_str().contains("boom") {
                panic!("wrapper exploded on {url}");
            }
            Ok(Tuple::new().with("Path", url.as_str()))
        }
    }

    #[test]
    fn terminal_events_distinguish_drained_from_abandoned() {
        let sink = TraceSink::with_seed(1);
        let src = CountingSource(AtomicUsize::new(0));
        with_pool(&src, 3, Some(&sink), None, |pool| {
            for i in 0..6 {
                assert!(enqueue(pool, &format!("/{i}")));
            }
            for _ in 0..6 {
                next_done(pool);
            }
        });
        let events = worker_events(&sink);
        assert_eq!(events.len(), 3, "one terminal event per worker");
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.field_u64("worker"), Some(i as u64), "worker order");
            assert_eq!(e.field_str("reason"), Some("drained"));
        }
        let jobs: u64 = events.iter().map(|e| e.field_u64("jobs").unwrap()).sum();
        assert_eq!(jobs, 6);

        // Abandoned: submit plenty of slow jobs, consume one, drop the
        // pool — the queue cannot drain before the workers notice the
        // evaluator is gone.
        struct SlowSource;
        impl PageSource for SlowSource {
            fn fetch(&self, url: &Url, _scheme: &str) -> Result<Tuple, SourceError> {
                std::thread::sleep(std::time::Duration::from_millis(2));
                Ok(Tuple::new().with("Path", url.as_str()))
            }
        }
        let sink = TraceSink::with_seed(1);
        with_pool(&SlowSource, 2, Some(&sink), None, |pool| {
            for i in 0..50 {
                assert!(enqueue(pool, &format!("/{i}")));
            }
            next_done(pool);
        });
        let events = worker_events(&sink);
        assert_eq!(events.len(), 2);
        assert!(
            events
                .iter()
                .any(|e| e.field_str("reason") == Some("abandoned")),
            "an early-abort shutdown must be visible in the trace"
        );
    }

    /// A source that blocks each fetch until released, reporting arrivals;
    /// with `panics` set, a released fetch panics instead of answering.
    struct GatedSource {
        entered_tx: Sender<()>,
        release_rx: Mutex<Receiver<()>>,
        fetches: AtomicUsize,
        panics: bool,
    }

    impl GatedSource {
        fn new(panics: bool) -> (Self, Receiver<()>, Sender<()>) {
            let (entered_tx, entered_rx) = mpsc::channel();
            let (release_tx, release_rx) = mpsc::channel();
            (
                GatedSource {
                    entered_tx,
                    release_rx: Mutex::new(release_rx),
                    fetches: AtomicUsize::new(0),
                    panics,
                },
                entered_rx,
                release_tx,
            )
        }
    }

    impl PageSource for GatedSource {
        fn fetch(&self, url: &Url, _scheme: &str) -> Result<Tuple, SourceError> {
            self.fetches.fetch_add(1, Ordering::SeqCst);
            self.entered_tx.send(()).unwrap();
            self.release_rx.lock().recv().unwrap();
            if self.panics {
                panic!("leader exploded");
            }
            if url.as_str() == "/missing" {
                return Err(SourceError::NotFound(url.clone()));
            }
            Ok(Tuple::new().with("Path", url.as_str()))
        }
    }

    /// Spins until `src` has `n` parked followers (bounded wait).
    fn await_followers<S: PageSource>(src: &CoalescingSource<'_, S>, n: u64) {
        for _ in 0..2000 {
            if src.stats().followers >= n {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("followers never parked: {:?}", src.stats());
    }

    #[test]
    fn concurrent_fetches_of_one_url_share_one_inner_fetch() {
        let (gated, entered_rx, release_tx) = GatedSource::new(false);
        let coalesced = CoalescingSource::new(&gated);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..5)
                .map(|_| scope.spawn(|| coalesced.fetch_stamped(&Url::new("/hot"), "P")))
                .collect();
            entered_rx.recv().unwrap(); // the single leader is inside
            await_followers(&coalesced, 4);
            release_tx.send(()).unwrap();
            for h in handles {
                let (tuple, _) = h.join().unwrap().expect("shared fetch succeeds");
                assert_eq!(tuple.get("Path").unwrap().as_text().unwrap(), "/hot");
            }
        });
        assert_eq!(
            gated.fetches.load(Ordering::SeqCst),
            1,
            "one GET for five callers"
        );
        let stats = coalesced.stats();
        assert_eq!((stats.leaders, stats.followers), (1, 4));
        assert_eq!(stats.saved_gets(), 4);
    }

    /// Followers that share their leader's 404 share no GET: a failed
    /// request is none, so they save none.
    #[test]
    fn followers_of_a_404_save_no_get() {
        let (gated, entered_rx, release_tx) = GatedSource::new(false);
        let coalesced = CoalescingSource::new(&gated);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| scope.spawn(|| coalesced.fetch_shared(&Url::new("/missing"), "P")))
                .collect();
            entered_rx.recv().unwrap();
            await_followers(&coalesced, 2);
            release_tx.send(()).unwrap();
            for h in handles {
                assert!(matches!(h.join().unwrap(), Err(SourceError::NotFound(_))));
            }
        });
        let stats = coalesced.stats();
        assert_eq!((stats.leaders, stats.followers), (1, 2));
        assert_eq!(stats.saved_gets(), 0);
    }

    #[test]
    fn a_coalesced_follower_shares_the_leaders_page() {
        let (gated, entered_rx, release_tx) = GatedSource::new(false);
        let coalesced = CoalescingSource::new(&gated);
        let pages: Vec<Arc<Tuple>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| scope.spawn(|| coalesced.fetch_shared(&Url::new("/hot"), "P")))
                .collect();
            entered_rx.recv().unwrap(); // the single leader is inside
            await_followers(&coalesced, 2);
            release_tx.send(()).unwrap();
            (handles.into_iter())
                .map(|h| h.join().unwrap().expect("shared fetch succeeds").0)
                .collect()
        });
        assert_eq!(gated.fetches.load(Ordering::SeqCst), 1);
        // one page, three references: the flight is retired and holds none
        assert!(pages.iter().all(|p| Arc::ptr_eq(p, &pages[0])));
        assert_eq!(Arc::strong_count(&pages[0]), 3);
    }

    #[test]
    fn distinct_urls_do_not_coalesce_and_errors_are_shared() {
        struct FailingSource;
        impl PageSource for FailingSource {
            fn fetch(&self, url: &Url, _scheme: &str) -> Result<Tuple, SourceError> {
                if url.as_str() == "/missing" {
                    Err(SourceError::NotFound(url.clone()))
                } else {
                    Ok(Tuple::new().with("Path", url.as_str()))
                }
            }
        }
        let coalesced = CoalescingSource::new(&FailingSource);
        assert!(coalesced.fetch_stamped(&Url::new("/a"), "P").is_ok());
        assert!(matches!(
            coalesced.fetch_stamped(&Url::new("/missing"), "P"),
            Err(SourceError::NotFound(_))
        ));
        let stats = coalesced.stats();
        assert_eq!((stats.leaders, stats.followers), (2, 0));
        // A retired flight leaves no residue: the same URL fetches again.
        assert!(coalesced.fetch_stamped(&Url::new("/a"), "P").is_ok());
        assert_eq!(coalesced.stats().leaders, 3);
    }

    #[test]
    fn leader_panic_wakes_followers_with_error_not_hang() {
        let (src, entered_rx, release_tx) = GatedSource::new(true);
        let coalesced = CoalescingSource::new(&src);
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    coalesced.fetch_stamped(&Url::new("/boom"), "P")
                }))
            });
            entered_rx.recv().unwrap();
            let follower = scope.spawn(|| coalesced.fetch_stamped(&Url::new("/boom"), "P"));
            await_followers(&coalesced, 1);
            release_tx.send(()).unwrap();
            assert!(leader.join().unwrap().is_err(), "leader unwound");
            match follower.join().expect("follower must not hang or panic") {
                Err(SourceError::Other(m)) => assert!(m.contains("panicked"), "got: {m}"),
                other => panic!("expected leader-panic error, got {other:?}"),
            }
        });
    }

    /// The leader-panic + follower-cancel race: a follower whose URL is
    /// cancelled while it waits must wake itself with `Cancelled` even
    /// though the leader later panics (whose Retire guard publishes a
    /// leader-panic error into the same flight). Neither signal may hang
    /// or panic the follower, and the flight must still retire cleanly.
    #[test]
    fn leader_panic_races_follower_cancellation() {
        use obs::reqctx::with_budget;

        let (src, entered_rx, release_tx) = GatedSource::new(true);
        let coalesced = CoalescingSource::new(&src);
        let token = obs::CancelToken::new();
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    coalesced.fetch_stamped(&Url::new("/race"), "P")
                }))
            });
            entered_rx.recv().unwrap(); // leader is inside the source
            let follower = scope.spawn(|| {
                with_budget(obs::Deadline::infinite(), Some(token.clone()), || {
                    coalesced.fetch_stamped(&Url::new("/race"), "P")
                })
            });
            await_followers(&coalesced, 1);
            // Cancel the follower's URL while the leader is still stuck,
            // then let the leader blow up: both wake paths fire.
            token.cancel_url("/race");
            release_tx.send(()).unwrap();
            assert!(leader.join().unwrap().is_err(), "leader unwound");
            match follower.join().expect("follower must not hang or panic") {
                Err(SourceError::Cancelled(url)) => assert_eq!(url.as_str(), "/race"),
                // The leader's panic may win the race; that error is
                // clean too — but it must be one of exactly these two.
                Err(SourceError::Other(m)) => assert!(m.contains("panicked"), "got: {m}"),
                other => panic!("expected Cancelled or leader-panic error, got {other:?}"),
            }
        });
        // The retired flight leaves no residue and new fetches still work
        // (they will fail by panicking source, but the map must be empty).
        assert!(coalesced
            .flights
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_empty());
    }

    /// Pool workers honor the cancel token: a job whose URL is cancelled
    /// before a worker picks it up never reaches the source and completes
    /// with `Cancelled`.
    #[test]
    fn pool_workers_skip_cancelled_jobs_without_touching_source() {
        let src = CountingSource(AtomicUsize::new(0));
        let token = obs::CancelToken::new();
        token.cancel_url("/dead");
        let outcomes = obs::reqctx::with_budget(obs::Deadline::infinite(), Some(token), || {
            with_pool(&src, 2, None, None, |pool| {
                assert!(enqueue(pool, "/live"));
                assert!(enqueue(pool, "/dead"));
                (0..2)
                    .map(|_| {
                        let d = next_done(pool);
                        (d.job.url, d.outcome)
                    })
                    .collect::<Vec<_>>()
            })
        });
        for (url, outcome) in outcomes {
            if url.as_str() == "/dead" {
                assert!(matches!(outcome, Err(SourceError::Cancelled(_))));
            } else {
                assert!(outcome.is_ok());
            }
        }
        assert_eq!(
            src.0.load(Ordering::SeqCst),
            1,
            "the cancelled job must not reach the source"
        );
    }

    #[test]
    fn coalescing_composes_with_the_fetch_pool() {
        let src = CountingSource(AtomicUsize::new(0));
        let coalesced = CoalescingSource::new(&src);
        let total = with_pool(&coalesced, 4, None, None, |pool| {
            for _ in 0..4 {
                for i in 0..5 {
                    assert!(enqueue(pool, &format!("/{i}")));
                }
            }
            (0..20).filter(|_| next_done(pool).outcome.is_ok()).count()
        });
        assert_eq!(total, 20, "every submitted job completes");
        let stats = coalesced.stats();
        assert_eq!(stats.leaders + stats.followers, 20);
        assert_eq!(
            src.0.load(Ordering::SeqCst) as u64,
            stats.leaders,
            "inner fetches = leaders only"
        );
    }

    #[test]
    fn follower_join_links_to_the_leader_fetch_across_requests() {
        use obs::reqctx::{with_ctx, Attribution, FetchClock};

        let ctx = |req: u64| Attribution {
            sink: TraceSink::with_seed(req),
            parent: req * 100,
            request_id: req,
            clock: FetchClock::new(),
        };
        let (leader_ctx, follower_ctx) = (ctx(1), ctx(2));

        let (gated, entered_rx, release_tx) = GatedSource::new(false);
        let coalesced = CoalescingSource::new(&gated);
        std::thread::scope(|scope| {
            let lc = RequestCtx::traced(leader_ctx.clone());
            let leader = scope
                .spawn(|| with_ctx(Some(lc), || coalesced.fetch_stamped(&Url::new("/hot"), "P")));
            entered_rx.recv().unwrap(); // leader is inside the source
            let fc = RequestCtx::traced(follower_ctx.clone());
            let follower = scope
                .spawn(|| with_ctx(Some(fc), || coalesced.fetch_stamped(&Url::new("/hot"), "P")));
            await_followers(&coalesced, 1);
            release_tx.send(()).unwrap();
            assert!(leader.join().unwrap().is_ok());
            assert!(follower.join().unwrap().is_ok());
        });

        // The leader's request recorded the fetch it led...
        let lead_events = leader_ctx.sink.events();
        assert_eq!(lead_events.len(), 1);
        let lead = &lead_events[0];
        assert_eq!(lead.name, "fetch.lead");
        assert_eq!(lead.parent, Some(100));
        assert_eq!(lead.field_u64("request"), Some(1));
        // ...and the follower's request attributes its wait to it.
        let join_events = follower_ctx.sink.events();
        assert_eq!(join_events.len(), 1);
        let join = &join_events[0];
        assert_eq!(join.name, "fetch.join");
        assert_eq!(join.parent, Some(200));
        assert_eq!(join.field_u64("leader_request"), Some(1));
        assert_eq!(join.field_u64("leader_fetch"), Some(lead.id));
        assert!(join.field_u64("waited_us").is_some());
    }

    #[test]
    fn worker_panic_surfaces_as_source_error() {
        with_pool(&PanickySource, 2, None, None, |pool| {
            assert!(enqueue(pool, "/ok"));
            assert!(enqueue(pool, "/boom"));
            assert!(enqueue(pool, "/ok2"));
            let outcomes: Vec<_> = (0..3).map(|_| next_done(pool).outcome).collect();
            assert_eq!(outcomes.iter().filter(|o| o.is_ok()).count(), 2);
            let err = outcomes
                .iter()
                .find_map(|o| o.as_ref().err())
                .expect("one job failed");
            match err {
                SourceError::Other(m) => {
                    assert!(m.contains("fetch worker panicked"), "got: {m}");
                    assert!(m.contains("wrapper exploded"), "got: {m}");
                }
                other => panic!("unexpected error: {other:?}"),
            }
        });
    }
}
