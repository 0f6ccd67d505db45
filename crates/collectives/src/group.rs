//! The thread-rank runtime: [`World`] and [`Communicator`].

use crate::cost::CommCostModel;
use crate::error::{CallTag, CollectiveError};
use crate::stats::{CollectiveKind, CommStats, FP16_BYTES};
use mt_fault::{FaultAction, FaultPlan};
use mt_sync::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use mt_sync::time::Instant;
use mt_sync::{Condvar, Mutex};
use mt_tensor::Tensor;
use mt_trace::{ArgValue, SpanGuard, Tracer};
use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::Duration;

/// Default rendezvous deadline. Generous enough that healthy runs never
/// trip it; finite so a lost rank turns into an error instead of a hang.
pub const DEFAULT_COLLECTIVE_TIMEOUT: Duration = Duration::from_secs(60);

/// How often a point-to-point receive re-checks for dead peers while
/// waiting out its deadline.
const RECV_POLL: Duration = Duration::from_millis(10);

/// Row range `[start, end)` of chunk `j` when `rows` rows are split into
/// `chunks` equal-as-possible contiguous pieces. Ragged row counts are
/// allowed (chunks may be empty when `chunks > rows`); the ranges are
/// disjoint, ascending, and cover `0..rows` exactly. The runtime chunked
/// collectives, the overlapped GEMM driver's plan builder, and the
/// `mt-analyze` static extractor all use this one partition so the
/// schedules they describe agree byte for byte.
pub fn chunk_rows(rows: usize, chunks: usize, j: usize) -> (usize, usize) {
    assert!(chunks > 0, "chunk_rows: chunk count must be positive");
    assert!(j < chunks, "chunk_rows: chunk index {j} out of range for {chunks} chunks");
    (j * rows / chunks, (j + 1) * rows / chunks)
}

/// Shared rendezvous state for one collective "slot".
///
/// Correctness argument for reuse without generation counters: a rank only
/// deposits for collective *k+1* after it has taken its own result of
/// collective *k*; therefore when the last deposit of round *k+1* arrives,
/// every `results` cell is already empty and may be overwritten.
/// This requires the standard SPMD discipline that all ranks issue the same
/// collectives in the same order — the same requirement NCCL imposes. The
/// discipline itself is checked: the first depositor of a round records a
/// [`CallTag`] and later depositors must match it, so an SPMD bug poisons
/// the exchange with [`CollectiveError::SpmdMismatch`] instead of
/// deadlocking.
struct ExchangeState {
    deposits: Vec<Option<Tensor>>,
    deposited: usize,
    results: Vec<Option<Tensor>>,
    /// Tag of the in-flight round, set by its first depositor.
    tag: Option<CallTag>,
    /// First rank known to have died, if any.
    dead: Option<usize>,
    /// Sticky SPMD-mismatch failure; once set, every call fails fast.
    poisoned: Option<CollectiveError>,
}

struct Exchange {
    state: Mutex<ExchangeState>,
    cond: Condvar,
}

impl Exchange {
    fn new(n: usize) -> Self {
        Exchange {
            state: Mutex::new(ExchangeState {
                deposits: vec![None; n],
                deposited: 0,
                results: vec![None; n],
                tag: None,
                dead: None,
                poisoned: None,
            }),
            cond: Condvar::new(),
        }
    }

    /// Marks `rank` dead and wakes every waiter so blocked collectives fail
    /// with [`CollectiveError::RankDead`] instead of waiting out their
    /// deadlines.
    fn mark_dead(&self, rank: usize) {
        let mut st = self.state.lock();
        if st.dead.is_none() {
            st.dead = Some(rank);
        }
        drop(st);
        self.cond.notify_all();
    }

    /// The first rank known dead, if any.
    fn first_dead(&self) -> Option<usize> {
        self.state.lock().dead
    }

    /// Runs one collective round: rank `rank` contributes `input`; when all
    /// ranks have contributed, `combine` maps the deposits to one result per
    /// rank; each rank receives its result. Fails — always within
    /// `deadline` — if a peer never arrives, a rank is dead, or the round's
    /// ranks disagree on what collective they are in.
    fn try_exchange(
        &self,
        rank: usize,
        tag: CallTag,
        deadline: Duration,
        input: Tensor,
        combine: impl FnOnce(&mut Vec<Option<Tensor>>) -> Vec<Tensor>,
    ) -> Result<Tensor, CollectiveError> {
        let start = Instant::now();
        let mut st = self.state.lock();
        if let Some(err) = &st.poisoned {
            return Err(err.clone());
        }
        if let Some(dead_rank) = st.dead {
            return Err(CollectiveError::RankDead { rank, dead_rank });
        }
        match &st.tag {
            None => st.tag = Some(tag.clone()),
            Some(current) if !tag_matches(current, &tag) => {
                let err = CollectiveError::SpmdMismatch {
                    rank,
                    expected: Box::new(current.clone()),
                    found: Box::new(tag),
                };
                st.poisoned = Some(err.clone());
                drop(st);
                self.cond.notify_all();
                return Err(err);
            }
            Some(_) => {}
        }
        debug_assert!(st.deposits[rank].is_none(), "rank {rank} double-deposited");
        debug_assert!(st.results[rank].is_none(), "rank {rank} result not consumed");
        st.deposits[rank] = Some(input);
        st.deposited += 1;
        if st.deposited == st.deposits.len() {
            let results = combine(&mut st.deposits);
            debug_assert_eq!(results.len(), st.results.len());
            for (slot, r) in st.results.iter_mut().zip(results) {
                *slot = Some(r);
            }
            for d in st.deposits.iter_mut() {
                *d = None;
            }
            st.deposited = 0;
            st.tag = None;
            self.cond.notify_all();
        } else {
            while st.results[rank].is_none() {
                if let Some(err) = &st.poisoned {
                    return Err(err.clone());
                }
                if let Some(dead_rank) = st.dead {
                    return Err(CollectiveError::RankDead { rank, dead_rank });
                }
                let Some(remaining) = deadline.checked_sub(start.elapsed()) else {
                    return Err(CollectiveError::Timeout {
                        rank,
                        op: st.tag.as_ref().map_or("collective", |t| t.op),
                        waited: start.elapsed(),
                    });
                };
                self.cond.wait_for(&mut st, remaining);
                // Seeded bug `skip-recheck` (mt-check self-validation):
                // trust the wakeup instead of looping back to re-check the
                // predicate — the classic spurious-wakeup bug.
                #[cfg(mt_check)]
                if mt_sync::mutation::armed("skip-recheck") {
                    break;
                }
            }
        }
        Ok(st.results[rank].take().expect("result present after wakeup"))
    }
}

/// Whether a later depositor's tag matches the in-flight round's. This is
/// plain [`CallTag`] equality — epoch included, which is what fences
/// cross-formation stragglers — except under the seeded `skip-epoch-check`
/// bug (mt-check self-validation), which ignores the epoch the way a
/// hand-rolled comparison forgetting the field would.
fn tag_matches(current: &CallTag, tag: &CallTag) -> bool {
    #[cfg(mt_check)]
    if mt_sync::mutation::armed("skip-epoch-check") {
        let mut t = tag.clone();
        t.epoch = current.epoch;
        return *current == t;
    }
    *current == *tag
}

/// A group of `n` simulated ranks.
///
/// The usual entry point is [`World::run`], which spawns one thread per rank
/// and hands each a [`Communicator`]. For chaos testing and recovery
/// drivers, configure a world with [`World::set_fault_plan`] /
/// [`World::set_collective_timeout`] and use [`World::run_fallible`], which
/// converts rank panics into per-rank errors instead of propagating.
pub struct World {
    size: usize,
    exchange: Arc<Exchange>,
    // p2p[from][to] channel endpoints, created once up front.
    senders: Vec<Vec<Sender<Tensor>>>,
    receivers: Vec<Vec<Option<Receiver<Tensor>>>>,
    tracer: Tracer,
    timeout: Duration,
    fault_plan: Option<Arc<FaultPlan>>,
    link: Option<CommCostModel>,
    epoch: u64,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World").field("size", &self.size).finish()
    }
}

impl World {
    /// Creates a world of `size` ranks without spawning threads. Use
    /// [`World::communicator`] to extract per-rank handles and drive them
    /// from threads you manage yourself; most callers want [`World::run`].
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "World requires at least one rank");
        let mut senders = vec![Vec::with_capacity(size); size];
        let mut receivers: Vec<Vec<Option<Receiver<Tensor>>>> =
            (0..size).map(|_| (0..size).map(|_| None).collect()).collect();
        for from in 0..size {
            #[allow(clippy::needless_range_loop)] // `to` addresses the matching receiver slot
            for to in 0..size {
                let (tx, rx) = unbounded();
                senders[from].push(tx);
                receivers[to][from] = Some(rx);
            }
        }
        World {
            size,
            exchange: Arc::new(Exchange::new(size)),
            senders,
            receivers,
            tracer: Tracer::disabled(),
            timeout: DEFAULT_COLLECTIVE_TIMEOUT,
            fault_plan: None,
            link: None,
            epoch: 0,
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Attaches a tracer. Communicators extracted afterwards record each
    /// collective as a span on their rank's track.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Sets the rendezvous deadline for communicators extracted afterwards.
    /// Defaults to [`DEFAULT_COLLECTIVE_TIMEOUT`]; chaos tests use a short
    /// deadline so failures surface in bounded time.
    pub fn set_collective_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    /// Installs a deterministic fault plan. Communicators extracted
    /// afterwards consult it before every collective and point-to-point
    /// call, injecting panics, straggler delays, or transient failures at
    /// the planned coordinates (visible as `fault_injected` /
    /// `fault_recovered` trace instants).
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.fault_plan = Some(plan);
    }

    /// Installs a simulated link: communicators extracted afterwards sleep
    /// for the α–β ring wire time of each collective after its rendezvous
    /// completes. Rendezvous over shared memory is otherwise near-instant,
    /// so benchmarks that want to measure comm/compute *overlap* need a
    /// link with realistic (deterministic) transfer time. Ranks sleep
    /// concurrently, and a sleeping rank thread frees its CPU for the
    /// compute workers — exactly the resource picture of a DMA'd NCCL
    /// transfer.
    pub fn set_link_cost(&mut self, model: CommCostModel) {
        self.link = Some(model);
    }

    /// Sets the world-formation epoch stamped into every [`CallTag`] built
    /// by communicators extracted afterwards. A fresh world is epoch 0;
    /// elastic recovery re-forms survivors into a new world at `epoch + 1`,
    /// so a straggler communicator from the previous formation that reaches
    /// a re-formed round fails fast as
    /// [`CollectiveError::SpmdMismatch`] naming both epochs rather than
    /// corrupting the round or deadlocking it.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// The world-formation epoch communicators are currently extracted at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Extracts the communicator for `rank`. Each rank may be taken once.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range or its communicator was already
    /// taken.
    pub fn communicator(&mut self, rank: usize) -> Communicator {
        assert!(rank < self.size, "rank {rank} out of range");
        let inboxes: Vec<Receiver<Tensor>> = self.receivers[rank]
            .iter_mut()
            .map(|slot| slot.take().expect("communicator already taken"))
            .collect();
        Communicator {
            rank,
            size: self.size,
            exchange: Arc::clone(&self.exchange),
            peers: self.senders.iter().map(|row| row[rank].clone()).collect::<Vec<_>>(),
            outboxes: self.senders[rank].clone(),
            inboxes,
            stats: RefCell::new(CommStats::new()),
            tracer: self.tracer.with_track(rank as u32),
            timeout: self.timeout,
            fault_plan: self.fault_plan.clone(),
            link: self.link,
            epoch: self.epoch,
            seq: Cell::new(0),
        }
    }

    /// Spawns one thread per rank, runs `f(communicator)` on each, and
    /// returns the per-rank results in rank order.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any rank thread, including collective
    /// failures (the infallible collective methods raise
    /// [`CollectiveError`] as a panic payload).
    pub fn run<T, F>(size: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Communicator) -> T + Sync,
    {
        Self::run_traced(size, &Tracer::disabled(), f)
    }

    /// [`World::run`] with tracing: each rank thread gets a communicator
    /// whose collectives record spans on track `rank`, and the tracer is
    /// installed as the thread's current tracer so instrumentation deeper
    /// in the stack (model phases, kernel spans) attributes to the same
    /// rank lane.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any rank thread.
    pub fn run_traced<T, F>(size: usize, tracer: &Tracer, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Communicator) -> T + Sync,
    {
        let mut world = World::new(size);
        world.set_tracer(tracer.clone());
        let comms: Vec<Communicator> = (0..size).map(|r| world.communicator(r)).collect();
        mt_sync::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|comm| {
                    scope.spawn(|| {
                        let _installed = mt_trace::install(comm.tracer().clone());
                        f(comm)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(t) => t,
                    Err(payload) => match payload.downcast::<CollectiveError>() {
                        Ok(err) => panic!("rank thread failed: {err}"),
                        Err(_) => panic!("rank thread panicked"),
                    },
                })
                .collect()
        })
    }

    /// Spawns one thread per rank like [`World::run`], but catches rank
    /// panics instead of propagating them: a panicked rank is marked dead
    /// (waking any peer blocked on it with [`CollectiveError::RankDead`])
    /// and its slot in the returned vector carries the error. Never hangs
    /// and never unwinds out of the calling thread, which is what a
    /// retry-with-recovery driver needs.
    ///
    /// Collective failures raised through the infallible methods (panic
    /// payloads of type [`CollectiveError`]) are recovered as that error;
    /// any other panic is reported as `RankDead` for its own rank.
    pub fn run_fallible<T, F>(&mut self, f: F) -> Vec<Result<T, CollectiveError>>
    where
        T: Send,
        F: Fn(Communicator) -> Result<T, CollectiveError> + Sync,
    {
        let exchange = Arc::clone(&self.exchange);
        let comms: Vec<Communicator> = (0..self.size).map(|r| self.communicator(r)).collect();
        mt_sync::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|comm| {
                    let exchange = Arc::clone(&exchange);
                    let f = &f;
                    scope.spawn(move || {
                        let rank = comm.rank();
                        let _installed = mt_trace::install(comm.tracer().clone());
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(comm))) {
                            Ok(result) => {
                                if result.is_err() {
                                    // A rank that bailed out of the SPMD
                                    // program will never rendezvous again;
                                    // unblock any peer waiting on it.
                                    exchange.mark_dead(rank);
                                }
                                result
                            }
                            Err(payload) => {
                                exchange.mark_dead(rank);
                                match payload.downcast::<CollectiveError>() {
                                    Ok(err) => Err(*err),
                                    Err(_) => {
                                        Err(CollectiveError::RankDead { rank, dead_rank: rank })
                                    }
                                }
                            }
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("rank wrapper catches panics")).collect()
        })
    }
}

/// Raises a collective failure as a panic carrying the typed error, so the
/// infallible API stays ergonomic while [`World::run_fallible`] can still
/// recover the precise cause.
fn raise(err: CollectiveError) -> ! {
    std::panic::panic_any(err)
}

/// What one rendezvous round computes from the ranks' deposits — the private
/// descriptor every public collective method hands to
/// [`Communicator::rendezvous`].
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Element-wise sum; every rank receives it.
    Sum,
    /// Element-wise maximum; every rank receives it.
    Max,
    /// Concatenation along axis 0 in rank order; every rank receives it.
    Gather,
    /// Element-wise sum; rank `r` receives chunk `r` of it along axis 0.
    ReduceScatter,
    /// Every rank receives `root`'s deposit.
    Broadcast { root: usize },
    /// No data; completing the round is the synchronization.
    Barrier,
}

impl Op {
    /// The op string of the call tag and of the fault-plan coordinate: the
    /// kind's name, except that a max-reduction must not pair with a sum.
    fn name(self) -> &'static str {
        if matches!(self, Op::Max) {
            "all_reduce_max"
        } else {
            self.kind().name()
        }
    }

    /// The stats/span/cost-model kind the round is booked under.
    fn kind(self) -> CollectiveKind {
        match self {
            Op::Sum | Op::Max => CollectiveKind::AllReduce,
            Op::Gather => CollectiveKind::AllGather,
            Op::ReduceScatter => CollectiveKind::ReduceScatter,
            Op::Broadcast { .. } => CollectiveKind::Broadcast,
            Op::Barrier => CollectiveKind::Barrier,
        }
    }

    fn root(self) -> Option<usize> {
        match self {
            Op::Broadcast { root } => Some(root),
            _ => None,
        }
    }

    /// Maps a complete round's deposits to one result per rank. Runs on the
    /// last arriver, under the exchange lock. Reductions accumulate in
    /// ascending rank order, which is what keeps chunked and whole-tensor
    /// calls bit-identical.
    fn combine(self, deposits: &mut [Option<Tensor>]) -> Vec<Tensor> {
        let n = deposits.len();
        match self {
            Op::Sum | Op::Max | Op::ReduceScatter => {
                let mut acc = deposits[0].take().expect("deposit 0 present");
                for d in deposits.iter().skip(1) {
                    let other = d.as_ref().expect("deposit present");
                    if matches!(self, Op::Max) {
                        for (a, &b) in acc.data_mut().iter_mut().zip(other.data()) {
                            *a = a.max(b);
                        }
                    } else {
                        acc.add_assign(other);
                    }
                }
                if matches!(self, Op::ReduceScatter) {
                    acc.chunk_axis0(n).expect("axis 0 divisibility checked before the rendezvous")
                } else {
                    vec![acc; n]
                }
            }
            Op::Gather => {
                let parts: Vec<Tensor> =
                    deposits.iter().map(|d| d.as_ref().expect("deposit present").clone()).collect();
                vec![Tensor::concat_axis0(&parts); n]
            }
            // A barrier's deposits are all the same empty tensor.
            Op::Broadcast { .. } | Op::Barrier => {
                vec![deposits[self.root().unwrap_or(0)].take().expect("root deposit present"); n]
            }
        }
    }
}

/// Per-rank handle for collectives and point-to-point messaging.
///
/// All collective methods must be called by **every** rank of the world in
/// the same order (SPMD), exactly like NCCL. Each call is recorded in a
/// per-rank [`CommStats`] ledger retrievable with [`Communicator::stats`].
///
/// Operations come in an infallible spelling (`all_reduce`, `recv`, ...)
/// used by model code and a fallible `try_*` spelling returning
/// [`CollectiveError`]. Every collective is a thin adapter onto one
/// deadline-checked rendezvous body — the infallible methods simply raise
/// its error as a panic payload — so no call can block past the world's
/// configured timeout.
pub struct Communicator {
    rank: usize,
    size: usize,
    exchange: Arc<Exchange>,
    // `peers[from]` sends towards *this* rank; kept so that Communicator is
    // self-contained. `outboxes[to]` sends from this rank to `to`.
    #[allow(dead_code)]
    peers: Vec<Sender<Tensor>>,
    outboxes: Vec<Sender<Tensor>>,
    inboxes: Vec<Receiver<Tensor>>,
    stats: RefCell<CommStats>,
    tracer: Tracer,
    timeout: Duration,
    fault_plan: Option<Arc<FaultPlan>>,
    link: Option<CommCostModel>,
    // World-formation epoch stamped into every CallTag this rank builds.
    epoch: u64,
    // Index of the next collective/p2p call on this rank; fault plans
    // address injection points by (rank, seq).
    seq: Cell<u64>,
}

impl std::fmt::Debug for Communicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Communicator").field("rank", &self.rank).field("size", &self.size).finish()
    }
}

impl Communicator {
    /// This rank's index in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the group.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Snapshot of this rank's communication ledger.
    pub fn stats(&self) -> CommStats {
        self.stats.borrow().clone()
    }

    /// The tracer this communicator records spans on (disabled unless the
    /// world had one attached).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The rendezvous deadline this communicator was extracted with.
    pub fn collective_timeout(&self) -> Duration {
        self.timeout
    }

    /// The world-formation epoch this communicator stamps into its tags
    /// (see [`World::set_epoch`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Records the stats entry for one collective call and opens its span,
    /// tagged with the kind, logical payload bytes, analytical ring wire
    /// bytes, and group size — plus, for one chunk of a chunked collective,
    /// the sub-rendezvous coordinate, so a trace shows `C` distinct chunk
    /// spans instead of one opaque whole-tensor span. The span covers the
    /// blocking exchange.
    fn record_traced(
        &self,
        kind: CollectiveKind,
        payload_elems: u64,
        chunk: Option<(usize, usize)>,
    ) -> SpanGuard {
        self.stats.borrow_mut().record(kind, payload_elems, self.size as u64);
        let payload_bytes = payload_elems * FP16_BYTES;
        let n = self.size as u64;
        self.tracer.span_args(kind.name(), move || {
            let mut args = vec![
                ("kind", ArgValue::Str(kind.name().to_string())),
                ("payload_bytes", ArgValue::U64(payload_bytes)),
                ("wire_bytes", ArgValue::U64(kind.ring_wire_bytes(payload_bytes, n))),
                ("group_size", ArgValue::U64(n)),
            ];
            if let Some((j, chunks)) = chunk {
                args.push(("chunk", ArgValue::U64(j as u64)));
                args.push(("chunks", ArgValue::U64(chunks as u64)));
            }
            args
        })
    }

    /// Sleeps for the simulated ring wire time of one collective, if the
    /// world has a link cost model installed. Called after the rendezvous
    /// succeeds so every rank of the round sleeps concurrently.
    fn simulate_link(&self, kind: CollectiveKind, payload_elems: u64) {
        if let Some(model) = &self.link {
            let payload_bytes = payload_elems * FP16_BYTES;
            let secs = model.time(kind, payload_bytes, self.size as u64);
            if secs > 0.0 {
                mt_sync::thread::sleep(Duration::from_secs_f64(secs));
            }
        }
    }

    /// The **single** constructor for collective call tags. Every collective
    /// entry point in this crate builds its [`CallTag`] here, so no call
    /// site can omit the tag or hand-roll one with a wrong shape or root —
    /// `mt-lint` (rule `hand-rolled-call-tag`) rejects any other `CallTag`
    /// struct literal in collective code.
    fn call_tag(
        &self,
        op: &'static str,
        shape: &[usize],
        root: Option<usize>,
        chunk: Option<(usize, usize)>,
    ) -> CallTag {
        CallTag { op, shape: shape.to_vec(), root, chunk, epoch: self.epoch }
    }

    /// Consults the world's fault plan before a call. Returns `Err` for an
    /// injected transient failure (without consuming the call's sequence
    /// number, so the retry lands on the same coordinate), panics for an
    /// injected rank death, sleeps for an injected straggler delay.
    fn fault_gate(&self, op: &'static str) -> Result<(), CollectiveError> {
        let seq = self.seq.get();
        let Some(plan) = &self.fault_plan else {
            self.seq.set(seq + 1);
            return Ok(());
        };
        let rank = self.rank;
        let emit = |name: &'static str, kind: &'static str| {
            self.tracer.instant_args(name, || {
                vec![
                    ("op", ArgValue::Str(op.to_string())),
                    ("kind", ArgValue::Str(kind.to_string())),
                    ("rank", ArgValue::U64(rank as u64)),
                    ("seq", ArgValue::U64(seq)),
                ]
            });
        };
        match plan.poll_collective(rank, seq) {
            Some(FaultAction::Panic) => {
                emit("fault_injected", "panic");
                panic!("mt-fault: injected panic on rank {rank} at collective #{seq} ({op})");
            }
            Some(FaultAction::Delay { micros }) => {
                emit("fault_injected", "delay");
                mt_sync::thread::sleep(Duration::from_micros(micros));
            }
            Some(FaultAction::Fail) => {
                emit("fault_injected", "transient");
                return Err(CollectiveError::InjectedTransient { rank, seq });
            }
            Some(FaultAction::Recovered) => emit("fault_recovered", "transient"),
            None => {}
        }
        self.seq.set(seq + 1);
        Ok(())
    }

    /// This rank's deposit for sub-rendezvous `j` of `chunks`: rows
    /// `chunk_rows(shard_rows, chunks, j)` of its shard (gather), or those
    /// rows of every destination's shard, concatenated in destination order
    /// (reduce-scatter).
    fn chunk_deposit(&self, op: Op, x: &Tensor, j: usize, chunks: usize) -> Tensor {
        let rows = x.shape()[0];
        let row_elems = x.numel().checked_div(rows).unwrap_or(0);
        let dests = if matches!(op, Op::ReduceScatter) { self.size } else { 1 };
        let shard_rows = rows / dests;
        let (a, b) = chunk_rows(shard_rows, chunks, j);
        let mut data = Vec::with_capacity(dests * (b - a) * row_elems);
        for d in 0..dests {
            let lo = (d * shard_rows + a) * row_elems;
            let hi = (d * shard_rows + b) * row_elems;
            data.extend_from_slice(&x.data()[lo..hi]);
        }
        let mut shape = x.shape().to_vec();
        shape[0] = dests * (b - a);
        Tensor::from_vec_unchecked(shape, data)
    }

    /// The **single** rendezvous body every collective runs: fault gate →
    /// stats entry + span → call tag → deadline-checked exchange → simulated
    /// link time. `chunk: Some((j, C))` makes it sub-rendezvous `j` of a
    /// `C`-chunk collective: the deposit is this rank's [`chunk_rows`] slice
    /// and the coordinate joins the span and the SPMD tag, so ranks
    /// diverging on chunk order fail with [`CollectiveError::SpmdMismatch`]
    /// rather than mis-pairing rounds.
    ///
    /// Shape preconditions are checked here, before the rendezvous, on every
    /// rank — a bad call panics where it was made instead of on whichever
    /// rank happens to arrive last.
    fn rendezvous(
        &self,
        op: Op,
        x: &Tensor,
        chunk: Option<(usize, usize)>,
    ) -> Result<Tensor, CollectiveError> {
        let n = self.size;
        if let Some(root) = op.root() {
            assert!(root < n, "broadcast: root {root} out of range");
        }
        if matches!(op, Op::ReduceScatter) {
            let rows = x.shape()[0];
            assert!(
                rows.is_multiple_of(n),
                "reduce_scatter: axis 0 ({rows}) not divisible by group size {n}"
            );
        }
        self.fault_gate(op.name())?;
        let input = match chunk {
            None => x.clone(),
            Some((j, chunks)) => self.chunk_deposit(op, x, j, chunks),
        };
        let kind = op.kind();
        // An all-gather's logical payload is the full gathered tensor.
        let payload = (input.numel() * if matches!(op, Op::Gather) { n } else { 1 }) as u64;
        let _span = self.record_traced(kind, payload, chunk);
        // Non-root broadcast contributions are ignored and a barrier carries
        // none, so their tags check only the op (and root), not a shape.
        let untyped = matches!(op, Op::Broadcast { .. } | Op::Barrier);
        let shape: &[usize] = if untyped { &[] } else { input.shape() };
        let tag = self.call_tag(op.name(), shape, op.root(), chunk);
        let out =
            self.exchange.try_exchange(self.rank, tag, self.timeout, input, |d| op.combine(d))?;
        // A barrier moves no data and pays no wire time.
        if !matches!(op, Op::Barrier) {
            self.simulate_link(kind, payload);
        }
        Ok(out)
    }

    /// A chunked collective as a whole: issues its `chunks` sub-rendezvous in
    /// ascending order and copies each piece into place as it arrives. A
    /// reduce-scatter piece is rows `chunk_rows(shard_rows, chunks, j)` of
    /// this rank's result shard; an all-gather piece holds those rows of
    /// every rank's shard in rank order.
    fn chunked(&self, op: Op, x: &Tensor, chunks: usize) -> Result<Tensor, CollectiveError> {
        let (out_ranks, rows) = match op {
            Op::ReduceScatter => (1, x.shape()[0] / self.size),
            _ => (self.size, x.shape()[0]),
        };
        let row_elems = x.numel().checked_div(x.shape()[0]).unwrap_or(0);
        let mut out = vec![0.0f32; out_ranks * rows * row_elems];
        for j in 0..chunks {
            let piece = self.rendezvous(op, x, Some((j, chunks)))?;
            let (a, b) = chunk_rows(rows, chunks, j);
            // Rank i's rows of this chunk land at result rows i*rows + a..b.
            for i in 0..out_ranks {
                let src = &piece.data()[i * (b - a) * row_elems..(i + 1) * (b - a) * row_elems];
                out[(i * rows + a) * row_elems..(i * rows + b) * row_elems].copy_from_slice(src);
            }
        }
        let mut shape = x.shape().to_vec();
        shape[0] = out_ranks * rows;
        Ok(Tensor::from_vec_unchecked(shape, out))
    }

    /// Element-wise sum across ranks; every rank receives the full result.
    ///
    /// # Panics
    ///
    /// Raises the [`CollectiveError`] from [`Communicator::try_all_reduce`]
    /// as a panic payload.
    pub fn all_reduce(&self, x: &Tensor) -> Tensor {
        self.try_all_reduce(x).unwrap_or_else(|e| raise(e))
    }

    /// Fallible [`Communicator::all_reduce`].
    pub fn try_all_reduce(&self, x: &Tensor) -> Result<Tensor, CollectiveError> {
        self.rendezvous(Op::Sum, x, None)
    }

    /// Element-wise maximum across ranks; every rank receives the full
    /// result. Used by the vocabulary-parallel softmax (the max-subtraction
    /// step needs the global row maximum).
    ///
    /// # Panics
    ///
    /// Raises the [`CollectiveError`] from
    /// [`Communicator::try_all_reduce_max`] as a panic payload.
    pub fn all_reduce_max(&self, x: &Tensor) -> Tensor {
        self.try_all_reduce_max(x).unwrap_or_else(|e| raise(e))
    }

    /// Fallible [`Communicator::all_reduce_max`].
    pub fn try_all_reduce_max(&self, x: &Tensor) -> Result<Tensor, CollectiveError> {
        self.rendezvous(Op::Max, x, None)
    }

    /// Concatenates per-rank shards along axis 0 in rank order; every rank
    /// receives the full tensor. Inverse of [`Communicator::reduce_scatter`]
    /// in the shapes it produces.
    ///
    /// # Panics
    ///
    /// Raises the [`CollectiveError`] from [`Communicator::try_all_gather`]
    /// as a panic payload.
    pub fn all_gather(&self, shard: &Tensor) -> Tensor {
        self.try_all_gather(shard).unwrap_or_else(|e| raise(e))
    }

    /// Fallible [`Communicator::all_gather`].
    pub fn try_all_gather(&self, shard: &Tensor) -> Result<Tensor, CollectiveError> {
        self.rendezvous(Op::Gather, shard, None)
    }

    /// [`Communicator::all_gather`] split into `chunks` sub-rendezvous along
    /// axis 0 of the shard: chunk `j` gathers rows
    /// `chunk_rows(shard_rows, chunks, j)` of every rank's shard and the
    /// results are assembled into the same full tensor `all_gather` returns.
    /// Total payload, ledger entries, and wire bytes are identical to the
    /// unchunked call (each of the `C` rounds carries `1/C` of the rows);
    /// only the rendezvous granularity changes, which is what lets a
    /// consumer overlap computation with the remaining chunks — see
    /// [`Communicator::all_gather_chunk`] for the piecewise form.
    ///
    /// # Panics
    ///
    /// Raises the [`CollectiveError`] from
    /// [`Communicator::try_all_gather_chunked`] as a panic payload.
    pub fn all_gather_chunked(&self, shard: &Tensor, chunks: usize) -> Tensor {
        self.try_all_gather_chunked(shard, chunks).unwrap_or_else(|e| raise(e))
    }

    /// Fallible [`Communicator::all_gather_chunked`].
    pub fn try_all_gather_chunked(
        &self,
        shard: &Tensor,
        chunks: usize,
    ) -> Result<Tensor, CollectiveError> {
        self.chunked(Op::Gather, shard, chunks)
    }

    /// One sub-rendezvous of a chunked all-gather: gathers rows
    /// `chunk_rows(shard_rows, chunks, j)` of every rank's shard,
    /// concatenated in rank order (shape `[n·chunk_rows, ...]`). All ranks
    /// must issue the chunks of one logical gather in ascending `j` order —
    /// the chunk coordinate is part of the SPMD call tag, so divergence
    /// fails with [`CollectiveError::SpmdMismatch`] rather than mis-pairing
    /// rounds. Used directly by the overlapped GEMM driver, which starts
    /// consuming chunk `j` while chunk `j+1` is still in flight.
    ///
    /// # Panics
    ///
    /// Raises the rendezvous' [`CollectiveError`] as a panic payload.
    pub fn all_gather_chunk(&self, shard: &Tensor, j: usize, chunks: usize) -> Tensor {
        self.rendezvous(Op::Gather, shard, Some((j, chunks))).unwrap_or_else(|e| raise(e))
    }

    /// Element-wise sums the per-rank full tensors, then scatters: rank `r`
    /// receives chunk `r` of the sum along axis 0.
    ///
    /// # Panics
    ///
    /// Raises the [`CollectiveError`] from
    /// [`Communicator::try_reduce_scatter`] as a panic payload, or panics
    /// if the tensors' axis 0 is not divisible by the group size.
    pub fn reduce_scatter(&self, x: &Tensor) -> Tensor {
        self.try_reduce_scatter(x).unwrap_or_else(|e| raise(e))
    }

    /// Fallible [`Communicator::reduce_scatter`].
    pub fn try_reduce_scatter(&self, x: &Tensor) -> Result<Tensor, CollectiveError> {
        self.rendezvous(Op::ReduceScatter, x, None)
    }

    /// [`Communicator::reduce_scatter`] split into `chunks` sub-rendezvous
    /// along axis 0 of the *result shard*: chunk `j` reduces and scatters
    /// rows `chunk_rows(shard_rows, chunks, j)` of every destination rank's
    /// shard, and the pieces are assembled into the same shard
    /// `reduce_scatter` returns. Reduction order is the same ascending-rank
    /// accumulator chain as the unchunked call, so the result is
    /// bit-identical; payload, ledger entries, and wire bytes also match
    /// exactly (each round carries `1/C` of the rows). All ranks must issue
    /// the same `chunks`; the coordinate is part of the SPMD call tag.
    ///
    /// # Panics
    ///
    /// Raises the rendezvous' [`CollectiveError`] as a panic payload, or
    /// panics if axis 0 is not divisible by the group size.
    pub fn reduce_scatter_chunked(&self, x: &Tensor, chunks: usize) -> Tensor {
        self.chunked(Op::ReduceScatter, x, chunks).unwrap_or_else(|e| raise(e))
    }

    /// Broadcasts `root`'s tensor to every rank. Non-root contributions are
    /// ignored (pass anything of the right type, e.g. an empty tensor), so
    /// the SPMD tag checks only the op and root, not the shape.
    ///
    /// # Panics
    ///
    /// Panics if `root` is out of range, or raises the [`CollectiveError`]
    /// from [`Communicator::try_broadcast`] as a panic payload.
    pub fn broadcast(&self, x: &Tensor, root: usize) -> Tensor {
        self.try_broadcast(x, root).unwrap_or_else(|e| raise(e))
    }

    /// Fallible [`Communicator::broadcast`].
    pub fn try_broadcast(&self, x: &Tensor, root: usize) -> Result<Tensor, CollectiveError> {
        self.rendezvous(Op::Broadcast { root }, x, None)
    }

    /// Synchronizes all ranks without moving data.
    ///
    /// # Panics
    ///
    /// Raises the [`CollectiveError`] from [`Communicator::try_barrier`] as
    /// a panic payload.
    pub fn barrier(&self) {
        self.try_barrier().unwrap_or_else(|e| raise(e))
    }

    /// Fallible [`Communicator::barrier`].
    pub fn try_barrier(&self) -> Result<(), CollectiveError> {
        self.rendezvous(Op::Barrier, &Tensor::zeros(&[0]), None).map(|_| ())
    }

    /// Sends `x` to rank `to` (non-blocking; the channel is unbounded).
    ///
    /// # Panics
    ///
    /// Panics if `to` is out of range, or raises the [`CollectiveError`]
    /// from [`Communicator::try_send`] as a panic payload.
    pub fn send(&self, to: usize, x: &Tensor) {
        self.try_send(to, x).unwrap_or_else(|e| raise(e))
    }

    /// Fallible [`Communicator::send`].
    pub fn try_send(&self, to: usize, x: &Tensor) -> Result<(), CollectiveError> {
        assert!(to < self.size, "send: destination {to} out of range");
        self.fault_gate("send")?;
        let _span = self.record_traced(CollectiveKind::SendRecv, x.numel() as u64, None);
        self.outboxes[to]
            .send(x.clone())
            .map_err(|_| CollectiveError::PeerDisconnected { rank: self.rank, peer: to })
    }

    /// Blocks until a tensor arrives from rank `from`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range, or raises the [`CollectiveError`]
    /// from [`Communicator::try_recv`] as a panic payload.
    pub fn recv(&self, from: usize) -> Tensor {
        self.try_recv(from).unwrap_or_else(|e| raise(e))
    }

    /// Fallible [`Communicator::recv`]: waits up to the world's collective
    /// timeout, failing early if the sending rank dies.
    pub fn try_recv(&self, from: usize) -> Result<Tensor, CollectiveError> {
        assert!(from < self.size, "recv: source {from} out of range");
        self.fault_gate("recv")?;
        let _span = self.tracer.span_args("recv", || vec![("from", ArgValue::U64(from as u64))]);
        let start = Instant::now();
        loop {
            if let Some(dead_rank) = self.exchange.first_dead() {
                return Err(CollectiveError::RankDead { rank: self.rank, dead_rank });
            }
            let Some(remaining) = self.timeout.checked_sub(start.elapsed()) else {
                return Err(CollectiveError::Timeout {
                    rank: self.rank,
                    op: "recv",
                    waited: start.elapsed(),
                });
            };
            match self.inboxes[from].recv_timeout(remaining.min(RECV_POLL)) {
                Ok(t) => return Ok(t),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CollectiveError::PeerDisconnected { rank: self.rank, peer: from })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_collectives_emit_spans_matching_stats() {
        let tracer = Tracer::enabled();
        let stats = World::run_traced(4, &tracer, |c| {
            let x = Tensor::from_fn(&[6], |i| i as f32);
            c.all_reduce(&x);
            let shard = Tensor::full(&[2], c.rank() as f32);
            c.all_gather(&shard);
            c.barrier();
            c.stats()
        });
        let events = tracer.events();
        // Every rank records one span per collective, on its own track.
        for rank in 0..4u32 {
            let lane: Vec<_> = events.iter().filter(|e| e.track == rank).collect();
            let names: Vec<&str> = lane.iter().map(|e| e.name.as_ref()).collect();
            assert_eq!(names, ["all_reduce", "all_gather", "barrier"], "rank {rank}");
        }
        // Span wire-bytes args agree exactly with the CommStats ledger and
        // the analytical ring formula.
        let per_rank_wire: u64 = events
            .iter()
            .filter(|e| e.track == 0)
            .flat_map(|e| e.args.iter())
            .filter(|(k, _)| *k == "wire_bytes")
            .map(|(_, v)| match v {
                ArgValue::U64(b) => *b,
                other => panic!("wire_bytes arg not U64: {other:?}"),
            })
            .sum();
        assert_eq!(per_rank_wire, stats[0].total_wire_bytes());
        assert_eq!(
            per_rank_wire,
            CollectiveKind::AllReduce.ring_wire_bytes(6 * FP16_BYTES, 4)
                + CollectiveKind::AllGather.ring_wire_bytes(4 * 2 * FP16_BYTES, 4)
        );
    }

    #[test]
    fn untraced_world_records_no_events() {
        let tracer = Tracer::disabled();
        World::run_traced(2, &tracer, |c| {
            c.all_reduce(&Tensor::full(&[2], 1.0));
        });
        assert!(tracer.events().is_empty());
    }

    #[test]
    fn all_reduce_sums_across_ranks() {
        let out = World::run(4, |c| {
            let x = Tensor::from_fn(&[3], |i| (c.rank() * 10 + i) as f32);
            c.all_reduce(&x)
        });
        // Sum over ranks of [10r, 10r+1, 10r+2] = [60, 64, 68].
        for t in &out {
            assert_eq!(t.data(), &[60., 64., 68.]);
        }
    }

    #[test]
    fn all_reduce_max_takes_elementwise_maximum() {
        let out = World::run(3, |c| {
            // Rank r contributes [r, -r, r²].
            let r = c.rank() as f32;
            let x = Tensor::from_vec(vec![3], vec![r, -r, r * r]).unwrap();
            c.all_reduce_max(&x)
        });
        for t in &out {
            assert_eq!(t.data(), &[2.0, 0.0, 4.0]);
        }
    }

    #[test]
    fn all_gather_orders_by_rank() {
        let out = World::run(3, |c| {
            let shard = Tensor::full(&[1, 2], c.rank() as f32);
            c.all_gather(&shard)
        });
        for t in &out {
            assert_eq!(t.shape(), &[3, 2]);
            assert_eq!(t.data(), &[0., 0., 1., 1., 2., 2.]);
        }
    }

    #[test]
    fn reduce_scatter_gives_rank_chunks_of_the_sum() {
        let out = World::run(2, |c| {
            // Both ranks contribute [0,1,2,3]; sum = [0,2,4,6].
            let x = Tensor::from_fn(&[4, 1], |i| i as f32);
            (c.rank(), c.reduce_scatter(&x))
        });
        for (rank, t) in &out {
            assert_eq!(t.shape(), &[2, 1]);
            match rank {
                0 => assert_eq!(t.data(), &[0., 2.]),
                1 => assert_eq!(t.data(), &[4., 6.]),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn reduce_scatter_then_all_gather_equals_all_reduce() {
        // The ring identity the paper leans on, executed for real.
        let out = World::run(4, |c| {
            let x = Tensor::from_fn(&[8, 2], |i| ((c.rank() + 1) * (i + 1)) as f32);
            let ar = c.all_reduce(&x);
            let rs = c.reduce_scatter(&x);
            let ag = c.all_gather(&rs);
            (ar, ag)
        });
        for (ar, ag) in &out {
            assert_eq!(ar, ag);
        }
    }

    #[test]
    fn broadcast_propagates_root_value() {
        let out = World::run(3, |c| {
            let x = Tensor::full(&[2], c.rank() as f32);
            c.broadcast(&x, 1)
        });
        for t in &out {
            assert_eq!(t.data(), &[1., 1.]);
        }
    }

    #[test]
    fn send_recv_roundtrip() {
        let out = World::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, &Tensor::full(&[2], 7.0));
                c.recv(1)
            } else {
                let got = c.recv(0);
                c.send(0, &got.scale(2.0));
                got
            }
        });
        assert_eq!(out[0].data(), &[14., 14.]);
        assert_eq!(out[1].data(), &[7., 7.]);
    }

    #[test]
    fn repeated_collectives_reuse_the_slot_safely() {
        let out = World::run(4, |c| {
            let mut acc = 0.0;
            for round in 0..50 {
                let x = Tensor::full(&[1], (c.rank() + round) as f32);
                acc += c.all_reduce(&x).data()[0];
            }
            acc
        });
        // Round r: sum over ranks of (rank + r) = 6 + 4r. Total over 50 rounds.
        let expect: f32 = (0..50).map(|r| 6.0 + 4.0 * r as f32).sum();
        for v in out {
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn stats_record_bandwidth_identity() {
        let stats = World::run(4, |c| {
            let x = Tensor::zeros(&[16, 4]);
            let _ = c.all_reduce(&x);
            let shard = Tensor::zeros(&[4, 4]);
            let _ = c.all_gather(&shard);
            let _ = c.reduce_scatter(&x);
            c.stats()
        });
        for s in &stats {
            let ar = s.kind(CollectiveKind::AllReduce).wire_bytes;
            let ag = s.kind(CollectiveKind::AllGather).wire_bytes;
            let rs = s.kind(CollectiveKind::ReduceScatter).wire_bytes;
            assert_eq!(ar, ag + rs, "all-reduce == all-gather + reduce-scatter wire bytes");
        }
    }

    #[test]
    fn world_size_one_is_trivial() {
        let out = World::run(1, |c| {
            let x = Tensor::full(&[3], 5.0);
            let ar = c.all_reduce(&x);
            let ag = c.all_gather(&x);
            let rs = c.reduce_scatter(&x.reshape(&[1, 3]).unwrap());
            (ar, ag, rs)
        });
        assert_eq!(out[0].0.data(), &[5., 5., 5.]);
        assert_eq!(out[0].1.shape(), &[3]);
        assert_eq!(out[0].2.shape(), &[1, 3]);
    }

    #[test]
    fn chunk_rows_partitions_exactly() {
        for rows in [0usize, 1, 5, 7, 8, 64] {
            for chunks in [1usize, 2, 3, 4, 7, 11] {
                let mut covered = 0;
                for j in 0..chunks {
                    let (a, b) = chunk_rows(rows, chunks, j);
                    assert_eq!(a, covered, "rows={rows} chunks={chunks} j={j}");
                    assert!(b >= a);
                    covered = b;
                }
                assert_eq!(covered, rows);
            }
        }
    }

    #[test]
    fn all_gather_chunked_matches_all_gather_bitwise() {
        // Ragged: 7 rows per shard over 3 chunks (3+2+2 is NOT the split;
        // chunk_rows gives 2+3+2) with 3 ranks.
        for chunks in [1usize, 2, 3, 7, 9] {
            let out = World::run(3, |c| {
                let shard = Tensor::from_fn(&[7, 2], |i| (c.rank() * 100 + i) as f32);
                (c.all_gather(&shard), c.all_gather_chunked(&shard, chunks))
            });
            for (whole, chunked) in &out {
                assert_eq!(whole.shape(), chunked.shape(), "chunks={chunks}");
                assert_eq!(whole.data(), chunked.data(), "chunks={chunks}");
            }
        }
    }

    #[test]
    fn reduce_scatter_chunked_matches_reduce_scatter_bitwise() {
        for chunks in [1usize, 2, 3, 5] {
            let out = World::run(2, |c| {
                // 10 rows → 5-row shards; values vary per rank so the
                // ascending-rank sum order matters.
                let x = Tensor::from_fn(&[10, 3], |i| (c.rank() + 1) as f32 * 0.3 + i as f32);
                (c.reduce_scatter(&x), c.reduce_scatter_chunked(&x, chunks))
            });
            for (whole, chunked) in &out {
                assert_eq!(whole.shape(), chunked.shape(), "chunks={chunks}");
                let wb: Vec<u32> = whole.data().iter().map(|v| v.to_bits()).collect();
                let cb: Vec<u32> = chunked.data().iter().map(|v| v.to_bits()).collect();
                assert_eq!(wb, cb, "chunks={chunks}");
            }
        }
    }

    #[test]
    fn chunked_collectives_keep_wire_bytes_identical() {
        let unchunked = World::run(4, |c| {
            let shard = Tensor::zeros(&[8, 4]);
            let _ = c.all_gather(&shard);
            let x = Tensor::zeros(&[32, 4]);
            let _ = c.reduce_scatter(&x);
            c.stats()
        });
        let chunked = World::run(4, |c| {
            let shard = Tensor::zeros(&[8, 4]);
            let _ = c.all_gather_chunked(&shard, 3);
            let x = Tensor::zeros(&[32, 4]);
            let _ = c.reduce_scatter_chunked(&x, 3);
            c.stats()
        });
        for (u, c) in unchunked.iter().zip(&chunked) {
            let kinds = [CollectiveKind::AllGather, CollectiveKind::ReduceScatter];
            for kind in kinds {
                assert_eq!(u.kind(kind).payload_bytes, c.kind(kind).payload_bytes, "{kind:?}");
                assert_eq!(u.kind(kind).wire_bytes, c.kind(kind).wire_bytes, "{kind:?}");
            }
            // The chunked run made 3 calls per collective instead of 1.
            assert_eq!(c.kind(CollectiveKind::AllGather).calls, 3);
        }
    }

    #[test]
    fn chunk_spans_carry_the_chunk_coordinate() {
        let tracer = Tracer::enabled();
        World::run_traced(2, &tracer, |c| {
            let shard = Tensor::zeros(&[4, 2]);
            c.all_gather_chunked(&shard, 2);
        });
        let lane: Vec<_> = tracer.events().into_iter().filter(|e| e.track == 0).collect();
        assert_eq!(lane.len(), 2, "one span per chunk");
        for (j, ev) in lane.iter().enumerate() {
            assert_eq!(ev.name.as_ref(), "all_gather");
            let chunk = ev.args.iter().find(|(k, _)| *k == "chunk").map(|(_, v)| v.clone());
            assert_eq!(chunk, Some(ArgValue::U64(j as u64)));
        }
    }

    #[test]
    fn mismatched_chunk_order_is_an_spmd_error() {
        let mut world = World::new(2);
        world.set_collective_timeout(Duration::from_secs(5));
        let out = world.run_fallible(|c| {
            let shard = Tensor::zeros(&[4, 2]);
            // Rank 0 starts at chunk 0; rank 1 skips to chunk 1.
            let j = if c.rank() == 0 { 0 } else { 1 };
            c.all_gather_chunk(&shard, j, 2);
            Ok(())
        });
        assert!(
            out.iter()
                .any(|r| matches!(r, Err(CollectiveError::SpmdMismatch { expected, found, .. })
                    if expected.chunk != found.chunk)),
            "{out:?}"
        );
    }

    /// Pins the single rendezvous body: for every operation, whole and as
    /// chunk 1 of 2, the `CallTag` it deposits, the span it records and its
    /// `CommStats` entry. Rank 1 deposits a decoy tag, so the round fails as
    /// an `SpmdMismatch` that carries rank 0's tag verbatim.
    #[test]
    fn every_op_emits_its_tag_span_and_stats_entry() {
        use CollectiveKind::{AllGather, AllReduce, Barrier, Broadcast, ReduceScatter};
        // (op, kind, whole: tag shape + payload elems, chunk 1/2: same) for a
        // [4, 3] argument on 2 ranks (a barrier's is empty). Chunk 1 of 2 is
        // rows 2..4 of the shard — or row 1 of each destination's 2-row
        // shard, for the reduce-scatter.
        type Emitted = (&'static [usize], u64);
        let table: [(Op, CollectiveKind, Emitted, Emitted); 6] = [
            (Op::Sum, AllReduce, (&[4, 3], 12), (&[2, 3], 6)),
            (Op::Max, AllReduce, (&[4, 3], 12), (&[2, 3], 6)),
            (Op::Gather, AllGather, (&[4, 3], 24), (&[2, 3], 12)),
            (Op::ReduceScatter, ReduceScatter, (&[4, 3], 12), (&[2, 3], 6)),
            (Op::Broadcast { root: 1 }, Broadcast, (&[], 12), (&[], 6)),
            (Op::Barrier, Barrier, (&[], 0), (&[], 0)),
        ];
        for (op, kind, whole, piece) in table {
            for (chunk, (shape, payload_elems)) in [(None, whole), (Some((1, 2)), piece)] {
                let tracer = Tracer::enabled();
                let mut world = World::new(2);
                world.set_tracer(tracer.clone());
                world.set_epoch(7);
                let out = world.run_fallible(|c| {
                    let err = if c.rank() == 0 {
                        let dims: &[usize] = if matches!(op, Op::Barrier) { &[0] } else { &[4, 3] };
                        c.rendezvous(op, &Tensor::zeros(dims), chunk)
                    } else {
                        let decoy = c.call_tag("decoy", &[], None, None);
                        c.exchange.try_exchange(1, decoy, c.timeout, Tensor::zeros(&[0]), |_| {
                            unreachable!("a mismatched round never completes")
                        })
                    }
                    .expect_err("the decoy poisons the round");
                    Ok((err, c.stats()))
                });
                let case = format!("{op:?} chunk {chunk:?}");
                let (err, stats) = out[0].as_ref().expect("errors are returned as values");
                let CollectiveError::SpmdMismatch { expected, found, .. } = err else {
                    panic!("{case}: {err:?}");
                };
                let tag = if expected.op == "decoy" { found } else { expected };
                let root = if let Op::Broadcast { root } = op { Some(root) } else { None };
                let want = CallTag { op: op.name(), shape: shape.to_vec(), root, chunk, epoch: 7 };
                assert_eq!(**tag, want, "{case}");

                let payload_bytes = payload_elems * FP16_BYTES;
                let wire_bytes = kind.ring_wire_bytes(payload_bytes, 2);
                assert_eq!(stats.total_calls(), 1, "{case}");
                assert_eq!(
                    stats.kind(kind),
                    crate::stats::KindStats { calls: 1, payload_bytes, wire_bytes },
                    "{case}"
                );

                let spans: Vec<_> = tracer.events().into_iter().filter(|e| e.track == 0).collect();
                assert_eq!(spans.len(), 1, "{case}");
                assert_eq!(spans[0].name.as_ref(), kind.name(), "{case}");
                let mut args = vec![
                    ("kind", ArgValue::Str(kind.name().to_string())),
                    ("payload_bytes", ArgValue::U64(payload_bytes)),
                    ("wire_bytes", ArgValue::U64(wire_bytes)),
                    ("group_size", ArgValue::U64(2)),
                ];
                if chunk.is_some() {
                    args.extend([("chunk", ArgValue::U64(1)), ("chunks", ArgValue::U64(2))]);
                }
                assert_eq!(spans[0].args, args, "{case}");
            }
        }
    }

    // The reduce-scatter shape precondition fails on the calling rank, before
    // the rendezvous: no peer is needed (or left waiting) to see it.
    #[test]
    #[should_panic(expected = "reduce_scatter: axis 0 (3) not divisible by group size 2")]
    fn reduce_scatter_rejects_indivisible_rows_up_front() {
        World::new(2).communicator(0).reduce_scatter(&Tensor::zeros(&[3, 1]));
    }

    #[test]
    #[should_panic(expected = "reduce_scatter: axis 0 (3) not divisible by group size 2")]
    fn reduce_scatter_chunked_rejects_indivisible_rows_up_front() {
        World::new(2).communicator(0).reduce_scatter_chunked(&Tensor::zeros(&[3, 1]), 2);
    }

    #[test]
    fn cross_epoch_rendezvous_is_an_spmd_error_not_a_deadlock() {
        // A straggler communicator extracted before an elastic re-formation
        // (epoch 0) wanders into a round of the re-formed world (epoch 1):
        // the rendezvous must fail fast naming both epochs, not hang or mix
        // data across formations.
        let mut world = World::new(2);
        world.set_collective_timeout(Duration::from_secs(2));
        let straggler = world.communicator(0);
        world.set_epoch(1);
        let reformed = world.communicator(1);
        let results = mt_sync::thread::scope(|scope| {
            let handles = [
                scope.spawn(move || straggler.try_all_reduce(&Tensor::full(&[2], 1.0))),
                scope.spawn(move || reformed.try_all_reduce(&Tensor::full(&[2], 1.0))),
            ];
            handles.map(|h| h.join().expect("try_* does not panic"))
        });
        assert!(
            results.iter().any(|r| matches!(
                r,
                Err(CollectiveError::SpmdMismatch { expected, found, .. })
                    if expected.epoch != found.epoch
            )),
            "{results:?}"
        );
    }

    #[test]
    fn simulated_link_sleeps_but_preserves_results() {
        let mut world = World::new(2);
        // Absurdly slow link so the sleep is measurable in CI: ~1 ms per
        // collective at these payloads.
        world.set_link_cost(CommCostModel { alpha_s: 500e-6, beta_bytes_per_s: 1e9 });
        let out = world.run_fallible(|c| {
            let x = Tensor::full(&[4], (c.rank() + 1) as f32);
            c.try_all_reduce(&x)
        });
        for r in out {
            assert_eq!(r.expect("healthy world").data(), &[3., 3., 3., 3.]);
        }
    }

    #[test]
    fn try_collectives_succeed_on_the_healthy_path() {
        let mut world = World::new(3);
        let out = world.run_fallible(|c| {
            let x = Tensor::full(&[2], (c.rank() + 1) as f32);
            let sum = c.try_all_reduce(&x)?;
            c.try_barrier()?;
            Ok(sum.data()[0])
        });
        for r in out {
            assert_eq!(r.expect("healthy world"), 6.0);
        }
    }
}
