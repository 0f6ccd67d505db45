//! Cross-rank collective matching and deadlock-freedom.
//!
//! Simulates every rendezvous in a [`Program`]: each rank advances through
//! its ops; a collective blocks until every group member has entered it
//! with the same kind, [`CallTag`], and payload; a recv blocks until the
//! matching send has fired (sends are buffered, as in the runtime's
//! unbounded channels). Because the per-rank programs are straight-line —
//! exactly what the executors run — a simulation that retires every op *is*
//! a proof of deadlock-freedom: any send/recv cycle or collective-order
//! divergence would leave ranks blocked, which surfaces as a
//! [`ScheduleFault::Deadlock`] naming every stuck rank and what it was
//! waiting for.

use crate::ir::{GroupId, Program, ScheduleOp};
use mt_collectives::CallTag;
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// A defect found in a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleFault {
    /// Two ranks entered the same rendezvous with different identities —
    /// the static counterpart of `CollectiveError::SpmdMismatch`.
    SpmdMismatch {
        /// Group on which the rendezvous diverged.
        group: GroupId,
        /// First rank to arrive, fixing the round's expected identity.
        first_rank: usize,
        /// Tag the first arrival deposited (boxed to keep the fault small).
        expected: Box<CallTag>,
        /// The diverging rank.
        rank: usize,
        /// Tag the diverging rank brought.
        found: Box<CallTag>,
    },
    /// Group members agree on the tag but record different payload sizes —
    /// a stats-accounting bug even though the runtime would rendezvous.
    PayloadMismatch {
        /// Group on which the payloads diverged.
        group: GroupId,
        /// First rank to arrive.
        first_rank: usize,
        /// Payload elements the first arrival recorded.
        expected: u64,
        /// The diverging rank.
        rank: usize,
        /// Payload elements the diverging rank recorded.
        found: u64,
    },
    /// A receive popped a message of the wrong size.
    P2pElemsMismatch {
        /// Sender.
        from: usize,
        /// Receiver.
        to: usize,
        /// Elements the receiver expected.
        expected: u64,
        /// Elements the queued send carried.
        found: u64,
    },
    /// The simulation stalled with ranks blocked: a deadlock (or a peer
    /// that exited early). Each entry is `(rank, what it was waiting for)`.
    Deadlock {
        /// Blocked ranks and their wait descriptions.
        blocked: Vec<(usize, String)>,
    },
    /// Sends were still queued when every rank finished — a message nobody
    /// receives.
    DanglingSend {
        /// Sender.
        from: usize,
        /// Intended receiver.
        to: usize,
        /// Number of unconsumed messages on that edge.
        count: usize,
    },
    /// A `Free` named an allocation that was already freed (liveness pass).
    DoubleFree {
        /// Rank whose program double-frees.
        rank: usize,
        /// The allocation id freed twice.
        alloc: crate::ir::AllocId,
    },
    /// A `Free` named an allocation the rank never made (liveness pass).
    UnknownAlloc {
        /// Rank whose program frees a phantom allocation.
        rank: usize,
        /// The unknown allocation id.
        alloc: crate::ir::AllocId,
    },
}

impl fmt::Display for ScheduleFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleFault::SpmdMismatch { group, first_rank, expected, rank, found } => write!(
                f,
                "SPMD mismatch on {group:?}: rank {first_rank} opened round {expected} but rank {rank} brought {found}"
            ),
            ScheduleFault::PayloadMismatch { group, first_rank, expected, rank, found } => write!(
                f,
                "payload mismatch on {group:?}: rank {first_rank} records {expected} elements but rank {rank} records {found}"
            ),
            ScheduleFault::P2pElemsMismatch { from, to, expected, found } => write!(
                f,
                "p2p size mismatch {from}→{to}: receiver expects {expected} elements, sender queued {found}"
            ),
            ScheduleFault::Deadlock { blocked } => {
                write!(f, "deadlock: ")?;
                for (i, (rank, what)) in blocked.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "rank {rank} {what}")?;
                }
                Ok(())
            }
            ScheduleFault::DanglingSend { from, to, count } => {
                write!(f, "{count} dangling send(s) {from}→{to}: nobody receives them")
            }
            ScheduleFault::DoubleFree { rank, alloc } => {
                write!(f, "rank {rank} frees allocation {alloc:?} twice")
            }
            ScheduleFault::UnknownAlloc { rank, alloc } => {
                write!(f, "rank {rank} frees allocation {alloc:?} it never made")
            }
        }
    }
}

/// An open rendezvous round on one group.
struct Round {
    first_rank: usize,
    tag: CallTag,
    payload: u64,
    arrived: Vec<usize>,
}

enum StepOutcome {
    Progress,
    Blocked(String),
    Done,
    Fault(ScheduleFault),
}

/// Verifies collective matching and deadlock-freedom for a whole program.
///
/// Returns `Ok(())` when every rank retires every op; the first fault
/// otherwise. (The simulation stops at the first mismatch, mirroring the
/// runtime's poisoned-exchange semantics where one bad tag fails the whole
/// group.)
///
/// # Errors
///
/// The [`ScheduleFault`] describing the earliest defect encountered.
pub fn check_schedule(program: &Program) -> Result<(), ScheduleFault> {
    let n = program.ranks.len();
    assert_eq!(n, program.tp * program.pp, "program rank count disagrees with its grid");
    let mut pc = vec![0usize; n];
    let mut channels: HashMap<(usize, usize), VecDeque<u64>> = HashMap::new();
    let mut rounds: HashMap<GroupId, Round> = HashMap::new();
    let mut queue: VecDeque<usize> = (0..n).collect();
    let mut queued = vec![true; n];
    // What each blocked rank is waiting on, for deadlock reporting.
    let mut waiting: Vec<Option<String>> = vec![None; n];

    while let Some(rank) = queue.pop_front() {
        queued[rank] = false;
        loop {
            let outcome = step(program, rank, &mut pc, &mut channels, &mut rounds, |r| {
                if !queued[r] {
                    queued[r] = true;
                    queue.push_back(r);
                }
            });
            match outcome {
                StepOutcome::Progress => {
                    waiting[rank] = None;
                }
                StepOutcome::Blocked(what) => {
                    waiting[rank] = Some(what);
                    break;
                }
                StepOutcome::Done => {
                    waiting[rank] = None;
                    break;
                }
                StepOutcome::Fault(fault) => return Err(fault),
            }
        }
    }

    let blocked: Vec<(usize, String)> = waiting
        .iter()
        .enumerate()
        .filter_map(|(r, w)| w.as_ref().map(|what| (r, what.clone())))
        .collect();
    if !blocked.is_empty() {
        return Err(ScheduleFault::Deadlock { blocked });
    }
    for ((from, to), pending) in &channels {
        if !pending.is_empty() {
            return Err(ScheduleFault::DanglingSend { from: *from, to: *to, count: pending.len() });
        }
    }
    Ok(())
}

/// Executes one op of `rank`, if possible. `wake` enqueues a rank that may
/// now be able to progress.
fn step(
    program: &Program,
    rank: usize,
    pc: &mut [usize],
    channels: &mut HashMap<(usize, usize), VecDeque<u64>>,
    rounds: &mut HashMap<GroupId, Round>,
    mut wake: impl FnMut(usize),
) -> StepOutcome {
    let ops = &program.ranks[rank].ops;
    let Some(op) = ops.get(pc[rank]) else {
        return StepOutcome::Done;
    };
    match op {
        ScheduleOp::Alloc { .. } | ScheduleOp::Free { .. } => {
            pc[rank] += 1;
            StepOutcome::Progress
        }
        ScheduleOp::Send { to, elems } => {
            channels.entry((rank, *to)).or_default().push_back(*elems);
            pc[rank] += 1;
            // The receiver may have been blocked on this edge.
            wake(*to);
            StepOutcome::Progress
        }
        ScheduleOp::Recv { from, elems } => {
            let Some(found) = channels.entry((*from, rank)).or_default().pop_front() else {
                return StepOutcome::Blocked(format!(
                    "waiting to recv {elems} elements from rank {from} (op {})",
                    pc[rank]
                ));
            };
            if found != *elems {
                return StepOutcome::Fault(ScheduleFault::P2pElemsMismatch {
                    from: *from,
                    to: rank,
                    expected: *elems,
                    found,
                });
            }
            pc[rank] += 1;
            StepOutcome::Progress
        }
        ScheduleOp::Collective { group, kind, tag, payload_elems } => {
            let size = program.group_size(*group);
            let round = rounds.entry(*group).or_insert_with(|| Round {
                first_rank: rank,
                tag: tag.clone(),
                payload: *payload_elems,
                arrived: Vec::with_capacity(size),
            });
            if round.tag != *tag {
                return StepOutcome::Fault(ScheduleFault::SpmdMismatch {
                    group: *group,
                    first_rank: round.first_rank,
                    expected: Box::new(round.tag.clone()),
                    rank,
                    found: Box::new(tag.clone()),
                });
            }
            if round.payload != *payload_elems {
                return StepOutcome::Fault(ScheduleFault::PayloadMismatch {
                    group: *group,
                    first_rank: round.first_rank,
                    expected: round.payload,
                    rank,
                    found: *payload_elems,
                });
            }
            debug_assert!(!round.arrived.contains(&rank), "rank re-entered an open round");
            round.arrived.push(rank);
            if round.arrived.len() == size {
                // Round complete: everyone advances.
                let members = rounds.remove(group).expect("round present").arrived;
                for member in members {
                    pc[member] += 1;
                    if member != rank {
                        wake(member);
                    }
                }
                StepOutcome::Progress
            } else {
                StepOutcome::Blocked(format!("waiting in {} ({kind:?}) on {group:?}", tag))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::RankProgram;
    use mt_collectives::CollectiveKind;

    fn coll(group: GroupId, op: &'static str, shape: Vec<usize>) -> ScheduleOp {
        ScheduleOp::Collective {
            group,
            kind: CollectiveKind::AllReduce,
            tag: CallTag::new(op, &shape, None, None, 0),
            payload_elems: 4,
        }
    }

    fn two_rank(ops0: Vec<ScheduleOp>, ops1: Vec<ScheduleOp>) -> Program {
        Program {
            tp: 2,
            pp: 1,
            ranks: vec![RankProgram { rank: 0, ops: ops0 }, RankProgram { rank: 1, ops: ops1 }],
        }
    }

    #[test]
    fn matching_collectives_pass() {
        let g = GroupId::Tp { stage: 0 };
        let p = two_rank(
            vec![coll(g, "all_reduce", vec![2, 2])],
            vec![coll(g, "all_reduce", vec![2, 2])],
        );
        assert_eq!(check_schedule(&p), Ok(()));
    }

    #[test]
    fn mismatched_tags_are_flagged() {
        let g = GroupId::Tp { stage: 0 };
        let p =
            two_rank(vec![coll(g, "all_reduce", vec![2, 2])], vec![coll(g, "all_reduce", vec![4])]);
        match check_schedule(&p) {
            Err(ScheduleFault::SpmdMismatch { expected, found, .. }) => {
                assert_ne!(expected, found);
            }
            other => panic!("expected SpmdMismatch, got {other:?}"),
        }
    }

    #[test]
    fn missing_participant_is_a_deadlock() {
        let g = GroupId::Tp { stage: 0 };
        let p = two_rank(vec![coll(g, "all_reduce", vec![2, 2])], vec![]);
        match check_schedule(&p) {
            Err(ScheduleFault::Deadlock { blocked }) => {
                assert_eq!(blocked.len(), 1);
                assert_eq!(blocked[0].0, 0);
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }

    #[test]
    fn send_recv_order_does_not_deadlock() {
        // Rank 0 sends then receives; rank 1 receives then sends — fine
        // because sends are buffered.
        let p = two_rank(
            vec![ScheduleOp::Send { to: 1, elems: 8 }, ScheduleOp::Recv { from: 1, elems: 8 }],
            vec![ScheduleOp::Recv { from: 0, elems: 8 }, ScheduleOp::Send { to: 0, elems: 8 }],
        );
        assert_eq!(check_schedule(&p), Ok(()));
    }

    #[test]
    fn mutual_recv_first_deadlocks() {
        let p = two_rank(
            vec![ScheduleOp::Recv { from: 1, elems: 8 }, ScheduleOp::Send { to: 1, elems: 8 }],
            vec![ScheduleOp::Recv { from: 0, elems: 8 }, ScheduleOp::Send { to: 0, elems: 8 }],
        );
        assert!(matches!(check_schedule(&p), Err(ScheduleFault::Deadlock { .. })));
    }

    #[test]
    fn wrong_p2p_size_is_flagged() {
        let p = two_rank(
            vec![ScheduleOp::Send { to: 1, elems: 8 }],
            vec![ScheduleOp::Recv { from: 0, elems: 9 }],
        );
        assert!(matches!(
            check_schedule(&p),
            Err(ScheduleFault::P2pElemsMismatch { expected: 9, found: 8, .. })
        ));
    }

    #[test]
    fn unreceived_send_is_flagged() {
        let p = two_rank(vec![ScheduleOp::Send { to: 1, elems: 8 }], vec![]);
        assert!(matches!(
            check_schedule(&p),
            Err(ScheduleFault::DanglingSend { from: 0, to: 1, count: 1 })
        ));
    }
}
