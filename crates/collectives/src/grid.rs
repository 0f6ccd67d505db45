//! Two-dimensional process grids: tensor-parallel groups inside
//! pipeline-parallel stages, the layout the paper's Table 3 configurations
//! use (`t = 8` ranks per stage × `p` stages).

use crate::group::{launch, Communicator, World};

/// A rank's view of a `tp × pp` grid: a collective communicator over its
/// tensor-parallel group (its pipeline stage) and a point-to-point
/// communicator spanning the whole grid for stage-boundary transfers.
pub struct GridComm {
    /// Pipeline stage index in `0..pp`.
    pub stage: usize,
    /// Rank within the stage's tensor-parallel group, `0..tp`.
    pub tp_rank: usize,
    /// Collectives within this stage (size `tp`).
    pub tp: Communicator,
    /// Point-to-point across the whole grid (size `tp·pp`); global rank is
    /// `stage · tp + tp_rank`.
    pub grid: Communicator,
}

impl std::fmt::Debug for GridComm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GridComm")
            .field("stage", &self.stage)
            .field("tp_rank", &self.tp_rank)
            .finish()
    }
}

impl GridComm {
    /// Pipeline depth of the grid.
    pub fn pp(&self) -> usize {
        self.grid.size() / self.tp.size()
    }

    /// Global rank of the same tensor-parallel position one stage later, if
    /// any.
    pub fn next_stage_rank(&self) -> Option<usize> {
        (self.stage + 1 < self.pp()).then(|| (self.stage + 1) * self.tp.size() + self.tp_rank)
    }

    /// Global rank of the same tensor-parallel position one stage earlier,
    /// if any.
    pub fn prev_stage_rank(&self) -> Option<usize> {
        (self.stage > 0).then(|| (self.stage - 1) * self.tp.size() + self.tp_rank)
    }

    /// Global rank of the same tensor-parallel position on an arbitrary
    /// stage.
    ///
    /// # Panics
    ///
    /// Panics if `stage >= pp`.
    pub fn peer_on_stage(&self, stage: usize) -> usize {
        assert!(stage < self.pp(), "stage {stage} out of range");
        stage * self.tp.size() + self.tp_rank
    }
}

/// Spawns a `tp × pp` grid of rank threads and runs `f` on each, returning
/// results in global-rank order (stage-major: all of stage 0's tensor ranks
/// first).
///
/// # Panics
///
/// Panics if `tp == 0` or `pp == 0`, or propagates a rank panic the way
/// [`World::run`] does.
pub fn run_grid<T, F>(tp: usize, pp: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(GridComm) -> T + Sync,
{
    assert!(tp > 0 && pp > 0, "grid dimensions must be positive");
    let mut grid_world = World::new(tp * pp);
    let mut stage_worlds: Vec<World> = (0..pp).map(|_| World::new(tp)).collect();
    let mut comms = Vec::with_capacity(tp * pp);
    #[allow(clippy::needless_range_loop)] // stage indexes two parallel world vectors
    for stage in 0..pp {
        for tp_rank in 0..tp {
            comms.push(GridComm {
                stage,
                tp_rank,
                tp: stage_worlds[stage].communicator(tp_rank),
                grid: grid_world.communicator(stage * tp + tp_rank),
            });
        }
    }
    launch(comms, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt_tensor::Tensor;

    #[test]
    fn stage_collectives_are_isolated() {
        // Each stage all-reduces its own tp_rank values; stages must not
        // interfere.
        let out = run_grid(2, 3, |g| {
            let x = Tensor::full(&[1], (g.stage * 10 + g.tp_rank) as f32);
            g.tp.try_all_reduce(&x).unwrap().data()[0]
        });
        // Stage s sum = (10s) + (10s + 1) = 20s + 1.
        assert_eq!(out, vec![1., 1., 21., 21., 41., 41.]);
    }

    #[test]
    fn p2p_crosses_stage_boundaries() {
        let out = run_grid(2, 2, |g| {
            if g.stage == 0 {
                let x = Tensor::full(&[2], g.tp_rank as f32 + 1.0);
                g.grid.try_send(g.next_stage_rank().unwrap(), &x).unwrap();
                0.0
            } else {
                g.grid.try_recv(g.prev_stage_rank().unwrap()).unwrap().data()[0]
            }
        });
        assert_eq!(out, vec![0., 0., 1., 2.]);
    }

    // A grid rank's typed failure is reported the way a world rank's is.
    #[test]
    #[should_panic(expected = "rank thread failed: rank 1: collective aborted, rank 0 is dead")]
    fn grid_rank_failure_names_its_error() {
        run_grid(1, 2, |g| {
            if g.stage == 1 {
                std::panic::panic_any(crate::CollectiveError::RankDead { rank: 1, dead_rank: 0 });
            }
        });
    }

    #[test]
    fn neighbour_ranks_are_consistent() {
        let out =
            run_grid(3, 4, |g| (g.stage, g.tp_rank, g.prev_stage_rank(), g.next_stage_rank()));
        for (stage, tp_rank, prev, next) in out {
            if stage == 0 {
                assert_eq!(prev, None);
            } else {
                assert_eq!(prev, Some((stage - 1) * 3 + tp_rank));
            }
            if stage == 3 {
                assert_eq!(next, None);
            } else {
                assert_eq!(next, Some((stage + 1) * 3 + tp_rank));
            }
        }
    }

    #[test]
    fn peer_on_stage_addresses_any_stage() {
        let out = run_grid(2, 3, |g| g.peer_on_stage(2));
        // Everyone's stage-2 peer keeps their tp_rank.
        assert_eq!(out, vec![4, 5, 4, 5, 4, 5]);
    }

    #[test]
    fn first_and_last_stage_can_exchange_embedding_grads() {
        // The Megatron tied-embedding pattern: last stage sends the head's
        // table gradient to stage 0, which sums it with its own.
        let out = run_grid(2, 3, |g| {
            let pp = g.pp();
            if g.stage == pp - 1 {
                g.grid.try_send(g.peer_on_stage(0), &Tensor::full(&[2], 5.0)).unwrap();
                None
            } else if g.stage == 0 {
                let mut own = Tensor::full(&[2], 1.0);
                let head = g.grid.try_recv(g.peer_on_stage(pp - 1)).unwrap();
                own.add_assign(&head);
                Some(own.data()[0])
            } else {
                None
            }
        });
        assert_eq!(out[0], Some(6.0));
        assert_eq!(out[1], Some(6.0));
    }
}
