//! The central verification of the reproduction: the *measured* byte counts
//! of the executing system (mt-model's activation ledger, mt-collectives'
//! wire counters, mt-pipeline's in-flight tracking) must equal the *paper's
//! closed forms* (mt-memory, Table 2, Appendix B) exactly.

use megatron_repro::collectives::World;
use megatron_repro::memory::{ActivationMemoryModel, ModelShape, Recompute, Strategy};
use megatron_repro::model::weights::LayerWeights;
use megatron_repro::model::{ActivationLedger, ExecMode, TransformerConfig, TransformerLayer};
use megatron_repro::pipeline::{PipelineSim, Schedule, StageCosts};
use megatron_repro::tensor::rng::{CounterRng, SplitMix64};
use megatron_repro::tensor::Tensor;

/// Runs one layer forward on `t` ranks and returns rank 0's ledger.
fn measure_ledger(
    cfg: TransformerConfig,
    t: usize,
    sp: bool,
    policy: Recompute,
) -> ActivationLedger {
    let mut rng = SplitMix64::new(7);
    let full = LayerWeights::init(&cfg, &mut rng);
    let x = Tensor::rand_uniform(&[cfg.tokens(), cfg.hidden], -1.0, 1.0, &mut rng);
    if t == 1 {
        let layer = TransformerLayer::new(cfg, full, 0, policy, CounterRng::new(3));
        let mut ledger = ActivationLedger::new();
        let _ = layer.forward(&x, 0, ExecMode::Serial, &mut ledger);
        ledger
    } else {
        World::run(t, |comm| {
            let layer = TransformerLayer::new(
                cfg,
                full.shard(t, comm.rank()),
                0,
                policy,
                CounterRng::new(3),
            );
            let mode = if sp {
                ExecMode::TensorSequenceParallel(&comm)
            } else {
                ExecMode::TensorParallel(&comm)
            };
            let x_local =
                if sp { x.chunk_axis0(t).unwrap()[comm.rank()].clone() } else { x.clone() };
            let mut ledger = ActivationLedger::new();
            let _ = layer.forward(&x_local, 0, mode, &mut ledger);
            ledger
        })
        .remove(0)
    }
}

/// Sweeps shapes × parallelism × strategy and checks measured == formula.
#[test]
fn ledger_equals_table2_across_a_config_sweep() {
    let configs = [
        TransformerConfig {
            hidden: 16,
            heads: 2,
            seq: 4,
            micro_batch: 1,
            layers: 1,
            vocab: 32,
            dropout_p: 0.1,
            causal: true,
        },
        TransformerConfig {
            hidden: 32,
            heads: 4,
            seq: 8,
            micro_batch: 2,
            layers: 1,
            vocab: 32,
            dropout_p: 0.1,
            causal: true,
        },
        TransformerConfig {
            hidden: 48,
            heads: 6,
            seq: 6,
            micro_batch: 3,
            layers: 1,
            vocab: 32,
            dropout_p: 0.0,
            causal: false,
        },
        TransformerConfig {
            hidden: 64,
            heads: 8,
            seq: 16,
            micro_batch: 1,
            layers: 1,
            vocab: 32,
            dropout_p: 0.2,
            causal: true,
        },
    ];
    for cfg in configs {
        for t in [1usize, 2] {
            if cfg.heads % t != 0 || cfg.seq % t != 0 {
                continue;
            }
            for sp in [false, true] {
                if sp && t == 1 {
                    continue;
                }
                for policy in [Recompute::None, Recompute::Selective, Recompute::Full] {
                    let measured = measure_ledger(cfg, t, sp, policy).paper_bytes();
                    let analytical = ActivationMemoryModel::new(
                        cfg.to_shape(),
                        cfg.micro_batch as u64,
                        t as u64,
                    )
                    .per_layer_bytes(Strategy { sequence_parallel: sp, recompute: policy });
                    assert_eq!(
                        measured as f64, analytical,
                        "cfg {cfg:?} t={t} sp={sp} policy={policy:?}"
                    );
                }
            }
        }
    }
}

/// The wire counters of the executing collectives must match the analytical
/// ring model used by the performance layer for the *same* logical traffic.
#[test]
fn runtime_wire_bytes_match_analytical_ring_model() {
    use megatron_repro::collectives::CollectiveKind;
    let elems = 1024u64;
    let n = 4u64;
    let stats = World::run(n as usize, |comm| {
        let x = Tensor::zeros(&[elems as usize]);
        let _ = comm.all_reduce(&x);
        let shard = Tensor::zeros(&[(elems / n) as usize, 1]);
        let _ = comm.all_gather(&shard);
        comm.stats()
    });
    let bytes = elems * 2; // fp16 accounting
    for s in &stats {
        assert_eq!(
            s.kind(CollectiveKind::AllReduce).wire_bytes,
            CollectiveKind::AllReduce.ring_wire_bytes(bytes, n)
        );
        assert_eq!(
            s.kind(CollectiveKind::AllGather).wire_bytes,
            CollectiveKind::AllGather.ring_wire_bytes(bytes, n)
        );
    }
}

/// The pipeline simulator's peak in-flight microbatch counts must equal the
/// `min(p − stage, n)` assumption the memory model's Figure 9 profile uses,
/// and under interleaving its `layers_worth` (Section 4.2.3).
#[test]
fn simulated_in_flight_matches_memory_model_assumption() {
    use megatron_repro::memory::{Parallelism, PipelineMemoryProfile};
    for (p, n) in [(4usize, 16u64), (8, 8), (8, 4), (2, 1)] {
        let sim = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.0), p, n, 0.1);
        let result = sim.simulate_1f1b(None);
        let shape = ModelShape { heads: 8, hidden: 64, layers: p as u64 * 2, seq: 16, vocab: 128 };
        let act = ActivationMemoryModel::new(shape, 1, 2);
        let parallel = Parallelism { tensor: 2, pipeline: p as u64, interleave: None };
        let profile = PipelineMemoryProfile::new(act, parallel, n);
        for rank in 0..p as u64 {
            assert_eq!(
                result.peak_in_flight[rank as usize],
                profile.in_flight_microbatches(rank),
                "p={p} n={n} rank={rank}"
            );
        }
        // Interleaved: the simulated peak, in chunks of L/(p·m) layers, is the
        // layers' worth the memory model charges each rank — on rank 0 the
        // paper's L(1 + (p−1)/(p·m)) once n·m exceeds it.
        for m in 1..=3u64 {
            let n = n.div_ceil(p as u64) * p as u64; // interleaving needs p | n
            let sim = PipelineSim { num_micro: n, ..sim.clone() };
            let schedule = Schedule::Interleaved { chunks: m as usize };
            let peaks = sim.simulate(schedule, None).0.peak_in_flight;
            let layers = p as u64 * m * 2; // chunks of two layers
            let act = ActivationMemoryModel::new(ModelShape { layers, ..shape }, 1, 2);
            let parallel = Parallelism { interleave: Some(m), ..parallel };
            let profile = PipelineMemoryProfile::new(act, parallel, n);
            for (rank, &peak) in peaks.iter().enumerate() {
                assert_eq!(
                    peak as f64 * 2.0,
                    profile.layers_worth(rank as u64),
                    "p={p} m={m} n={n} rank={rank}"
                );
            }
        }
    }
}

/// Full recomputation's execution cost shows up in the executing system too:
/// the backward pass with `Recompute::Full` replays the forward through the
/// GeLU output (the MLP's part one token block at a time), while selective
/// replays only the attention core. Wall-clock on our CPU tensor engine is
/// noisy, and other tests share the cores, so each comparison is a paired
/// ratio: the two backwards of a pair run back to back, alternating which
/// goes first, and the test asserts on the median ratio over 24 pairs of
/// each kind.
#[test]
fn recompute_cost_ordering_on_real_execution() {
    let cfg = TransformerConfig {
        hidden: 128,
        heads: 8,
        seq: 64,
        micro_batch: 2,
        layers: 1,
        vocab: 128,
        dropout_p: 0.0,
        causal: true,
    };
    let mut rng = SplitMix64::new(11);
    let w = LayerWeights::init(&cfg, &mut rng);
    let x = Tensor::rand_uniform(&[cfg.tokens(), cfg.hidden], -1.0, 1.0, &mut rng);
    let dy = Tensor::rand_uniform(&[cfg.tokens(), cfg.hidden], -1.0, 1.0, &mut rng);
    let [none, selective, full] = [Recompute::None, Recompute::Selective, Recompute::Full]
        .map(|policy| TransformerLayer::new(cfg, w.clone(), 0, policy, CounterRng::new(5)));
    // Times only the backward (where recompute happens).
    let backward_secs = |layer: &TransformerLayer| -> f64 {
        let mut ledger = ActivationLedger::new();
        let (_, st) = layer.forward(&x, 0, ExecMode::Serial, &mut ledger);
        let start = std::time::Instant::now();
        let _ = layer.backward(&dy, st, ExecMode::Serial);
        start.elapsed().as_secs_f64()
    };
    for layer in [&none, &selective, &full] {
        backward_secs(layer); // warm-up
    }
    // Each rep times the three backwards back to back with full in the
    // middle, so full/none and selective/full are each an adjacent pair;
    // odd reps run in reverse, so each pair alternates which goes first.
    let pairs = 24;
    let mut ratios = [(); 2].map(|()| Vec::with_capacity(pairs));
    for rep in 0..pairs {
        let mut order = [&none, &full, &selective];
        if rep % 2 == 1 {
            order.reverse();
        }
        let [first, t_full, last] = order.map(&backward_secs);
        let (t_none, t_selective) = if rep % 2 == 0 { (first, last) } else { (last, first) };
        ratios[0].push(t_full / t_none);
        ratios[1].push(t_selective / t_full);
    }
    let [full_over_none, selective_over_full] = ratios.map(|mut r| {
        r.sort_by(f64::total_cmp);
        (r[pairs / 2 - 1] + r[pairs / 2]) / 2.0
    });
    eprintln!("median full/none {full_over_none:.3}, selective/full {selective_over_full:.3}");
    assert!(
        full_over_none > 1.2,
        "full-recompute backward should clearly exceed store-all: median ratio {full_over_none:.3}"
    );
    assert!(
        selective_over_full < 1.0,
        "selective backward should beat full recompute: median ratio {selective_over_full:.3}"
    );
}
