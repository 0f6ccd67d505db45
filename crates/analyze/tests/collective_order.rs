//! The static layer program issues the runtime's collectives in the
//! runtime's order, call for call: per rank, the traced collective spans of
//! one layer forward and backward — name, payload bytes, chunk index — equal
//! the program's `Collective` ops in sequence. Per-kind totals
//! (`static_vs_runtime.rs`) cannot see two calls swapped; this can.

use mt_analyze::{layer_program, ScheduleOp};
use mt_collectives::World;
use mt_memory::Recompute;
use mt_model::weights::LayerWeights;
use mt_model::{
    ActivationLedger, ExecMode, ExecPolicy, OverlapPolicy, TransformerConfig, TransformerLayer,
};
use mt_tensor::rng::{CounterRng, SplitMix64};
use mt_tensor::Tensor;
use mt_trace::{ArgValue, Tracer};

/// One collective call: span name, payload bytes, chunk index.
type Call = (String, u64, Option<u64>);

/// Each rank's traced collective calls, in issue order, for one layer
/// forward and backward on `t` ranks.
fn runtime_calls(
    cfg: TransformerConfig,
    t: usize,
    sp: bool,
    policy: Recompute,
    overlap: OverlapPolicy,
) -> Vec<Vec<Call>> {
    let mut rng = SplitMix64::new(7);
    let full = LayerWeights::init(&cfg, &mut rng);
    let x = Tensor::rand_uniform(&[cfg.tokens(), cfg.hidden], -1.0, 1.0, &mut rng);
    let tracer = Tracer::enabled();
    World::run_traced(t, &tracer, |comm| {
        let rank = comm.rank();
        let layer = TransformerLayer::new(cfg, full.shard(t, rank), 0, policy, CounterRng::new(3));
        let mode = if sp {
            ExecMode::TensorSequenceParallel(&comm)
        } else {
            ExecMode::TensorParallel(&comm)
        };
        let exec = ExecPolicy::builder().backend(mode).overlap(overlap).build().expect("valid");
        let x_local = if sp { x.chunk_axis0(t).unwrap()[rank].clone() } else { x.clone() };
        let (y, state) = layer.forward(&x_local, 0, exec, &mut ActivationLedger::new());
        let _ = layer.backward(&y, state, exec);
    });
    let events = tracer.events();
    (0..t)
        .map(|rank| {
            events
                .iter()
                .filter(|e| e.track as usize == rank)
                .filter_map(|e| {
                    let arg = |key| e.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v);
                    let Some(&ArgValue::U64(payload)) = arg("payload_bytes") else { return None };
                    let chunk = arg("chunk").map(|v| match v {
                        ArgValue::U64(j) => *j,
                        other => panic!("chunk arg is not an index: {other:?}"),
                    });
                    Some((e.name.to_string(), payload, chunk))
                })
                .collect()
        })
        .collect()
}

#[test]
fn layer_program_issues_the_runtime_collectives_in_order() {
    let cfg = TransformerConfig::tiny();
    let t = 2;
    let chunked = OverlapPolicy::OverlappedRecompute { chunks: 3 };
    for (sp, overlap) in
        [(false, OverlapPolicy::Exposed), (true, OverlapPolicy::Exposed), (true, chunked)]
    {
        for policy in [Recompute::None, Recompute::Selective, Recompute::Full] {
            let what = format!("sp={sp} {overlap:?} {policy:?}");
            let prog = layer_program(&cfg, t, sp, policy, overlap);
            let runtime = runtime_calls(cfg, t, sp, policy, overlap);
            for (rank, traced) in runtime.iter().enumerate() {
                let program: Vec<Call> = prog.ranks[rank]
                    .ops
                    .iter()
                    .filter_map(|op| match op {
                        ScheduleOp::Collective { kind, tag, payload_elems, .. } => Some((
                            kind.name().to_string(),
                            payload_elems * 2,
                            tag.chunk.map(|(j, _)| j as u64),
                        )),
                        _ => None,
                    })
                    .collect();
                assert!(!program.is_empty(), "{what}: a parallel layer communicates");
                assert_eq!(traced, &program, "{what}: rank {rank} collective order");
            }
        }
    }
}
