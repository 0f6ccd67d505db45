//! `mt-bench verify`: runs the reproduction's headline *executing-system*
//! verifications in one command and prints a pass/fail matrix. This is the
//! quick trust-builder for a new user — every row is also covered (in more
//! depth) by `cargo test --workspace`.

use mt_bench::harness::{data, tiny_gpt};
use mt_collectives::{run_grid, CollectiveKind, World};
use mt_memory::{ActivationMemoryModel, Recompute, Strategy};
use mt_model::gpt::Gpt;
use mt_model::pipeline_exec::{run_1f1b_iteration, run_interleaved_iteration, StageModel};
use mt_model::weights::LayerWeights;
use mt_model::{ActivationLedger, ExecMode, TransformerConfig};
use mt_tensor::rng::{CounterRng, SplitMix64};
use mt_tensor::Tensor;
use std::process::ExitCode;

fn serial_loss(gpt: &Gpt, data: &[(Vec<usize>, Vec<usize>)]) -> f32 {
    let n = data.len();
    let mut loss = 0.0_f64;
    for (mb, (tokens, targets)) in data.iter().enumerate() {
        let mut ledger = ActivationLedger::new();
        loss +=
            gpt.loss_and_grads(tokens, targets, mb as u64, ExecMode::Serial, &mut ledger).0 as f64;
    }
    (loss / n as f64) as f32
}

struct Check {
    name: &'static str,
    pass: bool,
    detail: String,
}

pub fn run() -> ExitCode {
    // Four layers: the interleaved row splits them over p·m = 4 virtual stages.
    let c = TransformerConfig { layers: 4, ..tiny_gpt() };
    let d = data(&c, 4);
    let gpt = Gpt::init(c, Recompute::None, 7);
    let reference = serial_loss(&gpt, &d);
    let mut checks: Vec<Check> = Vec::new();

    // 1. Tensor parallelism reproduces the serial loss.
    {
        let losses = World::run(4, |comm| {
            let sharded = gpt.shard(4, comm.rank(), Recompute::None);
            let mut total = 0.0_f64;
            for (mb, (tokens, targets)) in d.iter().enumerate() {
                let mut ledger = ActivationLedger::new();
                total += sharded
                    .loss_and_grads(
                        tokens,
                        targets,
                        mb as u64,
                        ExecMode::TensorParallel(&comm),
                        &mut ledger,
                    )
                    .0 as f64;
            }
            (total / d.len() as f64) as f32
        });
        let dev = losses.iter().map(|l| (l - reference).abs()).fold(0.0_f32, f32::max);
        checks.push(Check {
            name: "tensor parallel (t=4) == serial",
            pass: dev < 1e-4,
            detail: format!("max loss deviation {dev:.2e}"),
        });
    }

    // 2. Sequence parallelism reproduces the serial loss.
    {
        let losses = World::run(4, |comm| {
            let sharded = gpt.shard(4, comm.rank(), Recompute::Selective);
            let mut ledger = ActivationLedger::new();
            sharded
                .loss_and_grads(
                    &d[0].0,
                    &d[0].1,
                    0,
                    ExecMode::TensorSequenceParallel(&comm),
                    &mut ledger,
                )
                .0
        });
        let mut ledger = ActivationLedger::new();
        let serial0 = gpt.loss_and_grads(&d[0].0, &d[0].1, 0, ExecMode::Serial, &mut ledger).0;
        let dev = losses.iter().map(|l| (l - serial0).abs()).fold(0.0_f32, f32::max);
        checks.push(Check {
            name: "tensor+sequence parallel (t=4, selective) == serial",
            pass: dev < 1e-4,
            detail: format!("max loss deviation {dev:.2e}"),
        });
    }

    // 3. Recompute policies are bit-identical (layer level).
    {
        let mut rng = SplitMix64::new(3);
        let w = LayerWeights::init(&c, &mut rng);
        let x = Tensor::rand_uniform(&[c.tokens(), c.hidden], -1.0, 1.0, &mut rng);
        let outs: Vec<Tensor> = [Recompute::None, Recompute::Selective, Recompute::Full]
            .into_iter()
            .map(|p| {
                let layer = mt_model::TransformerLayer::new(c, w.clone(), 0, p, CounterRng::new(5));
                let mut ledger = ActivationLedger::new();
                let (y, st) = layer.forward(&x, 0, ExecMode::Serial, &mut ledger);
                let (dx, _) = layer.backward(&y, st, ExecMode::Serial);
                dx
            })
            .collect();
        let pass = outs[0] == outs[1] && outs[0] == outs[2];
        checks.push(Check {
            name: "recompute policies bit-identical",
            pass,
            detail: "store-all vs selective vs full".into(),
        });
    }

    // 4. Ledger equals Table 2 (Equation 2, t=4).
    {
        let mut rng = SplitMix64::new(4);
        let w = LayerWeights::init(&c, &mut rng);
        let x = Tensor::rand_uniform(&[c.tokens(), c.hidden], -1.0, 1.0, &mut rng);
        let measured = World::run(4, |comm| {
            let layer = mt_model::TransformerLayer::new(
                c,
                w.shard(4, comm.rank()),
                0,
                Recompute::None,
                CounterRng::new(5),
            );
            let mut ledger = ActivationLedger::new();
            let _ = layer.forward(&x, 0, ExecMode::TensorParallel(&comm), &mut ledger);
            ledger.paper_bytes()
        })[0];
        let analytical = ActivationMemoryModel::new(c.to_shape(), c.micro_batch as u64, 4)
            .per_layer_bytes(Strategy::tp());
        checks.push(Check {
            name: "measured ledger == Equation 2",
            pass: measured as f64 == analytical,
            detail: format!("{measured} bytes measured, {analytical} analytical"),
        });
    }

    // 5. Wire-byte identity (Section 4.2.2).
    {
        let mut rng = SplitMix64::new(5);
        let w = LayerWeights::init(&c, &mut rng);
        let x = Tensor::rand_uniform(&[c.tokens(), c.hidden], -1.0, 1.0, &mut rng);
        let wire = |sp: bool| {
            World::run(4, |comm| {
                let layer = mt_model::TransformerLayer::new(
                    c,
                    w.shard(4, comm.rank()),
                    0,
                    Recompute::None,
                    CounterRng::new(5),
                );
                let mode = if sp {
                    ExecMode::TensorSequenceParallel(&comm)
                } else {
                    ExecMode::TensorParallel(&comm)
                };
                let x_local =
                    if sp { x.chunk_axis0(4).unwrap()[comm.rank()].clone() } else { x.clone() };
                let mut ledger = ActivationLedger::new();
                let _ = layer.forward(&x_local, 0, mode, &mut ledger);
                let s = comm.stats();
                s.kind(CollectiveKind::AllReduce).wire_bytes
                    + s.kind(CollectiveKind::AllGather).wire_bytes
                    + s.kind(CollectiveKind::ReduceScatter).wire_bytes
            })[0]
        };
        let (tp, sp) = (wire(false), wire(true));
        checks.push(Check {
            name: "forward wire bytes: TP == TP+SP",
            pass: tp == sp,
            detail: format!("{tp} vs {sp} bytes"),
        });
    }

    // 6. Real 1F1B pipeline reproduces the serial loss.
    {
        let losses = run_grid(1, 2, |g| {
            let model = StageModel::from_gpt(&gpt, 2, g.stage, 1, 0, Recompute::Selective);
            run_1f1b_iteration(&model, &g, false, &d, 0).mean_loss
        });
        let dev = losses.iter().map(|l| (l - reference).abs()).fold(0.0_f32, f32::max);
        checks.push(Check {
            name: "1F1B pipeline (p=2, selective) == serial",
            pass: dev < 1e-4,
            detail: format!("max loss deviation {dev:.2e}"),
        });
    }

    // 7. Interleaved schedule reproduces the serial loss.
    {
        let losses = run_grid(1, 2, |g| {
            let chunks: Vec<StageModel> = (0..2)
                .map(|v| StageModel::from_gpt(&gpt, 4, v * 2 + g.stage, 1, 0, Recompute::None))
                .collect();
            run_interleaved_iteration(&chunks, &g, false, &d, 0).mean_loss
        });
        let dev = losses.iter().map(|l| (l - reference).abs()).fold(0.0_f32, f32::max);
        checks.push(Check {
            name: "interleaved pipeline (p=2, m=2) == serial",
            pass: dev < 1e-4,
            detail: format!("max loss deviation {dev:.2e}"),
        });
    }

    println!("Reproduction self-check — executing-system verification matrix");
    println!("================================================================");
    let mut all = true;
    for check in &checks {
        println!(
            "[{}] {:<52} ({})",
            if check.pass { "PASS" } else { "FAIL" },
            check.name,
            check.detail
        );
        all &= check.pass;
    }
    if all {
        println!("\nall {} checks passed", checks.len());
        ExitCode::SUCCESS
    } else {
        println!("\nSOME CHECKS FAILED");
        ExitCode::FAILURE
    }
}
