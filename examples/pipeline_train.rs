//! Trains a tiny GPT with **real pipeline parallelism**: the 1F1B schedule
//! of Section 4.2.3 executing on thread-simulated stages, combined with
//! tensor parallelism inside each stage, and compared against the serial
//! reference.
//!
//! ```text
//! cargo run --example pipeline_train
//! ```

use megatron_repro::collectives::run_grid;
use megatron_repro::memory::Recompute;
use megatron_repro::model::gpt::Gpt;
use megatron_repro::model::pipeline_exec::{try_run_1f1b_iteration, StageModel};
use megatron_repro::model::{ActivationLedger, ExecMode, TransformerConfig};
use megatron_repro::tensor::rng::SplitMix64;

const SEED: u64 = 31337;
const N_MICRO: usize = 4;

fn config() -> TransformerConfig {
    TransformerConfig {
        hidden: 32,
        heads: 4,
        seq: 8,
        micro_batch: 1,
        layers: 4,
        vocab: 48,
        dropout_p: 0.1,
        causal: true,
    }
}

fn main() {
    let cfg = config();
    let mut rng = SplitMix64::new(123);
    let data: Vec<(Vec<usize>, Vec<usize>)> = (0..N_MICRO)
        .map(|_| {
            let toks: Vec<usize> =
                (0..cfg.tokens()).map(|_| (rng.next_u64() as usize) % cfg.vocab).collect();
            let tgts: Vec<usize> =
                (0..cfg.tokens()).map(|_| (rng.next_u64() as usize) % cfg.vocab).collect();
            (toks, tgts)
        })
        .collect();

    println!("tiny GPT (L=4) across pipeline stages, {N_MICRO} microbatches per iteration\n");

    // Serial reference: accumulate over the microbatches.
    let gpt = Gpt::init(cfg, Recompute::None, SEED);
    let mut serial_loss = 0.0;
    for (m, (tokens, targets)) in data.iter().enumerate() {
        let mut ledger = ActivationLedger::new();
        let (loss, _) =
            gpt.loss_and_grads(tokens, targets, m as u64, ExecMode::Serial, &mut ledger);
        serial_loss += loss / N_MICRO as f32;
    }
    println!("serial reference mean loss: {serial_loss:.5}\n");

    for (label, tp, pp, sp, policy) in [
        ("pp=2", 1usize, 2usize, false, Recompute::None),
        ("pp=4", 1, 4, false, Recompute::None),
        ("pp=4 + selective recompute", 1, 4, false, Recompute::Selective),
        ("tp=2 × pp=2 + sequence parallel", 2, 2, true, Recompute::Selective),
    ] {
        let results = run_grid(tp, pp, |g| {
            let model = StageModel::from_gpt(&gpt, pp, g.stage, tp, g.tp_rank, policy);
            let out = try_run_1f1b_iteration(&model, &g, sp, &data, 0).expect("no peer fails");
            (g.stage, out.mean_loss, out.peak_live_states, out.per_micro_activation_bytes)
        });
        let loss = results[0].1;
        let peaks: Vec<usize> = {
            let mut per_stage = vec![0usize; pp];
            for (stage, _, peak, _) in &results {
                per_stage[*stage] = *peak;
            }
            per_stage
        };
        println!("{label:<34} loss {loss:.5} (Δserial {:+.1e})", loss - serial_loss);
        println!(
            "   peak in-flight microbatch states per stage: {peaks:?}  (paper: min(p − stage, n))"
        );
        println!("   activation bytes per microbatch on rank 0: {}\n", results[0].3);
    }
    println!("All configurations reproduce the serial loss — pipeline, tensor, and sequence");
    println!("parallelism plus recomputation change *where* bytes live and *when* work runs,");
    println!("never the mathematics. That is the paper's correctness premise, executed.");
}
