//! Layer probes of the traced run: each times one public entry point of a
//! layer at the workload's batch and context, on the model's own KV
//! activations.

use crate::stats::{median, Rng};
use oaken_core::{KvKind, KvQuantizer, KvRowStream, OakenQuantizer};
use oaken_model::{
    attend_one_fused_into, attend_one_into, AttentionScratch, AttentionShape, BatchStep, EncodedKv,
    ExactCache, FfnWeights, KernelMode, Model, PagedKvPool, PoolBatchView, SeqId,
};
use oaken_runtime::Runtime;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The shape a workload's probes run at.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Sequences per engine step.
    pub batch: usize,
    /// Cached tokens per sequence.
    pub context: usize,
    /// Prompt tokens per prefill chunk (the engine's default budget).
    pub chunk: usize,
}

/// Every probe's figures.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    pub model_decode_step_ms: f64,
    pub model_prefill_ms_per_token: f64,
    pub attn_exact_ns_per_row: f64,
    pub attn_fused_ns_per_row: f64,
    pub attn_exact_bytes_per_row: f64,
    pub attn_fused_bytes_per_row: f64,
    pub quant_append_ns_per_row: f64,
    pub quant_bits_per_elem: f64,
    pub quant_outlier_frac: f64,
    pub tensor_matvec_gmacs: f64,
}

fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

fn tokens(rng: &mut Rng, n: usize, vocab: usize) -> Vec<u32> {
    (0..n)
        .map(|_| (rng.next_u64() % vocab as u64) as u32)
        .collect()
}

/// `Model::forward_batch_on` over a `PoolBatchView`: decode steps of
/// `shape.batch` sequences at `shape.context` (capped so the timed steps
/// stay within the window), and prefill chunks of one sequence at the
/// same context.
fn model_probe(
    model: &Model,
    q: &Arc<OakenQuantizer>,
    kernel: KernelMode,
    s: Shape,
    seed: u64,
) -> (f64, f64) {
    const DECODE_STEPS: usize = 16;
    const PREFILL_CHUNKS: usize = 4;
    let cfg = model.config();
    // The fill leaves room in the window for the timed steps after it.
    let context = s
        .context
        .min(cfg.max_seq_len - DECODE_STEPS - PREFILL_CHUNKS * s.chunk);
    let vocab = cfg.vocab_size;
    let mut rng = Rng::new(seed ^ 0x9_0B_E5);
    let sizing = PagedKvPool::for_model(
        cfg,
        Some(q.clone() as Arc<dyn KvQuantizer>),
        1,
        crate::workload::PAGE_BYTES,
    );
    let per_seq = sizing.pages_for_tokens(context + DECODE_STEPS + PREFILL_CHUNKS * s.chunk) as u32;
    let mut pool = PagedKvPool::for_model(
        cfg,
        Some(q.clone() as Arc<dyn KvQuantizer>),
        2 * (s.batch as u32 + 1) * per_seq,
        crate::workload::PAGE_BYTES,
    );
    pool.set_kernel_mode(kernel);
    let rt = Runtime::new(1);
    let seqs: Vec<_> = (0..s.batch).map(|_| pool.alloc_seq()).collect();
    let feed = |pool: &mut PagedKvPool, seqs: &[SeqId], steps: &[BatchStep]| {
        let mut view = PoolBatchView::new(pool, seqs);
        black_box(model.forward_batch_on(&rt, &mut view, steps, None));
        assert!(view.take_poisoned().is_empty(), "probe appends never fault");
    };
    // Fill every sequence to the context, one chunk at a time.
    for slot in 0..s.batch {
        let fill = tokens(&mut rng, context, vocab);
        for (c, chunk) in fill.chunks(s.chunk).enumerate() {
            let steps: Vec<BatchStep> = chunk
                .iter()
                .enumerate()
                .map(|(j, &token)| BatchStep {
                    slot,
                    pos: c * s.chunk + j,
                    token,
                })
                .collect();
            feed(&mut pool, &seqs, &steps);
        }
    }
    let mut pos = vec![context; s.batch];
    let mut decode = Vec::new();
    for _ in 0..DECODE_STEPS {
        let steps: Vec<BatchStep> = (0..s.batch)
            .map(|slot| {
                pos[slot] += 1;
                BatchStep {
                    slot,
                    pos: pos[slot] - 1,
                    token: (rng.next_u64() % vocab as u64) as u32,
                }
            })
            .collect();
        decode.push(secs(|| feed(&mut pool, &seqs, &steps)) * 1e3);
    }
    let mut prefill = Vec::new();
    for _ in 0..PREFILL_CHUNKS {
        let chunk = tokens(&mut rng, s.chunk, vocab);
        let steps: Vec<BatchStep> = chunk
            .iter()
            .map(|&token| {
                pos[0] += 1;
                BatchStep {
                    slot: 0,
                    pos: pos[0] - 1,
                    token,
                }
            })
            .collect();
        prefill.push(secs(|| feed(&mut pool, &seqs, &steps)) * 1e3 / s.chunk as f64);
    }
    for seq in seqs {
        pool.free_seq(seq).expect("probe sequence frees");
    }
    (median(&decode), median(&prefill))
}

/// K and V rows of every layer for `n` tokens, as the model produces them.
fn capture_kv(model: &Model, n: usize, seed: u64) -> Vec<[Vec<f32>; 2]> {
    let layers = model.config().num_layers;
    let mut captured = vec![[Vec::new(), Vec::new()]; layers];
    {
        let sink = &mut captured;
        let mut session = model.session(Box::new(ExactCache::new()));
        session.set_kv_observer(Box::new(move |layer, kind, v| {
            sink[layer][usize::from(kind == KvKind::Value)].extend_from_slice(v);
        }));
        let mut rng = Rng::new(seed ^ 0xCA_97);
        for t in tokens(&mut rng, n, model.config().vocab_size) {
            session.advance(t);
        }
    }
    captured
}

/// The encoded view of a stream's rows, as the fused kernels read it.
fn encoded(s: &dyn KvRowStream) -> EncodedKv<'_> {
    EncodedKv {
        rows: s.encoded_rows().expect("Oaken keeps encoded rows"),
        params: s.fused_read_params().expect("Oaken has fused read params"),
        plan: s.read_plan(),
    }
}

/// Runs every probe at `shape`.
pub fn run(
    model: &Model,
    q: &Arc<OakenQuantizer>,
    kernel: KernelMode,
    shape: Shape,
    seed: u64,
) -> Probes {
    let cfg = model.config();
    let kv_dim = cfg.kv_dim();
    let c = shape.context;
    let mut p = Probes::default();
    (p.model_decode_step_ms, p.model_prefill_ms_per_token) =
        model_probe(model, q, kernel, shape, seed);

    let kv = capture_kv(model, c, seed);

    // oaken-core: row-stream appends, stored bits, outlier share.
    let mut append_ns = Vec::new();
    let (mut payload, mut outliers, mut elems) = (0usize, 0usize, 0usize);
    for (layer, pair) in kv.iter().enumerate() {
        for (ki, kind) in [KvKind::Key, KvKind::Value].into_iter().enumerate() {
            let rows = &pair[ki];
            let mut stream = q
                .row_stream(kv_dim, layer, kind)
                .expect("Oaken streams rows");
            for _ in 0..5 {
                stream.reset();
                let t = secs(|| {
                    for r in rows.chunks(kv_dim) {
                        assert!(
                            stream.append_row_encoded(black_box(r)),
                            "Oaken appends encoded rows"
                        );
                    }
                });
                append_ns.push(t * 1e9 / c as f64);
            }
            payload += stream.payload_bytes().expect("Oaken tracks its payload");
            let report = q
                .compression_report(rows, c, kv_dim, layer, kind)
                .expect("captured rows have the model's width");
            outliers += report.outliers;
            elems += report.elements;
        }
    }
    p.quant_append_ns_per_row = median(&append_ns);
    p.quant_bits_per_elem = payload as f64 * 8.0 / elems as f64;
    p.quant_outlier_frac = outliers as f64 / elems as f64;

    // oaken-model attention: one query against layer 0's cache, through
    // the exact kernel over dequantized rows and the fused kernel over
    // the encoded rows.
    let shape_a = AttentionShape {
        num_heads: cfg.num_heads,
        num_kv_heads: cfg.num_kv_heads,
        head_dim: cfg.head_dim(),
        window: cfg.sliding_window,
    };
    let mut ks = q
        .row_stream(kv_dim, 0, KvKind::Key)
        .expect("Oaken streams rows");
    let mut vs = q
        .row_stream(kv_dim, 0, KvKind::Value)
        .expect("Oaken streams rows");
    let (mut kview, mut vview) = (Vec::new(), Vec::new());
    for (k, v) in kv[0][0].chunks(kv_dim).zip(kv[0][1].chunks(kv_dim)) {
        ks.append_row(k, &mut kview);
        vs.append_row(v, &mut vview);
    }
    let (ek, ev) = (encoded(ks.as_ref()), encoded(vs.as_ref()));
    let mut rng = Rng::new(seed ^ 0xA77);
    let query: Vec<f32> = (0..shape_a.q_dim()).map(|_| rng.normal() as f32).collect();
    let mut scratch = AttentionScratch::default();
    let mut out = Vec::new();
    const CALLS: usize = 64;
    let mut exact = Vec::new();
    let mut fused = Vec::new();
    for _ in 0..5 {
        exact.push(secs(|| {
            for _ in 0..CALLS {
                attend_one_into(
                    black_box(&query),
                    &kview,
                    &vview,
                    c,
                    &shape_a,
                    &mut scratch,
                    &mut out,
                );
                black_box(&out);
            }
        }));
        fused.push(secs(|| {
            for _ in 0..CALLS {
                attend_one_fused_into(
                    black_box(&query),
                    &ek,
                    &ev,
                    c,
                    &shape_a,
                    &mut scratch,
                    &mut out,
                );
                black_box(&out);
            }
        }));
    }
    let per_row = 1e9 / (CALLS * c) as f64;
    p.attn_exact_ns_per_row = median(&exact) * per_row;
    p.attn_fused_ns_per_row = median(&fused) * per_row;
    p.attn_exact_bytes_per_row = (2 * kv_dim * std::mem::size_of::<f32>()) as f64;
    let enc_bytes: usize = ek
        .rows
        .iter()
        .chain(ev.rows)
        .map(|r| r.payload_bytes())
        .sum();
    p.attn_fused_bytes_per_row = enc_bytes as f64 / c as f64;

    // oaken-tensor: the batched weight sweep over layer 0's matrices.
    let layer = &model.layers()[0];
    let mut mats = vec![&layer.wq, &layer.wk, &layer.wv, &layer.wo];
    if let FfnWeights::Dense(ffn) = &layer.ffn {
        mats.extend([&ffn.w_up, &ffn.w_down]);
        mats.extend(ffn.w_gate.as_ref());
    }
    let mut gmacs = Vec::new();
    for _ in 0..5 {
        let mut macs = 0.0;
        let t = secs(|| {
            for m in &mats {
                let (rows, cols) = (m.shape()[0], m.shape()[1]);
                let xs: Vec<Vec<f32>> = (0..shape.batch)
                    .map(|b| vec![0.01 * (b + 1) as f32; cols])
                    .collect();
                let refs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
                for _ in 0..8 {
                    black_box(
                        m.matvec_batch(black_box(&refs))
                            .expect("weights are rank 2"),
                    );
                    macs += (rows * cols * shape.batch) as f64;
                }
            }
        });
        gmacs.push(macs / t / 1e9);
    }
    p.tensor_matvec_gmacs = median(&gmacs);
    p
}
