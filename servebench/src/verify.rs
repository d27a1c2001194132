//! Output checks run after the timed phase: served streams against an
//! independent single-sequence `Session`, and teacher-forced logit SQNR
//! of Oaken's KV against f32 KV and against an outlier-free per-token
//! uniform quantizer.

use crate::stats::SqnrAcc;
use oaken_core::{
    AblationQuantizer, BandKind, BandSpec, KvKind, KvQuantizer, KvRowStream, OnlineCost,
};
use oaken_model::{sample_greedy, ExactCache, KernelMode, Model, QuantizedCache, Session};
use std::sync::Arc;

/// The outlier-free comparator: every element of a token row in one
/// 4-bit uniform band (a single middle-band `AblationQuantizer`),
/// streamed row by row.
#[derive(Debug, Clone)]
pub struct UniformRows(AblationQuantizer);

impl UniformRows {
    pub fn new() -> Self {
        Self(AblationQuantizer::new(
            "uniform-4b",
            vec![BandSpec {
                kind: BandKind::Middle,
                ratio: 1.0,
            }],
            5,
        ))
    }
}

struct UniformStream {
    q: AblationQuantizer,
    rows: usize,
}

impl KvRowStream for UniformStream {
    fn append_row(&mut self, row: &[f32], view: &mut Vec<f32>) {
        view.extend(self.q.roundtrip_vector(row));
        self.rows += 1;
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn reset(&mut self) {
        self.rows = 0;
    }
}

impl KvQuantizer for UniformRows {
    fn name(&self) -> &'static str {
        "uniform-4b"
    }

    fn roundtrip_matrix(
        &self,
        data: &[f32],
        rows: usize,
        d: usize,
        layer: usize,
        kind: KvKind,
    ) -> Vec<f32> {
        self.0.roundtrip_matrix(data, rows, d, layer, kind)
    }

    fn effective_bits(&self, rows: usize, d: usize) -> f64 {
        self.0.effective_bits(rows, d)
    }

    fn online_cost(&self) -> OnlineCost {
        self.0.online_cost()
    }

    fn row_stream(&self, _d: usize, _layer: usize, _kind: KvKind) -> Option<Box<dyn KvRowStream>> {
        Some(Box::new(UniformStream {
            q: self.0.clone(),
            rows: 0,
        }))
    }
}

/// One sampled request's verdict.
#[derive(Debug, Clone, Copy)]
pub struct SampleCheck {
    /// First decode index where the served stream left the `Session`'s
    /// greedy decode, if any (always `None` without a stream check).
    pub mismatch: Option<usize>,
    /// Oaken-KV logits against f32-KV logits.
    pub oaken: SqnrAcc,
    /// Uniform-4-bit-KV logits against f32-KV logits.
    pub uniform: SqnrAcc,
}

/// Teacher-forces `prompt ++ served` through fresh sessions: Oaken KV
/// (the served quantizer and kernel mode) over the whole sequence when
/// `check_stream`, and f32 KV and the uniform comparator over the first
/// `sqnr_positions` positions, whose logits are compared with Oaken's.
/// With `check_stream`, every decode position's greedy choice of the
/// Oaken session must be the served token. Feeding the served tokens is
/// the same computation as a free greedy decode for as long as the two
/// agree, so the first disagreement is exactly where a greedy `Session`
/// would have diverged.
#[allow(clippy::too_many_arguments)]
pub fn check_request(
    model: &Model,
    oaken: &Arc<dyn KvQuantizer>,
    uniform: &Arc<dyn KvQuantizer>,
    kernel: KernelMode,
    prompt: &[u32],
    served: &[u32],
    sqnr_positions: usize,
    check_stream: bool,
) -> SampleCheck {
    let mut q: Session = model.session(Box::new(QuantizedCache::new(oaken.clone())));
    q.set_kernel_mode(kernel);
    let mut f = model.session(Box::new(ExactCache::new()));
    let mut u = model.session(Box::new(QuantizedCache::new(uniform.clone())));
    let mut out = SampleCheck {
        mismatch: None,
        oaken: SqnrAcc::default(),
        uniform: SqnrAcc::default(),
    };
    // The last served token is sampled, never fed.
    let fed = prompt
        .iter()
        .chain(&served[..served.len().saturating_sub(1)]);
    let fed_len = if check_stream {
        usize::MAX
    } else {
        sqnr_positions
    };
    for (pos, &tok) in fed.take(fed_len).enumerate() {
        let lq = q.advance(tok);
        if pos < sqnr_positions {
            let lf = f.advance(tok);
            let lu = u.advance(tok);
            out.oaken.add(&lf, &lq);
            out.uniform.add(&lf, &lu);
        }
        if check_stream && pos + 1 >= prompt.len() {
            let i = pos + 1 - prompt.len();
            if out.mismatch.is_none() && sample_greedy(&lq) != served[i] {
                out.mismatch = Some(i);
            }
        }
    }
    if check_stream && (prompt.is_empty() || served.is_empty()) {
        out.mismatch = Some(0);
    }
    out
}

/// Aggregate verdict over a sample.
#[derive(Debug, Clone, Copy, Default)]
pub struct SampleVerdict {
    /// Streams checked against a `Session` decode.
    pub checked: usize,
    pub mismatched: usize,
    pub oaken: SqnrAcc,
    pub uniform: SqnrAcc,
}

impl SampleVerdict {
    pub fn add(&mut self, c: &SampleCheck, stream_checked: bool) {
        self.checked += usize::from(stream_checked);
        self.mismatched += usize::from(c.mismatch.is_some());
        self.oaken.merge(c.oaken);
        self.uniform.merge(c.uniform);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oaken_core::OakenConfig;
    use oaken_eval::harness::profile_oaken;
    use oaken_model::{ModelConfig, PagedKvPool};
    use oaken_serving::{BatchEngine, EngineConfig, EngineRequest, TokenScheduler};

    #[test]
    fn stream_check_accepts_served_streams_and_rejects_altered_ones() {
        let model = Model::synthetic(ModelConfig::llama2_7b().proxy(2, 32), 3);
        let oaken: Arc<dyn KvQuantizer> =
            Arc::new(profile_oaken(&model, OakenConfig::default(), 4, 16, 3));
        let uniform: Arc<dyn KvQuantizer> = Arc::new(UniformRows::new());
        let pool = PagedKvPool::for_model(model.config(), Some(oaken.clone()), 512, 1024);
        let config = EngineConfig {
            num_threads: 1,
            num_ranks: 1,
            ..EngineConfig::default()
        };
        let mut engine = BatchEngine::new(&model, pool, TokenScheduler::new(4), config);
        let prompts: Vec<Vec<u32>> = (0..3u32)
            .map(|s| (0..12).map(|i| (i * 7 + s * 31) % 256).collect())
            .collect();
        for (i, p) in prompts.iter().enumerate() {
            engine.submit(EngineRequest::new(i as u64, p.clone(), 10));
        }
        engine.run();
        let kernel = engine.kernel_mode();
        for f in engine.finished() {
            let prompt = &prompts[f.id as usize];
            let good = check_request(
                &model,
                &oaken,
                &uniform,
                kernel,
                prompt,
                &f.generated,
                usize::MAX,
                true,
            );
            assert_eq!(
                good.mismatch, None,
                "served stream equals the Session decode"
            );
            assert!(good.oaken.db().is_finite() && good.oaken.db() > 0.0);

            for at in [0, 4, 9] {
                let mut altered = f.generated.clone();
                altered[at] = (altered[at] + 1) % 256;
                let bad =
                    check_request(&model, &oaken, &uniform, kernel, prompt, &altered, 4, true);
                assert_eq!(bad.mismatch, Some(at), "altered token {at} is caught");
            }
            let short = &f.generated[..5];
            assert_eq!(
                check_request(&model, &oaken, &uniform, kernel, prompt, short, 4, true).mismatch,
                None
            );
            // Without the stream check an altered stream only feeds SQNR.
            let mut altered = f.generated.clone();
            altered[2] = (altered[2] + 1) % 256;
            assert_eq!(
                check_request(&model, &oaken, &uniform, kernel, prompt, &altered, 20, false)
                    .mismatch,
                None
            );
        }
    }

    #[test]
    fn uniform_stream_matches_its_matrix_roundtrip() {
        let q = UniformRows::new();
        let rows: Vec<f32> = (0..64)
            .map(|i| ((i * 37 % 23) as f32 - 11.0) * 0.3)
            .collect();
        let whole = q.roundtrip_matrix(&rows, 4, 16, 0, KvKind::Key);
        let mut s = q.row_stream(16, 0, KvKind::Key).expect("streams");
        let mut view = Vec::new();
        for r in rows.chunks(16) {
            s.append_row(r, &mut view);
        }
        assert_eq!(view, whole);
        assert_eq!(s.rows(), 4);
    }
}
