//! The workloads: their fixed make-up and the requests generated
//! from `--seed`. The program sees only the generated requests.

use crate::stats::Rng;
use oaken_model::ModelConfig;
use oaken_serving::{synthesize_requests, EngineRequest, TraceSpec};

/// The model proxy every workload serves: Llama-2-7B's structure at 2
/// layers × d=128 with 4 heads of head_dim 32 (MHA, SwiGLU, RoPE,
/// 256-token vocabulary) and a 256-token window. Its weights (1.6 MB)
/// stay mostly in cache, which made its timings move less with other
/// tenants' load than the d=256 proxy's, and a round of sequences decoded
/// to the window lasts under a second, so a run holds dozens of rounds.
pub fn model_config() -> ModelConfig {
    ModelConfig {
        num_heads: 4,
        num_kv_heads: 4,
        max_seq_len: 256,
        ..ModelConfig::llama2_7b().proxy(2, 128)
    }
}

/// Seed of the synthetic weights — fixed, so `--seed` moves only the
/// requests.
pub const MODEL_SEED: u64 = 7;

/// Pool page size in bytes.
pub const PAGE_BYTES: usize = 1024;

/// Shared system-prompt length of `prefix-burst` (ten 16-token blocks).
pub const CHAT_SHARED_PREFIX: usize = 160;

/// Conversation-trace scaling of the chat requests: unique prompt tokens are
/// `input_len / CHAT_UNIQUE_DIV`, output tokens `output_len /
/// CHAT_OUTPUT_DIV`, each clamped.
pub const CHAT_UNIQUE_DIV: usize = 64;
pub const CHAT_UNIQUE_MIN: usize = 8;
pub const CHAT_UNIQUE_MAX: usize = 32;
pub const CHAT_OUTPUT_DIV: usize = 4;
pub const CHAT_OUTPUT_MIN: usize = 8;
pub const CHAT_OUTPUT_MAX: usize = 48;

/// Seed of the chat request lengths: one fixed draw, like a recorded
/// trace, while `--seed` draws the tokens. Run-to-run differences then
/// come from the program and the host, not from a different amount of
/// traffic.
pub const CHAT_TRACE_SEED: u64 = 2025;

/// Requests per round of `tight-pool`.
pub const CLOSED_BATCH: usize = 8;

/// Prompt plus output tokens of every `tight-pool` request: near the
/// proxy's 256-token window.
pub const CLOSED_TOTAL: usize = 248;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PrefixBurst,
    TightPool,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "prefix-burst" => Some(Self::PrefixBurst),
            "tight-pool" => Some(Self::TightPool),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::PrefixBurst => "prefix-burst",
            Self::TightPool => "tight-pool",
        }
    }
}

/// Generates a token sequence of `len` tokens.
fn tokens(rng: &mut Rng, len: usize, vocab: usize) -> Vec<u32> {
    (0..len)
        .map(|_| (rng.next_u64() % vocab as u64) as u32)
        .collect()
}

/// Chat requests of `prefix-burst`, numbered from 0: Conversation-trace
/// lengths scaled into the proxy's window behind one shared system
/// prompt. Prompt = [`CHAT_SHARED_PREFIX`] shared tokens + `input_len /
/// CHAT_UNIQUE_DIV` unique ones clamped to
/// `CHAT_UNIQUE_MIN..=CHAT_UNIQUE_MAX`; output = `output_len /
/// CHAT_OUTPUT_DIV` clamped to `CHAT_OUTPUT_MIN..=CHAT_OUTPUT_MAX`.
/// Lengths come from the fixed trace draw, tokens from `seed`.
pub fn chat_requests(n: usize, seed: u64, vocab: usize) -> Vec<EngineRequest> {
    let mut rng = Rng::new(seed);
    // One deployment, one system prompt: it does not move with the seed.
    let system = tokens(&mut Rng::new(0x0051_57E3), CHAT_SHARED_PREFIX, vocab);
    synthesize_requests(&TraceSpec::conversation(), n, CHAT_TRACE_SEED)
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            let unique = (r.input_len / CHAT_UNIQUE_DIV).clamp(CHAT_UNIQUE_MIN, CHAT_UNIQUE_MAX);
            let out = (r.output_len / CHAT_OUTPUT_DIV).clamp(CHAT_OUTPUT_MIN, CHAT_OUTPUT_MAX);
            let mut prompt = system.clone();
            prompt.extend(tokens(&mut rng, unique, vocab));
            EngineRequest::new(i as u64, prompt, out)
        })
        .collect()
}

/// Closed-batch requests of `tight-pool`:
/// unshared seeded prompts of 16, 20, …, 44 tokens, each with the output
/// that fills its sequence to [`CLOSED_TOTAL`] tokens. The shapes are the
/// same for every seed, so the seed moves the tokens and not the amount
/// of work.
pub fn closed_requests(seed: u64, vocab: usize) -> Vec<EngineRequest> {
    let mut rng = Rng::new(seed ^ 0x00C1_05ED);
    (0..CLOSED_BATCH)
        .map(|i| {
            let plen = 16 + 4 * i;
            EngineRequest::new(i as u64, tokens(&mut rng, plen, vocab), CLOSED_TOTAL - plen)
        })
        .collect()
}

/// Copies `reqs` under new ids starting at `first_id`, optionally
/// truncating every output to `max_new` tokens (warm-up rounds).
pub fn renumber(
    reqs: &[EngineRequest],
    first_id: u64,
    max_new: Option<usize>,
) -> Vec<EngineRequest> {
    reqs.iter()
        .enumerate()
        .map(|(i, r)| {
            let out = max_new.map_or(r.max_new_tokens, |m| m.min(r.max_new_tokens));
            EngineRequest::new(first_id + i as u64, r.prompt.clone(), out)
        })
        .collect()
}
