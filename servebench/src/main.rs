//! Wall-clock serving benchmark of the Oaken stack: requests generated
//! from a seed are served through `oaken-service` / `BatchEngine` over a
//! `PagedKvPool` of Oaken-quantized KV, timed end to end, and checked
//! for correctness afterwards.
//!
//! ```text
//! servebench --workload <prefix-burst|tight-pool> [--seed N]
//!            [--seconds S] [--trace 0|1]
//! ```
//!
//! Untraced (`--trace 0`) runs report the end-to-end metrics; traced runs
//! replay the same inputs with spans around every call into the stack,
//! then run the layer probes, and report the per-layer metrics. The last
//! line of standard output is one JSON object with the result.

mod chat;
mod direct;
mod probes;
mod stats;
mod trace;
mod verify;
mod workload;

use direct::{run_closed, ClosedRun, Delivery, StepRec};
use oaken_core::{KvQuantizer, OakenConfig, OakenQuantizer};
use oaken_eval::harness::profile_oaken;
use oaken_model::{Model, PagedKvPool};
use oaken_serving::{
    BatchEngine, EngineConfig, EngineRequest, EngineStats, PreemptPolicy, TokenScheduler,
};
use stats::{mean, median, percentile, Rng};
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;
use verify::{check_request, SampleVerdict, UniformRows};
use workload::{Workload, CLOSED_TOTAL};

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Offline profiling corpus: sequences × tokens.
const PROFILE_SEQS: usize = 4;
const PROFILE_LEN: usize = 32;
/// Verification sample per run. Chat prompts share a long system prompt,
/// so 4 whole requests of the first round give a steady SQNR and are all
/// stream-checked.
/// Closed-workload prompts share nothing, so SQNR pools the first
/// `CLOSED_SQNR_POSITIONS` positions of every request of the batch, and
/// the first `CLOSED_STREAM_SAMPLE` of them are stream-checked whole.
const CHAT_SAMPLE: usize = 4;
const CLOSED_STREAM_SAMPLE: usize = 2;
const CLOSED_SQNR_POSITIONS: usize = 128;
/// Output tokens of each warm-up request.
const WARM_TOKENS: usize = 32;
/// Requests per `prefix-burst` round, all due at the round's start.
const BURST_SIZE: usize = 16;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 50.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = val("--workload")?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = val("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds takes a value in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match val("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            _ => return Err(format!("unknown argument {a:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required (prefix-burst, tight-pool)")?,
        seed,
        seconds,
        trace,
    })
}

/// The engine configuration: the program's defaults, on one runtime
/// thread and one rank.
fn engine_config() -> EngineConfig {
    EngineConfig {
        num_threads: 1,
        num_ranks: 1,
        ..EngineConfig::default()
    }
}

fn build_pool(model: &Model, q: &Arc<OakenQuantizer>, pages: u32) -> PagedKvPool {
    PagedKvPool::for_model(
        model.config(),
        Some(q.clone() as Arc<dyn KvQuantizer>),
        pages,
        workload::PAGE_BYTES,
    )
}

/// Device pages of a workload's pool.
fn pool_pages(w: Workload, sizing: &PagedKvPool) -> u32 {
    let per = |tokens: usize| sizing.pages_for_tokens(tokens) as u32;
    let max_batch = engine_config().max_batch as u32;
    match w {
        // Every batch slot holding a maximal chat request, twice over.
        Workload::PrefixBurst => {
            2 * max_batch
                * per(workload::CHAT_SHARED_PREFIX
                    + workload::CHAT_UNIQUE_MAX
                    + workload::CHAT_OUTPUT_MAX)
        }
        // A third of the batch's peak — the nominal count plus the eighth
        // more its variable-rate rows took in a pool that never preempts,
        // rounded up to a quarter — but always room for one request.
        Workload::TightPool => {
            let peak = workload::CLOSED_BATCH as u32 * per(CLOSED_TOTAL) * 5 / 4;
            (peak / 3).max(per(CLOSED_TOTAL) * 5 / 4)
        }
    }
}

struct Stack {
    model: Model,
    quantizer: Arc<OakenQuantizer>,
    pages: u32,
    setup_s: f64,
    synth_s: f64,
    profile_s: f64,
    pool_s: f64,
}

/// Everything before the first request can be served — model synthesis,
/// offline threshold profiling, pool and engine construction — done
/// `SETUP_REPS` times; the reported times are medians.
fn setup(w: Workload) -> Stack {
    let (mut total, mut synth, mut profile, mut pool) = (vec![], vec![], vec![], vec![]);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let model = Model::synthetic(workload::model_config(), workload::MODEL_SEED);
        let t1 = Instant::now();
        let q = Arc::new(profile_oaken(
            &model,
            OakenConfig::default(),
            PROFILE_SEQS,
            PROFILE_LEN,
            workload::MODEL_SEED,
        ));
        let t2 = Instant::now();
        let pages = pool_pages(w, &build_pool(&model, &q, 1));
        let engine = BatchEngine::new(
            &model,
            build_pool(&model, &q, pages),
            TokenScheduler::new(8),
            engine_config(),
        );
        drop(engine);
        let t3 = Instant::now();
        total.push((t3 - t0).as_secs_f64());
        synth.push((t1 - t0).as_secs_f64());
        profile.push((t2 - t1).as_secs_f64());
        pool.push((t3 - t2).as_secs_f64());
        kept = Some((model, q, pages));
    }
    let (model, quantizer, pages) = kept.expect("at least one set-up");
    Stack {
        model,
        quantizer,
        pages,
        setup_s: median(&total),
        synth_s: median(&synth),
        profile_s: median(&profile),
        pool_s: median(&pool),
    }
}

/// Peak resident set (`VmHWM`) in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checkout's git revision, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
    }
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, v, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Sample indices of `n` requests, seeded.
fn sample(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = Rng::new(seed ^ 0x5A_3F1E);
    for i in (1..n).rev() {
        idx.swap(i, rng.range(0, i));
    }
    idx.truncate(k.min(n));
    idx.sort_unstable();
    idx
}

/// Checks the first `streams` of the sampled requests against
/// independent `Session` decodes and measures logit SQNR over the first
/// `positions` positions of every sampled request.
fn verify_sample(
    stack: &Stack,
    kernel: oaken_model::KernelMode,
    picks: &[(&[u32], &[u32])],
    streams: usize,
    positions: usize,
) -> SampleVerdict {
    let oaken: Arc<dyn KvQuantizer> = stack.quantizer.clone();
    let uniform: Arc<dyn KvQuantizer> = Arc::new(UniformRows::new());
    let mut v = SampleVerdict::default();
    for (i, (prompt, served)) in picks.iter().enumerate() {
        let check_stream = i < streams;
        let c = check_request(
            &stack.model,
            &oaken,
            &uniform,
            kernel,
            prompt,
            served,
            positions,
            check_stream,
        );
        let verdict = match (check_stream, c.mismatch) {
            (false, _) => "not checked".to_string(),
            (true, None) => "equals Session decode".to_string(),
            (true, Some(at)) => format!("DIVERGES at {at}"),
        };
        println!(
            "  sample {i}: prompt {} + {} tokens | stream {verdict} | SQNR oaken {:.2} dB vs uniform-4b {:.2} dB",
            prompt.len(),
            served.len(),
            c.oaken.db(),
            c.uniform.db()
        );
        v.add(&c, check_stream);
    }
    v
}

/// Per-layer metrics derived from the traced rounds of a bare engine:
/// `s` counts those `rounds`, which fed `prompt_tokens` prompt tokens.
/// Counts are reported per round.
fn engine_metrics(
    d: &Delivery,
    s: &EngineStats,
    prompt_tokens: u64,
    rounds: f64,
    out: &mut Vec<Metric>,
) {
    let step_ms: Vec<f64> = d.steps.iter().map(|x| x.ms).collect();
    let pick = |f: &dyn Fn(&StepRec) -> bool| -> Vec<f64> {
        d.steps.iter().filter(|x| f(x)).map(|x| x.ms).collect()
    };
    let prefill = pick(&|x| x.prefill > 0);
    let decode = pick(&|x| x.prefill == 0 && x.decode > 0);
    let p50 = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    out.push(m("engine.step_ms_p50", p50(&step_ms), "ms"));
    out.push(m(
        "engine.step_ms_p99",
        if step_ms.is_empty() {
            0.0
        } else {
            percentile(&step_ms, 99.0)
        },
        "ms",
    ));
    out.push(m("engine.prefill_step_ms_p50", p50(&prefill), "ms"));
    out.push(m("engine.decode_step_ms_p50", p50(&decode), "ms"));
    out.push(m("engine.queue_wait_ms_p50", p50(&d.queue_wait_ms), "ms"));
    let batch: Vec<f64> = d.steps.iter().map(|x| x.batch as f64).collect();
    out.push(m("engine.batch_mean", mean(&batch), "seqs"));
    out.push(m(
        "engine.iterations",
        s.iterations as f64 / rounds,
        "count",
    ));
    out.push(m(
        "engine.prefill_tokens",
        s.prefill_tokens as f64 / rounds,
        "count",
    ));
    out.push(m(
        "engine.decode_tokens",
        s.decode_tokens as f64 / rounds,
        "count",
    ));
    out.push(m(
        "engine.preemptions",
        s.preemptions as f64 / rounds,
        "count",
    ));
    out.push(m(
        "engine.admission_stalls",
        s.admission_stalls as f64 / rounds,
        "count",
    ));
    out.push(m(
        "engine.recomputed_prefill_tokens",
        s.recomputed_prefill_tokens as f64 / rounds,
        "count",
    ));
    let computed = (s.prefill_tokens + s.decode_tokens) as f64;
    let useful = (s.prefill_tokens - s.recomputed_prefill_tokens) as f64 + d.tokens as f64;
    out.push(m("engine.useful_token_frac", useful / computed, "fraction"));
    out.push(m(
        "pool.prefix_hit_frac",
        s.prefix.tokens_reused as f64 / prompt_tokens as f64,
        "fraction",
    ));
    out.push(m(
        "pool.pages_in_use_peak",
        f64::from(s.pages_in_use_peak),
        "pages",
    ));
    out.push(m(
        "pool.swap_bytes",
        (s.swap_bytes_to_host + s.swap_bytes_to_device) as f64 / rounds,
        "B",
    ));
    let read = (s.kv_reads.exact_bytes + s.kv_reads.fused_bytes) as f64;
    out.push(m(
        "pool.kv_read_bytes_per_token",
        read / computed.max(1.0),
        "B/token",
    ));
}

fn probe_metrics(p: &probes::Probes, stack: &Stack, out: &mut Vec<Metric>) {
    out.push(m("model.decode_step_ms", p.model_decode_step_ms, "ms"));
    out.push(m(
        "model.prefill_ms_per_token",
        p.model_prefill_ms_per_token,
        "ms",
    ));
    out.push(m("attn.exact_ns_per_row", p.attn_exact_ns_per_row, "ns"));
    out.push(m("attn.fused_ns_per_row", p.attn_fused_ns_per_row, "ns"));
    out.push(m(
        "attn.exact_bytes_per_row",
        p.attn_exact_bytes_per_row,
        "B",
    ));
    out.push(m(
        "attn.fused_bytes_per_row",
        p.attn_fused_bytes_per_row,
        "B",
    ));
    out.push(m(
        "quant.append_ns_per_row",
        p.quant_append_ns_per_row,
        "ns",
    ));
    out.push(m("quant.bits_per_elem", p.quant_bits_per_elem, "bits"));
    out.push(m("quant.outlier_frac", p.quant_outlier_frac, "fraction"));
    out.push(m("tensor.matvec_gmacs", p.tensor_matvec_gmacs, "GMAC/s"));
    out.push(m("setup.synth_s", stack.synth_s, "s"));
    out.push(m("setup.profile_s", stack.profile_s, "s"));
    out.push(m("setup.pool_s", stack.pool_s, "s"));
}

fn p_or_zero(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        percentile(v, p)
    }
}

/// The end-to-end metrics of an untraced run. Every timing is the median
/// over the run's rounds of that round's figure, so a slow stretch of
/// the host moves a few rounds and not the result.
fn e2e_metrics(stack: &Stack, d: &Delivery, rss: f64, sqnr: f64) -> Vec<Metric> {
    let rounds = d.rounds();
    let over = |f: &dyn Fn(&direct::Round) -> f64| {
        let v: Vec<f64> = rounds.iter().map(f).collect();
        median(&v)
    };
    vec![
        m("setup_s", stack.setup_s, "s"),
        m("ttft_p50_ms", over(&|r| p_or_zero(r.ttft_ms, 50.0)), "ms"),
        m("ttft_p90_ms", over(&|r| p_or_zero(r.ttft_ms, 90.0)), "ms"),
        m("itl_p50_ms", over(&|r| p_or_zero(r.itl_ms, 50.0)), "ms"),
        m("itl_p99_ms", over(&|r| p_or_zero(r.itl_ms, 99.0)), "ms"),
        m("out_tok_s", over(&|r| r.tokens as f64 / r.secs), "tok/s"),
        m("peak_rss_mib", rss, "MiB"),
        m("logit_sqnr_db", sqnr, "dB"),
    ]
}

fn print_latency(label: &str, d: &Delivery, elapsed_s: f64) {
    println!(
        "{label}: {} requests, {} tokens in {:.2} s ({:.1} tok/s) | TTFT p50 {:.2} p90 {:.2} ms (n={}) | ITL p50 {:.3} p99 {:.3} ms (n={})",
        d.attempted,
        d.tokens,
        elapsed_s,
        d.tokens as f64 / elapsed_s,
        p_or_zero(&d.ttft_ms, 50.0),
        p_or_zero(&d.ttft_ms, 90.0),
        d.ttft_ms.len(),
        p_or_zero(&d.itl_ms, 50.0),
        p_or_zero(&d.itl_ms, 99.0),
        d.itl_ms.len(),
    );
}

/// The outcome of a workload run, before printing.
struct Outcome {
    attempted: usize,
    failed: usize,
    checks: Vec<(&'static str, bool)>,
    metrics: Vec<Metric>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    // The engine's defaults read these; a set one would silently change
    // what is measured.
    let oaken_env: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("OAKEN_"))
        .collect();
    if !oaken_env.is_empty() {
        eprintln!(
            "servebench: refusing to run with {} set",
            oaken_env.join(", ")
        );
        std::process::exit(2);
    }

    let stack = setup(args.workload);
    let cfg = engine_config();
    let probe_engine = BatchEngine::new(
        &stack.model,
        build_pool(&stack.model, &stack.quantizer, stack.pages),
        TokenScheduler::new(8),
        cfg,
    );
    let kernel = probe_engine.kernel_mode();
    let pool = probe_engine.pool();
    println!(
        "servebench {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "  model {} ({} layers, d={}, head_dim {}, window {}) | kernel {} | threads {} | ranks {} | preempt {} | max batch {} | prefill budget {}",
        stack.model.config().name,
        stack.model.config().num_layers,
        stack.model.config().d_model,
        stack.model.config().head_dim(),
        stack.model.config().max_seq_len,
        kernel.label(),
        probe_engine.runtime().threads(),
        probe_engine.num_ranks(),
        match cfg.preempt {
            PreemptPolicy::RestartRecompute => "restart-recompute",
            PreemptPolicy::SwapToHost => "swap-to-host",
        },
        cfg.max_batch,
        cfg.prefill_token_budget,
    );
    println!(
        "  pool {} pages x {} B | host {} pages | block {} tokens | git {} | simd feature {} | nproc {}",
        pool.capacity_pages(),
        pool.page_size(),
        pool.host_capacity_pages(),
        pool.block_tokens(),
        git_rev(),
        if cfg!(feature = "simd") { "on" } else { "off" },
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!(
        "  setup {:.4} s (median of {SETUP_REPS}: synth {:.4} s, profile {:.4} s, pool+engine {:.4} s)",
        stack.setup_s, stack.synth_s, stack.profile_s, stack.pool_s
    );
    drop(probe_engine);

    let outcome = run_workload(&stack, kernel, &args);
    let correct = outcome.failed == 0 && outcome.checks.iter().all(|&(_, ok)| ok);
    for (name, ok) in &outcome.checks {
        println!("  check {name}: {}", if *ok { "pass" } else { "FAIL" });
    }
    println!(
        "  requests attempted {} finished {} failed {}",
        outcome.attempted,
        outcome.attempted - outcome.failed,
        outcome.failed
    );
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Mean context a workload's decode steps run at, for the probes.
fn probe_shape(reqs: &[EngineRequest]) -> probes::Shape {
    let ctx: Vec<f64> = reqs
        .iter()
        .map(|r| (r.prompt.len() + r.max_new_tokens / 2) as f64)
        .collect();
    probes::Shape {
        batch: engine_config().max_batch,
        context: mean(&ctx).round() as usize,
        chunk: engine_config().prefill_token_budget,
    }
}

/// Serves a workload's timed rounds — `prefix-burst` through the
/// service, `tight-pool` straight into a bare engine — verifies
/// them and gathers the run's metrics.
fn run_workload(stack: &Stack, kernel: oaken_model::KernelMode, args: &Args) -> Outcome {
    let vocab = stack.model.config().vocab_size;
    let via_service = args.workload == Workload::PrefixBurst;
    let reqs = if via_service {
        workload::chat_requests(BURST_SIZE, args.seed, vocab)
    } else {
        workload::closed_requests(args.seed, vocab)
    };
    let new_pool = || build_pool(&stack.model, &stack.quantizer, stack.pages);
    let new_engine = || {
        BatchEngine::new(
            &stack.model,
            new_pool(),
            TokenScheduler::new(8),
            engine_config(),
        )
    };
    let mut tracer = Tracer::new(Instant::now());
    let (served, direct_run) = if via_service {
        let s = chat::serve_rounds(
            &stack.model,
            new_pool(),
            engine_config(),
            &reqs,
            args.seconds,
            WARM_TOKENS,
            args.trace.then_some(&mut tracer),
        );
        (Some(s), None)
    } else {
        let r = run_closed(
            &mut new_engine(),
            &reqs,
            args.seconds,
            WARM_TOKENS,
            args.trace.then_some(&mut tracer),
        );
        (None, Some(r))
    };
    let run: &ClosedRun = match (&served, &direct_run) {
        (Some(s), _) => &s.run,
        (None, Some(r)) => r,
        (None, None) => unreachable!("one of the two paths ran"),
    };
    let rss = peak_rss_mib();
    print_latency(
        &format!("timed ({} rounds of {})", run.rounds, reqs.len()),
        &run.delivery,
        run.elapsed_s,
    );
    let round_tok_s: Vec<f64> = run
        .delivery
        .rounds()
        .iter()
        .map(|r| r.tokens as f64 / r.secs)
        .collect();
    println!(
        "  tok/s over the rounds: min {:.1} median {:.1} max {:.1} | submission lateness against the round start p50 {:.3} p99 {:.3} ms",
        round_tok_s.iter().copied().fold(f64::INFINITY, f64::min),
        median(&round_tok_s),
        round_tok_s.iter().copied().fold(0.0, f64::max),
        median(&run.delivery.late_ms),
        percentile(&run.delivery.late_ms, 99.0),
    );
    match &served {
        Some(s) => {
            let shared = (workload::CHAT_SHARED_PREFIX * reqs.len() * (run.rounds + 1)) as f64;
            println!(
                "  prefix reuse, warm-up included: {} of {shared} shared system-prompt tokens ({:.1}%)",
                s.report.stats.prefix.tokens_reused,
                100.0 * s.report.stats.prefix.tokens_reused as f64 / shared,
            );
        }
        None => println!(
            "  per round: {} iterations, {} preemptions, {} admission stalls, {} recomputed prefill tokens, page peak {}",
            run.stats.iterations / run.rounds as u64,
            run.stats.preemptions / run.rounds as u64,
            run.stats.admission_stalls / run.rounds as u64,
            run.stats.recomputed_prefill_tokens / run.rounds as u64,
            run.stats.pages_in_use_peak
        ),
    }

    // Sampled from the first round's streams; every later round is
    // checked equal to them.
    let (k, streams, positions) = if via_service {
        (CHAT_SAMPLE, CHAT_SAMPLE, usize::MAX)
    } else {
        (reqs.len(), CLOSED_STREAM_SAMPLE, CLOSED_SQNR_POSITIONS)
    };
    let picks: Vec<(&[u32], &[u32])> = sample(reqs.len(), k, args.seed)
        .iter()
        .map(|&i| (reqs[i].prompt.as_slice(), run.outputs[i].as_slice()))
        .collect();
    let verdict = verify_sample(stack, kernel, &picks, streams, positions);
    let mut checks = vec![
        (
            "every request Finished with its max_new_tokens",
            run.delivery.failed == 0 && run.warm_ok,
        ),
        ("pool drained empty", run.drained),
        (
            "every round reproduced the first round's streams",
            run.rounds_agree,
        ),
        (
            "sampled streams equal Session decodes",
            verdict.checked > 0 && verdict.mismatched == 0,
        ),
        (
            "Oaken SQNR beats outlier-free uniform 4-bit",
            verdict.oaken.db() > verdict.uniform.db(),
        ),
    ];

    let metrics = if !args.trace {
        e2e_metrics(stack, &run.delivery, rss, verdict.oaken.db())
    } else {
        let mut out = vec![m(
            "driver.late_p99_ms",
            percentile(&run.delivery.late_ms, 99.0),
            "ms",
        )];
        // The service layer: the timed rounds of `prefix-burst`; for
        // `tight-pool`, one round of its batch through `serve` with
        // outputs cut to the warm-up length.
        let probe_served;
        let svc = match &served {
            Some(s) => s,
            None => {
                probe_served = chat::serve_rounds(
                    &stack.model,
                    new_pool(),
                    engine_config(),
                    &workload::renumber(&reqs, 0, Some(WARM_TOKENS)),
                    0.0,
                    WARM_TOKENS,
                    None,
                );
                &probe_served
            }
        };
        out.push(m("service.submit_us_p50", median(&svc.submit_us), "us"));
        out.push(m(
            "service.tick_ms_mean",
            svc.serve_s * 1e3 / svc.report.clock.max(1) as f64,
            "ms",
        ));
        // The engine layer: `tight-pool`'s own rounds; for
        // `prefix-burst`, the same rounds replayed against a bare engine
        // so that its steps are visible.
        let replay;
        let traced = match &direct_run {
            Some(r) => r,
            None => {
                replay = run_closed(
                    &mut new_engine(),
                    &reqs,
                    args.seconds,
                    WARM_TOKENS,
                    Some(&mut tracer),
                );
                print_latency(
                    &format!("traced direct replay ({} rounds)", replay.rounds),
                    &replay.delivery,
                    replay.elapsed_s,
                );
                checks.push((
                    "direct replay Finished every request",
                    replay.delivery.failed == 0 && replay.warm_ok,
                ));
                checks.push(("direct replay pool drained empty", replay.drained));
                checks.push((
                    "direct replay streams equal the service's",
                    replay.rounds_agree && replay.outputs == run.outputs,
                ));
                &replay
            }
        };
        let prompt_tokens: u64 =
            reqs.iter().map(|r| r.prompt.len() as u64).sum::<u64>() * traced.rounds as u64;
        engine_metrics(
            &traced.delivery,
            &traced.stats,
            prompt_tokens,
            traced.rounds as f64,
            &mut out,
        );
        let p = probes::run(
            &stack.model,
            &stack.quantizer,
            kernel,
            probe_shape(&reqs),
            args.seed,
        );
        probe_metrics(&p, stack, &mut out);
        write_trace(&tracer, args);
        out
    };
    Outcome {
        attempted: run.delivery.attempted,
        failed: run.delivery.failed,
        checks,
        metrics,
    }
}

/// Writes the traced run's spans and prints their count.
fn write_trace(tracer: &Tracer, args: &Args) {
    let path = std::path::PathBuf::from(format!(
        ".servebench/trace-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    match tracer.write_jsonl(&path) {
        Ok(()) => println!(
            "  {} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => println!(
            "  {} spans; writing {} failed: {e}",
            tracer.spans().len(),
            path.display()
        ),
    }
}
