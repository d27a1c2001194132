//! Driving `BatchEngine` directly, as the benchmark's client: the
//! closed-batch rounds of `tight-pool`, and the traced
//! `prefix-burst` replay that makes engine steps visible. Every step is
//! followed by `take_token_events`, the client's receipt of the step's
//! tokens.

use crate::trace::Tracer;
use crate::workload::renumber;
use oaken_serving::{BatchEngine, EngineRequest, EngineStats, RequestOutcome};
use std::collections::HashMap;
use std::time::Instant;

pub fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// Per-step facts the traced run derives its engine metrics from.
#[derive(Debug, Clone, Copy)]
pub struct StepRec {
    pub ms: f64,
    /// Prompt tokens the step fed (including restart recompute).
    pub prefill: u64,
    /// Tokens the step generated.
    pub decode: u64,
    /// Sequences in the step's batch: active after it plus those it
    /// retired.
    pub batch: usize,
}

/// Latency samples of a driven phase.
#[derive(Debug, Default)]
pub struct Delivery {
    pub ttft_ms: Vec<f64>,
    pub itl_ms: Vec<f64>,
    /// Output tokens delivered (first emission of each index only).
    pub tokens: u64,
    pub attempted: usize,
    pub failed: usize,
    /// How late each submission started against its due time, ms.
    pub late_ms: Vec<f64>,
    /// Milliseconds from submit to first admission (traced runs only).
    pub queue_wait_ms: Vec<f64>,
    /// Traced runs only.
    pub steps: Vec<StepRec>,
    round_ends: Vec<RoundEnd>,
}

/// Where one round's samples end in a [`Delivery`], and how long the
/// round took.
#[derive(Debug, Clone, Copy, Default)]
struct RoundEnd {
    ttft: usize,
    itl: usize,
    tokens: u64,
    secs: f64,
}

/// The samples of one round.
pub struct Round<'a> {
    pub ttft_ms: &'a [f64],
    pub itl_ms: &'a [f64],
    pub tokens: u64,
    /// From the round's submission to its last token, seconds.
    pub secs: f64,
}

impl Delivery {
    /// Closes the round that began where the previous one ended.
    pub fn end_round(&mut self, secs: f64) {
        self.round_ends.push(RoundEnd {
            ttft: self.ttft_ms.len(),
            itl: self.itl_ms.len(),
            tokens: self.tokens,
            secs,
        });
    }

    /// Every closed round's samples, in order.
    pub fn rounds(&self) -> Vec<Round<'_>> {
        let mut prev = RoundEnd::default();
        self.round_ends
            .iter()
            .map(|&e| {
                let r = Round {
                    ttft_ms: &self.ttft_ms[prev.ttft..e.ttft],
                    itl_ms: &self.itl_ms[prev.itl..e.itl],
                    tokens: e.tokens - prev.tokens,
                    secs: e.secs,
                };
                prev = e;
                r
            })
            .collect()
    }
}

/// Whether a run of whole rounds, meant to end nearest `seconds`, starts
/// another one after `done` rounds took `elapsed` seconds. The first
/// round always runs.
pub fn another_round(seconds: f64, done: usize, elapsed: f64) -> bool {
    done == 0 || elapsed + 0.5 * elapsed / (done as f64) < seconds
}

struct Track {
    due: Instant,
    want: usize,
    stream: Vec<u32>,
    last: Option<Instant>,
    admitted: bool,
}

/// The benchmark's client of a bare engine.
#[derive(Default)]
pub struct Client {
    tracks: HashMap<u64, Track>,
    pub d: Delivery,
}

impl Client {
    pub fn submit(
        &mut self,
        engine: &mut BatchEngine<'_>,
        req: EngineRequest,
        due: Instant,
        tracer: Option<&mut Tracer>,
    ) {
        self.tracks.insert(
            req.id,
            Track {
                due,
                want: req.max_new_tokens,
                stream: Vec::with_capacity(req.max_new_tokens),
                last: None,
                admitted: false,
            },
        );
        let id = req.id;
        self.d.late_ms.push(ms(due, Instant::now()));
        match tracer {
            Some(tr) => {
                tr.time("engine.submit", None, Some(id), || engine.submit(req));
            }
            None => engine.submit(req),
        }
    }

    /// One engine step and the receipt of its tokens, deduplicated by
    /// decode index (a restarted request re-emits what it recomputes).
    /// Returns `false` once the engine has no work left.
    pub fn step(&mut self, engine: &mut BatchEngine<'_>, mut tracer: Option<&mut Tracer>) -> bool {
        let before = tracer
            .is_some()
            .then(|| (engine.stats().prefill_tokens, engine.stats().decode_tokens));
        let finished_before = engine.finished().len();
        let s0 = Instant::now();
        let more = engine.step();
        let s1 = Instant::now();
        let span = tracer
            .as_deref_mut()
            .map(|t| t.record("engine.step", s0, s1, None, None));
        let events = match tracer.as_deref_mut() {
            Some(tr) => {
                tr.time("engine.take_token_events", span, None, || {
                    engine.take_token_events()
                })
                .0
            }
            None => engine.take_token_events(),
        };
        let t = Instant::now();
        for ev in events {
            let track = self
                .tracks
                .get_mut(&ev.id)
                .expect("token for a submitted request");
            if ev.index != track.stream.len() {
                continue;
            }
            track.stream.push(ev.token);
            self.d.tokens += 1;
            match track.last {
                None => self.d.ttft_ms.push(ms(track.due, t)),
                Some(prev) => self.d.itl_ms.push(ms(prev, t)),
            }
            track.last = Some(t);
            if let Some(tr) = tracer.as_deref_mut() {
                tr.record("client.receive", t, t, span, Some(ev.id));
            }
        }
        if let Some((prefill, decode)) = before {
            let after = engine.stats();
            let retired = &engine.finished()[finished_before..];
            self.d.steps.push(StepRec {
                ms: ms(s0, s1),
                prefill: after.prefill_tokens - prefill,
                decode: after.decode_tokens - decode,
                batch: engine.active_len() + retired.len(),
            });
            let ids = engine
                .active_ids()
                .into_iter()
                .chain(retired.iter().map(|f| f.id));
            for id in ids {
                if let Some(track) = self.tracks.get_mut(&id) {
                    if !track.admitted {
                        track.admitted = true;
                        self.d.queue_wait_ms.push(ms(track.due, s0));
                    }
                }
            }
        }
        more
    }

    /// Checks every request the engine finished since `finished_from`
    /// ended `Finished` with exactly its requested tokens, equal to the
    /// stream the client received, and hands back those streams by id.
    pub fn settle(
        &mut self,
        engine: &BatchEngine<'_>,
        finished_from: usize,
    ) -> HashMap<u64, Vec<u32>> {
        let mut out = HashMap::new();
        for f in &engine.finished()[finished_from..] {
            if let Some(t) = self.tracks.remove(&f.id) {
                let ok = f.outcome == RequestOutcome::Finished
                    && f.generated.len() == t.want
                    && f.generated == t.stream;
                self.d.attempted += 1;
                self.d.failed += usize::from(!ok);
                out.insert(f.id, t.stream);
            }
        }
        // Submitted but never finished: attempted and failed.
        self.d.attempted += self.tracks.len();
        self.d.failed += self.tracks.len();
        self.tracks.clear();
        out
    }
}

/// Whether the engine's pool holds nothing: every page free, no
/// sequence registered, no host residue.
pub fn pool_drained(engine: &BatchEngine<'_>) -> bool {
    engine.rank_pools().iter().all(|p| {
        let acc = p.page_accounting();
        acc.free == p.capacity_pages()
            && acc.private == 0
            && acc.shared_blocks == 0
            && p.host_pages_used() == 0
            && p.active_seqs() == 0
            && p.suspended_seqs() == 0
    })
}

/// What a closed run hands back.
pub struct ClosedRun {
    pub delivery: Delivery,
    pub rounds: usize,
    pub elapsed_s: f64,
    /// Round 0's streams, index-aligned with the batch.
    pub outputs: Vec<Vec<u32>>,
    /// Every later round reproduced round 0's streams exactly.
    pub rounds_agree: bool,
    /// Every warm-up request finished with its tokens.
    pub warm_ok: bool,
    /// The pool drained empty after every round.
    pub drained: bool,
    /// Engine counters of the timed rounds only.
    pub stats: EngineStats,
}

/// Submits `reqs` at once and steps the engine until they drain; returns
/// the streams index-aligned with `reqs`.
fn round(
    engine: &mut BatchEngine<'_>,
    client: &mut Client,
    reqs: Vec<EngineRequest>,
    mut tracer: Option<&mut Tracer>,
) -> Vec<Vec<u32>> {
    let ids: Vec<u64> = reqs.iter().map(|r| r.id).collect();
    let finished_from = engine.finished().len();
    let due = Instant::now();
    for r in reqs {
        client.submit(engine, r, due, tracer.as_deref_mut());
    }
    while client.step(engine, tracer.as_deref_mut()) {}
    let mut streams = client.settle(engine, finished_from);
    ids.iter()
        .map(|id| streams.remove(id).unwrap_or_default())
        .collect()
}

/// Runs a warm-up round (outputs cut to `warm_tokens`), then whole timed
/// rounds of `reqs`, as many as end nearest `seconds`.
pub fn run_closed(
    engine: &mut BatchEngine<'_>,
    reqs: &[EngineRequest],
    seconds: f64,
    warm_tokens: usize,
    mut tracer: Option<&mut Tracer>,
) -> ClosedRun {
    let n = reqs.len() as u64;
    let mut warm = Client::default();
    round(
        engine,
        &mut warm,
        renumber(reqs, 1 << 40, Some(warm_tokens)),
        None,
    );
    let mut drained = pool_drained(engine);
    let base = engine.stats().clone();

    let mut client = Client::default();
    let mut outputs = Vec::new();
    let mut rounds_agree = true;
    let mut rounds = 0usize;
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let streams = round(
            engine,
            &mut client,
            renumber(reqs, rounds as u64 * n, None),
            tracer.as_deref_mut(),
        );
        client.d.end_round(t.elapsed().as_secs_f64());
        drained &= pool_drained(engine);
        if rounds == 0 {
            outputs = streams;
        } else {
            rounds_agree &= streams == outputs;
        }
        rounds += 1;
        if !another_round(seconds, rounds, start.elapsed().as_secs_f64()) {
            break;
        }
    }
    ClosedRun {
        elapsed_s: start.elapsed().as_secs_f64(),
        delivery: client.d,
        rounds,
        outputs,
        rounds_agree,
        warm_ok: warm.d.failed == 0,
        drained,
        stats: stats_delta(engine.stats(), &base),
    }
}

/// `a − b` over the cumulative counters the benchmark reports.
pub fn stats_delta(a: &EngineStats, b: &EngineStats) -> EngineStats {
    let mut s = a.clone();
    s.iterations -= b.iterations;
    s.admitted -= b.admitted;
    s.retired -= b.retired;
    s.preemptions -= b.preemptions;
    s.admission_stalls -= b.admission_stalls;
    s.prefill_tokens -= b.prefill_tokens;
    s.decode_tokens -= b.decode_tokens;
    s.prefill_chunks -= b.prefill_chunks;
    s.prefix.tokens_reused -= b.prefix.tokens_reused;
    s.prefix.trie_hits -= b.prefix.trie_hits;
    s.swap_bytes_to_host -= b.swap_bytes_to_host;
    s.swap_bytes_to_device -= b.swap_bytes_to_device;
    s.recomputed_prefill_tokens -= b.recomputed_prefill_tokens;
    s.kv_reads.exact_bytes -= b.kv_reads.exact_bytes;
    s.kv_reads.exact_rows -= b.kv_reads.exact_rows;
    s.kv_reads.fused_bytes -= b.kv_reads.fused_bytes;
    s.kv_reads.fused_rows -= b.kv_reads.fused_rows;
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_slice_the_samples_at_their_ends() {
        let mut d = Delivery::default();
        d.ttft_ms.extend([1.0, 2.0]);
        d.itl_ms.extend([0.5, 0.6, 0.7]);
        d.tokens = 5;
        d.end_round(1.5);
        d.ttft_ms.push(3.0);
        d.itl_ms.push(0.8);
        d.tokens = 7;
        d.end_round(0.5);
        let r = d.rounds();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].ttft_ms, [1.0, 2.0]);
        assert_eq!(r[0].itl_ms, [0.5, 0.6, 0.7]);
        assert_eq!((r[0].tokens, r[0].secs), (5, 1.5));
        assert_eq!(r[1].ttft_ms, [3.0]);
        assert_eq!(r[1].itl_ms, [0.8]);
        assert_eq!((r[1].tokens, r[1].secs), (2, 0.5));
    }

    #[test]
    fn whole_rounds_end_nearest_the_run_length() {
        // The first round always runs, however long the run is meant to be.
        assert!(another_round(0.0, 0, 0.0));
        assert!(!another_round(0.0, 1, 0.1));
        // 2 s rounds in a 10 s run: a fifth would end at 10 s, nearer
        // than 8 s, so it starts; a sixth would end at 12 s and does not.
        assert!(another_round(10.0, 4, 8.0));
        assert!(!another_round(10.0, 5, 10.0));
        // 3 s rounds: stop at 9 s rather than run to 12 s.
        assert!(!another_round(10.0, 3, 9.0));
    }
}
