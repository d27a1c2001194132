//! Rounds of requests through the streaming service: one client thread
//! submits a round's requests at once with `ServiceClient::submit` and
//! polls every open stream for tokens, while the engine thread spawned by
//! `serve` does the serving. A round starts once the previous one has
//! drained, so every round starts from the same engine state.

use crate::direct::{another_round, ms, ClosedRun, Delivery};
use crate::trace::Tracer;
use crate::workload::renumber;
use oaken_model::{Model, PagedKvPool};
use oaken_service::{
    serve, EngineConfig, EngineRequest, RequestOutcome, ServiceClient, ServiceReport,
    SessionHandle, StreamEvent, TokenScheduler,
};
use std::time::{Duration, Instant};

/// What serving rounds through the service hands back.
pub struct ServedRun {
    /// The timed rounds; `stats` counts the whole `serve`, warm-up
    /// included, and `drained` is the service's end-of-serve drain.
    pub run: ClosedRun,
    /// Wall time of each timed `submit` call, µs.
    pub submit_us: Vec<f64>,
    /// Wall time of the whole `serve` call, seconds.
    pub serve_s: f64,
    pub report: ServiceReport,
}

struct Open {
    handle: SessionHandle,
    index: usize,
    want: usize,
    stream: Vec<u32>,
    last: Option<Instant>,
}

/// Submits `reqs` at once, all due now, and receives every stream to its
/// end; returns the streams index-aligned with `reqs`.
fn round(
    client: &ServiceClient,
    reqs: Vec<EngineRequest>,
    d: &mut Delivery,
    submit_us: &mut Vec<f64>,
    mut tracer: Option<&mut Tracer>,
) -> Vec<Vec<u32>> {
    let mut out = vec![Vec::new(); reqs.len()];
    let due = Instant::now();
    let mut open: Vec<Open> = Vec::with_capacity(reqs.len());
    for (index, req) in reqs.into_iter().enumerate() {
        let (id, want) = (req.id, req.max_new_tokens);
        let s = Instant::now();
        let handle = client.submit(req);
        let e = Instant::now();
        d.late_ms.push(ms(due, s));
        submit_us.push(ms(s, e) * 1e3);
        if let Some(tr) = tracer.as_deref_mut() {
            tr.record("service.submit", s, e, None, Some(id));
        }
        open.push(Open {
            handle,
            index,
            want,
            stream: Vec::with_capacity(want),
            last: None,
        });
    }
    while !open.is_empty() {
        let mut progressed = false;
        let mut k = 0;
        while k < open.len() {
            let o = &mut open[k];
            let r0 = Instant::now();
            let polled = o.handle.try_recv();
            let t = Instant::now();
            let ok = match polled {
                Ok(None) => {
                    k += 1;
                    continue;
                }
                Ok(Some(StreamEvent::Token(tok))) => {
                    progressed = true;
                    if tok.index == o.stream.len() {
                        o.stream.push(tok.token);
                        d.tokens += 1;
                        match o.last {
                            None => d.ttft_ms.push(ms(due, t)),
                            Some(prev) => d.itl_ms.push(ms(prev, t)),
                        }
                        o.last = Some(t);
                    }
                    if let Some(tr) = tracer.as_deref_mut() {
                        tr.record("client.receive", r0, t, None, Some(o.handle.id()));
                    }
                    continue;
                }
                Ok(Some(StreamEvent::Done(end))) => {
                    end.outcome == RequestOutcome::Finished
                        && o.stream.len() == o.want
                        && end.generated == o.stream
                }
                // Closed without a terminal event: a lost request.
                Err(()) => false,
            };
            progressed = true;
            let o = open.swap_remove(k);
            d.attempted += 1;
            d.failed += usize::from(!ok);
            out[o.index] = o.stream;
        }
        if !progressed {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    out
}

/// Serves a warm-up round of `reqs` (outputs cut to `warm_tokens`), then
/// whole timed rounds of them, as many as end nearest `seconds`, through
/// one service.
pub fn serve_rounds(
    model: &Model,
    pool: PagedKvPool,
    config: EngineConfig,
    reqs: &[EngineRequest],
    seconds: f64,
    warm_tokens: usize,
    mut tracer: Option<&mut Tracer>,
) -> ServedRun {
    let n = reqs.len() as u64;
    let serve_start = Instant::now();
    let ((run, submit_us), report) = serve(model, pool, TokenScheduler::new(8), config, |client| {
        let mut warm = Delivery::default();
        round(
            client,
            renumber(reqs, 1 << 40, Some(warm_tokens)),
            &mut warm,
            &mut Vec::new(),
            None,
        );
        let mut d = Delivery::default();
        let mut submit_us = Vec::new();
        let mut outputs = Vec::new();
        let mut rounds_agree = true;
        let mut rounds = 0usize;
        let start = Instant::now();
        loop {
            let t = Instant::now();
            let streams = round(
                client,
                renumber(reqs, rounds as u64 * n, None),
                &mut d,
                &mut submit_us,
                tracer.as_deref_mut(),
            );
            d.end_round(t.elapsed().as_secs_f64());
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
        let run = ClosedRun {
            elapsed_s: start.elapsed().as_secs_f64(),
            delivery: d,
            rounds,
            outputs,
            rounds_agree,
            warm_ok: warm.failed == 0,
            drained: false,
            stats: Default::default(),
        };
        (run, submit_us)
    });
    let serve_s = serve_start.elapsed().as_secs_f64();
    ServedRun {
        run: ClosedRun {
            drained: report.drained_empty(),
            stats: report.stats.clone(),
            ..run
        },
        submit_us,
        serve_s,
        report,
    }
}
