//! The serving side of the ledger: an open-loop rate ladder against a
//! live `Server`, and (traced runs) an in-process replay of the same
//! request stream through `http::try_parse_request` →
//! `AppState::handle` → `http::write_response`.

use std::time::{Duration, Instant};

use deepthermo::serve::http::{try_parse_request, write_response};
use deepthermo::serve::{AppState, ArtifactRegistry, ServeHandle};
use deepthermo::surrogate::SurrogateModel;
use deepthermo::thermo::{canonical_curve, temperature_grid, KB_EV_PER_K};

use crate::client::request_bytes;
use crate::load::{arrival_schedule, derive_seed, open_loop, request_stream, KeySpace, Kind, Req};
use crate::pipeline::check_curve_bits;
use crate::stats::{median, percentile, tail_percentile};
use crate::trace::Tracer;

/// Keep-alive connections the generator drives.
pub const CONNECTIONS: usize = 2;
/// A request not answered this long after it was sent has failed. Far
/// above any latency the limit allows, so a failure is a lost or refused
/// request, not a slow one.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
/// Every `VERIFY_EVERY`-th thermo request's body is checked bit for bit
/// against `canonical_curve` on the loaded artifact.
pub const VERIFY_EVERY: usize = 16;

/// Expected requests per p99 window: each window keeps at least 10
/// samples beyond its p99 with room for Poisson shortfall.
pub const WINDOW_SAMPLES: usize = 1500;

/// The median over consecutive due-time windows of `window_ns` of each
/// window's p99, over `(due_ns, latency_ms)` samples. Windows with fewer
/// than 1,000 samples (10 beyond p99) are left out. The median of
/// per-window p99s keeps one burst of host scheduling stalls from
/// setting the whole step's figure; `None` when no window qualifies.
pub fn windowed_p99(samples: &[(u64, f64)], window_ns: u64) -> Option<(f64, usize)> {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for &(due, ms) in samples {
        let w = (due / window_ns.max(1)) as usize;
        if windows.len() <= w {
            windows.resize_with(w + 1, Vec::new);
        }
        windows[w].push(ms);
    }
    let p99s: Vec<f64> = windows
        .iter()
        .filter(|w| w.len() >= 1000)
        .map(|w| percentile(w, 99.0))
        .collect();
    (!p99s.is_empty()).then(|| (median(&p99s), p99s.len()))
}

/// The p99 (ms) a rate must meet to count towards `serve_max_rps`. It
/// sits well above the scheduling hiccups of a small shared VM (an idle
/// 0.5 ms sleep overshoots by up to ~17 ms), so a rate fails on queueing,
/// not on one hiccup.
pub const LIMIT_MS: f64 = 50.0;

/// The ladder's first offered rate (requests/s).
pub const RATE_MIN: f64 = 500.0;
/// The ladder doubles no further than this. On a 2-vCPU VM the knee
/// moves between about 5,500 and 10,000 req/s with the load of other
/// tenants, far more than any bound allows, so the ladder stops below
/// it: `serve_max_rps` reads this rate unless serving slows past it.
pub const RATE_MAX: f64 = 4000.0;
/// Bisections between the highest rate that met the limit and the lowest
/// that missed it: four leave the knee within 2^(1/16), about 4.4%.
pub const REFINE: usize = 4;

/// Seconds each rate is offered.
pub const STEP_S: f64 = 1.5;

/// The rate whose latency `serve.p50_ms` and `serve.p99_ms` report and
/// whose request stream the traced replay repeats.
pub const REFERENCE_RATE: f64 = 1000.0;

/// The ladder's next offered rate after `steps` (`(rate, passed)`, in
/// the order run), or `None` when it is done. It doubles from `RATE_MIN`
/// up to `RATE_MAX` while rates meet the limit. After the first miss it
/// bisects `REFINE` times (geometric mean) between the highest rate that
/// met the limit and the lowest that missed, so a server that slows
/// below `RATE_MAX` reads its knee, not a halved rate.
pub fn next_rate(steps: &[(f64, bool)]) -> Option<f64> {
    let Some(first_miss) = steps.iter().position(|s| !s.1) else {
        let next = steps.last().map_or(RATE_MIN, |s| 2.0 * s.0);
        return (next <= RATE_MAX).then_some(next);
    };
    let lo = steps
        .iter()
        .filter(|s| s.1)
        .map(|s| s.0)
        .fold(f64::NAN, f64::max);
    let hi = steps
        .iter()
        .filter(|s| !s.1)
        .map(|s| s.0)
        .fold(f64::NAN, f64::min);
    let refined = steps.len() - first_miss - 1;
    (!lo.is_nan() && refined < REFINE).then(|| (lo * hi).sqrt())
}

/// One rate's measurements.
#[derive(Debug, Clone)]
pub struct Step {
    /// Offered rate.
    pub rate: f64,
    /// Requests offered.
    pub offered: usize,
    /// Requests that failed (non-2xx, transport error, timeout, or a
    /// wrong body).
    pub failed: usize,
    /// Median latency (ms) from due time.
    pub p50_ms: f64,
    /// The reported tail percentile.
    pub tail_pct: f64,
    /// Latency (ms) at that percentile; failures count as infinite.
    pub tail_ms: f64,
    /// Median over windows of each window's p99 (ms): `serve_p99_ms`
    /// and the limit check.
    pub p99_ms: f64,
    /// Windows behind `p99_ms` (0: too few samples, whole-step value).
    pub windows: usize,
    /// Answered requests per second.
    pub achieved_rps: f64,
    /// Backlog when the last request fell due.
    pub backlog: usize,
    /// Met the limit with no failures and no growing backlog.
    pub passed: bool,
}

/// The ladder's outcome.
#[derive(Debug, Clone, Default)]
pub struct ServeOutcome {
    /// Per-rate results.
    pub steps: Vec<Step>,
    /// Requests offered over all rates.
    pub attempted: usize,
    /// Requests failed over all rates.
    pub failed: usize,
    /// Failure descriptions (deduplicated, capped).
    pub failures: Vec<String>,
    /// Achieved rate at the highest passing offered rate.
    pub max_rps: f64,
    /// Generator lateness, p99 over all due times (ms).
    pub gen_late_ms: f64,
    /// Server cache counters over the ladder.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Coalesced cache fills.
    pub coalesced: u64,
    /// `429` queue rejections.
    pub rejected_429: u64,
    /// `503` queue-deadline expiries.
    pub expired_503: u64,
    /// The reference rate's request stream (for the replay).
    pub reference_stream: Vec<Req>,
    /// Latency by request class at each rate, for the notes.
    pub notes: Vec<String>,
}

impl ServeOutcome {
    /// The step at `REFERENCE_RATE`, if it ran.
    pub fn reference(&self) -> Option<&Step> {
        self.steps.iter().find(|s| s.rate == REFERENCE_RATE)
    }

    fn fail(&mut self, what: String) {
        if self.failures.len() < 8 && !self.failures.contains(&what) {
            self.failures.push(what);
        }
    }
}

/// The key space over every artifact of `registry`: thermo/SRO grids
/// over all of them, `/v1/predict` on the first one with a surrogate.
pub fn key_space(registry: &ArtifactRegistry) -> KeySpace {
    // Ordered by what sets a request's cost (material and size), so the
    // artifact behind each popularity rank does not depend on the seeds
    // in the ids.
    let mut arts: Vec<_> = registry.iter().collect();
    arts.sort_by(|a, b| {
        (&a.manifest.material, a.manifest.l, &a.manifest.id).cmp(&(
            &b.manifest.material,
            b.manifest.l,
            &b.manifest.id,
        ))
    });
    let artifacts: Vec<String> = arts.iter().map(|a| a.manifest.id.clone()).collect();
    let predict = registry.iter().find_map(|a| {
        let model = SurrogateModel::load(a.surrogate_text.as_deref()?).ok()?;
        Some((a.manifest.id.clone(), model.descriptor().dim()))
    });
    KeySpace { artifacts, predict }
}

fn counter(server: &ServeHandle, name: &'static str) -> u64 {
    server.state().metrics.counter(name).get()
}

/// Check one kept thermo body against `canonical_curve` evaluated
/// directly on the server's loaded artifact; the evaluation is traced as
/// `thermo.curve`.
fn verify(
    registry: &ArtifactRegistry,
    keys: &KeySpace,
    req: &Req,
    body: &[u8],
    tr: &mut Tracer,
) -> Result<(), String> {
    let id = &keys.artifacts[req.artifact];
    let art = registry
        .get(id)
        .ok_or_else(|| format!("artifact {id} not loaded"))?;
    let (e, lg) = art.visited_dos();
    let temps = temperature_grid(req.grid.0, req.grid.1, req.grid.2);
    let curve = tr.span("thermo.curve", |_| {
        canonical_curve(&e, &lg, &temps, KB_EV_PER_K)
    });
    check_curve_bits(body, &curve)
}

/// Offer the ladder's rates in order to `server`.
pub fn run_ladder(
    server: &ServeHandle,
    keys: &KeySpace,
    seed: u64,
    tr: &mut Tracer,
) -> ServeOutcome {
    let mut out = ServeOutcome::default();
    let before = [
        counter(server, "thermo_cache_hits"),
        counter(server, "thermo_cache_misses"),
        counter(server, "thermo_coalesced"),
        counter(server, "queue_rejections"),
        counter(server, "deadline_expired"),
    ];
    let mut late = Vec::new();
    let mut run: Vec<(f64, bool)> = Vec::new();
    while let Some(rate) = next_rate(&run) {
        let k = run.len();
        let due = arrival_schedule(derive_seed(seed, 100 + k as u64), rate, STEP_S);
        let reqs = request_stream(derive_seed(seed, 200 + k as u64), due.len(), keys);
        let wire: Vec<Vec<u8>> = reqs
            .iter()
            .map(|r| request_bytes("POST", r.target(), &r.body))
            .collect();
        let keep = |i: usize| reqs[i].kind == Kind::Thermo && i.is_multiple_of(VERIFY_EVERY);
        let res = tr.span("serve.step", |_| {
            open_loop(
                server.local_addr(),
                &wire,
                &due,
                CONNECTIONS,
                REQUEST_TIMEOUT,
                keep,
            )
        });
        let res = match res {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("load generator could not connect: {e}"));
                out.attempted += due.len();
                out.failed += due.len();
                break;
            }
        };
        let mut failed = 0;
        let mut lat_ms = Vec::with_capacity(res.done.len());
        let mut timed = Vec::with_capacity(res.done.len());
        let mut by_class: Vec<(String, Vec<f64>)> = Vec::new();
        for d in &res.done {
            let mut ok = (200..300).contains(&d.status);
            if !ok {
                out.fail(format!(
                    "{} answered {} at {rate} req/s",
                    reqs[d.index].target(),
                    d.status
                ));
            }
            if let (true, Some(body)) = (ok, &d.body) {
                if let Err(e) = verify(server.state().registry(), keys, &reqs[d.index], body, tr) {
                    out.fail(format!("served curve: {e}"));
                    ok = false;
                }
            }
            if ok {
                let ms = d.latency_ns as f64 * 1e-6;
                lat_ms.push(ms);
                timed.push((due[d.index], ms));
                let class = match (reqs[d.index].kind, d.cache.as_deref()) {
                    (Kind::Thermo, Some(c)) => format!("thermo-{c}"),
                    (kind, _) => format!("{kind:?}").to_lowercase(),
                };
                match by_class.iter_mut().find(|(c, _)| *c == class) {
                    Some((_, v)) => v.push(ms),
                    None => by_class.push((class, vec![ms])),
                }
            } else {
                failed += 1;
                lat_ms.push(f64::INFINITY);
                timed.push((due[d.index], f64::INFINITY));
            }
        }
        late.extend(res.late_ns.iter().map(|&ns| ns as f64 * 1e-6));
        by_class.sort_by(|a, b| a.0.cmp(&b.0));
        for (class, v) in &by_class {
            let p = tail_percentile(v.len()).unwrap_or(50.0);
            out.notes.push(format!(
                "  {rate} req/s {class:<14} n {:>6}  p50 {:.3} ms  p{p} {:.3} ms  max {:.3} ms",
                v.len(),
                percentile(v, 50.0),
                percentile(v, p),
                percentile(v, 100.0)
            ));
        }
        // The whole step's tail, by the ten-samples-beyond rule.
        let tail_pct = tail_percentile(lat_ms.len()).unwrap_or(50.0);
        let tail_ms = percentile(&lat_ms, tail_pct);
        let window_ns = (WINDOW_SAMPLES as f64 / rate * 1e9) as u64;
        let (p99_ms, windows) =
            windowed_p99(&timed, window_ns).unwrap_or((percentile(&lat_ms, tail_pct.min(99.0)), 0));
        let step = Step {
            rate,
            offered: due.len(),
            failed,
            p50_ms: percentile(&lat_ms, 50.0),
            tail_pct,
            tail_ms,
            p99_ms,
            windows,
            achieved_rps: (res.done.len() - failed) as f64 / res.elapsed.as_secs_f64().max(1e-9),
            backlog: res.backlog_at_end,
            // A growing backlog raises latency in every later window, so
            // the windowed p99 fails it too.
            passed: failed == 0 && p99_ms <= LIMIT_MS,
        };
        out.attempted += step.offered;
        out.failed += failed;
        if rate == REFERENCE_RATE {
            out.reference_stream = reqs;
        }
        run.push((rate, step.passed));
        out.steps.push(step);
    }
    let after = [
        counter(server, "thermo_cache_hits"),
        counter(server, "thermo_cache_misses"),
        counter(server, "thermo_coalesced"),
        counter(server, "queue_rejections"),
        counter(server, "deadline_expired"),
    ];
    [
        out.hits,
        out.misses,
        out.coalesced,
        out.rejected_429,
        out.expired_503,
    ] = std::array::from_fn(|i| after[i] - before[i]);
    out.gen_late_ms = percentile(&late, 99.0);
    let best = out
        .steps
        .iter()
        .filter(|s| s.passed)
        .max_by(|a, b| a.rate.total_cmp(&b.rate));
    match best {
        Some(s) => out.max_rps = s.achieved_rps,
        None => {
            out.fail(format!(
                "no offered rate met the {LIMIT_MS} ms tail-latency limit"
            ));
            out.failed += 1;
            out.attempted += 1;
            out.max_rps = out.steps.first().map_or(f64::NAN, |s| s.achieved_rps);
        }
    }
    out
}

/// Per-request layer costs from the in-process replay (µs medians).
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// `try_parse_request`.
    pub parse_us: f64,
    /// `AppState::handle` on a cache hit.
    pub handle_hit_us: f64,
    /// `AppState::handle` on a cache miss.
    pub handle_miss_us: f64,
    /// `AppState::handle` for `/v1/predict`.
    pub predict_us: f64,
    /// `AppState::handle` over every request.
    pub handle_us: f64,
    /// `write_response` into memory.
    pub serialize_us: f64,
    /// Requests replayed.
    pub requests: usize,
    /// Replayed responses that were not 2xx or not bit-identical.
    pub failed: usize,
}

/// Replay `stream` through a fresh `AppState` over `registry`, one
/// request at a time, timing each layer; thermo misses are checked bit
/// for bit against a direct `canonical_curve`.
pub fn replay(
    registry: ArtifactRegistry,
    keys: &KeySpace,
    stream: &[Req],
    tr: &mut Tracer,
) -> Replay {
    let state = match AppState::new(
        registry,
        deepthermo::serve::ServeConfig::default().cache_capacity,
    ) {
        Ok(s) => s,
        Err(_) => {
            return Replay {
                requests: stream.len(),
                failed: stream.len(),
                ..Replay::default()
            }
        }
    };
    let mut out = Replay {
        requests: stream.len(),
        ..Replay::default()
    };
    let (mut parse, mut hit, mut miss, mut predict, mut handle, mut ser) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let mut wire = Vec::with_capacity(64 * 1024);
    for req in stream {
        let raw = request_bytes("POST", req.target(), &req.body);
        let ok = tr.span("serve.request", |tr| {
            let t0 = Instant::now();
            let parsed = try_parse_request(&raw, 1 << 20);
            let t1 = Instant::now();
            tr.record("serve.parse", t0, t1);
            let Ok(Some((request, _))) = parsed else {
                return false;
            };
            let resp = state.handle(&request);
            let t2 = Instant::now();
            let cache = resp
                .extra_headers
                .iter()
                .find(|(k, _)| *k == "x-cache")
                .map(|(_, v)| v.as_str());
            let name = match (req.kind, cache) {
                (Kind::Predict, _) => "serve.handle_predict",
                (Kind::Thermo, Some("hit")) => "serve.handle_hit",
                (Kind::Thermo, _) => "serve.handle_miss",
                (Kind::Sro, _) => "serve.handle_sro",
            };
            tr.record(name, t1, t2);
            wire.clear();
            let written = write_response(&mut wire, &resp, false);
            let t3 = Instant::now();
            tr.record("serve.serialize", t2, t3);
            let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
            parse.push(us(t0, t1));
            handle.push(us(t1, t2));
            ser.push(us(t2, t3));
            match name {
                "serve.handle_predict" => predict.push(us(t1, t2)),
                "serve.handle_hit" => hit.push(us(t1, t2)),
                "serve.handle_miss" => miss.push(us(t1, t2)),
                _ => {}
            }
            let mut ok = written.is_ok() && (200..300).contains(&resp.status);
            if ok && name == "serve.handle_miss" {
                ok = verify(state.registry(), keys, req, resp.body.as_bytes(), tr).is_ok();
            }
            ok
        });
        if !ok {
            out.failed += 1;
        }
    }
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    out.parse_us = med(&parse);
    out.handle_hit_us = med(&hit);
    out.handle_miss_us = med(&miss);
    out.predict_us = med(&predict);
    out.handle_us = med(&handle);
    out.serialize_us = med(&ser);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_p99_is_the_median_of_window_p99s() {
        // Three 1 s windows of 1,000 samples at 1 ms, each with its own
        // 20 slow samples: 10 ms, 50 ms, 30 ms. One burst cannot set the
        // figure; the middle window does.
        let mut samples = Vec::new();
        for (w, slow) in [10.0, 50.0, 30.0].into_iter().enumerate() {
            for i in 0..1000u64 {
                let ms = if i < 20 { slow } else { 1.0 };
                samples.push((w as u64 * 1_000_000_000 + i * 1_000_000, ms));
            }
        }
        assert_eq!(windowed_p99(&samples, 1_000_000_000), Some((30.0, 3)));
        // A window short of 1,000 samples is left out; none left: None.
        assert_eq!(windowed_p99(&samples[..999], 1_000_000_000), None);
    }

    #[test]
    fn ladder_doubles_to_the_cap_or_bisects_the_knee() {
        let ladder = |knee: f64| {
            let mut run: Vec<(f64, bool)> = Vec::new();
            while let Some(rate) = next_rate(&run) {
                run.push((rate, rate <= knee));
            }
            run
        };
        // A server faster than the cap: every rate up to it, nothing more.
        let fast = ladder(1e9);
        let rates: Vec<f64> = fast.iter().map(|s| s.0).collect();
        assert_eq!(rates, [500.0, 1000.0, 2000.0, RATE_MAX]);
        // A server whose knee sits at 3,000 req/s: 4,000 misses, then
        // the bisections close in on the knee from below.
        let slow = ladder(3000.0);
        let rates: Vec<f64> = slow.iter().map(|s| s.0).collect();
        assert_eq!(&rates[..5], &[500.0, 1000.0, 2000.0, 4000.0, 8e6f64.sqrt()]);
        assert_eq!(slow.len(), 4 + REFINE);
        assert!(rates.contains(&REFERENCE_RATE));
        let best = slow.iter().filter(|s| s.1).map(|s| s.0).fold(0.0, f64::max);
        assert!(
            best <= 3000.0 && best > 3000.0 / 2f64.powf(1.0 / 16.0),
            "{best}"
        );
        // The first rate missing ends the ladder; all meeting it, the cap.
        assert_eq!(next_rate(&[(RATE_MIN, false)]), None);
        assert_eq!(next_rate(&[(RATE_MAX, true)]), None);
    }
}
