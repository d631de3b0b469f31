//! Seeded request streams and the open-loop load generator.
//!
//! Arrivals are an open loop: request `i` is *due* at a seeded Poisson
//! time whether or not earlier replies came back, and its latency is
//! timed from that due time. A stall therefore charges its wait to
//! every request queued behind it instead of silently lowering the
//! offered rate. One thread drives at most a few keep-alive
//! connections, one request in flight on each; due requests that find
//! every connection busy wait in the generator's backlog, on the clock.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::client::parse_reply;

/// SplitMix64: a tiny, seedable, reproducible generator.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A seed for stream `stream` derived from the benchmark seed, so the
/// schedule, the key stream, and every sampler seed are independent.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    SplitMix(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

/// Due times (ns from the start) of a Poisson arrival stream at `rate`
/// requests per second over `seconds`.
pub fn arrival_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<u64> {
    let mut rng = SplitMix(seed);
    let horizon = seconds * 1e9;
    let mut t = 0.0f64;
    let mut due = Vec::new();
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate * 1e9;
        if t >= horizon {
            return due;
        }
        due.push(t as u64);
    }
}

/// A Zipf(`s`) law over ranks `0..n`: rank `k` has weight `1/(k+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The law over `n` ranks.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The rank for a uniform draw `u` in `[0, 1)`.
    pub fn sample(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `/v1/thermo` on a temperature grid.
    Thermo,
    /// `/v1/sro` on a temperature grid.
    Sro,
    /// `/v1/predict` on a few feature rows.
    Predict,
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    /// Endpoint family.
    pub kind: Kind,
    /// Index into the key space's artifacts.
    pub artifact: usize,
    /// `(t_min, t_max, num_t)` for thermo/SRO requests.
    pub grid: (f64, f64, usize),
    /// JSON body.
    pub body: String,
}

impl Req {
    /// The request target.
    pub fn target(&self) -> &'static str {
        match self.kind {
            Kind::Thermo => "/v1/thermo",
            Kind::Sro => "/v1/sro",
            Kind::Predict => "/v1/predict",
        }
    }
}

/// Temperature-range variants per artifact: with a handful of artifacts
/// there are more keys than the response cache's 256 entries.
pub const GRIDS: usize = 64;
/// Share of `/v1/sro` requests.
pub const SRO_SHARE: f64 = 0.04;
/// Share of `/v1/predict` requests.
pub const PREDICT_SHARE: f64 = 0.04;
/// Zipf exponent over keys.
pub const ZIPF_S: f64 = 1.0;

/// The keys a stream draws from: artifacts × `GRIDS` temperature grids.
#[derive(Debug, Clone)]
pub struct KeySpace {
    /// Artifact ids.
    pub artifacts: Vec<String>,
    /// Artifact id and feature width for `/v1/predict`, if any artifact
    /// carries a surrogate.
    pub predict: Option<(String, usize)>,
}

/// The temperature range of variant `g`: distinct `(t_min, t_max)` per
/// variant.
pub fn grid_variant(g: usize) -> (f64, f64) {
    (
        100.0 + 5.0 * (g % 16) as f64,
        2500.0 + 25.0 * (g / 16) as f64,
    )
}

impl KeySpace {
    /// Distinct `(artifact, grid)` keys.
    pub fn num_keys(&self) -> usize {
        self.artifacts.len() * GRIDS
    }
}

/// `n` requests drawn from `keys` by a seeded Zipf law over popularity
/// ranks. Rank `r` asks artifact `r mod A` for a grid of 64, 128 or 256
/// points (cycling with `r / A`), so every seed has the same cost
/// profile by popularity; the seed picks which temperature range each
/// rank asks for, through a seeded permutation.
pub fn request_stream(seed: u64, n: usize, keys: &KeySpace) -> Vec<Req> {
    let mut rng = SplitMix(seed);
    let a = keys.artifacts.len();
    let mut perm: Vec<usize> = (0..GRIDS).collect();
    for i in (1..GRIDS).rev() {
        perm.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    let zipf = Zipf::new(keys.num_keys(), ZIPF_S);
    (0..n)
        .map(|_| {
            let rank = zipf.sample(rng.next_f64());
            let (artifact, slot) = (rank % a, rank / a);
            let (t_min, t_max) = grid_variant(perm[slot]);
            let grid = (t_min, t_max, [64, 128, 256][slot % 3]);
            let roll = rng.next_f64();
            match &keys.predict {
                Some((id, dim)) if roll < PREDICT_SHARE => {
                    let rows = 1 + (rng.next_u64() % 4) as usize;
                    let mut body = format!("{{\"artifact\":\"{id}\",\"features\":[");
                    for r in 0..rows {
                        body.push_str(if r == 0 { "[" } else { ",[" });
                        for c in 0..*dim {
                            if c > 0 {
                                body.push(',');
                            }
                            body.push_str(&format!("{}", (rng.next_f64() * 0.2 - 0.1)));
                        }
                        body.push(']');
                    }
                    body.push_str("]}");
                    Req {
                        kind: Kind::Predict,
                        artifact,
                        grid,
                        body,
                    }
                }
                _ => {
                    let kind = if roll < PREDICT_SHARE + SRO_SHARE {
                        Kind::Sro
                    } else {
                        Kind::Thermo
                    };
                    // SRO grids are short: the endpoint is an O(T·bins)
                    // reweighting per temperature.
                    let grid = if kind == Kind::Sro {
                        (grid.0, grid.1, 16)
                    } else {
                        grid
                    };
                    let body = format!(
                        "{{\"artifact\":\"{}\",\"t_min\":{},\"t_max\":{},\"num_t\":{}}}",
                        keys.artifacts[artifact], grid.0, grid.1, grid.2
                    );
                    Req {
                        kind,
                        artifact,
                        grid,
                        body,
                    }
                }
            }
        })
        .collect()
}

/// How one request ended.
#[derive(Debug, Clone, PartialEq)]
pub struct Done {
    /// Request index.
    pub index: usize,
    /// Completion minus due time (ns).
    pub latency_ns: u64,
    /// HTTP status, `0` on transport failure or timeout.
    pub status: u16,
    /// The `x-cache` header, if any.
    pub cache: Option<String>,
    /// The body, for requests the caller asked to keep.
    pub body: Option<Vec<u8>>,
}

/// What one open-loop step measured.
#[derive(Debug, Clone, Default)]
pub struct StepResult {
    /// Every request's outcome, in completion order.
    pub done: Vec<Done>,
    /// How late the generator noticed each due time (ns).
    pub late_ns: Vec<u64>,
    /// Requests due but not yet sent when the last one fell due.
    pub backlog_at_end: usize,
    /// From the start to the last completion.
    pub elapsed: Duration,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Wait up to `timeout` for readiness on `fds` (nanosecond timeout; the
/// millisecond granularity of `poll(2)` is too coarse at kHz rates).
fn wait(fds: &mut [PollFd], timeout: Duration) {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a valid, exclusively borrowed array of
    // `fds.len()` pollfd records and `ts` outlives the call; a null
    // sigmask leaves the signal mask unchanged.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    sent: usize,
    inbuf: Vec<u8>,
    inflight: Option<(usize, Instant)>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            sent: 0,
            inbuf: Vec::new(),
            inflight: None,
        })
    }

    /// Push pending bytes; `Err` on a dead connection.
    fn flush(&mut self) -> std::io::Result<()> {
        while self.sent < self.out.len() {
            match self.stream.write(&self.out[self.sent..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Pull available bytes; `Err` on EOF or a dead connection.
    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    }
}

/// Offer `wire[i]` at due time `due_ns[i]` over `conns` keep-alive
/// connections and wait for every reply (or `timeout` per request).
/// Bodies are kept for the indices where `keep(i)` holds.
///
/// # Errors
/// When no connection to `addr` can be opened at all.
pub fn open_loop(
    addr: SocketAddr,
    wire: &[Vec<u8>],
    due_ns: &[u64],
    conns: usize,
    timeout: Duration,
    keep: impl Fn(usize) -> bool,
) -> std::io::Result<StepResult> {
    assert_eq!(wire.len(), due_ns.len());
    // A connection the server closed is reopened when next needed; a
    // request that finds no connection fails instead of stopping the run.
    let mut pool: Vec<Option<Conn>> = (0..conns.max(1))
        .map(|_| Conn::open(addr).map(Some))
        .collect::<Result<_, _>>()?;
    let n = wire.len();
    let mut res = StepResult {
        done: Vec::with_capacity(n),
        late_ns: Vec::with_capacity(n),
        ..StepResult::default()
    };
    let mut backlog: VecDeque<usize> = VecDeque::new();
    let mut next = 0usize;
    let start = Instant::now();
    let due = |i: usize| start + Duration::from_nanos(due_ns[i]);
    let fail = |res: &mut StepResult, i: usize| {
        res.done.push(Done {
            index: i,
            latency_ns: Instant::now().saturating_duration_since(due(i)).as_nanos() as u64,
            status: 0,
            cache: None,
            body: None,
        });
    };
    let busy = |slot: &Option<Conn>| slot.as_ref().is_some_and(|c| c.inflight.is_some());
    loop {
        let now = Instant::now();
        while next < n && due(next) <= now {
            res.late_ns
                .push(now.duration_since(due(next)).as_nanos() as u64);
            backlog.push_back(next);
            next += 1;
            if next == n {
                res.backlog_at_end = backlog.len();
            }
        }
        for slot in pool.iter_mut() {
            if busy(slot) {
                continue;
            }
            let Some(i) = backlog.pop_front() else { break };
            if slot.is_none() {
                *slot = Conn::open(addr).ok();
            }
            let Some(c) = slot.as_mut() else {
                fail(&mut res, i);
                continue;
            };
            c.out.clear();
            c.out.extend_from_slice(&wire[i]);
            c.sent = 0;
            c.inflight = Some((i, Instant::now()));
            if c.flush().is_err() {
                fail(&mut res, i);
                *slot = None;
            }
        }
        if next == n && backlog.is_empty() && !pool.iter().any(busy) {
            break;
        }

        let mut fds: Vec<PollFd> = pool
            .iter()
            .map(|slot| match slot {
                Some(c) if c.inflight.is_some() => PollFd {
                    fd: c.stream.as_raw_fd(),
                    events: if c.sent < c.out.len() {
                        POLLIN | POLLOUT
                    } else {
                        POLLIN
                    },
                    revents: 0,
                },
                // A negative descriptor is ignored by ppoll(2).
                _ => PollFd {
                    fd: -1,
                    events: 0,
                    revents: 0,
                },
            })
            .collect();
        let until_due = if next < n {
            due(next).saturating_duration_since(Instant::now())
        } else {
            Duration::from_millis(5)
        };
        wait(&mut fds, until_due.min(Duration::from_millis(5)));

        for (slot, fd) in pool.iter_mut().zip(&fds) {
            let Some(c) = slot.as_mut() else { continue };
            let Some((i, sent_at)) = c.inflight else {
                continue;
            };
            let mut broken = false;
            if fd.revents != 0 {
                let io_failed = c.flush().is_err() || c.fill().is_err();
                match parse_reply(&c.inbuf) {
                    Ok(Some((reply, used))) => {
                        let now = Instant::now();
                        c.inbuf.drain(..used);
                        c.inflight = None;
                        let closing = reply.header("connection") == Some("close");
                        res.done.push(Done {
                            index: i,
                            latency_ns: now.saturating_duration_since(due(i)).as_nanos() as u64,
                            status: reply.status,
                            cache: reply.header("x-cache").map(str::to_string),
                            body: keep(i).then_some(reply.body),
                        });
                        // The reply is complete even if the peer closed
                        // right after it; only the connection is lost.
                        if io_failed || closing {
                            *slot = None;
                        }
                        continue;
                    }
                    Ok(None) => broken = io_failed,
                    Err(_) => broken = true,
                }
            }
            if broken || sent_at.elapsed() > timeout {
                fail(&mut res, i);
                *slot = None;
            }
        }
    }
    res.elapsed = start.elapsed();
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

    #[test]
    fn schedule_and_stream_are_deterministic_per_seed() {
        let a = arrival_schedule(7, 1000.0, 2.0);
        assert_eq!(a, arrival_schedule(7, 1000.0, 2.0));
        assert_ne!(a, arrival_schedule(8, 1000.0, 2.0));
        // Poisson at 1000/s over 2 s: about 2000 arrivals, ascending.
        assert!((1800..2200).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));

        let keys = KeySpace {
            artifacts: vec!["a".into(), "b".into(), "c".into()],
            predict: Some(("a".into(), 3)),
        };
        let s = request_stream(3, 500, &keys);
        assert_eq!(s, request_stream(3, 500, &keys));
        assert_ne!(s, request_stream(4, 500, &keys));
        assert!(s.iter().any(|r| r.kind == Kind::Sro));
        assert!(s.iter().any(|r| r.kind == Kind::Predict));
    }

    #[test]
    fn zipf_prefers_low_ranks_and_covers_the_range() {
        let z = Zipf::new(1000, 1.0);
        assert_eq!(z.sample(0.0), 0);
        assert_eq!(z.sample(0.999_999_999), 999);
        let mut rng = SplitMix(1);
        let draws: Vec<usize> = (0..20_000).map(|_| z.sample(rng.next_f64())).collect();
        let top = draws.iter().filter(|&&k| k == 0).count() as f64 / 20_000.0;
        // P(rank 0) = 1/H(1000) ≈ 0.1336.
        assert!((top - 0.1336).abs() < 0.01, "{top}");
        let distinct: std::collections::HashSet<_> = draws.iter().collect();
        assert!(distinct.len() > 600, "{}", distinct.len());
    }

    /// A scripted server: one connection, each request answered after
    /// `delay`, in order.
    fn slow_server(delay: Duration, requests: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = Vec::new();
            let mut answered = 0;
            while answered < requests {
                while let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                    buf.drain(..end + 4);
                    std::thread::sleep(delay);
                    s.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok")
                        .unwrap();
                    answered += 1;
                }
                if answered < requests && crate::client::read_some(&mut s, &mut buf).unwrap() == 0 {
                    return;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn latency_is_timed_from_the_due_time_not_the_send_time() {
        // Three requests due 0, 1, 2 ms apart on ONE connection to a
        // server that takes 20 ms each: the third waits behind two
        // others, and its latency carries that wait (~58 ms), although
        // the server spent only 20 ms on it after it was sent.
        let delay = Duration::from_millis(20);
        let (addr, server) = slow_server(delay, 3);
        let wire: Vec<Vec<u8>> = (0..3)
            .map(|_| crate::client::request_bytes("GET", "/x", ""))
            .collect();
        let due = [0, 1_000_000, 2_000_000];
        let res = open_loop(addr, &wire, &due, 1, Duration::from_secs(5), |_| true).unwrap();
        assert!(res.done.iter().all(|d| d.status == 200), "{:?}", res.done);
        assert_eq!(res.done.len(), 3);
        let mut lat: Vec<(usize, u64)> = res.done.iter().map(|d| (d.index, d.latency_ns)).collect();
        lat.sort();
        assert!(lat[0].1 >= 20_000_000, "{lat:?}");
        assert!(lat[1].1 >= 39_000_000, "{lat:?}");
        assert!(lat[2].1 >= 58_000_000, "{lat:?}");
        assert_eq!(res.done[0].body.as_deref(), Some(&b"ok"[..]));
        // The first two were still queued behind the first reply when
        // the last one fell due.
        assert_eq!(res.backlog_at_end, 2);
        server.join().unwrap();
    }
}
