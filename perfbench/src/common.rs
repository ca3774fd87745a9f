//! Pieces every workload shares: the seeded generator, the payload pool,
//! the per-phase result and the metric list printed at the end.

use crate::stats::{median, percentile};
use crate::trace::ThreadTrace;
use bytes::Bytes;
use std::time::{Duration, Instant};

/// How long one operation may take before it counts as failed.  Ops take
/// microseconds to a few milliseconds; a second means a wedge.
pub const OP_DEADLINE: Duration = Duration::from_secs(2);

/// Set-up repetitions per run; `setup_s` is their median.  Each host
/// set-up starts threads, and the telemetry recorder's registry keeps every
/// recording thread's ring (up to 512 KiB) for the life of the process, so
/// the count stays small: 101 `allreduce_intra` set-ups peak near 100 MB.
pub const SETUP_REPS: usize = 101;

/// Pause between set-ups.  Back to back, 101 host set-ups take under 0.1 s,
/// and on a shared VM one burst of CPU time stolen by the host can cover
/// all of them; spread over 2 s they sample the machine more as the
/// measured time does.
pub const SETUP_GAP: Duration = Duration::from_millis(20);

/// Share by which the medians of a run's first and last thirds of ops may
/// differ before the run is flagged; `op_p50_us`'s bound in
/// `BENCHMARK.json`, which a test in `main.rs` pins it to.
pub const DRIFT_BOUND: f64 = 0.25;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Derives an independent stream for one use of the run's seed.
pub fn substream(seed: u64, stream: u64) -> Rng {
    let mut r = Rng::new(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93));
    r.next_u64();
    r
}

/// Seeded random bytes; every payload is a slice of it at a seeded offset,
/// so a sender and its checker can regenerate the same bytes for free.
#[derive(Clone)]
pub struct PayloadPool(Bytes);

impl PayloadPool {
    pub fn new(seed: u64, len: usize) -> Self {
        let mut rng = substream(seed, 0xb17e5);
        let mut buf = Vec::with_capacity(len + 8);
        while buf.len() < len {
            buf.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        buf.truncate(len);
        PayloadPool(Bytes::from(buf))
    }

    pub fn slice(&self, off: usize, len: usize) -> Bytes {
        self.0.slice(off..off + len)
    }
}

/// The seeded message sequence of a point-to-point workload: each message's
/// size class is drawn from a weighted mix, its bytes from the pool.
#[derive(Clone)]
pub struct MsgSeq {
    rng: Rng,
    /// `(cumulative weight out of 100, size)`.
    mix: &'static [(u64, usize)],
    pool_len: usize,
}

impl MsgSeq {
    pub fn new(seed: u64, mix: &'static [(u64, usize)], pool_len: usize) -> Self {
        MsgSeq {
            rng: substream(seed, 0x5e9),
            mix,
            pool_len,
        }
    }

    /// `(offset, len)` of the next message.
    pub fn next_msg(&mut self) -> (usize, usize) {
        let pick = self.rng.below(100);
        let len = self
            .mix
            .iter()
            .find(|(cum, _)| pick < *cum)
            .map(|&(_, len)| len)
            .expect("mix weights reach 100");
        let off = self.rng.below((self.pool_len - len + 1) as u64) as usize;
        (off, len)
    }
}

/// One measured phase of a host workload.
#[derive(Debug, Default)]
pub struct Phase {
    /// Per-op latency in microseconds, in completion order.
    pub latencies_us: Vec<f64>,
    /// Completed units of work (`ops_per_s` numerator).
    pub completed: u64,
    /// Application payload bytes delivered and verified.
    pub payload_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    pub wall: Duration,
}

impl Phase {
    pub fn p50(&self) -> f64 {
        let mut v = self.latencies_us.clone();
        median(&mut v).unwrap_or(0.0)
    }

    /// The p99 over every op of the phase.
    pub fn p99(&self) -> f64 {
        let mut v = self.latencies_us.clone();
        v.sort_by(f64::total_cmp);
        percentile(&v, 99.0).unwrap_or(0.0)
    }

    /// `(op_p50_us, op_p99_slice_median_us, ops_per_s, goodput_mb_s)`.
    pub fn summary(&self) -> (f64, f64, f64, f64) {
        let secs = self.wall.as_secs_f64().max(1e-9);
        (
            self.p50(),
            sliced_p99(&self.latencies_us),
            self.completed as f64 / secs,
            self.payload_bytes as f64 / secs / 1e6,
        )
    }

    /// Median of the first and of the last third of the ops, in op order.
    pub fn thirds_p50(&self) -> (f64, f64) {
        let n = self.latencies_us.len();
        let third = n / 3;
        let mut first = self.latencies_us[..third].to_vec();
        let mut last = self.latencies_us[n - third..].to_vec();
        (
            median(&mut first).unwrap_or(0.0),
            median(&mut last).unwrap_or(0.0),
        )
    }
}

/// Most slices a run's ops are cut into for [`sliced_p99`].
const P99_SLICES: usize = 50;
/// Fewest ops per slice, so at least ten lie beyond each slice's p99.
const P99_SLICE_MIN: usize = 1000;

/// `op_p99_slice_median_us`: tail latency robust to bursts of interference
/// from outside the process.  It is not the run's p99.  The ops, in
/// completion order, are cut into up to [`P99_SLICES`] consecutive slices
/// of at least [`P99_SLICE_MIN`] ops, and the result is the median of the
/// slices' p99s (the plain p99 when there are too few ops for two slices).
/// A change that slows the tail everywhere moves it; a tail confined to a
/// minority of slices does not, so the traced run also reports the plain
/// p99 of its untraced half as `op_p99_us`.  On a shared two-vCPU VM,
/// stolen CPU time comes and goes within a run: over five runs of the same
/// code the plain p99's quartile spread was 0.43 of its median on
/// `allreduce_intra` and 0.55 on `stream_reactor`.
pub fn sliced_p99(latencies: &[f64]) -> f64 {
    let slices = (latencies.len() / P99_SLICE_MIN).clamp(1, P99_SLICES);
    let len = latencies.len() / slices;
    let mut p99s: Vec<f64> = (0..slices)
        .map(|i| {
            let end = if i + 1 == slices {
                latencies.len()
            } else {
                (i + 1) * len
            };
            let mut slice = latencies[i * len..end].to_vec();
            slice.sort_by(f64::total_cmp);
            percentile(&slice, 99.0).unwrap_or(0.0)
        })
        .collect();
    median(&mut p99s).unwrap_or(0.0)
}

/// Time-boxes a measurement: `running()` stays true until `budget` passes.
pub struct Clock {
    start: Instant,
    budget: Duration,
}

impl Clock {
    pub fn start(budget: Duration) -> Self {
        Clock {
            start: Instant::now(),
            budget,
        }
    }

    pub fn running(&self) -> bool {
        self.start.elapsed() < self.budget
    }

    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// Runs `setup` [`SETUP_REPS`] times, each through its first verified op,
/// and keeps the last instance.  Returns it with the median set-up time, or
/// the first set-up's failure.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for i in 0..SETUP_REPS {
        drop(last.take());
        if i > 0 {
            std::thread::sleep(SETUP_GAP);
        }
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let setup_s = median(&mut times).expect("at least one set-up");
    Ok((last.expect("at least one set-up"), setup_s))
}

/// A workload's output: end-to-end or per-layer metrics plus op counts.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Set when a check of the outputs failed outside any counted op.
    pub incorrect: bool,
    /// Metric values by name; units come from the tables in `main.rs`.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed ahead of the result.
    pub notes: Vec<String>,
    /// Per-thread span recordings of a traced run, for the span file.
    pub traces: Vec<(&'static str, ThreadTrace)>,
}

impl Outcome {
    /// The outcome of a run whose set-up failed: one failed op, no metrics.
    pub fn setup_failed(workload: &str, e: &str) -> Outcome {
        eprintln!("perfbench: {workload} failed op: set-up: {e}");
        Outcome {
            attempted: 1,
            failed: 1,
            ..Outcome::default()
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// The end-to-end metrics of a host phase plus `setup_s`, and the drift
    /// note comparing the first and last thirds of the ops.
    pub fn end_to_end(&mut self, phase: &Phase, setup_s: f64) {
        let (p50, p99, ops, goodput) = phase.summary();
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        self.metric("setup_s", setup_s);
        self.metric("op_p50_us", p50);
        self.metric("op_p99_slice_median_us", p99);
        self.metric("ops_per_s", ops);
        self.metric("goodput_mb_s", goodput);
        self.drift_note(phase);
        self.notes.push(format!(
            "ops: {} samples, {} attempted, {} failed, over {:.3} s",
            phase.latencies_us.len(),
            phase.attempted,
            phase.failed,
            phase.wall.as_secs_f64()
        ));
        let mut sorted = phase.latencies_us.clone();
        sorted.sort_by(f64::total_cmp);
        let profile: Vec<String> = [10.0, 50.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9]
            .iter()
            .map(|&p| format!("p{p}={:.1}", percentile(&sorted, p).unwrap_or(0.0)))
            .collect();
        self.notes
            .push(format!("latency profile (us): {}", profile.join(" ")));
    }

    pub fn drift_note(&mut self, phase: &Phase) {
        if phase.latencies_us.len() < 3 {
            return;
        }
        let (first, last) = phase.thirds_p50();
        let drift = last / first - 1.0;
        let flag = if drift.abs() > DRIFT_BOUND {
            "DRIFT"
        } else {
            "ok"
        };
        self.notes.push(format!(
            "drift: op_p50_us first third {first:.3}, last third {last:.3}, change {:+.1}% (bound {:.0}%): {flag}",
            drift * 100.0,
            DRIFT_BOUND * 100.0
        ));
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn max_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// CPU time the machine's hypervisor took from this VM so far, summed over
/// its CPUs, in seconds (the `steal` column of `/proc/stat`'s `cpu` line,
/// in ticks of 1/100 s); `None` where it cannot be read.  Stolen time
/// slows every metric of a run, so each run reports how much it saw.
pub fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: u64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks as f64 / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_repeat_per_seed() {
        const MIX: &[(u64, usize)] = &[(80, 64), (100, 4096)];
        let mut a = MsgSeq::new(7, MIX, 8192);
        let mut b = MsgSeq::new(7, MIX, 8192);
        let mut c = MsgSeq::new(8, MIX, 8192);
        let xs: Vec<_> = (0..100).map(|_| a.next_msg()).collect();
        let ys: Vec<_> = (0..100).map(|_| b.next_msg()).collect();
        let zs: Vec<_> = (0..100).map(|_| c.next_msg()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        assert!(xs.iter().all(|&(off, len)| off + len <= 8192));
        assert_eq!(
            PayloadPool::new(3, 100).slice(0, 100),
            PayloadPool::new(3, 100).slice(0, 100)
        );
    }

    #[test]
    fn sliced_p99_ignores_one_bad_slice() {
        // 5000 ops: five slices of 1000; one slice is a burst of slow ops.
        let mut v: Vec<f64> = (0..5000).map(|i| f64::from(i % 100)).collect();
        v[1000..2000].iter_mut().for_each(|x| *x += 1000.0);
        assert_eq!(sliced_p99(&v), 98.0);
        // Too few ops for two slices: the plain p99.
        let w: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(sliced_p99(&w), 99.0);
        assert_eq!(sliced_p99(&[]), 0.0);
    }

    #[test]
    fn thirds_split_in_op_order() {
        let phase = Phase {
            latencies_us: vec![1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 9.0, 9.0, 9.0],
            ..Phase::default()
        };
        assert_eq!(phase.thirds_p50(), (1.0, 9.0));
    }
}
