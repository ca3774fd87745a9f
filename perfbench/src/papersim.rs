//! The simulator layer: the protocol on the paper's 1999 testbed, in
//! virtual time, measured in `pingpong_intra`'s traced run.
//!
//! `ppmsg_sim::experiments::headline_numbers` (the paper's trimmed-mean
//! method) must give rows that are finite, positive and in the band the
//! repository's own tests hold them to.  Direct `SimCluster` ping-pongs at
//! the four headline sizes (10 B and 8 KiB intranode, 4 B and 32 KiB
//! internode) must reproduce their virtual round-trip times exactly when
//! run again.  This is the only code here that runs `simsmp`, `simnet` and
//! `ppmsg-sim::cluster`; its metrics move only when the engine's action
//! stream or the cost model changes, and do not depend on the seed.
//!
//! The simulator's wall-clock speed is not a workload: on a shared VM it
//! switches between two levels 1.5x apart every 0.2 s to minutes, so the
//! quartile spread of its median sweep time over ten 20 s runs reached
//! 0.28, over the 0.25 bound.

use crate::common::{Outcome, PayloadPool};
use crate::replay;
use ppmsg_core::{EndpointStats, ProcessId, ProtocolConfig, Tag};
use ppmsg_sim::experiments::{headline_numbers, HeadlineNumbers};
use ppmsg_sim::{ClusterConfig, Op, ProcessScript, SimCluster};
use simnet::{EthernetLink, Nic};

/// Iterations per headline experiment (as `tests/integration.rs` uses).
const HEADLINE_ITERS: usize = 20;
/// Round trips per measured ping-pong.
const ITERS: usize = 20;
/// `(intranode, message bytes)` of the four headline rows.
const SIZES: [(bool, usize); 4] = [(true, 10), (false, 4), (true, 8192), (false, 32768)];

/// Problems with the headline rows: not finite and positive, or outside
/// the band `ppmsg-sim`'s own `headline_numbers_in_paper_ballpark` test
/// holds them to.
fn headline_problems(h: &HeadlineNumbers) -> Vec<String> {
    let rows = [
        ("intranode latency", h.intranode_latency_us, 3.0, 25.0),
        ("internode latency", h.internode_latency_us, 20.0, 60.0),
        (
            "intranode bandwidth",
            h.intranode_peak_bw_mb_s,
            100.0,
            f64::INFINITY,
        ),
        ("internode bandwidth", h.internode_peak_bw_mb_s, 6.0, 12.6),
    ];
    rows.iter()
        .filter(|(_, v, lo, hi)| !(v.is_finite() && *v > 0.0 && v >= lo && v < hi))
        .map(|(name, v, lo, hi)| format!("{name} {v} outside [{lo}, {hi})"))
        .collect()
}

/// One simulated ping-pong: `iters` round trips of `len` bytes after a
/// 4-byte barrier exchange, as the paper's harness runs them.
struct PingPong {
    /// Mean virtual round trip in nanoseconds.
    rtt_ns: u64,
    events: u64,
    messages: u64,
    payload_bytes: u64,
    stats: EndpointStats,
}

fn ping_pong(intranode: bool, len: usize) -> Result<PingPong, String> {
    let protocol = if intranode {
        ProtocolConfig::paper_intranode()
    } else {
        ProtocolConfig::paper_internode()
    };
    let a = ProcessId::new(0, 0);
    let b = if intranode {
        ProcessId::new(0, 1)
    } else {
        ProcessId::new(1, 0)
    };
    let (mut ping, mut pong) = (Vec::new(), Vec::new());
    let send = |peer, tag, len| Op::Send {
        peer,
        tag: Tag(tag),
        len,
    };
    let recv = |peer, tag, len| Op::Recv {
        peer,
        tag: Tag(tag),
        len,
    };
    ping.extend([send(b, 99, 4), recv(b, 98, 4)]);
    pong.extend([recv(a, 99, 4), send(a, 98, 4)]);
    for i in 0..ITERS {
        ping.extend([Op::MarkTime(i), send(b, 1, len), recv(b, 2, len)]);
        pong.extend([recv(a, 1, len), send(a, 2, len)]);
    }
    ping.push(Op::MarkTime(ITERS));
    let mut cluster = SimCluster::new(ClusterConfig::paper_testbed(protocol));
    cluster.add_process(ProcessScript {
        process: a,
        ops: ping,
    });
    cluster.add_process(ProcessScript {
        process: b,
        ops: pong,
    });
    let report = cluster.run();
    if !cluster.all_finished() {
        return Err(format!("{len} B ping-pong did not finish"));
    }
    let marks = report.marks_of(a);
    if marks.len() != ITERS + 1 {
        return Err(format!("{len} B ping-pong left {} time marks", marks.len()));
    }
    let total = marks[ITERS].since(marks[0]).0;
    let mut stats = EndpointStats::default();
    for s in report.endpoint_stats.values() {
        stats.merge(s);
    }
    Ok(PingPong {
        rtt_ns: total / ITERS as u64,
        events: report.events,
        messages: 2 * ITERS as u64 + 2,
        payload_bytes: stats.bytes_pushed + stats.bytes_pulled,
        stats,
    })
}

struct Sim {
    headline: HeadlineNumbers,
    /// The first virtual round trip of each size; every repeat must match.
    reference: [u64; 4],
}

impl Sim {
    fn new() -> Result<Sim, String> {
        let headline = headline_numbers(HEADLINE_ITERS);
        let problems = headline_problems(&headline);
        if !problems.is_empty() {
            return Err(format!("headline rows: {}", problems.join("; ")));
        }
        let mut reference = [0; 4];
        for (i, &(intranode, len)) in SIZES.iter().enumerate() {
            reference[i] = ping_pong(intranode, len)?.rtt_ns;
        }
        Ok(Sim {
            headline,
            reference,
        })
    }

    /// The ping-pong of every headline size again, each checked against
    /// its reference.
    fn repeat(&self) -> Result<Vec<PingPong>, String> {
        let mut runs = Vec::with_capacity(SIZES.len());
        for (&(intranode, len), &reference) in SIZES.iter().zip(&self.reference) {
            let p = ping_pong(intranode, len)?;
            if p.rtt_ns != reference {
                return Err(format!(
                    "{len} B ping-pong took {} ns of virtual time, earlier {reference} ns",
                    p.rtt_ns
                ));
            }
            runs.push(p);
        }
        Ok(runs)
    }
}

/// Per-message unit costs of one headline ping-pong, from its engine
/// counts times the simulator's public cost functions (computed, not
/// simulated): `(copy, translate, nic, wire)` in µs.
fn cost_split(intranode: bool, p: &PingPong, frames_per_msg: f64) -> [f64; 4] {
    let cfg = ClusterConfig::paper_testbed(ProtocolConfig::paper_internode());
    let hw = cfg.hw;
    let msgs = p.messages as f64;
    let per = |x: u64| (x as f64 / msgs).round() as usize;
    let s = &p.stats;
    let copy = hw
        .memcpy_cost(per(s.bytes_copied_direct), false)
        .as_micros_f64()
        + hw.memcpy_cost(per(s.bytes_copied_staged), false)
            .as_micros_f64();
    let translate = s
        .bytes_translated
        .checked_div(s.translations)
        .map_or(0.0, |each| {
            s.translations as f64 / msgs * hw.translation_cost(each as usize).as_micros_f64()
        });
    if intranode {
        return [copy, translate, 0.0, 0.0];
    }
    let frame_bytes = ((p.payload_bytes as f64 / msgs) / frames_per_msg.max(1.0)).round() as usize;
    let nic = Nic::new(cfg.nic)
        .inject_cost(frame_bytes, false)
        .as_micros_f64()
        * frames_per_msg;
    let wire = EthernetLink::new(cfg.link)
        .serialization_time(frame_bytes)
        .as_micros_f64()
        * frames_per_msg;
    [copy, translate, nic, wire]
}

/// The simulator layer's per-layer metrics, taken in `pingpong_intra`'s
/// traced run: the headline rows, and per message of one sweep of the
/// headline ping-pongs, the simulator's event and frame counts and the
/// computed unit costs.  A row outside its band, or a sweep that does not
/// repeat the set-up's virtual times, makes the run incorrect.
pub fn layer_metrics(out: &mut Outcome) {
    let (runs, sim) = match Sim::new().and_then(|sim| Ok((sim.repeat()?, sim))) {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("perfbench: simulator check failed: {e}");
            out.incorrect = true;
            return;
        }
    };
    let h = &sim.headline;
    out.metric("sim_intra_latency_us", h.intranode_latency_us);
    out.metric("sim_inter_latency_us", h.internode_latency_us);
    out.metric("sim_intra_bw_mb_s", h.intranode_peak_bw_mb_s);
    out.metric("sim_inter_bw_mb_s", h.internode_peak_bw_mb_s);

    // Per message, averaged over the four headline sizes.
    let mut sums = [0.0; 6];
    for (&(intranode, len), p) in SIZES.iter().zip(&runs) {
        let pool = PayloadPool::new(0, len);
        let frames = replay::round_trips(&pool, &[(0, len)], intranode).transmissions as f64 / 2.0;
        let split = cost_split(intranode, p, frames);
        let row = [
            p.events as f64 / p.messages as f64,
            frames,
            split[0],
            split[1],
            split[2],
            split[3],
        ];
        for (s, v) in sums.iter_mut().zip(row) {
            *s += v;
        }
    }
    let n = runs.len().max(1) as f64;
    for (name, v) in [
        "sim.events_per_msg",
        "sim.frames_per_msg",
        "sim.copy_us",
        "sim.translate_us",
        "sim.nic_us",
        "sim.wire_us",
    ]
    .into_iter()
    .zip(sums)
    {
        out.metric(name, v / n);
    }
}
