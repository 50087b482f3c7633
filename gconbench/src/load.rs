//! Load generation: seeded zipf keys, a fixed open-loop arrival schedule, a
//! paced sender that times every request from when it was due, and the
//! seeded edge-toggle stream of the live-graph workload.

use gcon_graph::{CsrDelta, Graph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Zipf exponent of the node-key distribution.
pub const ZIPF_EXPONENT: f64 = 1.0;

/// How long before a due time the sender stops sleeping and spins. The
/// VM's sleep overshoots by ~75 µs at the median (more in the tail), so a
/// sender that only sleeps would add that to every latency it measures.
pub const SPIN_MARGIN: Duration = Duration::from_micros(300);

/// Zipf-distributed node ids: rank `r` has weight `r^-s`, and ranks map to
/// node ids through a seeded permutation, so the hot nodes are scattered
/// over the id space (and over shards).
pub struct Zipf {
    cdf: Vec<f64>,
    ids: Vec<u32>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64, seed: u64) -> Self {
        assert!(n > 0, "zipf over an empty key space");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += (r as f64).powf(-exponent);
                acc
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= acc);
        let mut ids: Vec<u32> = (0..n as u32).collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x2545_F491_4F6C_DD1D);
        for i in (1..n).rev() {
            ids.swap(i, rng.gen_range(0..=i));
        }
        Self { cdf, ids }
    }

    pub fn sample(&self, rng: &mut StdRng) -> u32 {
        let u: f64 = rng.gen();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.ids[rank]
    }
}

/// One scheduled read: a single node, or a bulk read of several.
#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    /// Offset of the scheduled send from the phase start.
    pub due: Duration,
    pub nodes: Vec<u64>,
    /// Whether the answer is compared with the in-process store.
    pub check: bool,
}

impl Op {
    pub fn is_bulk(&self) -> bool {
        self.nodes.len() > 1
    }
}

/// The traffic mix of an open-loop phase.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Offered requests per second, summed over connections.
    pub rate: f64,
    pub conns: usize,
    /// Share of requests that are bulk reads.
    pub bulk_share: f64,
    pub bulk_size: usize,
    /// Share of single reads whose answers are checked (bulk answers are
    /// always checked).
    pub check_share: f64,
}

/// The schedule of connection `conn`: evenly spaced sends at
/// `rate / conns` per second, offset so the connections interleave, with
/// seeded request kinds and zipf keys. The same seed gives the same list.
pub fn schedule(seed: u64, conn: usize, mix: &Mix, secs: f64, zipf: &Zipf) -> Vec<Op> {
    let mut rng =
        StdRng::seed_from_u64(seed ^ 0x5851_F42D_4C95_7F2Du64.wrapping_mul(conn as u64 + 1));
    let period = mix.conns as f64 / mix.rate;
    let offset = conn as f64 / mix.rate;
    let count = ((secs - offset) / period).ceil().max(0.0) as usize;
    (0..count)
        .map(|i| {
            let bulk = rng.gen::<f64>() < mix.bulk_share;
            let k = if bulk { mix.bulk_size } else { 1 };
            let nodes = (0..k).map(|_| u64::from(zipf.sample(&mut rng))).collect();
            let check = bulk || rng.gen::<f64>() < mix.check_share;
            Op { due: Duration::from_secs_f64(offset + i as f64 * period), nodes, check }
        })
        .collect()
}

/// When one request was due, sent and answered, and whether it succeeded.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    pub ok: bool,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

impl Sample {
    /// Latency from the scheduled send (what a user arriving on time sees).
    pub fn since_due_us(&self) -> f64 {
        us(self.done - self.due)
    }

    /// Latency from the actual send (service time alone).
    pub fn since_sent_us(&self) -> f64 {
        us(self.done - self.sent)
    }

    /// How late the generator sent the request.
    pub fn late_us(&self) -> f64 {
        us(self.sent - self.due)
    }
}

/// Blocks until `t`: sleeps until [`SPIN_MARGIN`] before it, then spins.
pub fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > SPIN_MARGIN {
            std::thread::sleep(left - SPIN_MARGIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Sends each op at its due time after `start`, never earlier. A send that
/// runs long delays the sends behind it, and each of those is still timed
/// from its own due time, so a stall is charged to every request that was
/// due while it lasted (no coordinated omission). `send` gets the op's
/// index and returns whether it succeeded.
pub fn run_open_loop(
    start: Instant,
    ops: &[Op],
    mut send: impl FnMut(usize, &Op) -> bool,
) -> Vec<Sample> {
    ops.iter()
        .enumerate()
        .map(|(i, op)| {
            let due = start + op.due;
            wait_until(due);
            let sent = Instant::now();
            let ok = send(i, op);
            Sample { due, sent, done: Instant::now(), ok }
        })
        .collect()
}

/// One single-edge toggle of the live-graph workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edit {
    pub u: u32,
    pub v: u32,
    /// Insert (the edge is absent before this edit) or remove.
    pub insert: bool,
}

impl Edit {
    pub fn delta(&self) -> CsrDelta {
        let mut d = CsrDelta::new();
        if self.insert {
            d.insert_edge(self.u, self.v);
        } else {
            d.remove_edge(self.u, self.v);
        }
        d
    }
}

/// `count` seeded toggles on `graph`: half flip an edge of the original
/// graph (a removal, or re-insertion if it was already removed), half a
/// random node pair (almost always an insertion). Each edit's direction
/// accounts for the edits before it, so every edit changes the graph.
pub fn edit_stream(seed: u64, graph: &Graph, count: usize) -> Vec<Edit> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let n = graph.num_nodes() as u32;
    let mut flipped: HashSet<(u32, u32)> = HashSet::new();
    (0..count)
        .map(|_| {
            let (u, v) = loop {
                let u = rng.gen_range(0..n);
                let v = if rng.gen::<f64>() < 0.5 {
                    let nb = graph.neighbors(u);
                    if nb.is_empty() {
                        continue;
                    }
                    nb[rng.gen_range(0..nb.len())]
                } else {
                    rng.gen_range(0..n)
                };
                if u != v {
                    break (u.min(v), u.max(v));
                }
            };
            let present = graph.has_edge(u, v) ^ flipped.contains(&(u, v));
            if !flipped.remove(&(u, v)) {
                flipped.insert((u, v));
            }
            Edit { u, v, insert: !present }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix =
        Mix { rate: 500.0, conns: 2, bulk_share: 0.1, bulk_size: 64, check_share: 0.1 };

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let z = Zipf::new(1000, ZIPF_EXPONENT, 3);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..5000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
        assert!(draw(9).iter().all(|&k| k < 1000));
        // Rank 1 carries 1/H(1000) ≈ 13 % of the mass.
        let hot = Zipf::new(1000, ZIPF_EXPONENT, 3).ids[0];
        let share = draw(9).iter().filter(|&&k| k == hot).count() as f64 / 5000.0;
        assert!((0.10..0.17).contains(&share), "rank-1 share {share}");
        // A different seed permutes which ids are hot.
        assert_ne!(Zipf::new(1000, ZIPF_EXPONENT, 4).ids, z.ids);
    }

    #[test]
    fn schedule_is_deterministic_interleaved_and_mixed() {
        let z = Zipf::new(500, ZIPF_EXPONENT, 1);
        let a0 = schedule(5, 0, &MIX, 2.0, &z);
        assert_eq!(a0, schedule(5, 0, &MIX, 2.0, &z));
        assert_ne!(a0, schedule(6, 0, &MIX, 2.0, &z));
        let a1 = schedule(5, 1, &MIX, 2.0, &z);
        assert_eq!((a0.len(), a1.len()), (500, 500));
        // 250/s per connection, connection 1 offset by half a period.
        assert_eq!(a0[1].due, Duration::from_millis(4));
        assert_eq!(a1[0].due, Duration::from_millis(2));
        let bulks = a0.iter().filter(|o| o.is_bulk()).count();
        assert!((25..80).contains(&bulks), "{bulks} bulk reads of 500");
        assert!(a0.iter().filter(|o| o.is_bulk()).all(|o| o.nodes.len() == 64 && o.check));
    }

    #[test]
    fn edit_stream_is_deterministic_and_always_changes_the_graph() {
        let g = Graph::from_edges(40, &[(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (7, 8)]);
        let edits = edit_stream(11, &g, 200);
        assert_eq!(edits, edit_stream(11, &g, 200));
        assert_ne!(edits, edit_stream(12, &g, 200));
        let mut live: HashSet<(u32, u32)> = g.edges().into_iter().collect();
        for e in &edits {
            assert!(e.u < e.v);
            assert_eq!(live.contains(&(e.u, e.v)), !e.insert, "edit {e:?} is a no-op");
            if e.insert {
                live.insert((e.u, e.v));
            } else {
                live.remove(&(e.u, e.v));
            }
        }
        assert!(edits.iter().any(|e| e.insert) && edits.iter().any(|e| !e.insert));
    }

    #[test]
    fn open_loop_charges_a_stall_to_every_request_due_during_it() {
        // 1 ms period; the first request stalls 10 ms.
        let ops: Vec<Op> = (0..20)
            .map(|i| Op { due: Duration::from_millis(i), nodes: vec![0], check: false })
            .collect();
        let start = Instant::now() + Duration::from_millis(2);
        let samples = run_open_loop(start, &ops, |i, _| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(10));
            }
            true
        });
        for (i, s) in samples.iter().enumerate().skip(1).take(9) {
            // Due at i ms, answered no earlier than the stall's end (10 ms).
            let floor_us = (10 - i) as f64 * 1000.0;
            assert!(s.since_due_us() >= floor_us, "req {i}: {} µs", s.since_due_us());
            assert!(s.late_us() >= floor_us);
            // Timed from the actual send, the stall disappears.
            assert!(s.since_sent_us() < 1000.0, "req {i}: sent-time {} µs", s.since_sent_us());
        }
        // Nothing is ever sent early.
        assert!(samples.iter().all(|s| s.sent >= s.due));
    }
}
