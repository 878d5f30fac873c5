//! The real-thread workloads: a 3-node cluster of clusters, network
//! {0,1} → gateway 1 → network {1,2}, driven through the public session
//! and virtual-channel API by two application threads (ranks 0 and 2).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mad_shm::ShmDriver;
use mad_tcp::TcpDriver;
use mad_util::pool::PoolStats;
use mad_util::rng::Rng;
use madeleine::metrics_plane::MetricsOptions;
use madeleine::session::VcOptions;
use madeleine::{MadError, Node, NodeId, RecvMode, SendMode, SessionBuilder};

use crate::pass::{Block, Mode, Pass};
use crate::spans::{self, Recorder, Span};
use crate::stats::context_switches;

const MIB: usize = 1 << 20;
/// Bulk message size and the number of distinct seeded payloads cycled.
const BULK_LEN: usize = MIB;
const BULK_PAYLOADS: usize = 4;
/// RPC request/reply size and the number of distinct seeded payloads.
const RPC_LEN: usize = 64;
const RPC_PAYLOADS: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One flow-controlled stream of 1 MiB messages 0 → 2 over shm.
    BulkShm,
    /// 64 B closed-loop round trips 0 ↔ 2 over shm.
    RpcShm,
    /// The same round trips with network {1,2} on multiplexed TCP.
    RpcTcp,
}

impl Kind {
    fn bulk(self) -> bool {
        self == Kind::BulkShm
    }

    /// Operations excluded from the window while pools and queues fill.
    fn warmup(self) -> u64 {
        if self.bulk() {
            16
        } else {
            200
        }
    }

    /// Operations per block: enough for ten samples past the 90th
    /// percentile, and tens of milliseconds long.
    fn block(self) -> usize {
        if self.bulk() {
            100
        } else {
            250
        }
    }

    /// Fewest operations a window may hold, however short the run.
    fn min_ops(self) -> u64 {
        2 * self.block() as u64
    }
}

/// Build the session. Only the bulk workload departs from the library's
/// defaults: it runs flow-controlled (an 8-fragment credit window) at a
/// 64 KiB route MTU. A [`Mode::Gauges`] pass turns the metrics plane on, for
/// the gateway's busy-time gauges.
fn session(kind: Kind, mode: Mode) -> SessionBuilder {
    let mut sb = SessionBuilder::new(3);
    let rt = sb.runtime().clone();
    let a = sb.network("shm-a", ShmDriver::new(rt.clone()), &[0, 1]);
    let b = match kind {
        Kind::RpcTcp => sb.network("tcp-b", TcpDriver::multiplexed(rt), &[1, 2]),
        _ => sb.network("shm-b", ShmDriver::new(rt), &[1, 2]),
    };
    let mut opts = VcOptions::default();
    if kind.bulk() {
        opts.mtu = Some(64 * 1024);
        opts.gateway.credit_window = Some(8);
    }
    if mode == Mode::Gauges {
        opts.metrics = Some(MetricsOptions {
            watchdog: None,
            ..Default::default()
        });
    }
    sb.vchannel("vc", &[a, b], opts);
    sb
}

/// Seconds from `SessionBuilder::new` until every node passed the first
/// barrier, for a session that does nothing else.
pub fn setup_only(kind: Kind) -> f64 {
    let t0 = Instant::now();
    let ready = session(kind, Mode::Plain).run(|node| {
        node.barrier().wait();
        Instant::now()
    });
    ready
        .iter()
        .map(|r| r.duration_since(t0))
        .max()
        .unwrap_or_default()
        .as_secs_f64()
}

/// Seeded payload tables, shared by the sender (which sends them) and the
/// receiver (which compares every delivered byte against them). A run
/// builds them once for all its sessions, so that sessions do not churn
/// megabytes through the allocator between two peak-RSS readings.
pub struct Payloads {
    /// Bulk: rank 0 → 2. RPC: requests 0 → 2.
    fwd: Vec<Vec<u8>>,
    /// RPC replies 2 → 0 (empty for bulk).
    back: Vec<Vec<u8>>,
}

impl Payloads {
    pub fn new(kind: Kind, seed: u64) -> Arc<Self> {
        let mut rng = Rng::new(seed);
        let mut table = |n: usize, len: usize| -> Vec<Vec<u8>> {
            (0..n)
                .map(|_| {
                    let mut v = vec![0u8; len];
                    rng.fill_bytes(&mut v);
                    v
                })
                .collect()
        };
        Arc::new(if kind.bulk() {
            Payloads {
                fwd: table(BULK_PAYLOADS, BULK_LEN),
                back: Vec::new(),
            }
        } else {
            Payloads {
                fwd: table(RPC_PAYLOADS, RPC_LEN),
                back: table(RPC_PAYLOADS, RPC_LEN),
            }
        })
    }

    fn fwd(&self, k: u64) -> &[u8] {
        &self.fwd[k as usize % self.fwd.len()]
    }

    fn back(&self, k: u64) -> &[u8] {
        &self.back[k as usize % self.back.len()]
    }
}

/// State every node closure shares.
struct Shared {
    kind: Kind,
    payloads: Arc<Payloads>,
    spans: bool,
    /// Session start: the origin of the setup time and of every timestamp.
    t0: Instant,
    /// The sender stops at the first operation that starts after this.
    run_for: Duration,
    /// Set by the sender to `k + 1` before it sends its last operation `k`,
    /// so the receiver knows when to stop without any in-band marker.
    stop_after: AtomicU64,
    /// Test hook: flip one byte of the payload delivered as operation `k`.
    corrupt: Option<u64>,
}

/// What one node hands back.
#[derive(Default)]
struct NodeOut {
    ready_s: f64,
    /// Per operation: (start, end) in ns since the session start.
    times: Vec<(u64, u64)>,
    spans: Vec<Span>,
    failures: Vec<String>,
    pool_warm: Option<PoolStats>,
    pool_end: Option<PoolStats>,
    threads: u64,
    /// Context switches per operation in the window (sender or client).
    switches_per_op: f64,
}

/// Run one pass of `kind` for about `seconds`.
pub fn run(
    kind: Kind,
    payloads: &Arc<Payloads>,
    seconds: f64,
    mode: Mode,
    corrupt: Option<u64>,
) -> Pass {
    let t0 = Instant::now();
    let sh = Arc::new(Shared {
        kind,
        payloads: payloads.clone(),
        spans: mode == Mode::Spans,
        t0,
        run_for: Duration::from_secs_f64(seconds),
        stop_after: AtomicU64::new(u64::MAX),
        corrupt,
    });
    let (outs, gw) = session(kind, mode).run_with_gateway_stats(move |node| {
        node.barrier().wait();
        let mut out = NodeOut {
            ready_s: sh.t0.elapsed().as_secs_f64(),
            ..Default::default()
        };
        let r = match (node.rank().0, kind.bulk()) {
            (0, true) => bulk_sender(&node, &sh, &mut out),
            (2, true) => bulk_receiver(&node, &sh, &mut out),
            (0, false) => rpc_client(&node, &sh, &mut out),
            (2, false) => rpc_echo(&node, &sh, &mut out),
            _ => Ok(()),
        };
        if let Err(e) = r {
            out.failures.push(format!("rank {}: {e}", node.rank().0));
        }
        out
    });
    let session_ns = t0.elapsed().as_nanos() as u64;

    let mut pass = Pass {
        setup_s: vec![outs.iter().map(|o| o.ready_s).fold(0.0, f64::max)],
        session_ns,
        ..Default::default()
    };
    for (_, _, st) in &gw {
        pass.add_gateway(
            &st.totals(),
            st.recv_busy_ns.load(Ordering::Relaxed),
            st.flush_busy_ns.load(Ordering::Relaxed),
        );
    }
    let (client, server) = (&outs[0], &outs[2]);
    for o in [client, server] {
        for f in &o.failures {
            pass.fail(f.clone());
        }
    }
    pass.pool_warm = server.pool_warm.or(client.pool_warm).unwrap_or_default();
    pass.pool_end = server.pool_end.or(client.pool_end).unwrap_or_default();
    pass.session_threads = client.threads;
    pass.switches_per_op = client.switches_per_op;
    pass.first_msg = kind.warmup();
    let w = kind.warmup() as usize;
    let n = client.times.len();
    pass.attempted = n as u64;
    if server.times.len() != n {
        pass.fail(format!(
            "rank 0 completed {n} operations, rank 2 {}",
            server.times.len()
        ));
    }
    let n = n.min(server.times.len());
    let ns = |a: u64, b: u64| b.saturating_sub(a) as f64;
    let len = kind.block();
    for b in (w..n).step_by(len).filter(|b| b + len <= n) {
        let ops = b..b + len;
        pass.blocks.push(if kind.bulk() {
            // Message k's latency: from the sender's begin_packing to the
            // receiver's verified end of message k. The block runs from
            // the delivery before its first message to its last delivery.
            Block {
                ops: len as u64,
                bytes: (len * BULK_LEN) as u64,
                secs: ns(server.times[b - 1].1, server.times[b + len - 1].1) / 1e9,
                lat_us: ops
                    .map(|k| ns(client.times[k].0, server.times[k].1) / 1e3)
                    .collect(),
            }
        } else {
            Block {
                ops: len as u64,
                bytes: (len * 2 * RPC_LEN) as u64,
                secs: ns(client.times[b].0, client.times[b + len - 1].1) / 1e9,
                lat_us: ops
                    .map(|k| ns(client.times[k].0, client.times[k].1) / 1e3)
                    .collect(),
            }
        });
    }
    pass.check_gateway();
    let mut outs = outs;
    pass.spans = vec![
        std::mem::take(&mut outs[0].spans),
        std::mem::take(&mut outs[2].spans),
    ];
    pass
}

/// The sender-side stop rule: stop at the first operation past the run
/// time once the window holds its minimum. Publishes the decision before
/// the operation is sent.
fn is_last(sh: &Shared, k: u64) -> bool {
    let last = k + 1 >= sh.kind.warmup() + sh.kind.min_ops() && sh.t0.elapsed() >= sh.run_for;
    if last {
        sh.stop_after.store(k + 1, Ordering::SeqCst);
    }
    last
}

/// Context switches of every live thread since `at_warmup`, per operation.
fn switches_per_op(at_warmup: (u64, u64), ops: u64) -> f64 {
    let now = context_switches();
    (now.0 + now.1).saturating_sub(at_warmup.0 + at_warmup.1) as f64 / ops.max(1) as f64
}

fn corrupt_if(sh: &Shared, k: u64, buf: &mut [u8]) {
    if sh.corrupt == Some(k) {
        buf[0] ^= 0x01;
    }
}

fn mismatch(out: &mut NodeOut, what: &str, k: u64, got: &[u8], want: &[u8]) {
    if got != want {
        let at = got.iter().zip(want).position(|(a, b)| a != b).unwrap_or(0);
        out.failures.push(format!(
            "{what} {k}: delivered byte {at} differs from the seeded payload"
        ));
    }
}

fn bulk_sender(node: &Node, sh: &Shared, out: &mut NodeOut) -> Result<(), MadError> {
    let vc = node.vchannel("vc");
    let mut rec = Recorder::new(sh.spans, sh.t0);
    out.threads = node.runtime().threads_spawned();
    let mut switches = (0, 0);
    for k in 0.. {
        if k == sh.kind.warmup() {
            switches = context_switches();
        }
        let last = is_last(sh, k);
        let data = sh.payloads.fwd(k);
        let len = data.len() as u64;
        let start = rec.now();
        let op = rec.open(k);
        let mut w = rec.leaf(spans::PACK_BEGIN, op, k, 0, || vc.begin_packing(NodeId(2)))?;
        rec.leaf(spans::PACK_PACK, op, k, len, || {
            w.pack(data, SendMode::Later, RecvMode::Cheaper)
        })?;
        rec.leaf(spans::PACK_END, op, k, len, || w.end_packing())?;
        rec.close(op, len);
        out.times.push((start, rec.now()));
        if last {
            out.switches_per_op = switches_per_op(switches, k + 1 - sh.kind.warmup());
            break;
        }
    }
    out.spans = rec.spans;
    Ok(())
}

fn bulk_receiver(node: &Node, sh: &Shared, out: &mut NodeOut) -> Result<(), MadError> {
    let vc = node.vchannel("vc");
    let pool = node.runtime().pool().clone();
    let mut rec = Recorder::new(sh.spans, sh.t0);
    let mut buf = vec![0u8; BULK_LEN];
    for k in 0.. {
        let start = rec.now();
        let op = rec.open(k);
        let mut r = rec.leaf(spans::UNPACK_BEGIN, op, k, 0, || vc.begin_unpacking())?;
        rec.leaf(spans::UNPACK_COPY, op, k, buf.len() as u64, || {
            r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
        })?;
        rec.leaf(spans::UNPACK_END, op, k, 0, || r.end_unpacking())?;
        rec.leaf(spans::APP, op, k, 0, || {
            corrupt_if(sh, k, &mut buf);
            mismatch(out, "message", k, &buf, sh.payloads.fwd(k));
        });
        rec.close(op, buf.len() as u64);
        out.times.push((start, rec.now()));
        if k + 1 == sh.kind.warmup() {
            out.pool_warm = Some(pool.stats());
        }
        if sh.stop_after.load(Ordering::SeqCst) == k + 1 {
            break;
        }
    }
    out.pool_end = Some(pool.stats());
    out.spans = rec.spans;
    Ok(())
}

fn rpc_client(node: &Node, sh: &Shared, out: &mut NodeOut) -> Result<(), MadError> {
    let vc = node.vchannel("vc");
    let pool = node.runtime().pool().clone();
    let mut rec = Recorder::new(sh.spans, sh.t0);
    let mut buf = [0u8; RPC_LEN];
    let len = RPC_LEN as u64;
    out.threads = node.runtime().threads_spawned();
    let mut switches = (0, 0);
    for k in 0.. {
        if k == sh.kind.warmup() {
            out.pool_warm = Some(pool.stats());
            switches = context_switches();
        }
        let last = is_last(sh, k);
        let req = sh.payloads.fwd(k);
        let start = rec.now();
        let op = rec.open(k);
        let mut w = rec.leaf(spans::PACK_BEGIN, op, k, 0, || vc.begin_packing(NodeId(2)))?;
        rec.leaf(spans::PACK_PACK, op, k, len, || {
            w.pack(req, SendMode::Safer, RecvMode::Express)
        })?;
        rec.leaf(spans::PACK_END, op, k, len, || w.end_packing())?;
        let mut r = rec.leaf(spans::UNPACK_BEGIN, op, k, 0, || vc.begin_unpacking())?;
        rec.leaf(spans::UNPACK_COPY, op, k, len, || {
            r.unpack(&mut buf, SendMode::Safer, RecvMode::Express)
        })?;
        rec.leaf(spans::UNPACK_END, op, k, 0, || r.end_unpacking())?;
        rec.leaf(spans::APP, op, k, 0, || {
            corrupt_if(sh, k, &mut buf);
            mismatch(out, "reply", k, &buf, sh.payloads.back(k));
        });
        rec.close(op, 2 * len);
        out.times.push((start, rec.now()));
        if last {
            out.switches_per_op = switches_per_op(switches, k + 1 - sh.kind.warmup());
            break;
        }
    }
    out.pool_end = Some(pool.stats());
    out.spans = rec.spans;
    Ok(())
}

fn rpc_echo(node: &Node, sh: &Shared, out: &mut NodeOut) -> Result<(), MadError> {
    let vc = node.vchannel("vc");
    let mut rec = Recorder::new(sh.spans, sh.t0);
    let mut buf = [0u8; RPC_LEN];
    let len = RPC_LEN as u64;
    for k in 0.. {
        let start = rec.now();
        let op = rec.open(k);
        let mut r = rec.leaf(spans::UNPACK_BEGIN, op, k, 0, || vc.begin_unpacking())?;
        rec.leaf(spans::UNPACK_COPY, op, k, len, || {
            r.unpack(&mut buf, SendMode::Safer, RecvMode::Express)
        })?;
        rec.leaf(spans::UNPACK_END, op, k, 0, || r.end_unpacking())?;
        let reply = rec.leaf(spans::APP, op, k, 0, || {
            mismatch(out, "request", k, &buf, sh.payloads.fwd(k));
            sh.payloads.back(k)
        });
        let mut w = rec.leaf(spans::PACK_BEGIN, op, k, 0, || vc.begin_packing(NodeId(0)))?;
        rec.leaf(spans::PACK_PACK, op, k, len, || {
            w.pack(reply, SendMode::Safer, RecvMode::Express)
        })?;
        rec.leaf(spans::PACK_END, op, k, len, || w.end_packing())?;
        rec.close(op, 2 * len);
        out.times.push((start, rec.now()));
        if sh.stop_after.load(Ordering::SeqCst) == k + 1 {
            break;
        }
    }
    out.spans = rec.spans;
    Ok(())
}
