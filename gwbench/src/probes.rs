//! Isolated probes of the layers the application cannot call during a
//! run. Each probe calls one layer's public functions on the packet shapes
//! the workloads put on the wire — 64 KiB fragments for bulk, a GTM header
//! plus 64 B for RPC — warms up before it is timed, and reports the median
//! of several timed batches.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use mad_shm::ShmDriver;
use mad_tcp::TcpDriver;
use mad_util::pool::BufferPool;
use madeleine::gtm::{self, GtmHeader, GtmPartDesc, StreamTag};
use madeleine::runtime::RtQueue;
use madeleine::{Driver, NodeId, RecvMode, Runtime, SendMode, StdRuntime};

use crate::stats::median;

const BATCHES: usize = 5;

/// Median over timed batches of the mean nanoseconds per call of `f`,
/// after one untimed warm-up batch.
fn ns_per_op(iters: u64, mut f: impl FnMut()) -> f64 {
    let mut per = Vec::with_capacity(BATCHES);
    for b in 0..=BATCHES {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if b > 0 {
            per.push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
    }
    median(&per)
}

fn tag() -> StreamTag {
    StreamTag {
        src: NodeId(0),
        dest: NodeId(2),
        msg_id: 7,
    }
}

/// GTM header and block-descriptor encode + decode, ns per packet.
fn gtm_codec() -> (f64, f64) {
    let header = GtmHeader::new(tag(), 64 * 1024, false);
    let part = GtmPartDesc {
        len: 64,
        send: SendMode::Safer,
        recv: RecvMode::Express,
    };
    let mut v = Vec::with_capacity(64);
    let h = ns_per_op(200_000, || {
        gtm::encode_header_into(&mut v, black_box(&header));
        black_box(gtm::decode_packet(black_box(&v)).is_ok());
    });
    let p = ns_per_op(200_000, || {
        gtm::encode_part_into(&mut v, black_box(&tag()), black_box(&part));
        black_box(gtm::decode_packet(black_box(&v)).is_ok());
    });
    (h, p)
}

/// Warm buffer-pool get + put of a 64 KiB fragment buffer, ns.
fn pool_get_put() -> f64 {
    let pool = BufferPool::new();
    ns_per_op(200_000, || {
        let b = pool.get(black_box(64 * 1024));
        black_box(&b);
    })
}

/// `RtQueue` push + pop on one thread, ns per pair.
fn rt_queue(rt: &Arc<dyn Runtime>) -> f64 {
    let (tx, rx) = RtQueue::<Vec<u8>>::with_capacity(&**rt, usize::MAX);
    let mut item = Some(Vec::with_capacity(64));
    ns_per_op(200_000, || {
        if tx.push(item.take().expect("item is back")).is_err() {
            panic!("queue receiver dropped");
        }
        item = rx.try_pop();
    })
}

/// `RtEvent` ping-pong between two threads, µs per wake-up (each round
/// trip is two wake-ups).
fn rt_wake(rt: &Arc<dyn Runtime>) -> f64 {
    const ROUNDS: u64 = 5_000;
    let ping = rt.event();
    let pong = rt.event();
    let total = BATCHES as u64 + 1;
    std::thread::scope(|s| {
        let (ping2, pong2) = (ping.clone(), pong.clone());
        s.spawn(move || {
            let mut seen = 0;
            for _ in 0..total * ROUNDS {
                seen = ping2.wait_past(seen);
                pong2.bump();
            }
        });
        let mut seen = 0;
        ns_per_op(ROUNDS, || {
            ping.bump();
            seen = pong.wait_past(seen);
        }) / 2.0
            / 1e3
    })
}

/// Shared-memory conduit: `send` of one packet plus `recv_into` at the
/// other end, for a 64 KiB fragment (µs) and a 64 B packet (ns).
fn shm_xfer(rt: &Arc<dyn Runtime>) -> (f64, f64) {
    let driver = ShmDriver::new(rt.clone());
    let (mut a, mut b) = driver.connect(NodeId(0), NodeId(1), rt.event(), rt.event());
    let prelude = gtm::frag_prelude(&tag());
    let mut dst = vec![0u8; 80 * 1024];
    let mut xfer = |chunk: &[u8], iters| {
        ns_per_op(iters, || {
            a.send(&[&prelude, chunk]).expect("shm send");
            black_box(b.recv_into(&mut dst).expect("shm recv"));
        })
    };
    let big = xfer(&[0xA5; 64 * 1024], 2_000) / 1e3;
    let small = xfer(&[0x5A; 64], 100_000);
    (big, small)
}

/// Multiplexed TCP conduit over loopback: 64 B ping-pong (µs per round
/// trip) and one-way 32 KiB transfer (µs).
fn tcp_probe(rt: &Arc<dyn Runtime>) -> (f64, f64) {
    let driver = TcpDriver::multiplexed(rt.clone());
    let (mut a, mut b) = driver.connect(NodeId(0), NodeId(1), rt.event(), rt.event());
    let prelude = gtm::frag_prelude(&tag());
    let big = [0xC3u8; 32 * 1024];
    let mut dst = vec![0u8; 40 * 1024];
    let xfer = ns_per_op(200, || {
        a.send(&[&prelude, &big]).expect("tcp send");
        black_box(b.recv_into(&mut dst).expect("tcp recv"));
    }) / 1e3;
    const ROUNDS: u64 = 200;
    let total = BATCHES as u64 + 1;
    let rtt = std::thread::scope(|s| {
        s.spawn(move || {
            let mut buf = [0u8; 256];
            for _ in 0..total * ROUNDS {
                let n = b.recv_into(&mut buf).expect("tcp echo recv");
                b.send(&[&buf[..n]]).expect("tcp echo send");
            }
        });
        let small = [0x3Cu8; 64];
        let mut buf = [0u8; 256];
        ns_per_op(ROUNDS, || {
            a.send(&[&prelude, &small]).expect("tcp send");
            black_box(a.recv_into(&mut buf).expect("tcp recv"));
        }) / 1e3
    });
    (rtt, xfer)
}

/// Two vtime actors handing one value back and forth through mailboxes,
/// ns per handoff.
fn vtime_handoff() -> f64 {
    const ROUNDS: u64 = 20_000;
    let clock = vtime::Clock::new();
    let freeze = clock.freeze();
    let (to_b, at_b) = vtime::mailbox::<u64>(&clock);
    let (to_a, at_a) = vtime::mailbox::<u64>(&clock);
    let total = BATCHES as u64 + 1;
    let b = clock.spawn("probe-b", move |actor| {
        for _ in 0..total * ROUNDS {
            let v = at_b.recv(actor).expect("handoff to b");
            to_a.send(v).expect("handoff back to a");
        }
    });
    let a = clock.spawn("probe-a", move |actor| {
        ns_per_op(ROUNDS, || {
            to_b.send(1).expect("handoff to b");
            black_box(at_a.recv(actor).expect("handoff back to a"));
        }) / 2.0
    });
    drop(freeze);
    let ns = a.join().expect("probe actor a");
    b.join().expect("probe actor b");
    ns
}

/// Run every probe; returns `(name, value, unit)` metrics.
pub fn run() -> Vec<(&'static str, f64, &'static str)> {
    let rt = StdRuntime::shared();
    let (header_ns, part_ns) = gtm_codec();
    let (shm_64k, shm_64b) = shm_xfer(&rt);
    let (tcp_rtt, tcp_32k) = tcp_probe(&rt);
    vec![
        ("gtm.header_ns", header_ns, "ns"),
        ("gtm.part_ns", part_ns, "ns"),
        ("pool.get_put_ns", pool_get_put(), "ns"),
        ("rt.queue_ns", rt_queue(&rt), "ns"),
        ("rt.wake_us", rt_wake(&rt), "us"),
        ("shm.xfer_us_64k", shm_64k, "us"),
        ("shm.xfer_ns_64b", shm_64b, "ns"),
        ("tcp.rtt_us_64b", tcp_rtt, "us"),
        ("tcp.xfer_us_32k", tcp_32k, "us"),
        ("vtime.handoff_ns", vtime_handoff(), "ns"),
    ]
}
