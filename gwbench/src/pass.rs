//! What one measured pass of a workload yields, and the metrics derived
//! from it. Both the real-thread and the modeled workloads fill a [`Pass`].

use mad_util::pool::PoolStats;
use madeleine::gateway::GatewayTotals;

use crate::spans::{self, Span};
use crate::stats::{percentile, ratio};

/// What a pass records besides its counters. Spans and the gateway's busy
/// gauges are taken in separate passes: the gauges need the metrics plane
/// (`VcOptions::metrics`), whose cost would otherwise pass for the cost of
/// the spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Plain,
    Spans,
    Gauges,
}

/// A stretch of consecutive operations, tens of milliseconds long, whose
/// rates and latency percentiles are taken together.
#[derive(Debug, Clone, Default)]
pub struct Block {
    pub ops: u64,
    /// Verified payload bytes the block's operations delivered.
    pub bytes: u64,
    pub secs: f64,
    /// Wall latency of each operation, in microseconds.
    pub lat_us: Vec<f64>,
}

impl Block {
    /// The block's end-to-end figures as `(name, value, unit, lower is
    /// better)`.
    fn figures(&self) -> [(&'static str, f64, &'static str, bool); 4] {
        [
            ("mb_s", self.bytes as f64 / self.secs / 1e6, "MB/s", false),
            ("msgs_s", self.ops as f64 / self.secs, "1/s", false),
            ("lat_p50_us", percentile(&self.lat_us, 0.50), "us", true),
            ("lat_p90_us", percentile(&self.lat_us, 0.90), "us", true),
        ]
    }
}

/// Share of blocks a reported figure is allowed to beat: the figure is the
/// block value at this quantile from the good end (the fast end of
/// latencies, the high end of rates). Other tenants of the host slow this
/// one down in episodes that last seconds and can cover most of a run;
/// nothing outside the process makes it faster, so the fast end repeats
/// where the median follows the episodes (NOTES.md).
const GOOD_END: f64 = 0.05;

/// The end-to-end figures over `blocks`: each is the [`GOOD_END`] quantile
/// of the per-block values, taken from the good end.
pub fn end_to_end(blocks: &[&Block]) -> Vec<(&'static str, f64, &'static str)> {
    let per_block: Vec<_> = blocks.iter().map(|b| b.figures()).collect();
    let Some(first) = per_block.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, &(name, _, unit, lower))| {
            let values: Vec<f64> = per_block.iter().map(|f| f[i].1).collect();
            let q = if lower { GOOD_END } else { 1.0 - GOOD_END };
            (name, percentile(&values, q), unit)
        })
        .collect()
}

/// Results of one pass.
#[derive(Debug, Default)]
pub struct Pass {
    /// Operations tried (messages, round trips or modeled runs), warm-up
    /// included, and how many of them failed: an API error, a payload byte
    /// that differs from the seeded one, a wrong count, or a gateway error,
    /// cancellation or credit timeout.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// The measured window, warm-up excluded, cut into blocks.
    pub blocks: Vec<Block>,
    /// Seconds from `SessionBuilder::new` until every node passed the
    /// first barrier, one sample per session of the pass.
    pub setup_s: Vec<f64>,
    /// Forwarding counters of the gateway, summed over the pass's sessions.
    pub gw: GatewayTotals,
    pub gw_recv_busy_ns: u64,
    pub gw_flush_busy_ns: u64,
    /// Wall nanoseconds the pass's sessions existed (the busy-time base).
    pub session_ns: u64,
    /// Buffer-pool counters at the end of warm-up and at the end.
    pub pool_warm: PoolStats,
    pub pool_end: PoolStats,
    /// `Runtime::threads_spawned` of one session.
    pub session_threads: u64,
    /// Context switches of all the process's threads per operation in the
    /// window.
    pub switches_per_op: f64,
    /// Spans per application thread, and the first message id inside the
    /// measured window.
    pub spans: Vec<Vec<Span>>,
    pub first_msg: u64,
}

impl Pass {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(why);
        }
    }

    /// Count the gateway's own failure counters as failed operations.
    pub fn check_gateway(&mut self) {
        let g = self.gw;
        for (what, n) in [
            ("errors", g.errors),
            ("cancelled", g.cancelled),
            ("credit_timeouts", g.credit_timeouts),
        ] {
            if n > 0 {
                self.failed += n;
                self.failures.push(format!("gateway {what} = {n}"));
            }
        }
    }

    pub fn add_gateway(&mut self, t: &GatewayTotals, recv_busy: u64, flush_busy: u64) {
        let g = &mut self.gw;
        g.messages += t.messages;
        g.fragments += t.fragments;
        g.fragment_bytes += t.fragment_bytes;
        g.stalls += t.stalls;
        g.buffer_switches += t.buffer_switches;
        g.credits_granted += t.credits_granted;
        g.cancelled += t.cancelled;
        g.credit_timeouts += t.credit_timeouts;
        g.errors += t.errors;
        g.copies_recv += t.copies_recv;
        g.copies_flush += t.copies_flush;
        g.threads_spawned = g.threads_spawned.max(t.threads_spawned);
        g.peak_held_bytes = g.peak_held_bytes.max(t.peak_held_bytes);
        self.gw_recv_busy_ns += recv_busy;
        self.gw_flush_busy_ns += flush_busy;
    }

    /// Operations in the measured window.
    pub fn ops(&self) -> u64 {
        self.blocks.iter().map(|b| b.ops).sum()
    }

    /// Mean wall seconds per operation in the window.
    pub fn sec_per_op(&self) -> f64 {
        ratio(self.blocks.iter().map(|b| b.secs).sum(), self.ops() as f64)
    }

    /// Per-layer metrics that come from the gateway, pool and scheduler
    /// counters of an untraced pass.
    pub fn counter_metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let g = &self.gw;
        let frags = g.fragments as f64;
        let msgs = g.messages as f64;
        let warm = &self.pool_warm;
        let end = &self.pool_end;
        vec![
            ("gateway.frags_per_msg", ratio(frags, msgs), "count"),
            (
                "gateway.switches_per_frag",
                ratio(g.buffer_switches as f64, frags),
                "count",
            ),
            (
                "gateway.stalls_per_msg",
                ratio(g.stalls as f64, msgs),
                "count",
            ),
            (
                "gateway.copies_per_frag",
                ratio((g.copies_recv + g.copies_flush) as f64, frags),
                "count",
            ),
            (
                "gateway.credits_per_frag",
                ratio(g.credits_granted as f64, frags),
                "count",
            ),
            (
                "gateway.peak_held_kib",
                g.peak_held_bytes as f64 / 1024.0,
                "KiB",
            ),
            ("gateway.threads", g.threads_spawned as f64, "count"),
            ("session.threads", self.session_threads as f64, "count"),
            ("rt.switches_per_op", self.switches_per_op, "count"),
            (
                "pool.miss_after_warmup",
                (end.misses - warm.misses) as f64,
                "count",
            ),
            (
                "pool.hit_ratio",
                ratio((end.hits - warm.hits) as f64, (end.gets - warm.gets) as f64),
                "ratio",
            ),
        ]
    }

    /// Per-layer metrics derived from the spans of a [`Mode::Spans`] pass.
    /// Thread 1 is the receiving application thread: the bulk receiver or
    /// the RPC echo.
    pub fn span_metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        const MIB: f64 = (1u64 << 20) as f64;
        let from = self.first_msg;
        let t = |name| spans::totals(self.spans.iter().flatten(), name, from);
        let (pb, pp, pe) = (
            t(spans::PACK_BEGIN),
            t(spans::PACK_PACK),
            t(spans::PACK_END),
        );
        let (ub, uc, ue) = (
            t(spans::UNPACK_BEGIN),
            t(spans::UNPACK_COPY),
            t(spans::UNPACK_END),
        );
        let recv = self.spans.get(1).map_or(&[][..], Vec::as_slice);
        let turn = spans::totals(recv, spans::OP, from);
        let turn_wait = spans::totals(recv, spans::UNPACK_BEGIN, from);
        let us = |ns: u64| ns as f64 / 1e3;
        vec![
            (
                "pack.call_us",
                ratio(us(pb.ns + pp.ns + pe.ns), pe.count as f64),
                "us",
            ),
            (
                "pack.end_us",
                ratio(us(pe.ns), pp.bytes as f64 / MIB),
                "us/MiB",
            ),
            ("unpack.wait_us", ratio(us(ub.ns), ub.count as f64), "us"),
            (
                "unpack.copy_us",
                ratio(us(uc.ns), uc.bytes as f64 / MIB),
                "us/MiB",
            ),
            ("unpack.end_us", ratio(us(ue.ns), ue.count as f64), "us"),
            (
                "rpc.turn_us",
                ratio(us(turn.ns.saturating_sub(turn_wait.ns)), turn.count as f64),
                "us",
            ),
            ("trace.coverage_pct", 100.0 * self.coverage(), "%"),
        ]
    }

    /// The gateway's busy time over its sessions' wall time, from the
    /// gauges of a [`Mode::Gauges`] pass.
    pub fn gauge_metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let busy = |ns: u64| 100.0 * ratio(ns as f64, self.session_ns as f64);
        vec![
            ("gateway.recv_busy_pct", busy(self.gw_recv_busy_ns), "%"),
            ("gateway.flush_busy_pct", busy(self.gw_flush_busy_ns), "%"),
        ]
    }

    /// The lowest leaf-span coverage over the application threads (0 when
    /// nothing was traced).
    pub fn coverage(&self) -> f64 {
        self.spans
            .iter()
            .filter_map(|s| spans::coverage(s, self.first_msg))
            .reduce(f64::min)
            .unwrap_or(0.0)
    }
}
