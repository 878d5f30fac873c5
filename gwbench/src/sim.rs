//! The modeled workload: the paper's fig. 6 (SCI → Myrinet) and fig. 7
//! (Myrinet → SCI) forwarding sweeps plus one small forwarded message, on
//! the simulated testbed (`mad-sim` drivers over `simnet`, `vtime` clock).
//!
//! The modeled figures are meant to come out the same on every run; the
//! workload reports how far they drift between sweeps and how many grid
//! cells disagree with the committed figure CSVs. Every delivered payload
//! is verified byte for byte. The wall-clock cost of producing the figures
//! is what the end-to-end metrics time.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use mad_sim::{SimTech, Testbed};
use mad_util::rng::Rng;
use madeleine::gateway::GatewayConfig;
use madeleine::metrics_plane::MetricsOptions;
use madeleine::session::VcOptions;
use madeleine::{MadError, NodeId, RecvMode, Runtime, SendMode, SessionBuilder};
use simnet::calibration;

use crate::pass::{Block, Mode, Pass};
use crate::spans::{self, Recorder, Span};
use crate::stats::{geomean, median};

const KIB: usize = 1024;
const MIB: usize = 1 << 20;
/// The grid: message sizes × packet sizes, each direction. The committed
/// CSVs label these rows and columns as below.
const MESSAGES: [(usize, &str); 3] = [(256 * KIB, "256KB"), (MIB, "1MB"), (4 * MIB, "4MB")];
const PACKETS: [(usize, &str); 3] = [(8 * KIB, "8KB"), (32 * KIB, "32KB"), (128 * KIB, "128KB")];
/// The small forwarded message whose one-way time is the modeled latency.
const SMALL: usize = 64;

const FIG6_CSV: &str = include_str!("../../results/fig6_sci_to_myri.csv");
const FIG7_CSV: &str = include_str!("../../results/fig7_myri_to_sci.csv");

/// One point of the sweep.
#[derive(Debug, Clone, Copy)]
struct Point {
    fig: u8,
    from: SimTech,
    to: SimTech,
    len: usize,
    mtu: usize,
    /// Committed `(row, column)` of the figure CSV, if the point has one.
    label: Option<(&'static str, &'static str)>,
}

fn sweep() -> Vec<Point> {
    let mut pts = Vec::new();
    for (fig, from, to) in [
        (6, SimTech::Sci, SimTech::Myrinet),
        (7, SimTech::Myrinet, SimTech::Sci),
    ] {
        for (len, row) in MESSAGES {
            for (mtu, col) in PACKETS {
                pts.push(Point {
                    fig,
                    from,
                    to,
                    len,
                    mtu,
                    label: Some((row, col)),
                });
            }
        }
    }
    pts.push(Point {
        fig: 0,
        from: SimTech::Sci,
        to: SimTech::Myrinet,
        len: SMALL,
        mtu: calibration::CROSSOVER_PACKET,
        label: None,
    });
    pts
}

/// The committed value of a figure cell, as printed (one decimal).
fn committed(fig: u8, row: &str, col: &str) -> Option<String> {
    let csv = if fig == 6 { FIG6_CSV } else { FIG7_CSV };
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next()?.split(',').collect();
    let ci = header.iter().position(|h| *h == col)?;
    lines
        .map(|l| l.split(',').collect::<Vec<_>>())
        .find(|cells| cells.first() == Some(&row))
        .and_then(|cells| cells.get(ci).map(|c| c.to_string()))
}

/// Result of one modeled transfer.
struct Run {
    modeled_ns: u64,
    setup_s: f64,
    verified: bool,
    spans: Vec<Vec<Span>>,
}

/// One modeled one-way transfer, rank 0 → gateway 1 → rank 2, with the
/// paper's gateway set-up (calibrated buffer-switch cost, route MTU =
/// packet size, no flow control). Gateway and pool counters go to `pass`.
fn modeled_run(
    pt: &Point,
    payload: &Arc<Vec<u8>>,
    mode: Mode,
    epoch: Instant,
    msg: u64,
    pass: &mut Pass,
) -> Run {
    let t0 = Instant::now();
    let tb = Testbed::new(3);
    let rt = tb.runtime();
    let mut sb = SessionBuilder::new(3).with_runtime(rt.clone());
    let n_in = sb.network("net-in", tb.driver(pt.from), &[0, 1]);
    let n_out = sb.network("net-out", tb.driver(pt.to), &[1, 2]);
    sb.vchannel(
        "vc",
        &[n_in, n_out],
        VcOptions {
            mtu: Some(pt.mtu),
            gateway: GatewayConfig {
                switch_overhead_ns: calibration::gateway_switch_overhead().as_nanos(),
                ..Default::default()
            },
            metrics: (mode == Mode::Gauges).then(|| MetricsOptions {
                watchdog: None,
                ..Default::default()
            }),
            ..Default::default()
        },
    );
    let len = pt.len;
    let payload = payload.clone();
    let (outs, gw) = sb.run_with_gateway_stats(move |node| {
        let vc = node.vchannel("vc");
        let rt = node.runtime().clone();
        node.barrier().wait();
        let ready = t0.elapsed().as_secs_f64();
        let mut rec = Recorder::new(mode == Mode::Spans, epoch);
        let data = &payload[..len];
        let res = match node.rank().0 {
            0 => (|| {
                let stamp = rt.now_nanos();
                let op = rec.open(msg);
                let mut w = rec.leaf(spans::PACK_BEGIN, op, msg, 0, || {
                    vc.begin_packing(NodeId(2))
                })?;
                rec.leaf(spans::PACK_PACK, op, msg, len as u64, || {
                    w.pack(data, SendMode::Later, RecvMode::Cheaper)
                })?;
                rec.leaf(spans::PACK_END, op, msg, len as u64, || w.end_packing())?;
                rec.close(op, len as u64);
                Ok::<_, MadError>((stamp, true))
            })(),
            2 => (|| {
                let mut buf = vec![0u8; len];
                let op = rec.open(msg);
                let mut r = rec.leaf(spans::UNPACK_BEGIN, op, msg, 0, || vc.begin_unpacking())?;
                rec.leaf(spans::UNPACK_COPY, op, msg, len as u64, || {
                    r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                })?;
                rec.leaf(spans::UNPACK_END, op, msg, 0, || r.end_unpacking())?;
                let stamp = rt.now_nanos();
                let ok = rec.leaf(spans::APP, op, msg, 0, || buf == data);
                rec.close(op, len as u64);
                Ok((stamp, ok))
            })(),
            _ => Ok((0, true)),
        };
        (ready, res, rec.spans)
    });
    for (_, _, st) in &gw {
        pass.add_gateway(
            &st.totals(),
            st.recv_busy_ns.load(std::sync::atomic::Ordering::Relaxed),
            st.flush_busy_ns.load(std::sync::atomic::Ordering::Relaxed),
        );
    }
    let stats = rt.pool().stats();
    let end = &mut pass.pool_end;
    end.gets += stats.gets;
    end.hits += stats.hits;
    end.misses += stats.misses;
    end.recycled += stats.recycled;
    end.discarded += stats.discarded;
    pass.session_threads = pass.session_threads.max(rt.threads_spawned());

    let setup_s = outs.iter().map(|o| o.0).fold(0.0, f64::max);
    let mut outs = outs;
    let spans = vec![
        std::mem::take(&mut outs[0].2),
        std::mem::take(&mut outs[2].2),
    ];
    match (&outs[0].1, &outs[2].1) {
        (Ok((sent, _)), Ok((got, ok))) => Run {
            modeled_ns: got.saturating_sub(*sent),
            setup_s,
            verified: *ok,
            spans,
        },
        (a, b) => {
            let err = a.as_ref().err().or(b.as_ref().err());
            pass.fail(format!("modeled run {pt:?}: {err:?}"));
            Run {
                modeled_ns: 0,
                setup_s,
                verified: true,
                spans,
            }
        }
    }
}

/// The modeled figures of one sweep.
#[derive(Debug, Default, Clone)]
pub struct Figures {
    /// Geometric mean of the modeled MB/s over each direction's grid.
    pub fig6_mb_s: f64,
    pub fig7_mb_s: f64,
    /// Modeled one-way time of the small forwarded message.
    pub model_lat_us: f64,
    /// Wall milliseconds per modeled run (median) and the threads (vtime
    /// actors) one run spawns.
    pub wall_ms_per_run: f64,
    pub actors: u64,
    /// Largest change of a point's modeled time between sweeps of one run,
    /// in parts per million. Modeled time is meant to repeat exactly; this
    /// shows where same-instant scheduling races leak into it.
    pub drift_ppm: f64,
    /// Grid cells whose modeled MB/s, printed to one decimal like the
    /// committed `results/` figure CSVs, differs from the CSV.
    pub csv_mismatch: Vec<String>,
}

/// Run sweeps for about `seconds`, at least two. Returns one pass per
/// sweep; the first is the warm-up, whose modeled times give the figures
/// and are the reference the later sweeps are compared with for drift.
pub fn run(seed: u64, seconds: f64, mode: Mode) -> (Vec<Pass>, Figures) {
    let mut payload = vec![0u8; MESSAGES[MESSAGES.len() - 1].0];
    Rng::new(seed).fill_bytes(&mut payload);
    let payload = Arc::new(payload);
    let points = sweep();
    let mut first: Vec<u64> = Vec::new();
    let mut by_fig: BTreeMap<u8, Vec<f64>> = BTreeMap::new();
    let mut figs = Figures::default();
    let mut rounds: Vec<Pass> = Vec::new();
    let start = Instant::now();
    for round in 0.. {
        if round >= 2 && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let mut pass = Pass::default();
        let mut block = Block::default();
        let epoch = Instant::now();
        let mut modeled_total = 0u64;
        for (i, pt) in points.iter().enumerate() {
            let w0 = Instant::now();
            let run = modeled_run(pt, &payload, mode, epoch, i as u64, &mut pass);
            let wall_us = w0.elapsed().as_secs_f64() * 1e6;
            modeled_total += run.modeled_ns;
            pass.attempted += 1;
            block.ops += 1;
            block.bytes += pt.len as u64;
            block.lat_us.push(wall_us);
            pass.setup_s.push(run.setup_s);
            for (t, s) in run.spans.into_iter().enumerate() {
                if pass.spans.len() <= t {
                    pass.spans.push(Vec::new());
                }
                pass.spans[t].extend(s);
            }
            if !run.verified {
                pass.fail(format!(
                    "modeled run {pt:?}: delivered bytes differ from the seeded payload"
                ));
            }
            if round > 0 {
                let drift = run.modeled_ns.abs_diff(first[i]) as f64 / first[i].max(1) as f64;
                figs.drift_ppm = figs.drift_ppm.max(drift * 1e6);
                continue;
            }
            first.push(run.modeled_ns);
            let mb_s = pt.len as f64 / (run.modeled_ns as f64 / 1e9) / 1e6;
            match pt.label {
                Some((row, col)) => {
                    let want = committed(pt.fig, row, col);
                    let got = format!("{mb_s:.1}");
                    if want.as_deref() != Some(got.as_str()) {
                        figs.csv_mismatch.push(format!(
                            "fig{} {row}/{col}: {got} MB/s modeled, {} in results/",
                            pt.fig,
                            want.as_deref().unwrap_or("nothing")
                        ));
                    }
                    by_fig.entry(pt.fig).or_default().push(mb_s);
                }
                None => figs.model_lat_us = run.modeled_ns as f64 / 1e3,
            }
        }
        block.secs = epoch.elapsed().as_secs_f64();
        pass.blocks.push(block);
        // The gateway's busy gauges read the modeled clock here.
        pass.session_ns = modeled_total;
        pass.check_gateway();
        rounds.push(pass);
    }
    figs.fig6_mb_s = geomean(&by_fig.get(&6).cloned().unwrap_or_default());
    figs.fig7_mb_s = geomean(&by_fig.get(&7).cloned().unwrap_or_default());
    let timed: Vec<f64> = rounds[1..]
        .iter()
        .flat_map(|p| &p.blocks)
        .flat_map(|b| b.lat_us.iter().copied())
        .collect();
    figs.wall_ms_per_run = median(&timed) / 1e3;
    figs.actors = rounds[0].session_threads;
    (rounds, figs)
}
