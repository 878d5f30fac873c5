//! Gateway benchmark.
//!
//! `gwbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]`
//!
//! Drives a 3-node cluster of clusters through one gateway with the
//! public session API and prints human-readable lines followed by one JSON
//! object (the last line) with `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones,
//! measured with no tracing; with `--trace 1` they are the per-layer ones,
//! from an untraced, a traced and a gauged pass of a third of the time
//! each plus the isolated layer probes. `NOTES.md` explains the workloads
//! and metrics.

mod pass;
mod probes;
mod real;
mod sim;
mod spans;
mod stats;

use std::path::PathBuf;
use std::time::Duration;

use madeleine::gateway::GatewayConfig;

use crate::pass::{Block, Mode, Pass};
use crate::real::{Kind, Payloads};
use crate::stats::{cpus_allowed, median, peak_rss_mib};

/// Measured sessions an untraced real-thread run is split into, each
/// preceded by setup-only sessions. Set-up time moves with the host's load,
/// which shifts every few seconds; ten points in time give its median more
/// than one load to sample.
const SESSIONS: usize = 10;
const SETUP_PER_SESSION: usize = 10;
/// Spans written per application thread at the end of a traced run.
const SPAN_FILE_CAP: usize = 50_000;
/// The process gives up (and reports failure) after this long, so a
/// wedged session cannot outlive the run's time limit.
const HARD_LIMIT: Duration = Duration::from_secs(170);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Real(Kind),
    SimPaper,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "bulk_shm" => Workload::Real(Kind::BulkShm),
            "rpc_shm" => Workload::Real(Kind::RpcShm),
            "rpc_tcp" => Workload::Real(Kind::RpcTcp),
            "sim_paper" => Workload::SimPaper,
            _ => return None,
        })
    }
}

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => out = Some(PathBuf::from(val)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: Workload::parse(&name).ok_or_else(|| {
            format!("unknown workload {name}: bulk_shm, rpc_shm, rpc_tcp or sim_paper")
        })?,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

type Metric = (&'static str, f64, &'static str);

struct Outcome {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn absorb(&mut self, p: &Pass) {
        self.attempted += p.attempted;
        self.failed += p.failed;
        self.failures.extend(p.failures.iter().cloned());
    }
}

/// `--trace 0`: the end-to-end metrics, no tracing anywhere.
///
/// A run's measured window — the sessions of a real-thread workload, the
/// sweeps of the modeled one — is cut into blocks tens of milliseconds
/// long, and each throughput or latency metric is taken over the blocks
/// by [`pass::end_to_end`]. The setup time is the median of samples spread
/// over the whole run. Peak RSS is read after the first measured session:
/// each later session raised it by an amount that varied from run to run
/// (NOTES.md), a cost of restarting sessions that no user of one session
/// pays.
fn end_to_end(args: &Args) -> Outcome {
    let (passes, setup, rss) = match args.workload {
        Workload::Real(kind) => {
            let mut setup = Vec::new();
            let mut passes = Vec::new();
            let mut rss = None;
            let payloads = Payloads::new(kind, args.seed);
            for _ in 0..SESSIONS {
                setup.extend((0..SETUP_PER_SESSION).map(|_| real::setup_only(kind)));
                let p = real::run(
                    kind,
                    &payloads,
                    args.seconds / SESSIONS as f64,
                    Mode::Plain,
                    None,
                );
                setup.extend(p.setup_s.iter().copied());
                passes.push(p);
                rss.get_or_insert_with(peak_rss_mib);
            }
            (passes, setup, rss.unwrap_or_default())
        }
        Workload::SimPaper => {
            let (passes, figs) = sim::run(args.seed, args.seconds, Mode::Plain);
            print_figures(&figs);
            let setup = passes
                .iter()
                .flat_map(|p| p.setup_s.iter().copied())
                .collect();
            (passes, setup, peak_rss_mib())
        }
    };
    let mut o = Outcome {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        metrics: vec![
            ("setup_s", median(&setup), "s"),
            ("peak_rss_mib", rss, "MiB"),
        ],
    };
    for p in &passes {
        o.absorb(p);
    }
    // The modeled workload's first sweep is its warm-up.
    let timed = match args.workload {
        Workload::Real(_) => &passes[..],
        Workload::SimPaper => &passes[1..],
    };
    let blocks: Vec<&Block> = timed.iter().flat_map(|p| &p.blocks).collect();
    let ops: u64 = timed.iter().map(Pass::ops).sum();
    println!(
        "measured: {} sessions or sweeps, {ops} operations in {} blocks, {} setup samples",
        timed.len(),
        blocks.len(),
        setup.len()
    );
    o.metrics.extend(pass::end_to_end(&blocks));
    o
}

fn print_figures(f: &sim::Figures) {
    println!(
        "modeled: fig6 geomean {:.3} MB/s, fig7 geomean {:.3} MB/s, small-message latency {:.3} us, \
         drift {:.1} ppm, {} cells differ from results/",
        f.fig6_mb_s,
        f.fig7_mb_s,
        f.model_lat_us,
        f.drift_ppm,
        f.csv_mismatch.len()
    );
    for m in &f.csv_mismatch {
        println!("modeled: {m}");
    }
}

/// `--trace 1`: the per-layer metrics. An untraced pass gives the
/// counters and the reference for the overheads, a traced pass the spans,
/// a gauged pass the gateway's busy time; then the probes run.
fn per_layer(args: &Args) -> Outcome {
    let third = args.seconds / 3.0;
    let run = |mode| match args.workload {
        Workload::Real(kind) => real::run(kind, &Payloads::new(kind, args.seed), third, mode, None),
        Workload::SimPaper => sim::run(args.seed, third, mode).0.swap_remove(1),
    };
    let plain = run(Mode::Plain);
    let traced = run(Mode::Spans);
    let gauged = run(Mode::Gauges);
    let overhead = |p: &Pass| 100.0 * (p.sec_per_op() / plain.sec_per_op() - 1.0);
    let coverage = traced.coverage();
    println!(
        "trace: leaf spans cover {:.2}% of the application threads' wall time ({:.2}% uncovered); \
         tracing overhead {:.2}% per operation, metrics-plane overhead {:.2}%",
        100.0 * coverage,
        100.0 * (1.0 - coverage),
        overhead(&traced),
        overhead(&gauged),
    );
    if let Some(dir) = &args.out {
        let path = dir.join(format!("spans-{}.csv", args.name));
        match std::fs::create_dir_all(dir)
            .and_then(|_| spans::write_csv(&path, &traced.spans, SPAN_FILE_CAP))
        {
            Ok(()) => println!("trace: spans written to {}", path.display()),
            Err(e) => println!("trace: could not write {}: {e}", path.display()),
        }
    }
    let mut metrics = plain.counter_metrics();
    metrics.extend(traced.span_metrics());
    metrics.extend(gauged.gauge_metrics());
    metrics.push(("trace.overhead_pct", overhead(&traced), "%"));
    metrics.push(("metrics.overhead_pct", overhead(&gauged), "%"));
    metrics.extend(probes::run());
    // One modeled sweep (after its warm-up sweep) times the simulator
    // layers and yields the modeled figures.
    let (sweeps, figs) = sim::run(args.seed, 0.0, Mode::Plain);
    print_figures(&figs);
    metrics.extend([
        ("sim.wall_ms_per_run", figs.wall_ms_per_run, "ms"),
        ("sim.actors", figs.actors as f64, "count"),
        ("sim.fig6_mb_s", figs.fig6_mb_s, "MB/s"),
        ("sim.fig7_mb_s", figs.fig7_mb_s, "MB/s"),
        ("sim.model_lat_us", figs.model_lat_us, "us"),
        ("sim.drift_ppm", figs.drift_ppm, "ppm"),
        ("sim.csv_mismatch", figs.csv_mismatch.len() as f64, "count"),
    ]);
    let mut o = Outcome {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        metrics,
    };
    for p in [&plain, &traced, &gauged].into_iter().chain(&sweeps) {
        o.absorb(p);
    }
    // Spans that leave more than a tenth of the application threads' time
    // unexplained are no breakdown of it.
    if matches!(args.workload, Workload::Real(_)) && coverage < 0.9 {
        o.failed += 1;
        o.failures.push(format!(
            "leaf spans cover only {:.2}% of the wall time",
            100.0 * coverage
        ));
    }
    o
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gwbench: {e}");
            std::process::exit(2);
        }
    };
    // Every measurement is of the library's default engine.
    if std::env::var_os("MAD_ENGINE").is_some() {
        eprintln!("gwbench: MAD_ENGINE is set; unset it so the library default is measured");
        std::process::exit(2);
    }
    std::thread::spawn(|| {
        std::thread::sleep(HARD_LIMIT);
        eprintln!("gwbench: run exceeded {HARD_LIMIT:?}; a session is wedged");
        std::process::exit(3);
    });
    println!(
        "gwbench: workload {} seed {} seconds {} trace {} | engine {:?} | cpus allowed {}",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        GatewayConfig::default().engine,
        cpus_allowed(),
    );
    let o = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    print!("{}", o.render());
}

impl Outcome {
    /// The human-readable lines, then the JSON result as the last line. A
    /// run with any failed operation is not `correct`, whatever it measured.
    fn render(&self) -> String {
        let mut text = String::new();
        for f in &self.failures {
            text += &format!("failure: {f}\n");
        }
        let attempted = self.attempted.max(1);
        text += &format!(
            "fail_frac = {} ({} of {attempted} operations failed)\n",
            self.failed as f64 / attempted as f64,
            self.failed
        );
        let mut fields = Vec::new();
        for (name, value, unit) in &self.metrics {
            text += &format!("{name} = {value} {unit}\n");
            let value = if value.is_finite() { *value } else { 0.0 };
            fields.push(format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            ));
        }
        text += &format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.failed == 0,
            self.failed,
            fields.join(", ")
        );
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(pass: &Pass) -> Outcome {
        let mut o = Outcome {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: pass::end_to_end(&pass.blocks.iter().collect::<Vec<_>>()),
        };
        o.absorb(pass);
        o
    }

    /// One flipped byte in one delivered message must surface as a failed
    /// operation and an incorrect result, not as a clean measurement.
    #[test]
    fn corrupted_byte_is_a_failure() {
        for kind in [Kind::BulkShm, Kind::RpcShm] {
            let payloads = Payloads::new(kind, 7);
            let clean = outcome(&real::run(kind, &payloads, 0.05, Mode::Plain, None));
            assert_eq!(clean.failed, 0, "{kind:?}: {:?}", clean.failures);
            let text = clean.render();
            let last = text.lines().last().expect("a result line");
            assert!(last.starts_with("{\"correct\": true,"), "{last}");
            assert!(last.contains("\"failed\": 0,"), "{last}");

            let bad = outcome(&real::run(kind, &payloads, 0.05, Mode::Plain, Some(20)));
            assert_eq!(bad.failed, 1, "{kind:?}: {:?}", bad.failures);
            assert!(bad.failures[0].contains("differs from the seeded payload"));
            let json = bad.render();
            let last = json.lines().last().expect("a result line");
            assert!(last.starts_with("{\"correct\": false,"), "{last}");
            assert!(last.contains("\"failed\": 1,"), "{last}");
            assert!(json.contains(&format!("fail_frac = {}", 1.0 / bad.attempted as f64)));
        }
    }

    #[test]
    fn modeled_sweep_verifies_and_repeats_fig6() {
        let (sweeps, figs) = sim::run(3, 0.0, Mode::Plain);
        assert_eq!(sweeps.len(), 2);
        for s in &sweeps {
            assert_eq!(s.failed, 0, "{:?}", s.failures);
        }
        assert!(figs.fig6_mb_s > 0.0 && figs.model_lat_us > 0.0);
        assert!(
            !figs.csv_mismatch.iter().any(|m| m.starts_with("fig6")),
            "{:?}",
            figs.csv_mismatch
        );
    }
}
