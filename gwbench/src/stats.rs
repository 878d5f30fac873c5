//! Small numeric helpers.

/// `a / b`, or 0 when `b` is 0 (a ratio over no events).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Nearest-rank percentile `q` in [0, 1]; 0 for an empty sample.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Geometric mean; 0 for an empty sample.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The CPUs this process may run on, as the kernel lists them.
pub fn cpus_allowed() -> String {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string())
}

/// Voluntary and involuntary context switches summed over the process's
/// live threads.
pub fn context_switches() -> (u64, u64) {
    let mut total = (0, 0);
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return total;
    };
    for t in tasks.flatten() {
        let status = std::fs::read_to_string(t.path().join("status")).unwrap_or_default();
        for l in status.lines() {
            let field = |p: &str| l.strip_prefix(p).and_then(|v| v.trim().parse::<u64>().ok());
            if let Some(v) = field("voluntary_ctxt_switches:") {
                total.0 += v;
            } else if let Some(v) = field("nonvoluntary_ctxt_switches:") {
                total.1 += v;
            }
        }
    }
    total
}
