//! The benchmark's own arithmetic: percentiles, quartile spread, and the
//! `/proc` readings for CPU time and peak memory.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it. `0.0` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match rank(sorted.len(), p) {
        0 => 0.0,
        r => sorted[r - 1],
    }
}

/// One-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

/// Whether percentile `p` of `n` samples has at least ten samples beyond
/// it — the rule for the highest percentile a timing may be reported at
/// (p90 needs 100 samples).
pub fn has_ten_beyond(n: usize, p: f64) -> bool {
    n - rank(n, p) >= 10
}

/// Sorts a copy ascending; timing samples are always finite.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples when the count is even).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the default "exclusive" method), which is what the driver
/// that accepts this benchmark computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux has
/// reported 100 to user space on every architecture since 2.6.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/<pid>/stat`, summed
/// over every thread of the process, live or exited. The command name in
/// field 2 may hold spaces and parentheses, so fields are counted from the
/// last `)`.
pub fn parse_stat_cpu_secs(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace();
    // After the command name come state (3) … utime (14), stime (15).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / CLK_TCK)
}

/// CPU seconds this process has used so far.
pub fn process_cpu_secs() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_secs(&s))
        .expect("/proc/self/stat is readable and well-formed on Linux")
}

/// Peak resident set size in MiB from the text of `/proc/<pid>/status`.
pub fn parse_status_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set size of this process so far, in MiB.
pub fn process_peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_hwm_mib(&s))
        .expect("/proc/self/status has a VmHWM line on Linux")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert!(has_ten_beyond(100, 90.0));
        assert!(!has_ten_beyond(99, 90.0));
        assert!(has_ten_beyond(20, 50.0));
        assert!(!has_ten_beyond(19, 50.0));
        assert!(!has_ten_beyond(100, 99.0));
        assert!(!has_ten_beyond(0, 50.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
    }

    #[test]
    fn stat_parsing_survives_hostile_command_names() {
        let stat = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    1234 66 0 0 20 0 3 0 100 1000 50 18446744073709551615";
        assert_eq!(parse_stat_cpu_secs(stat), Some(13.0));
        assert_eq!(parse_stat_cpu_secs("no parenthesis"), None);
        assert_eq!(parse_stat_cpu_secs("1 (x) R 1 2"), None);
        assert!(process_cpu_secs() >= 0.0);
    }

    #[test]
    fn status_parsing_reads_the_high_water_mark() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_status_hwm_mib(status), Some(2.0));
        assert_eq!(parse_status_hwm_mib("Name:\tx\n"), None);
        assert!(process_peak_rss_mib() > 0.0);
    }
}
