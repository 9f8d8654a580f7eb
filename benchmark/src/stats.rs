//! Robust summaries and the two `/proc` parsers the benchmark needs.
//!
//! Every cell the benchmark reports is a median over fresh-process
//! repeats, stored with `n`, `min`, `max` and the median absolute
//! deviation (MAD). With `n = 5` no percentile above the median is
//! supportable, so none is computed.

/// Median of `xs` (mean of the two middle values for even `n`; 0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median absolute deviation from the median.
pub fn mad(xs: &[f64]) -> f64 {
    let m = median(xs);
    let dev: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// One reported cell: the median of `n` repeats and their spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub mad: f64,
}

/// Summarise `xs`; `None` when there is nothing to summarise.
pub fn summarize(xs: &[f64]) -> Option<Summary> {
    if xs.is_empty() {
        return None;
    }
    Some(Summary {
        n: xs.len(),
        median: median(xs),
        min: xs.iter().copied().fold(f64::INFINITY, f64::min),
        max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        mad: mad(xs),
    })
}

/// `key:` line of `/proc/self/status` in MB (the kernel reports kB).
pub fn status_mb(status: &str, key: &str) -> Option<f64> {
    let line = status.lines().find(|l| {
        l.strip_prefix(key)
            .is_some_and(|rest| rest.starts_with(':'))
    })?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU and fault counters of `/proc/self/stat`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcStat {
    pub minor_faults: u64,
    pub user_s: f64,
    pub sys_s: f64,
}

/// Parse one `/proc/<pid>/stat` line. The command name (field 2) may hold
/// spaces and parentheses, so fields are counted from the last `)`.
/// Times are in clock ticks; Linux fixes `USER_HZ` at 100.
pub fn parse_stat(stat: &str) -> Option<ProcStat> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state): minflt is field 10, utime 14, stime 15.
    let field = |n: usize| f.get(n - 3)?.parse::<u64>().ok();
    Some(ProcStat {
        minor_faults: field(10)?,
        user_s: field(14)? as f64 / 100.0,
        sys_s: field(15)? as f64 / 100.0,
    })
}

/// `(VmHWM, VmRSS)` of this process in MB; zeros where `/proc` is missing.
pub fn memory_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    (
        status_mb(&status, "VmHWM").unwrap_or(0.0),
        status_mb(&status, "VmRSS").unwrap_or(0.0),
    )
}

/// CPU seconds and minor faults of this process so far.
pub fn proc_stat() -> Option<ProcStat> {
    parse_stat(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad_on_odd_even_and_constant_inputs() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0]), 1.0);
        assert_eq!(mad(&[7.0; 5]), 0.0);
        let s = summarize(&[5.0, 1.0, 3.0]).expect("non-empty");
        assert_eq!(
            (s.n, s.median, s.min, s.max, s.mad),
            (3, 3.0, 1.0, 5.0, 2.0)
        );
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn status_parser_reads_the_exact_key() {
        let text = "Name:\tvoxel\nVmPeak:\t  999999 kB\nVmHWM:\t  977920 kB\nVmRSS:\t    2048 kB\n";
        assert_eq!(status_mb(text, "VmHWM"), Some(955.0));
        assert_eq!(status_mb(text, "VmRSS"), Some(2.0));
        assert_eq!(status_mb(text, "Vm"), None);
        assert_eq!(status_mb(text, "VmSwap"), None);
    }

    #[test]
    fn stat_parser_survives_a_hostile_command_name() {
        let line = "4242 (vox el) bench) R 1 4242 4242 0 -1 4194304 \
                    31337 0 2 0 1050 73 0 0 20 0 3 0 123456 1000000 250 \
                    18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        let s = parse_stat(line).expect("parses");
        assert_eq!(s.minor_faults, 31337);
        assert_eq!(s.user_s, 10.5);
        assert_eq!(s.sys_s, 0.73);
        assert!(parse_stat("no parenthesis here").is_none());
    }
}
