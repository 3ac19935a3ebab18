//! Host-memory counters read from `/proc/self`. Each returns `None` where
//! `/proc` is missing or unreadable, so callers report "unavailable"
//! instead of a false 0.

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Minor page faults this process has taken so far.
pub fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; fields resume after its
    // closing parenthesis, starting with field 3 (state). `minflt` is 10.
    let rest = stat.get(stat.rfind(')')? + 1..)?;
    rest.split_whitespace().nth(7)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_read_where_proc_exists() {
        if std::path::Path::new("/proc/self/stat").exists() {
            let before = minor_faults().expect("minflt parses");
            let v = vec![1u8; 8 << 20];
            std::hint::black_box(&v);
            assert!(minor_faults().expect("minflt parses") > before);
            assert!(peak_rss_mb().expect("VmHWM parses") >= 8.0);
        }
    }
}
