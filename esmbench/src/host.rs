//! What the host is and what the process costs: core count, last-level
//! cache, file-system type, CPU time, resident high-water mark, commit,
//! and a single-thread STREAM triad as the bandwidth yardstick.

use std::path::Path;
use std::time::Instant;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Pin the rayon pool width. A width above `nproc` is refused: a scaling
/// number only counts when the host has at least that many threads.
pub fn set_pool_width(width: usize) -> Result<(), String> {
    let cores = nproc();
    if width == 0 || width > cores {
        return Err(format!(
            "pool width {width} refused: host has {cores} threads"
        ));
    }
    rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build_global()
        .map_err(|e| e.to_string())
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    _rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User + system CPU seconds of the whole process, all threads.
pub fn process_cpu_s() -> f64 {
    let mut ru = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        _rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable value laid out as the 64-bit Linux
    // `struct rusage` (two `struct timeval` of two 64-bit fields, then
    // fourteen `long`s), so the kernel writes entirely inside it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
    );
    let tv = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    tv(&ru.ru_utime) + tv(&ru.ru_stime)
}

/// Resident high-water mark (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Size in MiB of the largest (last-level) cache of cpu0, from sysfs.
pub fn llc_mb() -> f64 {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let Ok(entries) = std::fs::read_dir(base) else {
        return 0.0;
    };
    let mut best: Option<(u32, f64)> = None;
    for e in entries.flatten() {
        let p = e.path();
        let level = std::fs::read_to_string(p.join("level"))
            .ok()
            .and_then(|s| s.trim().parse::<u32>().ok());
        let size = std::fs::read_to_string(p.join("size"))
            .ok()
            .and_then(|s| parse_cache_size(s.trim()));
        if let (Some(level), Some(mb)) = (level, size) {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, mb));
            }
        }
    }
    best.map(|(_, mb)| mb).unwrap_or(0.0)
}

fn parse_cache_size(s: &str) -> Option<f64> {
    let (num, scale) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1.0 / 1024.0),
        b'M' => (&s[..s.len() - 1], 1.0),
        b'G' => (&s[..s.len() - 1], 1024.0),
        _ => (s, 1.0 / (1024.0 * 1024.0)),
    };
    num.parse::<f64>().ok().map(|v| v * scale)
}

/// File-system type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // `id parent major:minor root mount-point options... - fstype src opts`
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(dash) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(dash + 1)) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map(|(_, t)| t).unwrap_or_else(|| "unknown".into())
}

/// Commit of the checkout, read from `.git` without running git; the
/// benchmark may run in an export that has no `.git`.
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Single-thread STREAM triad `a = b + s*c`.
pub struct Triad {
    /// Best bandwidth over the passes, GB/s (10^9 bytes), counting 24
    /// bytes per element as STREAM does.
    pub gbs: f64,
    /// Combined size of the three arrays, MiB.
    pub arrays_mb: f64,
}

/// Run the triad over three arrays that together hold at least
/// `4 * llc_mb`, so every pass streams from memory.
pub fn triad(llc_mb: f64) -> Triad {
    let total_bytes = (4.0 * llc_mb.max(8.0) * 1024.0 * 1024.0) as usize;
    let n = total_bytes / 24;
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let s = std::hint::black_box(3.0);
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + s * c;
        }
        std::hint::black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    assert!(a.iter().step_by(4096).all(|&v| v == 7.0), "triad result");
    Triad {
        gbs: 24.0 * n as f64 / best / 1e9,
        arrays_mb: 24.0 * n as f64 / (1024.0 * 1024.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse_with_sysfs_suffixes() {
        assert_eq!(parse_cache_size("107520K"), Some(105.0));
        assert_eq!(parse_cache_size("32M"), Some(32.0));
        assert_eq!(parse_cache_size("x"), None);
    }
}
