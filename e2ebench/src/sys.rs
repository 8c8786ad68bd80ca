//! Process and machine facts from `/proc`.

use std::path::Path;

/// Resets the peak-RSS high-water mark (`VmHWM`) to the current RSS.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// `VmHWM` in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

fn status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Bytes this process has passed to `write` and friends so far
/// (`wchar` of `/proc/self/io`).
pub fn wchar() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|io| {
            io.lines()
                .find_map(|l| l.strip_prefix("wchar:").map(|v| v.trim().parse().ok()))
                .flatten()
        })
        .unwrap_or(0)
}

/// Filesystem type of the mount holding `path`, from mountinfo.
fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}

fn first_line(path: &str, key: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .map(|l| l.split_once(':').map_or(l, |(_, v)| v).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The machine fingerprint every result carries: cores, CPU model,
/// kernel, compiler, and the data directory's filesystem.
pub fn fingerprint(data_dir: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    format!(
        "nproc={nproc} cpu=\"{}\" kernel={kernel} rustc=\"{rustc}\" data_fs={}",
        first_line("/proc/cpuinfo", "model name"),
        fs_type(data_dir)
    )
}
