//! The host record written into every output. Absolute numbers from two
//! hosts are not comparable: per-core speed, core count and the journal's
//! filesystem all move them.

use std::path::Path;

/// What the run ran on.
#[derive(Clone, Debug)]
pub struct Host {
    /// CPUs available to this process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// The kernel release.
    pub kernel: String,
    /// Filesystem type under the journal directory.
    pub journal_fs: String,
    /// The cargo profile `flexctl` was built with.
    pub profile: String,
}

impl Host {
    /// Probes the host; `journal_dir` must exist.
    pub fn probe(journal_dir: &Path, profile: &str) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".to_owned());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel,
            journal_fs: filesystem_of(journal_dir).unwrap_or_else(|| "unknown".to_owned()),
            profile: profile.to_owned(),
        }
    }

    /// The record as one JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":{},\"kernel\":{},\"journal_fs\":{},\"flexctl_profile\":{}}}",
            self.nproc,
            quote(&self.cpu_model),
            quote(&self.kernel),
            quote(&self.journal_fs),
            quote(&self.profile)
        )
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    serde_json::to_string(&serde::Value::Str(s.to_owned())).expect("strings serialize")
}

/// The filesystem type of the deepest mount containing `dir`, from
/// `/proc/self/mountinfo`.
fn filesystem_of(dir: &Path) -> Option<String> {
    let dir = dir.canonicalize().ok()?;
    let info = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    info.lines()
        .filter_map(|line| {
            let (left, right) = line.split_once(" - ")?;
            let mount_point = left.split_whitespace().nth(4)?;
            let fs = right.split_whitespace().next()?;
            dir.starts_with(mount_point)
                .then(|| (mount_point.len(), fs.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}
