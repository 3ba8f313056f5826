//! The system under test as a child process: `flexctl serve --listen
//! 127.0.0.1:0 …`, started on a journal directory, its port read from the
//! `listening on` stderr line, its stdout drained, and SIGKILLed (with
//! any shard workers it spawned) when the benchmark drops it.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::gen::{Spec, Tier};

/// How long a start-up (including restoring the book) may take.
const START_TIMEOUT: Duration = Duration::from_secs(120);
/// How long orphaned shard workers get to exit after their supervisor dies.
const WORKER_EXIT_TIMEOUT: Duration = Duration::from_secs(10);

/// The journal file inside a workload directory (the snapshot sits next
/// to it as `journal.jsonl.snap`).
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join("journal.jsonl")
}

/// The `serve` arguments for `spec` on the journal in `dir`.
fn serve_args(spec: &Spec, dir: &Path) -> Vec<String> {
    let mut args: Vec<String> = ["serve", "--listen", "127.0.0.1:0", "--threads"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    args.push(spec.threads.to_string());
    match spec.tier {
        Tier::Shards(n) => args.extend(["--shards".to_owned(), n.to_string()]),
        Tier::Workers(n) => args.extend(["--workers".to_owned(), n.to_string()]),
    }
    args.extend([
        "--journal".to_owned(),
        journal_path(dir).display().to_string(),
    ]);
    if let Some(n) = spec.sync_every {
        args.extend(["--sync-every".to_owned(), n.to_string()]);
    }
    if let Some(n) = spec.snapshot_every {
        args.extend(["--snapshot-every".to_owned(), n.to_string()]);
    }
    args
}

/// A running server.
pub struct Server {
    child: Child,
    /// The bound address from the `listening on` line.
    pub addr: SocketAddr,
    /// The journal directory it serves.
    pub dir: PathBuf,
    worker_pids: Arc<Mutex<Vec<u32>>>,
    stderr_tail: Arc<Mutex<Vec<String>>>,
    readers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts `flexctl serve` for `spec` on the journal in `dir` and waits
    /// for its `listening on` line. Returns the server and the start-up
    /// time (spawn to that line).
    pub fn start(flexctl: &Path, spec: &Spec, dir: &Path) -> Result<(Server, Duration), String> {
        let started = Instant::now();
        let mut child = Command::new(flexctl)
            .args(serve_args(spec, dir))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", flexctl.display()))?;
        let mut stdout = child.stdout.take().expect("stdout is piped");
        let stderr = child.stderr.take().expect("stderr is piped");
        let worker_pids = Arc::new(Mutex::new(Vec::new()));
        let stderr_tail = Arc::new(Mutex::new(Vec::new()));
        let (tx, rx) = mpsc::channel();
        let stderr_reader = {
            let worker_pids = Arc::clone(&worker_pids);
            let stderr_tail = Arc::clone(&stderr_tail);
            std::thread::spawn(move || {
                for line in BufReader::new(stderr).lines() {
                    let Ok(line) = line else { break };
                    if let Some(addr) = line.strip_prefix("listening on ") {
                        let _ = tx.send(addr.trim().to_owned());
                    }
                    if let Some(pid) = worker_pid(&line) {
                        worker_pids.lock().expect("pid list lock").push(pid);
                    }
                    let mut tail = stderr_tail.lock().expect("stderr tail lock");
                    if tail.len() == 20 {
                        tail.remove(0);
                    }
                    tail.push(line);
                }
            })
        };
        // Answered queries are echoed on stdout; drain them so the server
        // never blocks on a full pipe.
        let stdout_reader = std::thread::spawn(move || {
            let mut buf = vec![0u8; 1 << 16];
            while matches!(stdout.read(&mut buf), Ok(n) if n > 0) {}
        });
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            dir: dir.to_owned(),
            worker_pids,
            stderr_tail,
            readers: vec![stderr_reader, stdout_reader],
        };
        match rx.recv_timeout(START_TIMEOUT) {
            Ok(addr) => {
                let setup = started.elapsed();
                server.addr = addr
                    .parse()
                    .map_err(|e| format!("bad listening address {addr:?}: {e}"))?;
                Ok((server, setup))
            }
            Err(_) => {
                let tail = server.stderr_tail();
                drop(server);
                Err(format!(
                    "server never reported `listening on`; stderr:\n{tail}"
                ))
            }
        }
    }

    /// The last stderr lines, for error messages.
    pub fn stderr_tail(&self) -> String {
        self.stderr_tail
            .lock()
            .expect("stderr tail lock")
            .join("\n")
    }

    /// Peak resident set (VmHWM) of the server plus its live shard
    /// workers, in KiB.
    pub fn peak_rss_kib(&self) -> u64 {
        let workers = self.worker_pids.lock().expect("pid list lock").clone();
        std::iter::once(self.child.id())
            .chain(workers)
            .filter_map(vm_hwm_kib)
            .sum()
    }
}

/// Dropping a server SIGKILLs it, reaps it, and waits for its shard
/// workers (which exit when their pipes close) to end too — on every
/// path, errors included.
impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
        let workers = match self.worker_pids.lock() {
            Ok(pids) => pids.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        };
        let deadline = Instant::now() + WORKER_EXIT_TIMEOUT;
        for pid in workers {
            while is_running(pid) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
            if is_running(pid) {
                let _ = Command::new("kill")
                    .args(["-KILL", &pid.to_string()])
                    .status();
                while is_running(pid) && Instant::now() < deadline + WORKER_EXIT_TIMEOUT {
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    }
}

/// The pid in a `cluster worker W started (pid P)` or `… respawned (pid
/// P)` line.
fn worker_pid(line: &str) -> Option<u32> {
    let rest = line.strip_prefix("cluster worker ")?;
    let pid = rest.split("(pid ").nth(1)?.strip_suffix(')')?;
    pid.parse().ok()
}

/// VmHWM of `pid` in KiB, if the process still exists.
fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Whether `pid` exists and has not exited (a zombie counts as ended).
fn is_running(pid: u32) -> bool {
    match std::fs::read_to_string(format!("/proc/{pid}/stat")) {
        Ok(stat) => {
            let state = stat
                .rsplit(')')
                .next()
                .and_then(|s| s.split_whitespace().next());
            !matches!(state, Some("Z" | "X") | None)
        }
        Err(_) => false,
    }
}

/// Total size of the journal and snapshot files in `dir`, in bytes.
pub fn stored_bytes(dir: &Path) -> u64 {
    let journal = journal_path(dir);
    let snapshot = journal.with_file_name("journal.jsonl.snap");
    [journal, snapshot]
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum()
}

/// Copies every regular file of `from` into a fresh directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.file_type().map_err(|e| e.to_string())?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))
                .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_pids_parse_from_start_and_respawn_lines() {
        assert_eq!(
            worker_pid("cluster worker 1 started (pid 4242)"),
            Some(4242)
        );
        assert_eq!(worker_pid("cluster worker 0 respawned (pid 7)"), Some(7));
        assert_eq!(worker_pid("cluster gather: 1 dirty / 1 cached"), None);
    }

    #[test]
    fn our_own_process_reports_a_peak_rss() {
        assert!(vm_hwm_kib(std::process::id()).unwrap_or(0) > 0);
        assert!(is_running(std::process::id()));
    }
}
