//! The server under test: a separate `nt-serve` process, the binary that
//! ships, started from a workload's server document.

use nt_net::{Conn, ConnConfig};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Connection ids issued so far in this process. Ids key the server's
/// durable reply cache, so no two connections of one run may share one.
static NEXT_CONN_ID: AtomicU64 = AtomicU64::new(1);

/// Connection settings for control requests (`CERT`, `STATS`,
/// `SHUTDOWN`): `CERT` first drains the live certifier's backlog, which
/// can take seconds after a long run, so one patient wait replaces the
/// load driver's short resend timer.
pub fn patient() -> ConnConfig {
    ConnConfig {
        timeout_ms: 60_000,
        max_retries: 1,
        ..ConnConfig::default()
    }
}

/// A fresh connection id, never reused within the process.
pub fn conn_id() -> u64 {
    NEXT_CONN_ID.fetch_add(1, Ordering::Relaxed)
}

/// A running `nt-serve` child.
pub struct Server {
    child: Child,
    /// The address it listens on.
    pub addr: String,
    /// Spawn → `listening` line, seconds.
    pub setup_s: f64,
    /// The `nt-serve recovery {...}` JSON, when it mounted a data dir.
    pub recovery: Option<String>,
    /// Drains the rest of the child's stdout so it never blocks on it.
    stdout: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawn `bin --config config [--data-dir dir]` and wait for its
    /// `listening` line.
    pub fn spawn(bin: &Path, config: &Path, data_dir: Option<&Path>) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.arg("--config").arg(config);
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        cmd.stdin(Stdio::null()).stdout(Stdio::piped());
        let t0 = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
        let mut recovery = None;
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(addr) = line.strip_prefix("nt-serve listening on ") {
                        break addr.trim().to_string();
                    }
                    if let Some(rep) = line.strip_prefix("nt-serve recovery ") {
                        recovery = Some(rep.to_string());
                    }
                }
                _ => {
                    let _ = child.kill();
                    let status = child.wait();
                    return Err(format!("nt-serve exited before listening: {status:?}"));
                }
            }
        };
        let setup_s = t0.elapsed().as_secs_f64();
        let stdout = std::thread::spawn(move || lines.map_while(Result::ok).for_each(drop));
        Ok(Server {
            child,
            addr,
            setup_s,
            recovery,
            stdout: Some(stdout),
        })
    }

    /// Peak resident set (`VmHWM`) so far, MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path} has no VmHWM"))
    }

    /// Ask the server to drain over the wire, then wait for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked =
            Conn::connect(&self.addr, conn_id(), patient()).and_then(|mut c| c.shutdown_server());
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("nt-serve did not exit after Shutdown".to_string());
                }
            }
        };
        asked.map_err(|e| format!("shutdown request failed: {e}"))?;
        if !status.success() {
            return Err(format!("nt-serve exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
    }
}
