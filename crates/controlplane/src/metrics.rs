//! Run metrics: lock-free counters updated by the coordinator and its
//! workers, snapshotted at end of run, optionally served live.
//!
//! Two deliberate restrictions keep the metrics layer inside the
//! repo's determinism rules:
//!
//! * **No clocks.** This crate never reads wall-clock time (detlint R3
//!   reserves that for `crates/bench`); throughput figures are computed
//!   from an elapsed time the *caller* measured — either passed into
//!   [`MetricsSnapshot::to_json`], or produced by the
//!   [`consensus_obs::Clock`] injected into [`serve_plaintext`] (a real
//!   clock in the `sweep` bin, the deterministic `NullClock`/`TickClock`
//!   in tests). With `elapsed_ms: None` the snapshot is a pure function
//!   of the run — byte-identical across re-runs — which is what lets
//!   tests assert on it.
//! * **No maps.** Counters are named struct fields; the plaintext
//!   rendering below iterates them in a fixed order.
//!
//! The live endpoint ([`serve_plaintext`]) is a minimal TCP responder
//! in the Prometheus text exposition style: connect, read the current
//! counter values, done. It exists for watching a long `--full` sweep
//! from another terminal (`curl`/`nc`), not for scraping fidelity.

use std::io::Write as _;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use consensus_obs::{Clock, TraceHandle};
use consensus_pool::CancelToken;

/// Shared run counters. All methods are lock-free and callable from any
/// worker thread.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Total cells in the grid.
    cells_total: AtomicU64,
    /// Cells satisfied from the checkpoint at startup.
    cells_resumed: AtomicU64,
    /// Cells completed by this run (including worker-failed ones).
    cells_done: AtomicU64,
    /// Cells recorded as `WorkerFailed` (failed twice).
    cells_failed: AtomicU64,
    /// Cell executions retried after a first failure.
    retries: AtomicU64,
    /// Worker processes respawned after dying mid-cell.
    worker_restarts: AtomicU64,
    /// Cells currently executing.
    in_flight: AtomicU64,
    /// High-water mark of `in_flight`.
    max_in_flight: AtomicU64,
}

impl Metrics {
    /// Fresh, all-zero counters.
    #[must_use]
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records the grid size and how many cells the checkpoint already
    /// covered.
    pub fn set_plan(&self, cells_total: u64, cells_resumed: u64) {
        self.cells_total.store(cells_total, Ordering::Relaxed);
        self.cells_resumed.store(cells_resumed, Ordering::Relaxed);
    }

    /// A cell began executing.
    pub fn cell_started(&self) {
        let now = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.max_in_flight.fetch_max(now, Ordering::Relaxed);
    }

    /// A cell finished (`failed` when it was recorded as
    /// `WorkerFailed`).
    pub fn cell_finished(&self, failed: bool) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.cells_done.fetch_add(1, Ordering::Relaxed);
        if failed {
            self.cells_failed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A cell execution failed once and is being retried.
    pub fn retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker process died and was (or will be) respawned.
    pub fn worker_restart(&self) {
        self.worker_restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// Cells completed by this run so far.
    #[must_use]
    pub fn done(&self) -> u64 {
        self.cells_done.load(Ordering::Relaxed)
    }

    /// A consistent-enough copy of the counters (individually atomic;
    /// the set is a point-in-time read, exact once the run has
    /// quiesced).
    #[must_use]
    pub fn snapshot(&self, workers: u64) -> MetricsSnapshot {
        MetricsSnapshot {
            cells_total: self.cells_total.load(Ordering::Relaxed),
            cells_resumed: self.cells_resumed.load(Ordering::Relaxed),
            cells_done: self.cells_done.load(Ordering::Relaxed),
            cells_failed: self.cells_failed.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            max_in_flight: self.max_in_flight.load(Ordering::Relaxed),
            workers,
        }
    }
}

/// A point-in-time copy of every counter, plus the worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Total cells in the grid.
    pub cells_total: u64,
    /// Cells satisfied from the checkpoint at startup.
    pub cells_resumed: u64,
    /// Cells completed by this run.
    pub cells_done: u64,
    /// Cells recorded as `WorkerFailed`.
    pub cells_failed: u64,
    /// Cell executions retried after a first failure.
    pub retries: u64,
    /// Worker processes respawned.
    pub worker_restarts: u64,
    /// Cells executing at snapshot time (0 once quiesced).
    pub in_flight: u64,
    /// High-water mark of concurrent cells.
    pub max_in_flight: u64,
    /// Configured worker count.
    pub workers: u64,
}

impl MetricsSnapshot {
    /// Serializes the snapshot as stable 2-space-indented JSON.
    ///
    /// `elapsed_ms` is measured by the caller (this crate reads no
    /// clocks); when `None`, `elapsed_ms` and `cells_per_sec` are
    /// `null` and the output is fully deterministic.
    #[must_use]
    pub fn to_json(&self, elapsed_ms: Option<u64>) -> String {
        let (elapsed, rate) = match elapsed_ms {
            Some(ms) => {
                let secs = ms as f64 / 1000.0;
                let rate = if secs > 0.0 {
                    consensus_obs::json::float(self.cells_done as f64 / secs)
                } else {
                    "null".to_owned()
                };
                (ms.to_string(), rate)
            }
            None => ("null".to_owned(), "null".to_owned()),
        };
        format!(
            "{{\n  \"cells_total\": {},\n  \"cells_resumed\": {},\n  \"cells_done\": {},\n  \"cells_failed\": {},\n  \"retries\": {},\n  \"worker_restarts\": {},\n  \"max_in_flight\": {},\n  \"workers\": {},\n  \"elapsed_ms\": {elapsed},\n  \"cells_per_sec\": {rate}\n}}\n",
            self.cells_total,
            self.cells_resumed,
            self.cells_done,
            self.cells_failed,
            self.retries,
            self.worker_restarts,
            self.max_in_flight,
            self.workers,
        )
    }
}

/// Renders the live counters in the Prometheus text exposition style.
///
/// `workers` is the configured worker count and `elapsed_ms` the time
/// since the endpoint came up, both measured by the caller (this crate
/// reads no clocks). `elapsed_ms: None` omits the elapsed and
/// throughput lines entirely, keeping test output deterministic.
#[must_use]
pub fn render_plaintext(metrics: &Metrics, workers: u64, elapsed_ms: Option<u64>) -> String {
    let s = metrics.snapshot(workers);
    let mut out = format!(
        "sweep_cells_total {}\nsweep_cells_resumed {}\nsweep_cells_done {}\nsweep_cells_failed {}\nsweep_retries {}\nsweep_worker_restarts {}\nsweep_in_flight {}\nsweep_max_in_flight {}\nsweep_workers {}\n",
        s.cells_total,
        s.cells_resumed,
        s.cells_done,
        s.cells_failed,
        s.retries,
        s.worker_restarts,
        s.in_flight,
        s.max_in_flight,
        s.workers,
    );
    if let Some(ms) = elapsed_ms {
        out.push_str(&format!("sweep_elapsed_ms {ms}\n"));
        if ms > 0 {
            let rate = s.cells_done as f64 / (ms as f64 / 1000.0);
            out.push_str(&format!("sweep_cells_per_sec {rate:?}\n"));
        }
    }
    out
}

/// A running metrics endpoint; join it after cancelling its token.
#[derive(Debug)]
pub struct MetricsServer {
    /// The bound address (useful with `addr: "127.0.0.1:0"`).
    pub addr: SocketAddr,
    handle: JoinHandle<()>,
}

impl MetricsServer {
    /// Waits for the serving thread to exit (cancel the token first).
    pub fn join(self) {
        let _ = self.handle.join();
    }
}

/// Serves [`render_plaintext`] on `addr` until `cancel` is raised: each
/// connection gets one snapshot and is closed. Binding `"…:0"` picks a
/// free port; the bound address is returned.
///
/// Elapsed time is measured by `clock` from the moment the listener
/// binds: a real clock (the `sweep` bin injects one) makes the
/// endpoint report live elapsed/throughput, while the deterministic
/// [`consensus_obs::NullClock`] omits those lines. When `trace` is
/// enabled, each response is followed by
/// [`consensus_obs::render_summary`] over the events committed so far.
///
/// # Errors
///
/// Returns the bind error, if any.
pub fn serve_plaintext(
    addr: &str,
    metrics: Arc<Metrics>,
    workers: u64,
    clock: Arc<dyn Clock>,
    trace: TraceHandle,
    cancel: CancelToken,
) -> std::io::Result<MetricsServer> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let bound = listener.local_addr()?;
    let started = clock.now_nanos();
    let handle = std::thread::spawn(move || {
        while !cancel.is_cancelled() {
            match listener.accept() {
                Ok((mut stream, _)) => {
                    let elapsed_ms = match (started, clock.now_nanos()) {
                        (Some(t0), Some(t1)) => Some(t1.saturating_sub(t0) / 1_000_000),
                        _ => None,
                    };
                    let mut body = render_plaintext(&metrics, workers, elapsed_ms);
                    if trace.is_enabled() {
                        body.push_str(&consensus_obs::render_summary(&trace.merged()));
                    }
                    let _ = stream.write_all(body.as_bytes());
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                Err(_) => break,
            }
        }
    });
    Ok(MetricsServer {
        addr: bound,
        handle,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = Metrics::new();
        m.set_plan(16, 4);
        m.cell_started();
        m.cell_started();
        m.cell_finished(false);
        m.cell_finished(true);
        m.retry();
        m.worker_restart();
        let s = m.snapshot(3);
        assert_eq!(s.cells_total, 16);
        assert_eq!(s.cells_resumed, 4);
        assert_eq!(s.cells_done, 2);
        assert_eq!(s.cells_failed, 1);
        assert_eq!(s.retries, 1);
        assert_eq!(s.worker_restarts, 1);
        assert_eq!(s.in_flight, 0);
        assert_eq!(s.max_in_flight, 2);
        assert_eq!(s.workers, 3);
    }

    #[test]
    fn snapshot_json_without_elapsed_is_deterministic() {
        let m = Metrics::new();
        m.set_plan(8, 0);
        let a = m.snapshot(2).to_json(None);
        let b = m.snapshot(2).to_json(None);
        assert_eq!(a, b);
        assert!(a.contains("\"elapsed_ms\": null"));
        assert!(a.contains("\"cells_per_sec\": null"));
        assert!(a.ends_with("}\n"));
    }

    #[test]
    fn snapshot_json_with_elapsed_reports_throughput() {
        let m = Metrics::new();
        m.set_plan(4, 0);
        for _ in 0..4 {
            m.cell_started();
            m.cell_finished(false);
        }
        let json = m.snapshot(1).to_json(Some(2000));
        assert!(json.contains("\"elapsed_ms\": 2000"), "{json}");
        assert!(json.contains("\"cells_per_sec\": 2.0"), "{json}");
    }

    #[test]
    fn plaintext_endpoint_serves_current_counters() {
        use std::io::Read as _;
        let metrics = Arc::new(Metrics::new());
        metrics.set_plan(5, 1);
        let cancel = CancelToken::new();
        let server = serve_plaintext(
            "127.0.0.1:0",
            Arc::clone(&metrics),
            3,
            Arc::new(consensus_obs::NullClock),
            TraceHandle::disabled(),
            cancel.clone(),
        )
        .expect("bind a free port");
        let mut stream = std::net::TcpStream::connect(server.addr).expect("connect");
        let mut body = String::new();
        stream.read_to_string(&mut body).expect("read");
        assert!(body.contains("sweep_cells_total 5"), "{body}");
        assert!(body.contains("sweep_cells_resumed 1"), "{body}");
        assert!(body.contains("sweep_workers 3"), "{body}");
        assert!(
            !body.contains("sweep_elapsed_ms"),
            "NullClock must omit elapsed: {body}"
        );
        cancel.cancel();
        server.join();
    }

    /// Regression: the endpoint used to render `snapshot(0)` with no
    /// elapsed time at all — workers was always 0 and elapsed always
    /// missing. An injected ticking clock must surface both.
    #[test]
    fn plaintext_endpoint_reports_elapsed_via_injected_clock() {
        use std::io::Read as _;
        let metrics = Arc::new(Metrics::new());
        metrics.set_plan(4, 0);
        for _ in 0..4 {
            metrics.cell_started();
            metrics.cell_finished(false);
        }
        // A deterministic clock that advances 5ms per reading, so the
        // first request already sees a non-zero elapsed time.
        struct MsClock(AtomicU64);
        impl Clock for MsClock {
            fn now_nanos(&self) -> Option<u64> {
                Some(self.0.fetch_add(5_000_000, Ordering::Relaxed))
            }
        }
        let clock = Arc::new(MsClock(AtomicU64::new(0)));
        let cancel = CancelToken::new();
        let server = serve_plaintext(
            "127.0.0.1:0",
            Arc::clone(&metrics),
            2,
            clock,
            TraceHandle::disabled(),
            cancel.clone(),
        )
        .expect("bind a free port");
        let mut stream = std::net::TcpStream::connect(server.addr).expect("connect");
        let mut body = String::new();
        stream.read_to_string(&mut body).expect("read");
        assert!(body.contains("sweep_workers 2"), "{body}");
        assert!(body.contains("sweep_elapsed_ms "), "{body}");
        assert!(!body.contains("sweep_elapsed_ms 0\n"), "{body}");
        assert!(body.contains("sweep_cells_per_sec "), "{body}");
        cancel.cancel();
        server.join();
    }

    #[test]
    fn plaintext_endpoint_appends_trace_summary_when_enabled() {
        use std::io::Read as _;
        let metrics = Arc::new(Metrics::new());
        let trace = TraceHandle::enabled();
        let mut rec = trace.recorder(0, consensus_obs::lane::SWEEP).expect("on");
        rec.span_begin("cell", 0);
        rec.span_end("cell", 0);
        rec.counter("messages", 0, 7);
        trace.commit(rec);
        let cancel = CancelToken::new();
        let server = serve_plaintext(
            "127.0.0.1:0",
            Arc::clone(&metrics),
            1,
            Arc::new(consensus_obs::NullClock),
            trace,
            cancel.clone(),
        )
        .expect("bind a free port");
        let mut stream = std::net::TcpStream::connect(server.addr).expect("connect");
        let mut body = String::new();
        stream.read_to_string(&mut body).expect("read");
        assert!(body.contains("obs_events 3"), "{body}");
        assert!(body.contains("obs_spans{name=\"cell\"} 1"), "{body}");
        assert!(body.contains("obs_counter{name=\"messages\"} 7"), "{body}");
        cancel.cancel();
        server.join();
    }

    #[test]
    fn render_plaintext_is_deterministic_without_elapsed() {
        let m = Metrics::new();
        m.set_plan(3, 1);
        assert_eq!(render_plaintext(&m, 4, None), render_plaintext(&m, 4, None));
        assert!(render_plaintext(&m, 4, Some(500)).contains("sweep_elapsed_ms 500"));
    }
}
