//! A small client for the daemon socket, shared by `chronosctl`, the
//! service-mode example and the integration tests.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::Json;

/// A connected control-socket client (one request/response at a time).
#[derive(Debug)]
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

/// A client-side failure: transport errors, protocol violations, and
/// `"ok": false` responses (carrying the daemon's error message).
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level I/O failed.
    Io(std::io::Error),
    /// The daemon's line was not valid JSON or had no `"ok"` field.
    Protocol(String),
    /// The daemon answered `"ok": false` with this message.
    Daemon(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Daemon(m) => write!(f, "daemon error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// Say precisely why a connect failed: a daemon that was never started
/// (or already removed its socket) reads differently from one that is
/// mid-boot or crashed without cleanup.
fn classify_connect(path: &Path, e: &std::io::Error) -> String {
    match e.kind() {
        std::io::ErrorKind::NotFound => format!(
            "socket absent at {} (daemon not started, or it exited cleanly)",
            path.display()
        ),
        std::io::ErrorKind::ConnectionRefused => format!(
            "connection refused at {} (socket file exists but no daemon is \
             accepting — crashed without cleanup, or still booting)",
            path.display()
        ),
        _ => format!("cannot connect to {}: {e}", path.display()),
    }
}

impl Client {
    /// Connect to a daemon socket. Connect failures are classified:
    /// "socket absent" (no file) vs "connection refused" (stale file, no
    /// listener) read differently to an operator racing daemon boot.
    pub fn connect(path: impl AsRef<Path>) -> Result<Client, ClientError> {
        let path = path.as_ref();
        let stream = UnixStream::connect(path)
            .map_err(|e| ClientError::Daemon(classify_connect(path, &e)))?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// [`Client::connect`] with bounded exponential backoff so scripts
    /// can race daemon boot: retries every transient connect failure
    /// (absent socket, refused connection) until `wait` elapses, with
    /// delays doubling 25 ms → 800 ms plus a small deterministic-ish
    /// jitter so a stampede of waiting clients doesn't thundering-herd
    /// the listener. The final error keeps the classified message.
    pub fn connect_with_retry(
        path: impl AsRef<Path>,
        wait: Duration,
    ) -> Result<Client, ClientError> {
        let path = path.as_ref();
        let deadline = Instant::now() + wait;
        let mut delay = Duration::from_millis(25);
        loop {
            match UnixStream::connect(path) {
                Ok(stream) => {
                    let writer = stream.try_clone()?;
                    return Ok(Client {
                        reader: BufReader::new(stream),
                        writer,
                    });
                }
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(ClientError::Daemon(format!(
                            "{} (gave up after {:.1}s)",
                            classify_connect(path, &e),
                            wait.as_secs_f64()
                        )));
                    }
                    // Sub-millisecond wall-clock bits as jitter: enough to
                    // decorrelate concurrent waiters, no RNG dependency.
                    let jitter = Duration::from_micros(
                        (std::time::SystemTime::now()
                            .duration_since(std::time::UNIX_EPOCH)
                            .map(|d| d.subsec_micros())
                            .unwrap_or(0)
                            % 1_000) as u64,
                    );
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    std::thread::sleep((delay + jitter).min(remaining));
                    delay = (delay * 2).min(Duration::from_millis(800));
                }
            }
        }
    }

    /// `ping` the daemon and verify it speaks our protocol version.
    /// Returns the ping payload; a daemon from a different protocol
    /// generation produces a "protocol version mismatch" error rather
    /// than a confusing failure on some later command.
    pub fn handshake(&mut self) -> Result<Json, ClientError> {
        let ping = self.request("ping", vec![])?;
        match ping.get("protocol").and_then(Json::as_u64) {
            Some(version) if version == crate::PROTOCOL_VERSION => Ok(ping),
            Some(version) => Err(ClientError::Protocol(format!(
                "protocol version mismatch: daemon speaks v{version}, this client speaks v{}",
                crate::PROTOCOL_VERSION
            ))),
            None => Err(ClientError::Protocol(
                "daemon ping carries no protocol version".into(),
            )),
        }
    }

    /// Send one request line and read one raw response line (already
    /// checked for `"ok": true`). Most callers want [`Client::request`].
    pub fn request_raw(&mut self, request: &Json) -> Result<Json, ClientError> {
        writeln!(self.writer, "{}", request.render())?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Read and validate the next response line (used after
    /// [`Client::request_raw`] for streaming commands like `watch`,
    /// which answer with several lines).
    pub fn read_response(&mut self) -> Result<Json, ClientError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::Protocol("daemon closed the connection".into()));
        }
        let response = Json::parse(line.trim_end())
            .map_err(|e| ClientError::Protocol(format!("unparseable response: {e}")))?;
        match response.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(response),
            Some(false) => Err(ClientError::Daemon(
                response
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unspecified failure")
                    .to_string(),
            )),
            None => Err(ClientError::Protocol("response carries no \"ok\"".into())),
        }
    }

    /// Build and send a command with a job name plus extra fields.
    pub fn request(&mut self, cmd: &str, fields: Vec<(String, Json)>) -> Result<Json, ClientError> {
        let mut all = vec![("cmd".to_string(), Json::str(cmd))];
        all.extend(fields);
        self.request_raw(&Json::Obj(all))
    }

    /// Poll `status` until the job reaches `state` (wire label, e.g.
    /// `"paused"`, `"done"`). Errors if the job lands in a different
    /// terminal state first or `timeout` elapses.
    pub fn wait_for_state(
        &mut self,
        name: &str,
        state: &str,
        timeout: Duration,
    ) -> Result<Json, ClientError> {
        let deadline = Instant::now() + timeout;
        loop {
            let status = self.request("status", vec![("name".into(), Json::str(name))])?;
            let current = status
                .get("state")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string();
            if current == state {
                return Ok(status);
            }
            if matches!(current.as_str(), "done" | "stopped" | "failed") {
                let detail = status
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("no error recorded");
                return Err(ClientError::Daemon(format!(
                    "job {name:?} reached terminal state {current:?} while waiting for {state:?} ({detail})"
                )));
            }
            if Instant::now() >= deadline {
                return Err(ClientError::Daemon(format!(
                    "timed out waiting for job {name:?} to reach {state:?} (currently {current:?})"
                )));
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }
}
