//! The `monomi-server` child process: started fresh for every deployment on
//! a free loopback port with its database under a scratch directory this
//! benchmark owns, and killed, reaped and cleaned up on every exit path.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// Worker threads on each side of the wire.
pub const THREADS: usize = 2;

/// A running server. Dropping it (normal return or unwinding panic) kills
/// the process, waits for it, and removes its scratch directory.
pub struct ServerChild {
    child: Child,
    addr: String,
    scratch: PathBuf,
    /// Held so the server's stdout stays open for as long as it runs.
    _stdout: BufReader<ChildStdout>,
}

/// The server binary: built into the same directory as this executable.
pub fn server_binary() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    exe.parent()
        .expect("executable sits in a directory")
        .join("monomi-server")
}

impl ServerChild {
    /// Starts a server whose temporary files live under `scratch` (created
    /// here, removed on drop) and waits until it is listening. With `cpus`
    /// (a `taskset` list such as `1` or `2,3`) the server runs on those CPUs
    /// only.
    pub fn spawn(binary: &Path, scratch: PathBuf, cpus: Option<&str>) -> ServerChild {
        std::fs::create_dir_all(&scratch).expect("create server scratch directory");
        // Port 0: the kernel picks a free port and the server prints the
        // address it bound, after `bind` — so once the line is read the
        // listener accepts connections. No inherited MONOMI_* knob reaches
        // the child.
        // `taskset` sets the affinity and then becomes the server, so the
        // child's pid is the server's either way.
        let mut command = match cpus {
            Some(cpus) => {
                let mut taskset = Command::new("taskset");
                taskset.arg("-c").arg(cpus).arg(binary);
                taskset
            }
            None => Command::new(binary),
        };
        let mut child = command
            .env_clear()
            .env("MONOMI_LISTEN", "127.0.0.1:0")
            .env("MONOMI_STORAGE", "disk")
            .env("MONOMI_INDEXES", "all")
            .env("MONOMI_THREADS", THREADS.to_string())
            .env("TMPDIR", &scratch)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot start {}: {e}", binary.display()));
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .split_whitespace()
            .find(|word| word.starts_with("127.0.0.1:"))
            .map(str::to_string);
        let mut server = ServerChild {
            child,
            addr: String::new(),
            scratch,
            _stdout: stdout,
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => server.addr = addr,
            // `server` drops here: the child is killed and reaped.
            (read, _) => panic!("monomi-server did not announce its address: {read:?} {line:?}"),
        }
        server
    }

    /// `host:port` the server listens on.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Process id, for `/proc/<pid>`.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        // Errors are ignored: the child may already be gone, and Drop must
        // not panic while another panic unwinds.
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}
