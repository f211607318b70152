//! The shipped binaries as real processes: `send_file` → `relay_node`
//! (recoder) → `recv_file` on loopback, 1 MiB, byte-identical.

use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A child process with its stdout held open (a binary that prints after
/// the test stopped reading must not die of a closed pipe), killed and
/// reaped when dropped so a failed assertion leaves nothing running.
struct Proc {
    child: Child,
    stdout: BufReader<ChildStdout>,
}

impl Proc {
    fn spawn(exe: &str, args: &[&str]) -> Proc {
        let mut child = Command::new(exe)
            .args(args)
            .stdout(Stdio::piped())
            .spawn()
            .expect("binary starts");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Proc { child, stdout }
    }

    /// Reads stdout up to the line that starts with `prefix`; returns the
    /// rest of that line.
    fn read_until(&mut self, prefix: &str) -> String {
        let mut line = String::new();
        while self.stdout.read_line(&mut line).expect("utf-8 stdout") > 0 {
            if let Some(rest) = line.strip_prefix(prefix) {
                return rest.trim().to_string();
            }
            line.clear();
        }
        panic!("process exited before printing {prefix:?}");
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn send_file_through_relay_node_to_recv_file_is_byte_identical() {
    let t0 = Instant::now();
    let dir = std::env::temp_dir().join(format!("ncvnf-cli-chain-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (input, output) = (dir.join("in.bin"), dir.join("out.bin"));
    let object: Vec<u8> = (0..1u32 << 20).map(|i| (i * 31 % 251) as u8).collect();
    std::fs::write(&input, &object).unwrap();
    // 4 x 1460 B blocks per generation, 8 B of framing.
    let generations = (object.len() + 8).div_ceil(4 * 1460).to_string();

    let mut receiver = Proc::spawn(
        env!("CARGO_BIN_EXE_recv_file"),
        &[
            "--out",
            output.to_str().unwrap(),
            "--generations",
            &generations,
            "--session",
            "9",
            "--timeout-secs",
            "4",
        ],
    );
    let recv_addr = receiver.read_until("listening on");
    let mut relay = Proc::spawn(
        env!("CARGO_BIN_EXE_relay_node"),
        &[
            "--session",
            "9",
            "--role",
            "recoder",
            "--next-hop",
            &recv_addr,
        ],
    );
    let relay_addr = relay.read_until("relay data");
    // It prints its route once it has wired itself: data may flow.
    relay.read_until("session 9");
    let sent = Command::new(env!("CARGO_BIN_EXE_send_file"))
        .args(["--file", input.to_str().unwrap(), "--to", &relay_addr])
        .args(["--session", "9", "--rate-mbps", "80", "--redundancy", "1"])
        .stdout(Stdio::null())
        .status()
        .expect("send_file runs");
    assert!(sent.success(), "send_file failed: {sent}");
    let received = receiver.child.wait().expect("recv_file exits");
    assert!(received.success(), "recv_file failed: {received}");

    let got = std::fs::read(&output).unwrap();
    assert!(got == object, "output differs from the 1 MiB input");
    let _ = std::fs::remove_dir_all(&dir);
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(5), "chain took {took:?}");
}
