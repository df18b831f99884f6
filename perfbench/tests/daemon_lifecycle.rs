//! The daemon process is shut down, and its socket removed, on both the
//! success path and the failure path.

use std::path::{Path, PathBuf};

use aji_perfbench::daemon::Daemon;
use aji_support::Json;

fn exe() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_aji-serve"))
}

fn socket(tag: &str) -> PathBuf {
    PathBuf::from(format!(".perfbench/test-{}-{tag}.sock", std::process::id()))
}

fn alive(pid: &str) -> bool {
    Path::new(&format!("/proc/{pid}")).exists()
}

#[test]
fn shutdown_stops_the_process_and_removes_the_socket() {
    let path = socket("ok");
    let mut daemon = Daemon::spawn(exe(), &path).unwrap();
    let pid = daemon.pid();
    let mut conn = daemon.connect().unwrap();
    let stats = conn
        .request(&Json::obj(vec![("op", Json::Str("stats".into()))]))
        .unwrap();
    assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
    assert!(path.exists());
    daemon.shutdown(&mut conn).unwrap();
    assert!(!path.exists(), "socket removed");
    assert!(!alive(&pid), "process ended and reaped");
}

#[test]
fn dropping_without_shutdown_kills_the_process_and_removes_the_socket() {
    let path = socket("drop");
    let mut daemon = Daemon::spawn(exe(), &path).unwrap();
    let pid = daemon.pid();
    let conn = daemon.connect().unwrap();
    assert!(alive(&pid));
    drop(daemon);
    drop(conn);
    assert!(!path.exists(), "socket removed");
    assert!(!alive(&pid), "process killed and reaped");
}

#[test]
fn a_daemon_that_never_listens_fails_to_connect_and_leaves_nothing() {
    let path = socket("dead");
    // `true` exits at once without binding the socket.
    let mut daemon = Daemon::spawn(Path::new("true"), &path).unwrap();
    let pid = daemon.pid();
    assert!(daemon.connect().is_err());
    drop(daemon);
    assert!(!path.exists());
    assert!(!alive(&pid));
}
