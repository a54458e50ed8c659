//! A session's resident workers are threads named `cccc-worker-<i>`: the
//! first build starts them, later builds reuse them, and dropping the
//! session joins them. The test counts the process's threads by name, so
//! it is alone in its test binary: no other test may start workers while
//! it counts.

#![cfg(target_os = "linux")]

use cccc_core::pipeline::CompilerOptions;
use cccc_driver::workloads::{diamond, session_from};

/// How many of this process's threads are build workers.
fn worker_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("Linux lists a process's threads under /proc/self/task")
        .filter(|task| {
            let comm = std::fs::read_to_string(task.as_ref().unwrap().path().join("comm"));
            comm.is_ok_and(|name| name.starts_with("cccc-worker-"))
        })
        .count()
}

#[test]
fn dropping_a_session_joins_its_workers() {
    let mut session = session_from(&diamond(3, 1), CompilerOptions::default());
    assert_eq!(worker_threads(), 0, "a session starts its workers at its first build");
    assert!(session.build(2).unwrap().is_success());
    assert_eq!(worker_threads(), 2);
    // A smaller build runs on the first worker; a larger one grows the pool.
    session.clear_cache();
    assert!(session.build(1).unwrap().is_success());
    assert_eq!(worker_threads(), 2);
    session.clear_cache();
    assert!(session.build(3).unwrap().is_success());
    assert_eq!(worker_threads(), 3);
    drop(session);
    assert_eq!(worker_threads(), 0, "dropping the session joins its workers");
}
