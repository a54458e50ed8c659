//! Host-speed calibration for the timing metrics.
//!
//! The benchmark shares its host with other guests, and their load moves
//! how fast allocation-heavy code runs by up to 1.9× over tens of seconds.
//! On a 2-vCPU guest, the median `edit_stream` operation took between 2.0
//! and 3.7 ms in different 6 s stretches of one 90 s run. A fixed kernel
//! that allocates, walks and frees a tree and fills a hash map, and that
//! uses none of the repository's code, moved with it: correlation 0.91
//! over those stretches, against 0.84 with a 9% range for an arithmetic
//! loop. The loop runs the kernel between operations, and the timing
//! metrics report operation time ÷ kernel time × [`REFERENCE_MS`]: the
//! milliseconds the operation would take where the kernel takes
//! [`REFERENCE_MS`]. A change to the program moves them; a change in the
//! neighbours' load mostly does not.
//!
//! The kernel runs on a thread of its own, so its allocations come from
//! that thread's malloc arena and do not interleave with the program's.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The kernel time calibrated times are scaled to, in ms. Only a scale:
/// on the reference host the kernel took 0.7–1.25 ms, so calibrated times
/// stay within 1.5× of wall times there.
pub const REFERENCE_MS: f64 = 1.0;
/// Loop time between kernel runs; a kernel run costs about 5% of it.
pub const EVERY: Duration = Duration::from_millis(20);

/// Depth of the kernel's binary tree (2^depth − 1 nodes).
const TREE_DEPTH: u32 = 12;
/// Hash-map updates per kernel run.
const MAP_UPDATES: u64 = 10_000;

struct Node {
    value: u64,
    children: Option<Box<(Node, Node)>>,
}

fn build(depth: u32, value: u64) -> Node {
    let children = (depth > 1)
        .then(|| Box::new((build(depth - 1, 2 * value), build(depth - 1, 2 * value + 1))));
    Node { value, children }
}

fn fold(node: &Node) -> u64 {
    let below = node.children.as_ref().map_or(0, |pair| fold(&pair.0).wrapping_add(fold(&pair.1)));
    node.value ^ below
}

/// Runs the kernel once; its time in milliseconds.
pub fn kernel_ms() -> f64 {
    let started = Instant::now();
    let tree = build(TREE_DEPTH, 1);
    let mut checksum = fold(&tree);
    drop(tree);
    let mut counts: HashMap<(u64, u64), u64> = HashMap::new();
    let mut x = 0x2545_F491_4F6C_DD1D_u64;
    for k in 0..MAP_UPDATES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *counts.entry((x % 5000, k % 7)).or_insert(0) += 1;
    }
    checksum ^= counts.len() as u64;
    black_box(checksum);
    started.elapsed().as_secs_f64() * 1e3
}

/// A thread that runs the kernel on request. Dropping it stops the
/// thread and waits for it.
pub struct KernelThread {
    requests: Option<Sender<()>>,
    times: Receiver<f64>,
    handle: Option<JoinHandle<()>>,
}

impl KernelThread {
    pub fn start() -> KernelThread {
        let (requests, pending) = channel::<()>();
        let (done, times) = channel();
        let handle = std::thread::spawn(move || {
            for () in pending {
                if done.send(kernel_ms()).is_err() {
                    break;
                }
            }
        });
        KernelThread { requests: Some(requests), times, handle: Some(handle) }
    }

    /// Runs the kernel once and waits for its time in milliseconds.
    pub fn run(&self) -> f64 {
        let requests = self.requests.as_ref().expect("the kernel thread runs until dropped");
        requests.send(()).expect("the kernel thread is alive");
        self.times.recv().expect("the kernel thread is alive")
    }
}

impl Drop for KernelThread {
    fn drop(&mut self) {
        drop(self.requests.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Kernel times taken during a loop, each tagged with how many operations
/// had run before it.
#[derive(Debug)]
pub struct Calibration {
    samples: Vec<(usize, f64)>,
    last: Option<Instant>,
}

impl Calibration {
    pub fn new() -> Calibration {
        Calibration { samples: Vec::new(), last: None }
    }

    /// Runs the kernel if [`EVERY`] has passed since its last run.
    pub fn tick(&mut self, kernel: &KernelThread, ops_so_far: usize) {
        if self.last.is_none_or(|last| last.elapsed() >= EVERY) {
            self.samples.push((ops_so_far, kernel.run()));
            self.last = Some(Instant::now());
        }
    }

    /// Median kernel time over the runs taken before operations `ops`;
    /// over all runs when none were.
    pub fn kernel_median(&self, ops: std::ops::Range<usize>) -> f64 {
        let inside: Vec<f64> =
            self.samples.iter().filter(|(op, _)| ops.contains(op)).map(|(_, ms)| *ms).collect();
        if inside.is_empty() {
            crate::stats::median(&self.samples.iter().map(|(_, ms)| *ms).collect::<Vec<_>>())
        } else {
            crate::stats::median(&inside)
        }
    }

    /// The factor that turns times measured during operations `ops` into
    /// calibrated times.
    pub fn scale(&self, ops: std::ops::Range<usize>) -> f64 {
        REFERENCE_MS / self.kernel_median(ops)
    }

    pub fn runs(&self) -> usize {
        self.samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_scales_each_block_by_its_own_kernel_median() {
        let calibration = Calibration {
            samples: vec![(0, 2.0), (1, 4.0), (2, 2.0), (5, 1.0), (6, 1.0), (7, 3.0)],
            last: None,
        };
        assert_eq!(calibration.kernel_median(0..5), 2.0);
        assert_eq!(calibration.kernel_median(5..10), 1.0);
        // A block with no kernel run of its own falls back to all of them.
        assert_eq!(calibration.kernel_median(10..12), 2.0);
        assert_eq!(calibration.scale(0..5), REFERENCE_MS / 2.0);
    }

    #[test]
    fn the_kernel_thread_times_the_kernel_and_stops_when_dropped() {
        let kernel = KernelThread::start();
        assert!(kernel.run() > 0.0);
        assert!(kernel.run() > 0.0);
        drop(kernel);
    }
}
