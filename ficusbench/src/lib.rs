//! An end-to-end, layer-attributed benchmark of the full Ficus stack.
//!
//! Three seeded workloads (`devloop`, `bigfile`, `partition`) run as closed
//! loops through `FicusWorld` (3 hosts, 3 replicas) and one
//! `vnode::syscall::Process` per host, from one thread. Untraced runs give
//! the end-to-end metrics; traced runs add spans around every `Process`
//! call, every vnode call into `FicusLogical`, and every daemon entry
//! point, and attribute counter deltas to each foreground op. See
//! `README.md`.

pub mod calib;
pub mod counters;
pub mod harness;
pub mod oracle;
pub mod report;
pub mod run;
pub mod trace;
pub mod workloads;
