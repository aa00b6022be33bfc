//! Host-time benchmark of the wsdf simulator.
//!
//! Three workloads (see [`workloads`]) run as declarative scenarios. The
//! end-to-end mode times them through `Session::scenario(..).run()`; the
//! traced mode replays each run from the public layer calls with spans
//! around every call ([`replay`], [`span`], [`probe`]) and reports where
//! the time goes. See `README.md` next to this package for how to run it
//! and how to read the numbers.

pub mod probe;
pub mod reference;
pub mod replay;
pub mod runner;
pub mod span;
pub mod sys;
pub mod workloads;
