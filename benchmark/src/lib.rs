//! The MQP cluster benchmark: four real-socket workloads, per-layer
//! probes and a traced in-process hop replay. `main.rs` is the command
//! line; everything measurable lives here so `tests/` can reach it.

pub mod aa;
pub mod host;
pub mod load;
pub mod probes;
pub mod replay;
pub mod report;
pub mod run;
pub mod stats;
pub mod suite;
pub mod worlds;
