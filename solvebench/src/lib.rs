//! Whole-solve benchmark of the refgen workspace: four seeded workloads
//! driven through the library's public API, with an outside-in layer
//! trace. See `README.md` for the workloads, metrics and predictions.

pub mod calibrate;
pub mod report;
pub mod trace;
pub mod workload;
