//! The heterowire simulator benchmark's building blocks; the `main`
//! binary runs them and prints the metrics.

pub mod grid;
pub mod host;
pub mod measure;
pub mod probe;
pub mod replay;
pub mod spans;
pub mod stats;
pub mod traced;
