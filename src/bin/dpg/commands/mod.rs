//! One module per `dpg` subcommand. Each exposes
//! `run(args: &[String]) -> Result<(), CliError>` (parameterless for
//! `version`); dispatch lives in `main.rs`, shared plumbing in
//! [`crate::cli`]. Whole-sequence solves resolve their algorithm from the
//! `mcs-engine` registry.

pub mod algos;
pub mod chaos;
pub mod explain;
pub mod generate;
pub mod run_algo;
pub mod serve;
pub mod stats;
pub mod svg;
pub mod top;
pub mod trace;
pub mod version;
