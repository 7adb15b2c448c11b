//! A run touches no file: the engine keeps its results in memory only,
//! so a cold run leaves its working directory as it found it, whatever
//! the environment says.
//!
//! The one test lives in its own binary because it changes the
//! process's working directory and environment.

use bsched_harness::{Engine, EngineConfig, ExperimentCell};
use bsched_pipeline::{CompileOptions, SchedulerKind};

#[test]
fn a_cold_run_leaves_its_working_directory_empty() {
    let dir = std::env::temp_dir().join(format!("bsched-harness-cwd-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the working directory");
    std::env::set_current_dir(&dir).expect("enter the working directory");
    // The variables that once enabled and placed a disk cache are inert.
    std::env::set_var("BSCHED_NO_CACHE", "0");
    std::env::set_var("BSCHED_CACHE_DIR", "cache");
    let config = EngineConfig::try_from_env().expect("the environment is valid");

    let engine = Engine::with_standard_kernels(config.with_jobs(2));
    let cells: Vec<ExperimentCell> = [SchedulerKind::Traditional, SchedulerKind::Balanced]
        .into_iter()
        .map(|s| ExperimentCell::new("TRFD", CompileOptions::new(s)))
        .collect();
    engine.run(&cells).expect("cold run");
    assert_eq!(engine.report().executed, cells.len() as u64);

    let left: Vec<_> = std::fs::read_dir(&dir)
        .expect("read the working directory")
        .map(|e| e.expect("directory entry").file_name())
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(left.is_empty(), "a cold run left {left:?} behind");
}
