//! The timed, untraced run: a closed loop of one client driving cells
//! through `run_cell_instrumented`, one at a time.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use pthammer_harness::{run_cell_instrumented, CampaignConfig, CellCoord, CellPerf, CellReport};

use crate::workloads::Workload;

/// One timed cell. `result` is `Err` with the panic message when the cell
/// panicked.
pub struct TimedCell {
    pub latency: Duration,
    pub result: Result<(CellReport, CellPerf), String>,
}

impl TimedCell {
    /// A cell fails when it panicked or its row carries an `error`.
    pub fn failed(&self) -> bool {
        match &self.result {
            Ok((row, _)) => row.error.is_some(),
            Err(_) => true,
        }
    }
}

/// Runs `f`, turning a panic into `Err` with the panic message, so one bad
/// cell does not end the workload.
pub fn isolate<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|panic| {
        panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

/// Runs and times one cell, with panic isolation.
pub fn timed_cell(coord: &CellCoord, config: &CampaignConfig) -> TimedCell {
    let start = Instant::now();
    let result = isolate(|| run_cell_instrumented(coord, config));
    TimedCell {
        latency: start.elapsed(),
        result,
    }
}

/// Runs every cell of the run's input once: instance after instance, each
/// in matrix order.
pub fn pass(workload: &Workload) -> Vec<TimedCell> {
    (0..workload.kind.instances())
        .flat_map(|k| {
            let config = workload.config(k);
            workload
                .cells
                .iter()
                .map(move |coord| timed_cell(coord, &config))
        })
        .collect()
}

/// The closed loop: runs whole passes over the same input, starting the next
/// cell only after the previous one finished, until `seconds` have passed.
/// The input depends on the seed alone, never on how many passes fit, so
/// the cells run and the cells that fail are the same on every host; whole
/// passes keep the cell mix of every run the same, as the cells' costs
/// differ by up to forty times. Returns one vector of cells per pass.
pub fn closed_loop(workload: &Workload, seconds: f64) -> Vec<Vec<TimedCell>> {
    let start = Instant::now();
    let mut passes = vec![pass(workload)];
    while start.elapsed().as_secs_f64() < seconds {
        passes.push(pass(workload));
    }
    passes
}
