//! What every workload provides to the runner, and the shared seed mixer.

use crate::probe::Probe;
use std::collections::BTreeMap;

/// Samples of one round, by quantity name.
pub type RoundSamples = BTreeMap<&'static str, f64>;

/// Which clock a quantity is read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host wall-clock time: varies from run to run.
    Host,
    /// The simulated FPGA clock, or a count: exact for a given seed.
    Sim,
}

impl Clock {
    /// Label printed in the report.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
        }
    }
}

/// One reported quantity of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Quantity {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Clock it is read from.
    pub clock: Clock,
}

/// Shorthand for a host-clock quantity.
pub const fn host(name: &'static str, unit: &'static str) -> Quantity {
    Quantity {
        name,
        unit,
        clock: Clock::Host,
    }
}

/// Shorthand for a simulated (exact) quantity.
pub const fn sim(name: &'static str, unit: &'static str) -> Quantity {
    Quantity {
        name,
        unit,
        clock: Clock::Sim,
    }
}

/// Operations attempted and failed, and why each failure happened.
#[derive(Debug, Default)]
pub struct Ops {
    /// Calls into the program the benchmark made.
    pub attempted: u64,
    /// Calls that errored or whose output failed its check.
    pub failed: u64,
    /// One line per failure.
    pub problems: Vec<String>,
    /// Attempts of operations that fail at this commit by a known defect,
    /// reported apart from `attempted`/`failed` (see `known_defect`).
    pub defect_attempts: u64,
    /// How many of those failed.
    pub defect_failures: u64,
}

impl Ops {
    /// Counts one operation; a failed `ok` records `why()`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(why());
            }
        }
    }

    /// Counts one attempt of an operation with a known defect.
    pub fn known_defect(&mut self, failed: bool) {
        self.defect_attempts += 1;
        if failed {
            self.defect_failures += 1;
        }
    }
}

/// A workload: its program state and inputs, built once by its set-up.
pub trait Workload {
    /// The quantities a round reports, in print order.
    fn quantities(&self) -> &'static [Quantity];

    /// Runs round `k` (0 is the discarded warm-up round) and returns one
    /// sample of every quantity. Calls into the program go through
    /// `probe`, and every call is counted in `ops`.
    fn round(&mut self, k: usize, probe: &Probe, ops: &mut Ops) -> RoundSamples;

    /// Calls made after each round's clock stops: probes of known defects,
    /// and (when `probe` records) calls that time one layer on its own.
    /// Neither counts toward the round's time or the tracing overhead.
    fn after_round(&mut self, _probe: &Probe, _ops: &mut Ops) -> RoundSamples {
        RoundSamples::new()
    }
}

/// A 64-bit mix of the workload seed with a stream index (splitmix64), so
/// every generated input has its own seed derived from `--seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over bytes, for cheap output digests.
pub fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Digest of a tensor's exact bits.
pub fn tensor_digest(t: &fpgaccel_tensor::Tensor) -> u64 {
    fnv(t.data().iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_separates_streams_and_seeds() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(1, 3));
        assert_ne!(mix(1, 2), mix(2, 2));
    }

    #[test]
    fn ops_count_failures() {
        let mut ops = Ops::default();
        ops.check(true, || unreachable!());
        ops.check(false, || "bad".into());
        ops.known_defect(true);
        assert_eq!((ops.attempted, ops.failed), (2, 1));
        assert_eq!(ops.problems, vec!["bad".to_string()]);
        assert_eq!((ops.defect_attempts, ops.defect_failures), (1, 1));
    }
}
