//! Experiment harness for the `kkt-spanning` workspace.
//!
//! The paper has no empirical tables or figures — its evaluation is a set of
//! theorems (see `EXPERIMENTS.md`). [`claims`] measures E1–E8 into one
//! sealed integer report per claim, and [`experiments`] E9–E16. Each `exp*`
//! binary is a thin wrapper printing a table on stderr and JSON on stdout;
//! the Criterion benches in `benches/` time the same code.
//!
//! Scale is controlled by [`Scale`]: the default keeps every binary under a
//! few seconds; `KKT_SCALE=large` (environment variable) runs the sweeps the
//! numbers in `EXPERIMENTS.md` were recorded with.

pub mod claims;
pub mod experiments;
pub mod fleet;
pub mod stats;
pub mod table;

pub use fleet::{mix_seed, run_fleet, threads_from_env, FleetPanic};
pub use stats::{ExactSummary, Percentiles, SloSummary};
pub use table::Table;

/// The workspace-wide base seed every experiment falls back to when
/// `KKT_SEED` is unset. Hoisted here so the fleet's base seed cannot
/// silently diverge across binaries (each bin used to re-parse the variable
/// with its own hard-coded fallback).
pub const DEFAULT_SEED: u64 = 0xFEED;

/// Reads the base seed from `KKT_SEED` through [`env_number`], falling back
/// to [`DEFAULT_SEED`] when it is unset. Every `exp*` binary and the fleet
/// runner resolve their seed through this one helper.
pub fn seed_from_env() -> u64 {
    env_number("KKT_SEED").unwrap_or(DEFAULT_SEED)
}

/// Reads a numeric environment variable: `None` when it is unset, its value
/// when it is set to a number. `KKT_SEED`, `KKT_THREADS` and the
/// `KKT_EXP*_N` rung restrictions all go through this one parser.
///
/// # Panics
///
/// When the variable is set but is not a number, naming the variable and
/// the value: a typo must not fall back to a default or widen a sweep.
pub fn env_number<T: std::str::FromStr>(name: &str) -> Option<T> {
    let value = std::env::var_os(name)?;
    Some(parse_env_number(name, &value.to_string_lossy()))
}

/// The parse step of [`env_number`], apart from the environment.
fn parse_env_number<T: std::str::FromStr>(name: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| panic!("{name}={value:?} is not a number"))
}

/// Sweep sizes for the experiment binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Quick sweeps (seconds) — used by default and in CI.
    Quick,
    /// The full sweeps reported in `EXPERIMENTS.md` (minutes).
    Large,
}

impl Scale {
    /// Reads the scale from the `KKT_SCALE` environment variable: unset is
    /// [`Scale::Quick`], and `quick` or `large` (any ASCII case) selects
    /// that scale.
    ///
    /// # Panics
    ///
    /// When the variable is set to anything else, the empty string
    /// included, naming the variable and the value: a typo must not run the
    /// quick grid and exit 0.
    pub fn from_env() -> Self {
        std::env::var_os("KKT_SCALE")
            .map_or(Scale::Quick, |value| Self::parse(&value.to_string_lossy()))
    }

    /// The parse step of [`Self::from_env`], apart from the environment.
    fn parse(value: &str) -> Self {
        if value.eq_ignore_ascii_case("quick") {
            Scale::Quick
        } else if value.eq_ignore_ascii_case("large") {
            Scale::Large
        } else {
            panic!("KKT_SCALE={value:?} is not `quick` or `large`")
        }
    }

    /// `quick` or `large`, as sealed reports record it.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Large => "large",
        }
    }

    /// Node counts for construction sweeps.
    pub fn construction_sizes(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![64, 128, 256],
            Scale::Large => vec![64, 128, 256, 512, 1024, 2048],
        }
    }

    /// Node counts for repair sweeps.
    pub fn repair_sizes(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![64, 128, 256],
            Scale::Large => vec![128, 256, 512, 1024, 2048],
        }
    }

    /// Node counts for the dynamic-scenario scale sweep (E11): the sizes the
    /// `SuiteParams::scale_preset` ladder is tuned for. The quick tier stays
    /// CI-cheap; the large tier is the n ≥ 1024 regime the asymptotic claims
    /// need, extended to the n ∈ {16384, 65536} rungs the calendar-queue
    /// engine unlocked (`KKT_EXP11_N` restricts a run to one rung, which is
    /// how CI prices the big rungs under a wall-clock budget).
    pub fn scale_sweep_sizes(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![64, 256],
            Scale::Large => vec![256, 1024, 4096, 16384, 65536],
        }
    }

    /// Node counts for the dynamic density sweep (E13): the `n` axis of the
    /// `n × m/n` grid. Kept below the scale-sweep rungs because the dense
    /// end of the ladder is `m = Θ(n²)` — the n = 256 large rung already
    /// replays the complete graph `K_256` (`KKT_EXP13_N` restricts a run to
    /// one rung, which is how CI prices it twice under a wall-clock budget).
    pub fn density_grid_sizes(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![48, 96],
            Scale::Large => vec![128, 256],
        }
    }

    /// Trials per configuration.
    pub fn trials(self) -> usize {
        match self {
            Scale::Quick => 3,
            Scale::Large => 10,
        }
    }

    /// Trials for probability-estimation experiments.
    pub fn probability_trials(self) -> usize {
        match self {
            Scale::Quick => 2_000,
            Scale::Large => 20_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(f).expect_err("the parser must panic");
        payload.downcast_ref::<String>().cloned().expect("a formatted panic message")
    }

    #[test]
    fn env_numbers_parse_or_panic_naming_the_variable_and_value() {
        assert_eq!(parse_env_number::<u64>("KKT_SEED", "42"), 42);
        assert_eq!(parse_env_number::<usize>("KKT_EXP13_N", "48"), 48);
        for (name, value) in [("KKT_EXP13_N", "48x"), ("KKT_SEED", "0xFEED"), ("KKT_THREADS", "")] {
            let message = panic_message(|| {
                parse_env_number::<usize>(name, value);
            });
            assert!(message.contains(name), "{message}");
            assert!(message.contains(&format!("{value:?}")), "{message}");
        }
        assert_eq!(env_number::<u64>("KKT_TEST_VARIABLE_THAT_IS_NEVER_SET"), None);
    }

    #[test]
    fn scale_parses_quick_and_large_or_panics_naming_the_variable_and_value() {
        for (value, scale) in [
            ("quick", Scale::Quick),
            ("QUICK", Scale::Quick),
            ("large", Scale::Large),
            ("Large", Scale::Large),
        ] {
            assert_eq!(Scale::parse(value), scale, "{value}");
        }
        for value in ["larg", "full", "", " large", "1"] {
            let message = panic_message(|| {
                Scale::parse(value);
            });
            assert!(message.contains("KKT_SCALE"), "{message}");
            assert!(message.contains(&format!("{value:?}")), "{message}");
        }
    }
}
