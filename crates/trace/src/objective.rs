//! What a tuning run optimises.
//!
//! ARCS §VII names richer objectives as future work; this type makes the
//! objective a first-class, serializable dimension of the stack. It lives
//! in `arcs-trace` (the bottom of the dependency stack) so that the core
//! driver, the sweep engine, the trace taxonomy and the analysis layer in
//! `arcs-metrics` can all name the same enum without a dependency cycle.
//!
//! The contract is deliberately tiny: an [`Objective`] is a pure scoring
//! function over the two quantities every backend can measure — wall time
//! and package energy of one region invocation. Lower is always better.
//! It is applied in one place, `arcs`'s `RegionTuner::end_measured`, to
//! meter deltas the run driver measured, and [`Objective::Time`] scores
//! are exactly the measured seconds, so a time-objective run is the
//! paper's run bit for bit. Schema v3 stamps `SearchIteration` with the
//! session's objective and `RegionEnd` with the invocation's score.

use serde::{Deserialize, Serialize};

/// The quantity a tuning session minimises. Serialized by its short
/// label (`"time"` / `"energy"` / `"edp"`) so traces stay readable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Objective {
    /// Minimise region wall time (seconds) — the paper's objective.
    #[default]
    #[serde(rename = "time")]
    Time,
    /// Minimise package energy per invocation (joules).
    #[serde(rename = "energy")]
    Energy,
    /// Minimise the energy–delay product (joule-seconds): a compromise
    /// that refuses "slow but frugal" as much as "fast at any wattage".
    #[serde(rename = "edp")]
    EnergyDelay,
}

impl Objective {
    /// Every objective, in display order.
    pub const ALL: [Objective; 3] = [Objective::Time, Objective::Energy, Objective::EnergyDelay];

    /// Score one invocation: lower is better. `Time` returns `time_s`
    /// exactly (bit-identical to the pre-objective scoring path).
    pub fn score(&self, time_s: f64, energy_j: f64) -> f64 {
        match self {
            Objective::Time => time_s,
            Objective::Energy => energy_j,
            Objective::EnergyDelay => energy_j * time_s,
        }
    }

    /// Short stable label, matching the serde representation.
    pub fn label(&self) -> &'static str {
        match self {
            Objective::Time => "time",
            Objective::Energy => "energy",
            Objective::EnergyDelay => "edp",
        }
    }

    /// Unit of [`Objective::score`], for table headers.
    pub fn unit(&self) -> &'static str {
        match self {
            Objective::Time => "s",
            Objective::Energy => "J",
            Objective::EnergyDelay => "J·s",
        }
    }

    /// Parse a CLI spelling. Accepts the labels plus common aliases.
    pub fn parse(s: &str) -> Option<Objective> {
        match s.to_ascii_lowercase().as_str() {
            "time" => Some(Objective::Time),
            "energy" => Some(Objective::Energy),
            "edp" | "energy-delay" | "energydelay" | "energy_delay" => Some(Objective::EnergyDelay),
            _ => None,
        }
    }
}

impl std::fmt::Display for Objective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Objective {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Objective::parse(s)
            .ok_or_else(|| format!("unknown objective `{s}` (expected time, energy or edp)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_score_is_exactly_the_duration() {
        assert_eq!(Objective::Time.score(0.125, 9.0), 0.125);
        assert_eq!(Objective::Energy.score(0.125, 9.0), 9.0);
        assert_eq!(Objective::EnergyDelay.score(0.125, 9.0), 9.0 * 0.125);
    }

    #[test]
    fn labels_round_trip_through_parse_and_serde() {
        for obj in Objective::ALL {
            assert_eq!(Objective::parse(obj.label()), Some(obj));
            let json = serde_json::to_string(&obj).unwrap();
            assert_eq!(json, format!("\"{}\"", obj.label()));
            let back: Objective = serde_json::from_str(&json).unwrap();
            assert_eq!(back, obj);
        }
        assert_eq!("energy-delay".parse::<Objective>(), Ok(Objective::EnergyDelay));
        assert!("speed".parse::<Objective>().is_err());
    }

    #[test]
    fn default_is_time() {
        assert_eq!(Objective::default(), Objective::Time);
    }
}
