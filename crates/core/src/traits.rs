//! The mechanism abstraction and the seven-member mechanism family.

use crate::budget::{Lba, Lbd, Lbu, Lsp};
use crate::collector::RoundCollector;
use crate::config::MechanismConfig;
use crate::error::CoreError;
use crate::population::{Lpa, Lpd, Lpu};
use crate::release::Release;
use serde::{Deserialize, Serialize};

/// A w-event LDP stream-release mechanism.
///
/// A mechanism is a deterministic controller: at every timestamp it
/// decides *who reports with how much budget* (through the collector) and
/// what the server releases. All randomness lives in the collector; two
/// runs of the same mechanism against the same collector state are
/// identical. That split is what makes the privacy argument auditable —
/// the mechanism's entire interaction with user data is its sequence of
/// [`RoundCollector::collect`] calls.
pub trait StreamMechanism: Send {
    /// Stable lowercase name (`"lbu"`, `"lpa"`, …): the kind's name.
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Which family member this is.
    fn kind(&self) -> MechanismKind;

    /// The mechanism's configuration.
    fn config(&self) -> &MechanismConfig;

    /// Process one timestamp: the collector has already been advanced by
    /// [`RoundCollector::begin_step`]; run the rounds this mechanism
    /// needs and return the release.
    fn step(&mut self, collector: &mut dyn RoundCollector) -> Result<Release, CoreError>;

    /// Fresh publications so far (approximated/nullified steps excluded).
    fn publications(&self) -> u64;
}

/// The seven mechanisms of the paper, as a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MechanismKind {
    /// LDP Budget Uniform (§5.2.1): ε/w at every timestamp.
    Lbu,
    /// LDP Sampling (§5.2.2): full ε once per window, approximate rest.
    Lsp,
    /// LDP Budget Distribution (Alg. 1): adaptive, exponentially decaying
    /// publication budget.
    Lbd,
    /// LDP Budget Absorption (Alg. 2): adaptive, uniform budget with
    /// absorption and nullification.
    Lba,
    /// LDP Population Uniform (§6.1): `N/w` fresh users per timestamp,
    /// full ε each.
    Lpu,
    /// LDP Population Distribution (Alg. 3): adaptive, exponentially
    /// decaying publication-user groups.
    Lpd,
    /// LDP Population Absorption (Alg. 4): adaptive, uniform user groups
    /// with absorption and nullification.
    Lpa,
}

impl MechanismKind {
    /// All seven mechanisms, budget division first (paper ordering).
    pub const ALL: [MechanismKind; 7] = [
        MechanismKind::Lbu,
        MechanismKind::Lsp,
        MechanismKind::Lbd,
        MechanismKind::Lba,
        MechanismKind::Lpu,
        MechanismKind::Lpd,
        MechanismKind::Lpa,
    ];

    /// The budget-division members (LSP is grouped with population
    /// division in the paper's plots; see DESIGN.md).
    pub const BUDGET_DIVISION: [MechanismKind; 3] =
        [MechanismKind::Lbu, MechanismKind::Lbd, MechanismKind::Lba];

    /// The population-division members as plotted in the paper
    /// (LSP included: every user reports once per window with full ε).
    pub const POPULATION_DIVISION: [MechanismKind; 4] = [
        MechanismKind::Lsp,
        MechanismKind::Lpu,
        MechanismKind::Lpd,
        MechanismKind::Lpa,
    ];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            MechanismKind::Lbu => "lbu",
            MechanismKind::Lsp => "lsp",
            MechanismKind::Lbd => "lbd",
            MechanismKind::Lba => "lba",
            MechanismKind::Lpu => "lpu",
            MechanismKind::Lpd => "lpd",
            MechanismKind::Lpa => "lpa",
        }
    }

    /// Whether the mechanism divides the population (rather than budget).
    pub fn is_population_division(self) -> bool {
        matches!(
            self,
            MechanismKind::Lsp | MechanismKind::Lpu | MechanismKind::Lpd | MechanismKind::Lpa
        )
    }

    /// Whether the mechanism adapts to the stream (dissimilarity-driven).
    pub fn is_adaptive(self) -> bool {
        matches!(
            self,
            MechanismKind::Lbd | MechanismKind::Lba | MechanismKind::Lpd | MechanismKind::Lpa
        )
    }

    /// Build the mechanism for `config`.
    pub fn build(self, config: &MechanismConfig) -> Result<Box<dyn StreamMechanism>, CoreError> {
        Ok(match self {
            MechanismKind::Lbu => Box::new(Lbu::new(config.clone())?),
            MechanismKind::Lsp => Box::new(Lsp::new(config.clone())?),
            MechanismKind::Lbd => Box::new(Lbd::new(config.clone())?),
            MechanismKind::Lba => Box::new(Lba::new(config.clone())?),
            MechanismKind::Lpu => Box::new(Lpu::new(config.clone())?),
            MechanismKind::Lpd => Box::new(Lpd::new(config.clone())?),
            MechanismKind::Lpa => Box::new(Lpa::new(config.clone())?),
        })
    }
}

impl std::str::FromStr for MechanismKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        MechanismKind::ALL
            .into_iter()
            .find(|k| k.name() == s.to_ascii_lowercase())
            .ok_or_else(|| format!("unknown mechanism `{s}`"))
    }
}

impl std::fmt::Display for MechanismKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_parse_roundtrip() {
        for kind in MechanismKind::ALL {
            assert_eq!(kind.name().parse::<MechanismKind>().unwrap(), kind);
            assert_eq!(format!("{kind}"), kind.name());
        }
        assert!("nope".parse::<MechanismKind>().is_err());
    }

    #[test]
    fn family_partitions() {
        for kind in MechanismKind::ALL {
            let in_b = MechanismKind::BUDGET_DIVISION.contains(&kind);
            let in_p = MechanismKind::POPULATION_DIVISION.contains(&kind);
            assert!(in_b ^ in_p, "{kind} must be in exactly one family");
            assert_eq!(kind.is_population_division(), in_p);
        }
    }

    #[test]
    fn adaptivity_flags() {
        assert!(!MechanismKind::Lbu.is_adaptive());
        assert!(!MechanismKind::Lsp.is_adaptive());
        assert!(!MechanismKind::Lpu.is_adaptive());
        assert!(MechanismKind::Lbd.is_adaptive());
        assert!(MechanismKind::Lba.is_adaptive());
        assert!(MechanismKind::Lpd.is_adaptive());
        assert!(MechanismKind::Lpa.is_adaptive());
    }

    #[test]
    fn build_all_mechanisms() {
        let config = MechanismConfig::new(1.0, 10, 4, 10_000);
        for kind in MechanismKind::ALL {
            let mech = kind.build(&config).unwrap();
            assert_eq!(mech.kind(), kind);
            assert_eq!(mech.name(), kind.name());
            assert_eq!(mech.publications(), 0);
        }
    }

    #[test]
    fn build_rejects_invalid_config() {
        let bad = MechanismConfig::new(-1.0, 10, 4, 10_000);
        for kind in MechanismKind::ALL {
            assert!(kind.build(&bad).is_err(), "{kind} accepted bad epsilon");
        }
    }
}
