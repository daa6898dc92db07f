//! The declarative scenario matrix: which cells a campaign runs.

use pthammer::{HammerMode, VictimChoice};
use pthammer_defenses::DefenseChoice;
use pthammer_dram::FlipModelProfile;
use pthammer_machine::MachineChoice;
use pthammer_patterns::PatternChoice;
use serde::ser::JsonWriter;
use serde::Serialize;

/// Named weak-cell profile, the third axis of the matrix.
///
/// [`FlipModelProfile`] itself is a bag of numbers; campaigns select one of
/// the named presets so reports stay self-describing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ProfileChoice {
    /// Paper-calibrated thresholds (minutes of simulated time to a flip).
    Paper,
    /// Fast profile for examples and scaled sweeps.
    Fast,
    /// CI profile: very weak cells, flips within a few hundred activations.
    Ci,
    /// Rowhammer-free DRAM (control group).
    Invulnerable,
}

impl ProfileChoice {
    /// All named profiles.
    pub fn all() -> Vec<ProfileChoice> {
        vec![
            ProfileChoice::Paper,
            ProfileChoice::Fast,
            ProfileChoice::Ci,
            ProfileChoice::Invulnerable,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ProfileChoice::Paper => "paper",
            ProfileChoice::Fast => "fast",
            ProfileChoice::Ci => "ci",
            ProfileChoice::Invulnerable => "invulnerable",
        }
    }

    /// The concrete weak-cell profile.
    pub fn profile(&self) -> FlipModelProfile {
        match self {
            ProfileChoice::Paper => FlipModelProfile::paper(),
            ProfileChoice::Fast => FlipModelProfile::fast(),
            ProfileChoice::Ci => FlipModelProfile::ci(),
            ProfileChoice::Invulnerable => FlipModelProfile::invulnerable(),
        }
    }
}

/// Coordinates of one campaign cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct CellCoord {
    /// Machine model under attack.
    pub machine: MachineChoice,
    /// Active defense.
    pub defense: DefenseChoice,
    /// Weak-cell profile of the DRAM.
    pub profile: ProfileChoice,
    /// Hammer strategy the cell's attack pipeline runs.
    pub hammer_mode: HammerMode,
    /// Many-sided pattern source, if any: `Some` replaces the hammer
    /// strategy with a `PatternHammer` executing the chosen pattern
    /// (synthesized cells search from the cell seed).
    pub pattern: Option<PatternChoice>,
    /// Victim the cell's `Exploit` phase drives, if explicitly swept:
    /// `Some` injects the chosen victim and makes the cell report its
    /// exploit outcome; `None` runs the default PTE-takeover victim and
    /// serializes exactly as before the axis existed.
    pub victim: Option<VictimChoice>,
    /// Repetition index (varies only the seed).
    pub repetition: u32,
}

/// Declarative cross product of campaign axes.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioMatrix {
    /// Machines axis.
    pub machines: Vec<MachineChoice>,
    /// Defenses axis.
    pub defenses: Vec<DefenseChoice>,
    /// Profiles axis.
    pub profiles: Vec<ProfileChoice>,
    /// Hammer-strategy axis (defaults to the paper's implicit double-sided
    /// mode only).
    pub hammer_modes: Vec<HammerMode>,
    /// Pattern axis (defaults to `[None]`: no many-sided patterns). `Some`
    /// entries run a synthesized/preset pattern through `PatternHammer`
    /// instead of the cell's hammer mode.
    pub patterns: Vec<Option<PatternChoice>>,
    /// Victim axis (defaults to `[None]`: the default PTE-takeover victim,
    /// serialized as before the axis existed). `Some` entries inject the
    /// chosen victim into the `Exploit` phase and make cells report
    /// `exploit_succeeded` / `time_to_exploit`.
    pub victims: Vec<Option<VictimChoice>>,
    /// Seed repetitions per (machine, defense, profile, mode, pattern,
    /// victim) combination.
    pub repetitions: u32,
}

// Hand-written so a default-mode-only, pattern-free, victim-free matrix
// serializes exactly as it did before those axes existed: the
// `hammer_modes`, `patterns` and `victims` keys are emitted only for
// campaigns that actually sweep them, keeping the golden snapshot
// byte-identical.
impl Serialize for ScenarioMatrix {
    fn serialize(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("machines");
        self.machines.serialize(w);
        w.key("defenses");
        self.defenses.serialize(w);
        w.key("profiles");
        self.profiles.serialize(w);
        if !self.is_default_mode_only() {
            w.key("hammer_modes");
            self.hammer_modes.serialize(w);
        }
        if !self.is_pattern_free() {
            w.key("patterns");
            self.patterns.serialize(w);
        }
        if !self.is_victim_free() {
            w.key("victims");
            self.victims.serialize(w);
        }
        w.key("repetitions");
        self.repetitions.serialize(w);
        w.end_object();
    }
}

impl ScenarioMatrix {
    /// Builds a matrix from explicit axes, with the hammer-mode axis pinned
    /// to the paper's default mode.
    pub fn new(
        machines: Vec<MachineChoice>,
        defenses: Vec<DefenseChoice>,
        profiles: Vec<ProfileChoice>,
        repetitions: u32,
    ) -> Self {
        Self {
            machines,
            defenses,
            profiles,
            hammer_modes: vec![HammerMode::default()],
            patterns: vec![None],
            victims: vec![None],
            repetitions,
        }
    }

    /// Replaces the hammer-mode axis (builder style).
    pub fn with_hammer_modes(mut self, hammer_modes: Vec<HammerMode>) -> Self {
        self.hammer_modes = hammer_modes;
        self
    }

    /// Replaces the pattern axis (builder style). `None` entries run the
    /// cell's hammer mode; `Some` entries run the chosen many-sided pattern.
    pub fn with_patterns(mut self, patterns: Vec<Option<PatternChoice>>) -> Self {
        self.patterns = patterns;
        self
    }

    /// Replaces the victim axis (builder style). `None` entries run the
    /// default PTE-takeover victim without exploit-outcome keys; `Some`
    /// entries inject the chosen victim and report its outcome.
    pub fn with_victims(mut self, victims: Vec<Option<VictimChoice>>) -> Self {
        self.victims = victims;
        self
    }

    /// True when the hammer-mode axis is exactly the paper default — the
    /// case whose serialization (and golden snapshot) predates the axis.
    pub fn is_default_mode_only(&self) -> bool {
        self.hammer_modes.len() == 1 && self.hammer_modes[0].is_default()
    }

    /// True when the pattern axis is exactly `[None]` — the case whose
    /// serialization (and golden snapshot) predates the axis.
    pub fn is_pattern_free(&self) -> bool {
        self.patterns == [None]
    }

    /// True when the victim axis is exactly `[None]` — the case whose
    /// serialization (and golden snapshot) predates the axis.
    pub fn is_victim_free(&self) -> bool {
        self.victims == [None]
    }

    /// The pinned victim-sweep regression matrix: the small test machine,
    /// undefended plus CTA, the `ci` and `invulnerable` profiles, every
    /// shipped victim — 1 × 2 × 2 × 3 × 2 = 24 cells showing per-victim
    /// exploit outcomes on the same flips.
    pub fn victim_sweep_ci() -> Self {
        Self::new(
            vec![MachineChoice::TestSmall],
            vec![DefenseChoice::None, DefenseChoice::Cta],
            vec![ProfileChoice::Ci, ProfileChoice::Invulnerable],
            2,
        )
        .with_victims(VictimChoice::all().into_iter().map(Some).collect())
    }

    /// The pinned TRR-era regression matrix: the plain CI machine and its
    /// TRR twin, undefended, the `ci` and `invulnerable` profiles, with the
    /// pattern axis sweeping none → synthesized → the uniform 4-sided
    /// control — 2 × 1 × 2 × 3 × 2 = 24 cells showing "double-sided dies
    /// under TRR, synthesized n-sided still flips".
    pub fn trr_pattern_ci() -> Self {
        Self::new(
            vec![MachineChoice::TestSmall, MachineChoice::TestSmallTrr],
            vec![DefenseChoice::None],
            vec![ProfileChoice::Ci, ProfileChoice::Invulnerable],
            2,
        )
        .with_patterns(vec![
            None,
            Some(PatternChoice::Synthesized),
            Some(PatternChoice::UniformFourSided),
        ])
    }

    /// The CI-scale regression matrix pinned by the golden snapshots: the
    /// small test machine, every defense, the `ci` and `invulnerable`
    /// profiles, three repetitions — 5 × 2 × 3 = 30 cells.
    pub fn ci_default() -> Self {
        Self::new(
            vec![MachineChoice::TestSmall],
            DefenseChoice::all(),
            vec![ProfileChoice::Ci, ProfileChoice::Invulnerable],
            3,
        )
    }

    /// Number of cells in the matrix.
    pub fn len(&self) -> usize {
        self.machines.len()
            * self.defenses.len()
            * self.profiles.len()
            * self.hammer_modes.len()
            * self.patterns.len()
            * self.victims.len()
            * self.repetitions as usize
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes the cells in canonical (machine-major) order. Cell order
    /// determines report row order — and nothing else; per-cell seeds hash
    /// coordinates, not positions.
    pub fn cells(&self) -> Vec<CellCoord> {
        let mut cells = Vec::with_capacity(self.len());
        for &machine in &self.machines {
            for &defense in &self.defenses {
                for &profile in &self.profiles {
                    for &hammer_mode in &self.hammer_modes {
                        for &pattern in &self.patterns {
                            for &victim in &self.victims {
                                for repetition in 0..self.repetitions {
                                    cells.push(CellCoord {
                                        machine,
                                        defense,
                                        profile,
                                        hammer_mode,
                                        pattern,
                                        victim,
                                        repetition,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        cells
    }

    /// Validates the matrix.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem if any axis is empty.
    pub fn validate(&self) -> Result<(), String> {
        if self.machines.is_empty() {
            return Err("matrix has no machines".to_string());
        }
        if self.defenses.is_empty() {
            return Err("matrix has no defenses".to_string());
        }
        if self.profiles.is_empty() {
            return Err("matrix has no profiles".to_string());
        }
        if self.hammer_modes.is_empty() {
            return Err("matrix has no hammer modes".to_string());
        }
        if self.patterns.is_empty() {
            return Err("matrix has no pattern-axis entries".to_string());
        }
        if self.victims.is_empty() {
            return Err("matrix has no victim-axis entries".to_string());
        }
        if self.repetitions == 0 {
            return Err("matrix has zero repetitions".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_default_has_at_least_24_cells() {
        let m = ScenarioMatrix::ci_default();
        assert!(m.len() >= 24, "CI matrix too small: {}", m.len());
        assert_eq!(m.cells().len(), m.len());
        assert!(m.validate().is_ok());
        assert!(m.is_default_mode_only());
    }

    #[test]
    fn cells_are_in_canonical_order_and_unique() {
        let m = ScenarioMatrix::ci_default().with_hammer_modes(HammerMode::all());
        let cells = m.cells();
        assert_eq!(cells.len(), m.len());
        let mut seen = std::collections::HashSet::new();
        for c in &cells {
            assert!(seen.insert(format!("{c:?}")), "duplicate cell {c:?}");
        }
        // First block: first machine, first defense, first profile, first
        // mode.
        assert_eq!(cells[0].machine, m.machines[0]);
        assert_eq!(cells[0].defense, m.defenses[0]);
        assert_eq!(cells[0].hammer_mode, m.hammer_modes[0]);
        assert_eq!(cells[0].repetition, 0);
    }

    #[test]
    fn empty_axes_are_rejected() {
        let mut m = ScenarioMatrix::ci_default();
        m.defenses.clear();
        assert!(m.validate().is_err());
        assert!(m.is_empty());
        let mut m = ScenarioMatrix::ci_default();
        m.repetitions = 0;
        assert!(m.validate().is_err());
        let m = ScenarioMatrix::ci_default().with_hammer_modes(vec![]);
        assert!(m.validate().is_err());
    }

    #[test]
    fn profile_names_round_trip() {
        for p in ProfileChoice::all() {
            assert!(!p.name().is_empty());
            let _ = p.profile();
        }
        assert_eq!(ProfileChoice::Ci.name(), "ci");
    }

    #[test]
    fn pattern_axis_extends_the_cross_product() {
        let m = ScenarioMatrix::trr_pattern_ci();
        assert_eq!(m.len(), 24, "2 machines × 2 profiles × 3 patterns × 2");
        assert!(!m.is_pattern_free());
        assert!(m.validate().is_ok());
        let cells = m.cells();
        assert_eq!(cells.len(), m.len());
        assert_eq!(cells[0].pattern, None);
        assert!(cells
            .iter()
            .any(|c| c.pattern == Some(PatternChoice::Synthesized)));
        let m = ScenarioMatrix::ci_default();
        assert!(m.is_pattern_free());
        assert!(m.cells().iter().all(|c| c.pattern.is_none()));
        let m = ScenarioMatrix::ci_default().with_patterns(vec![]);
        assert!(m.validate().is_err());
    }

    #[test]
    fn victim_axis_extends_the_cross_product() {
        let m = ScenarioMatrix::victim_sweep_ci();
        assert_eq!(m.len(), 24, "2 defenses × 2 profiles × 3 victims × 2");
        assert!(!m.is_victim_free());
        assert!(m.validate().is_ok());
        let cells = m.cells();
        assert_eq!(cells.len(), m.len());
        assert!(cells
            .iter()
            .any(|c| c.victim == Some(VictimChoice::KeyRecovery)));
        let m = ScenarioMatrix::ci_default();
        assert!(m.is_victim_free());
        assert!(m.cells().iter().all(|c| c.victim.is_none()));
        let m = ScenarioMatrix::ci_default().with_victims(vec![]);
        assert!(m.validate().is_err());
    }

    #[test]
    fn victim_free_matrix_serializes_without_the_axis() {
        let mut w = JsonWriter::new(false);
        ScenarioMatrix::ci_default().serialize(&mut w);
        assert!(!w.into_string().contains("victims"));

        let mut w = JsonWriter::new(false);
        ScenarioMatrix::victim_sweep_ci().serialize(&mut w);
        let json = w.into_string();
        assert!(
            json.contains("\"victims\":[\"pte-takeover\",\"cred-corruption\",\"key-recovery\"]"),
            "{json}"
        );
        // Key order: the axis sits between patterns (when present) /
        // profiles and repetitions.
        assert!(json.find("profiles").unwrap() < json.find("victims").unwrap());
        assert!(json.find("victims").unwrap() < json.find("repetitions").unwrap());
    }

    #[test]
    fn pattern_free_matrix_serializes_without_the_axis() {
        let mut w = JsonWriter::new(false);
        ScenarioMatrix::ci_default().serialize(&mut w);
        assert!(!w.into_string().contains("patterns"));

        let mut w = JsonWriter::new(false);
        ScenarioMatrix::trr_pattern_ci().serialize(&mut w);
        let json = w.into_string();
        assert!(
            json.contains("\"patterns\":[null,\"synthesized\",\"uniform-4-sided\"]"),
            "{json}"
        );
        // Key order: the axis sits between hammer modes (when present) /
        // profiles and repetitions.
        assert!(json.find("profiles").unwrap() < json.find("patterns").unwrap());
        assert!(json.find("patterns").unwrap() < json.find("repetitions").unwrap());
    }

    #[test]
    fn default_mode_matrix_serializes_without_the_axis() {
        let mut w = JsonWriter::new(false);
        ScenarioMatrix::ci_default().serialize(&mut w);
        let json = w.into_string();
        assert!(
            !json.contains("hammer_modes"),
            "default-mode matrix must serialize as before the axis existed: {json}"
        );

        let mut w = JsonWriter::new(false);
        ScenarioMatrix::ci_default()
            .with_hammer_modes(HammerMode::all())
            .serialize(&mut w);
        let json = w.into_string();
        // The axis uses the same canonical kebab-case spelling as cell rows
        // and the `--mode` CLI.
        assert!(json.contains("\"hammer_modes\":[\"implicit-double-sided\""));
        // Key order: the axis sits between profiles and repetitions.
        let modes_at = json.find("hammer_modes").unwrap();
        assert!(json.find("profiles").unwrap() < modes_at);
        assert!(modes_at < json.find("repetitions").unwrap());
    }
}
