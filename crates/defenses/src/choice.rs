//! First-class defense selection: every evaluated defense as one enum that
//! can build its placement policy and boot a defended [`System`].
//!
//! The paper's Section IV-G treats defense × attack combinations as an
//! evaluation matrix; [`DefenseChoice`] is the axis type for that matrix,
//! shared by the campaign harness, the bench scenarios, and the examples.

use pthammer_dram::FlipModel;
use pthammer_kernel::{DefaultPolicy, DefenseKind, KernelConfig, PlacementPolicy, System};
use pthammer_machine::MachineConfig;
use serde::Serialize;

/// The defense configurations evaluated in Section IV-G (plus the undefended
/// baseline and ZebRAM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum DefenseChoice {
    /// No defense (baseline).
    None,
    /// CATT kernel/user partitioning.
    Catt,
    /// RIP-RH per-process partitioning.
    RipRh,
    /// CTA true-cell L1PT region.
    Cta,
    /// ZebRAM guard rows (expected to stop the attack).
    Zebram,
}

impl DefenseChoice {
    /// All evaluated defenses.
    pub fn all() -> Vec<DefenseChoice> {
        vec![
            DefenseChoice::None,
            DefenseChoice::Catt,
            DefenseChoice::RipRh,
            DefenseChoice::Cta,
            DefenseChoice::Zebram,
        ]
    }

    /// Display name (delegates to the typed [`DefenseKind`] so the spelling
    /// exists in exactly one place).
    pub fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// The typed defense identity this choice builds; the same value every
    /// policy built by [`DefenseChoice::policy`] reports from
    /// [`PlacementPolicy::kind`].
    pub fn kind(&self) -> DefenseKind {
        match self {
            DefenseChoice::None => DefenseKind::Undefended,
            DefenseChoice::Catt => DefenseKind::Catt,
            DefenseChoice::RipRh => DefenseKind::RipRh,
            DefenseChoice::Cta => DefenseKind::Cta,
            DefenseChoice::Zebram => DefenseKind::Zebram,
        }
    }

    /// Builds the placement policy for a given machine configuration.
    pub fn policy(&self, machine: &MachineConfig) -> Box<dyn PlacementPolicy> {
        let geometry = &machine.dram.geometry;
        match self {
            DefenseChoice::None => Box::new(DefaultPolicy::new()),
            DefenseChoice::Catt => Box::new(crate::CattPolicy::new(geometry, 0.25, 1)),
            DefenseChoice::RipRh => Box::new(crate::RipRhPolicy::new(geometry, 64, 2)),
            DefenseChoice::Cta => {
                let model = FlipModel::new(
                    machine.dram.flip_profile,
                    machine.dram.flip_seed,
                    geometry.row_bytes,
                );
                Box::new(crate::CtaPolicy::new(geometry, &model, 0.2))
            }
            DefenseChoice::Zebram => Box::new(crate::ZebramPolicy::new(geometry)),
        }
    }

    /// Adjusts a machine configuration for deployment assumptions the defense
    /// makes. CTA's published deployment requires DRAM whose weak cells are
    /// predominantly true cells, so its profile is biased that way — exactly
    /// as the paper's Section IV-G evaluation does.
    pub fn prepare_machine(&self, machine: &mut MachineConfig) {
        if *self == DefenseChoice::Cta {
            machine.dram.flip_profile.true_cell_fraction = 0.9;
        }
    }

    /// Boots a [`System`] defended by this policy: applies
    /// [`prepare_machine`](Self::prepare_machine), builds the policy, and
    /// constructs the system.
    pub fn build_system(&self, mut machine: MachineConfig, kernel: KernelConfig) -> System {
        self.prepare_machine(&mut machine);
        let policy = self.policy(&machine);
        System::new(machine, kernel, policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pthammer_dram::FlipModelProfile;
    use pthammer_machine::MachineChoice;

    #[test]
    fn defense_choices_build_policies() {
        let machine = MachineChoice::LenovoT420.config(FlipModelProfile::fast(), 3);
        for defense in DefenseChoice::all() {
            let policy = defense.policy(&machine);
            assert!(!policy.name().is_empty());
            assert_eq!(
                policy.kind(),
                defense.kind(),
                "policy built by {defense:?} must report the matching kind"
            );
        }
        assert_eq!(DefenseChoice::Cta.name(), "CTA");
        assert_eq!(DefenseChoice::None.kind(), DefenseKind::Undefended);
    }

    #[test]
    fn cta_biases_true_cells_other_defenses_do_not() {
        let base = MachineChoice::TestSmall.config(FlipModelProfile::ci(), 5);
        for defense in DefenseChoice::all() {
            let mut machine = base.clone();
            defense.prepare_machine(&mut machine);
            if defense == DefenseChoice::Cta {
                assert!((machine.dram.flip_profile.true_cell_fraction - 0.9).abs() < 1e-12);
            } else {
                assert_eq!(
                    machine.dram.flip_profile.true_cell_fraction,
                    base.dram.flip_profile.true_cell_fraction
                );
            }
        }
    }

    #[test]
    fn build_system_boots_each_defense() {
        for defense in DefenseChoice::all() {
            let machine = MachineChoice::TestSmall.config(FlipModelProfile::invulnerable(), 9);
            let mut sys = defense.build_system(machine, KernelConfig::default_config());
            let pid = sys.spawn_process(1000).expect("spawn");
            assert_eq!(sys.getuid(pid).expect("uid"), 1000);
        }
    }
}
