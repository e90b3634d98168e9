//! The realistic fault taxonomy and its mapping onto simulator faults.
//!
//! Extraction produces faults in *layout terms* ([`RealisticFault`]);
//! [`FaultSet::to_switch_faults`] lowers them onto a
//! [`SwitchNetlist`](dlp_circuit::switch::SwitchNetlist) for simulation.
//! Floating levels of interconnect breaks are sampled deterministically
//! per fault (an open leaves the detached input at a level set by local
//! coupling; the [`OpenLevelModel`] gives the population fractions —
//! the `X` fraction is what voltage testing can never see).

use dlp_circuit::switch::SwitchNetlist;
use dlp_circuit::{Netlist, NodeId};
use dlp_layout::chip::ElecNet;
use dlp_sim::switchlevel::{Logic, SwitchFault};

use crate::ExtractError;

/// What an interconnect break detaches.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Detached {
    /// A single sink gate's input branch.
    Sink(NodeId),
    /// The whole net (break at the driver).
    All,
    /// A primary output's observation pad branch.
    Observation(usize),
}

/// A layout-extracted fault.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Short between two nets (or a net and a rail: `rail` is `Some(level)`).
    Bridge {
        /// First net.
        a: ElecNet,
        /// Second net, or `None` when bridged to a rail.
        b: Option<ElecNet>,
        /// The rail level when `b` is `None` (`true` = VDD).
        rail: Option<bool>,
    },
    /// An interconnect break on a net.
    Break {
        /// The broken net.
        net: ElecNet,
        /// What comes loose.
        detached: Detached,
    },
    /// A transistor that can no longer conduct.
    StuckOpen {
        /// Owning gate.
        owner: NodeId,
        /// Device ordinal within the owner (expansion order).
        ordinal: usize,
    },
    /// A transistor that always conducts.
    StuckOn {
        /// Owning gate.
        owner: NodeId,
        /// Device ordinal within the owner (expansion order).
        ordinal: usize,
    },
}

impl FaultKind {
    /// True for shorts (bridges), false for the open family.
    fn is_bridge(&self) -> bool {
        matches!(self, FaultKind::Bridge { .. } | FaultKind::StuckOn { .. })
    }
}

/// A fault with its occurrence weight (`w = Σ A·D`, eq. 4).
#[derive(Debug, Clone, PartialEq)]
pub struct RealisticFault {
    /// What the defect does.
    pub kind: FaultKind,
    /// Expected inducing defects per die (before yield scaling).
    pub weight: f64,
    /// A stable human-readable identity for reports.
    pub label: String,
}

/// Population fractions for the level a floating (broken) input assumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLevelModel {
    /// Fraction coupling to ground (behaves as stuck-at-0).
    pub p_zero: f64,
    /// Fraction coupling to VDD (behaves as stuck-at-1).
    pub p_one: f64,
    /// Fraction at an intermediate level — invisible to steady-state
    /// voltage tests (drives `θ_max < 1`).
    pub p_x: f64,
}

impl Default for OpenLevelModel {
    fn default() -> Self {
        OpenLevelModel {
            p_zero: 0.4,
            p_one: 0.4,
            p_x: 0.2,
        }
    }
}

impl OpenLevelModel {
    /// Deterministically samples a level from the fault's label hash.
    pub fn sample(&self, label: &str) -> Logic {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        let total = self.p_zero + self.p_one + self.p_x;
        if u < self.p_zero / total {
            Logic::Zero
        } else if u < (self.p_zero + self.p_one) / total {
            Logic::One
        } else {
            Logic::X
        }
    }
}

/// The extracted fault list of a chip.
#[derive(Debug, Clone)]
pub struct FaultSet {
    faults: Vec<RealisticFault>,
}

impl FaultSet {
    /// Wraps a fault vector.
    pub fn new(faults: Vec<RealisticFault>) -> Self {
        FaultSet { faults }
    }

    /// The faults.
    pub fn faults(&self) -> &[RealisticFault] {
        &self.faults
    }

    /// Number of faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True if no faults were extracted.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The weight vector, parallel to [`faults`](Self::faults).
    pub fn weights(&self) -> Vec<f64> {
        self.faults.iter().map(|f| f.weight).collect()
    }

    /// Total weight of bridge-family faults.
    pub fn bridge_weight(&self) -> f64 {
        self.faults
            .iter()
            .filter(|f| f.kind.is_bridge())
            .map(|f| f.weight)
            .sum()
    }

    /// Total weight of open-family faults.
    pub fn open_weight(&self) -> f64 {
        self.faults
            .iter()
            .filter(|f| !f.kind.is_bridge())
            .map(|f| f.weight)
            .sum()
    }

    /// Lowers every fault onto the switch netlist for simulation.
    ///
    /// The returned vector is parallel to [`faults`](Self::faults).
    ///
    /// # Errors
    ///
    /// [`ExtractError::MissingStageNode`],
    /// [`ExtractError::RailBridgeWithoutLevel`] or
    /// [`ExtractError::UnknownTransistor`] when the switch netlist does
    /// not correspond to the gate-level netlist the chip was generated
    /// from (or the fault set was built against a different design).
    pub fn to_switch_faults(
        &self,
        netlist: &Netlist,
        sw: &SwitchNetlist,
        open_model: &OpenLevelModel,
    ) -> Result<Vec<SwitchFault>, ExtractError> {
        // Per-owner transistor index base: expansion order is per-gate
        // contiguous, so (owner, ordinal) -> global index is base + ordinal.
        let mut base: std::collections::HashMap<NodeId, usize> = std::collections::HashMap::new();
        let mut counts: std::collections::HashMap<NodeId, usize> = std::collections::HashMap::new();
        for (i, t) in sw.transistors().iter().enumerate() {
            base.entry(t.owner).or_insert(i);
            *counts.entry(t.owner).or_insert(0) += 1;
        }
        let node_of = |net: &ElecNet| match net {
            ElecNet::Signal(n) => Ok(sw.node_of_net(*n)),
            ElecNet::Stage(g, s) => {
                let name = format!("{}#s{}", netlist.node_name(*g), s);
                sw.node_by_name(&name)
                    .ok_or(ExtractError::MissingStageNode(name))
            }
        };
        let device_of = |owner: &NodeId, ordinal: usize| match (base.get(owner), counts.get(owner))
        {
            (Some(&b), Some(&n)) if ordinal < n => Ok(b + ordinal),
            _ => Err(ExtractError::UnknownTransistor {
                owner: netlist.node_name(*owner).to_string(),
                ordinal,
            }),
        };
        self.faults
            .iter()
            .map(|f| {
                Ok(match &f.kind {
                    FaultKind::Bridge { a, b: Some(b), .. } => SwitchFault::Bridge {
                        a: node_of(a)?,
                        b: node_of(b)?,
                    },
                    FaultKind::Bridge { a, b: None, rail } => SwitchFault::Bridge {
                        a: node_of(a)?,
                        b: match rail {
                            Some(true) => dlp_circuit::switch::SwitchNodeId::VDD,
                            Some(false) => dlp_circuit::switch::SwitchNodeId::GND,
                            None => {
                                return Err(ExtractError::RailBridgeWithoutLevel(f.label.clone()))
                            }
                        },
                    },
                    FaultKind::Break { net, detached } => match detached {
                        Detached::Observation(oi) => SwitchFault::OutputRead {
                            output: *oi,
                            level: open_model.sample(&f.label),
                        },
                        Detached::Sink(g) => SwitchFault::FloatingInput {
                            net: node_of(net)?,
                            owners: vec![*g],
                            level: open_model.sample(&f.label),
                        },
                        Detached::All => {
                            let owners: Vec<NodeId> = match net {
                                ElecNet::Signal(n) => netlist.fanout(*n).to_vec(),
                                ElecNet::Stage(g, _) => vec![*g],
                            };
                            SwitchFault::FloatingInput {
                                net: node_of(net)?,
                                owners,
                                level: open_model.sample(&f.label),
                            }
                        }
                    },
                    FaultKind::StuckOpen { owner, ordinal } => SwitchFault::StuckOpen {
                        transistor: device_of(owner, *ordinal)?,
                    },
                    FaultKind::StuckOn { owner, ordinal } => SwitchFault::StuckOn {
                        transistor: device_of(owner, *ordinal)?,
                    },
                })
            })
            .collect()
    }

    /// Drops faults with negligible weight (below `threshold` of the total
    /// weight) — used to keep switch-level simulation affordable without
    /// visibly changing θ. Returns the number of faults dropped.
    pub fn prune_below(&mut self, threshold: f64) -> usize {
        let total: f64 = self.faults.iter().map(|f| f.weight).sum();
        let cut = total * threshold;
        let before = self.faults.len();
        self.faults.retain(|f| f.weight >= cut);
        before - self.faults.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlp_circuit::generators;
    use dlp_circuit::switch;

    #[test]
    fn open_level_sampling_is_deterministic_and_distributed() {
        let m = OpenLevelModel::default();
        assert_eq!(m.sample("abc"), m.sample("abc"));
        let mut counts = [0usize; 3];
        for i in 0..3000 {
            match m.sample(&format!("fault{i}")) {
                Logic::Zero => counts[0] += 1,
                Logic::One => counts[1] += 1,
                Logic::X => counts[2] += 1,
            }
        }
        // Roughly 40/40/20.
        assert!((counts[0] as f64 / 3000.0 - 0.4).abs() < 0.05, "{counts:?}");
        assert!((counts[2] as f64 / 3000.0 - 0.2).abs() < 0.05, "{counts:?}");
    }

    #[test]
    fn lowering_bridges_and_breaks() {
        let nl = generators::c17();
        let sw = switch::expand(&nl).unwrap();
        let n10 = nl.find("10").unwrap();
        let n16 = nl.find("16").unwrap();
        let g22 = nl.find("22").unwrap();
        let set = FaultSet::new(vec![
            RealisticFault {
                kind: FaultKind::Bridge {
                    a: ElecNet::Signal(n10),
                    b: Some(ElecNet::Signal(n16)),
                    rail: None,
                },
                weight: 1e-3,
                label: "br:10:16".into(),
            },
            RealisticFault {
                kind: FaultKind::Break {
                    net: ElecNet::Signal(n10),
                    detached: Detached::Sink(g22),
                },
                weight: 1e-4,
                label: "op:10:22".into(),
            },
            RealisticFault {
                kind: FaultKind::Bridge {
                    a: ElecNet::Signal(n10),
                    b: None,
                    rail: Some(true),
                },
                weight: 1e-5,
                label: "br:10:vdd".into(),
            },
            RealisticFault {
                kind: FaultKind::Break {
                    net: ElecNet::Signal(n10),
                    detached: Detached::All,
                },
                weight: 2e-5,
                label: "op:10:all".into(),
            },
        ]);
        let lowered = set
            .to_switch_faults(&nl, &sw, &OpenLevelModel::default())
            .unwrap();
        assert_eq!(lowered.len(), 4);
        assert!(matches!(lowered[0], SwitchFault::Bridge { .. }));
        match &lowered[1] {
            SwitchFault::FloatingInput { owners, .. } => assert_eq!(owners, &vec![g22]),
            other => panic!("{other:?}"),
        }
        match &lowered[2] {
            SwitchFault::Bridge { b, .. } => {
                assert_eq!(*b, dlp_circuit::switch::SwitchNodeId::VDD)
            }
            other => panic!("{other:?}"),
        }
        match &lowered[3] {
            SwitchFault::FloatingInput { owners, .. } => {
                assert_eq!(owners.len(), nl.fanout(n10).len())
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn lowering_transistor_faults_uses_expansion_order() {
        let nl = generators::c17();
        let sw = switch::expand(&nl).unwrap();
        let g = nl.find("16").unwrap();
        let set = FaultSet::new(vec![RealisticFault {
            kind: FaultKind::StuckOpen {
                owner: g,
                ordinal: 1,
            },
            weight: 1e-6,
            label: "so:16:1".into(),
        }]);
        let lowered = set
            .to_switch_faults(&nl, &sw, &OpenLevelModel::default())
            .unwrap();
        match lowered[0] {
            SwitchFault::StuckOpen { transistor } => {
                assert_eq!(sw.transistors()[transistor].owner, g);
                // Ordinal 1 of a NAND2 is the second NMOS.
                assert_eq!(
                    sw.transistors()[transistor].kind,
                    dlp_circuit::switch::TransKind::Nmos
                );
            }
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn lowering_mismatched_netlists_is_a_typed_error() {
        let nl = generators::c17();
        let sw = switch::expand(&nl).unwrap();
        let g = nl.find("16").unwrap();
        // Device ordinal past the owner's expansion.
        let set = FaultSet::new(vec![RealisticFault {
            kind: FaultKind::StuckOpen {
                owner: g,
                ordinal: 999,
            },
            weight: 1e-6,
            label: "so:16:999".into(),
        }]);
        let err = set
            .to_switch_faults(&nl, &sw, &OpenLevelModel::default())
            .unwrap_err();
        assert!(
            matches!(err, ExtractError::UnknownTransistor { .. }),
            "{err}"
        );
        // Rail bridge missing its level.
        let set = FaultSet::new(vec![RealisticFault {
            kind: FaultKind::Bridge {
                a: ElecNet::Signal(g),
                b: None,
                rail: None,
            },
            weight: 1e-6,
            label: "br:bad".into(),
        }]);
        let err = set
            .to_switch_faults(&nl, &sw, &OpenLevelModel::default())
            .unwrap_err();
        assert!(
            matches!(err, ExtractError::RailBridgeWithoutLevel(_)),
            "{err}"
        );
        // Stage net that the switch netlist does not know.
        let set = FaultSet::new(vec![RealisticFault {
            kind: FaultKind::Break {
                net: ElecNet::Stage(g, 7),
                detached: Detached::All,
            },
            weight: 1e-6,
            label: "op:bad".into(),
        }]);
        let err = set
            .to_switch_faults(&nl, &sw, &OpenLevelModel::default())
            .unwrap_err();
        assert!(matches!(err, ExtractError::MissingStageNode(_)), "{err}");
    }

    #[test]
    fn bookkeeping() {
        let mut set = FaultSet::new(vec![
            RealisticFault {
                kind: FaultKind::StuckOn {
                    owner: NodeId::from_index(0),
                    ordinal: 0,
                },
                weight: 0.9,
                label: "a".into(),
            },
            RealisticFault {
                kind: FaultKind::Break {
                    net: ElecNet::Signal(NodeId::from_index(0)),
                    detached: Detached::All,
                },
                weight: 0.1,
                label: "b".into(),
            },
            RealisticFault {
                kind: FaultKind::Break {
                    net: ElecNet::Signal(NodeId::from_index(0)),
                    detached: Detached::All,
                },
                weight: 1e-9,
                label: "c".into(),
            },
        ]);
        assert_eq!(set.len(), 3);
        assert!((set.bridge_weight() - 0.9).abs() < 1e-12);
        assert!((set.open_weight() - 0.1).abs() < 1e-7);
        assert_eq!(set.prune_below(1e-6), 1);
        assert_eq!(set.len(), 2);
    }
}
