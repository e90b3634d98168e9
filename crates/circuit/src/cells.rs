//! Static-CMOS standard-cell templates.
//!
//! A [`CellTemplate`] describes a logic cell as a list of [`Stage`]s, each a
//! fully complementary static-CMOS gate given by its pull-down network
//! (the pull-up network is always the series/parallel dual). Templates are
//! the *single source of truth* shared by:
//!
//! * the switch-level expander ([`crate::switch`]), which turns each stage
//!   into NMOS/PMOS transistors, and
//! * the layout generator (`dlp-layout`), which draws each stage as poly
//!   columns over diffusion strips.
//!
//! Multi-stage templates express cells whose CMOS realisation is not a
//! single complex gate: `BUF` (two inverters), `AND`/`OR` (NAND/NOR plus
//! inverter) and the classic 4-NAND `XOR` structure used by standard-cell
//! libraries.

use crate::{GateKind, NetlistError};

/// A signal visible inside a cell: either one of the cell's input pins or
/// the output of an earlier stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StageSignal {
    /// Cell input pin by index.
    Pin(usize),
    /// Output of stage `i` (must be `< `the consuming stage's index).
    Stage(usize),
}

/// A series/parallel pull-down network expression.
///
/// `Series` stacks transistors between the stage output and ground
/// (AND-like); `Parallel` puts them side by side (OR-like). The pull-up
/// network is derived as the structural dual, so every stage is a proper
/// fully-complementary static-CMOS gate and the stage function is the
/// inversion of the PDN condition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PdnExpr {
    /// A single NMOS transistor gated by the signal.
    Leaf(StageSignal),
    /// Series composition (all sub-networks must conduct).
    Series(Vec<PdnExpr>),
    /// Parallel composition (any sub-network suffices).
    Parallel(Vec<PdnExpr>),
}

impl PdnExpr {
    /// The structural dual: series ↔ parallel, leaves unchanged. Applying
    /// it twice returns the original expression.
    pub fn dual(&self) -> PdnExpr {
        match self {
            PdnExpr::Leaf(s) => PdnExpr::Leaf(*s),
            PdnExpr::Series(v) => PdnExpr::Parallel(v.iter().map(PdnExpr::dual).collect()),
            PdnExpr::Parallel(v) => PdnExpr::Series(v.iter().map(PdnExpr::dual).collect()),
        }
    }

    /// Evaluates whether the network conducts given a predicate for each
    /// leaf signal being at logic 1.
    #[cfg(test)]
    fn conducts(&self, high: &dyn Fn(StageSignal) -> bool) -> bool {
        match self {
            PdnExpr::Leaf(s) => high(*s),
            PdnExpr::Series(v) => v.iter().all(|e| e.conducts(high)),
            PdnExpr::Parallel(v) => v.iter().any(|e| e.conducts(high)),
        }
    }

    /// Leaf signals in left-to-right order (with repetition).
    pub fn leaves(&self) -> Vec<StageSignal> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves(&self, out: &mut Vec<StageSignal>) {
        match self {
            PdnExpr::Leaf(s) => out.push(*s),
            PdnExpr::Series(v) | PdnExpr::Parallel(v) => {
                for e in v {
                    e.collect_leaves(out);
                }
            }
        }
    }
}

/// One fully-complementary CMOS stage of a cell.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Stage {
    /// Pull-down network between the stage output and ground. The pull-up
    /// network is `pdn.dual()` between VDD and the stage output.
    pub pdn: PdnExpr,
}

impl Stage {
    /// Stage output as a boolean function of its leaf signals: the output
    /// is high iff the PDN does *not* conduct.
    #[cfg(test)]
    fn eval(&self, high: &dyn Fn(StageSignal) -> bool) -> bool {
        !self.pdn.conducts(high)
    }
}

/// A standard cell: named, with input pins and one output, realised as a
/// cascade of [`Stage`]s. The last stage drives the cell output.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellTemplate {
    name: String,
    kind: GateKind,
    stages: Vec<Stage>,
}

impl CellTemplate {
    /// The library name of the cell, e.g. `NAND3` or `XOR2`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The gate kind this cell implements.
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// The CMOS stages, in evaluation order.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Evaluates the cell's logic function on concrete pin values (one
    /// per pin), by cascading stages: the test reference that cells and
    /// the switch-level expansion are checked against [`GateKind`] word
    /// evaluation with.
    #[cfg(test)]
    pub(crate) fn eval(&self, pins: &[bool]) -> bool {
        let mut stage_out = Vec::with_capacity(self.stages.len());
        let mut last = false;
        for stage in &self.stages {
            let v = stage.eval(&|s| match s {
                StageSignal::Pin(i) => pins[i],
                StageSignal::Stage(j) => stage_out[j],
            });
            stage_out.push(v);
            last = v;
        }
        last
    }
}

fn pin(i: usize) -> PdnExpr {
    PdnExpr::Leaf(StageSignal::Pin(i))
}

fn stage_sig(i: usize) -> PdnExpr {
    PdnExpr::Leaf(StageSignal::Stage(i))
}

/// Builds the library template for a gate of the given kind and arity.
///
/// Supported cells: `INV`, `BUF`, `NAND2..8`, `NOR2..8`, `AND2..8`,
/// `OR2..8`, and XOR/XNOR of any arity ≥ 2 (decomposed into a cascade of
/// the classic 4-NAND XOR block).
///
/// # Errors
///
/// [`NetlistError::BadArity`] if the kind/arity combination is not
/// realisable as a library cell ([`GateKind::Input`] included).
pub fn template_for(kind: GateKind, arity: usize) -> Result<CellTemplate, NetlistError> {
    let bad = |expected: &'static str| NetlistError::BadArity {
        gate: format!("{kind}{arity}"),
        got: arity,
        expected,
    };
    let simple = |name: String, stages: Vec<Stage>| CellTemplate { name, kind, stages };
    match kind {
        GateKind::Input => Err(bad("inputs are not cells")),
        GateKind::Not => {
            if arity != 1 {
                return Err(bad("exactly 1"));
            }
            Ok(simple("INV".into(), vec![Stage { pdn: pin(0) }]))
        }
        GateKind::Buf => {
            if arity != 1 {
                return Err(bad("exactly 1"));
            }
            Ok(simple(
                "BUF".into(),
                vec![Stage { pdn: pin(0) }, Stage { pdn: stage_sig(0) }],
            ))
        }
        GateKind::Nand | GateKind::And | GateKind::Nor | GateKind::Or => {
            if !(2..=8).contains(&arity) {
                return Err(bad("between 2 and 8"));
            }
            let leaves: Vec<PdnExpr> = (0..arity).map(pin).collect();
            let first = match kind {
                GateKind::Nand | GateKind::And => PdnExpr::Series(leaves),
                _ => PdnExpr::Parallel(leaves),
            };
            let mut stages = vec![Stage { pdn: first }];
            let inverted = matches!(kind, GateKind::And | GateKind::Or);
            if inverted {
                stages.push(Stage { pdn: stage_sig(0) });
            }
            let base = match kind {
                GateKind::Nand => "NAND",
                GateKind::And => "AND",
                GateKind::Nor => "NOR",
                GateKind::Or => "OR",
                _ => unreachable!(),
            };
            Ok(simple(format!("{base}{arity}"), stages))
        }
        GateKind::Xor | GateKind::Xnor => {
            if arity < 2 {
                return Err(bad("at least 2"));
            }
            // Cascade of 4-NAND XOR blocks:
            //   x = a xor b:  s0 = nand(a,b); s1 = nand(a,s0);
            //                 s2 = nand(b,s0); s3 = nand(s1,s2) = x
            let mut stages: Vec<Stage> = Vec::new();
            let mut acc = StageSignal::Pin(0);
            for p in 1..arity {
                let a = acc;
                let b = StageSignal::Pin(p);
                let s0 = stages.len();
                stages.push(Stage {
                    pdn: PdnExpr::Series(vec![PdnExpr::Leaf(a), PdnExpr::Leaf(b)]),
                });
                stages.push(Stage {
                    pdn: PdnExpr::Series(vec![PdnExpr::Leaf(a), stage_sig(s0)]),
                });
                stages.push(Stage {
                    pdn: PdnExpr::Series(vec![PdnExpr::Leaf(b), stage_sig(s0)]),
                });
                stages.push(Stage {
                    pdn: PdnExpr::Series(vec![stage_sig(s0 + 1), stage_sig(s0 + 2)]),
                });
                acc = StageSignal::Stage(s0 + 3);
            }
            if kind == GateKind::Xnor {
                let StageSignal::Stage(last) = acc else {
                    unreachable!()
                };
                stages.push(Stage {
                    pdn: stage_sig(last),
                });
            }
            let base = if kind == GateKind::Xor { "XOR" } else { "XNOR" };
            Ok(simple(format!("{base}{arity}"), stages))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exhaustive_check(kind: GateKind, arity: usize) {
        let cell = template_for(kind, arity).unwrap();
        for pattern in 0..1u32 << arity {
            let pins: Vec<bool> = (0..arity).map(|i| pattern >> i & 1 == 1).collect();
            let words: Vec<u64> = pins.iter().map(|&b| if b { 1 } else { 0 }).collect();
            let expect = kind.eval_words(&words) & 1 == 1;
            assert_eq!(
                cell.eval(&pins),
                expect,
                "{kind}{arity} pattern {pattern:b}"
            );
        }
    }

    #[test]
    fn every_supported_cell_matches_its_gate_function() {
        exhaustive_check(GateKind::Not, 1);
        exhaustive_check(GateKind::Buf, 1);
        for arity in 2..=8 {
            exhaustive_check(GateKind::Nand, arity);
            exhaustive_check(GateKind::Nor, arity);
            exhaustive_check(GateKind::And, arity);
            exhaustive_check(GateKind::Or, arity);
        }
        for arity in 2..=5 {
            exhaustive_check(GateKind::Xor, arity);
            exhaustive_check(GateKind::Xnor, arity);
        }
    }

    /// Total transistors in a cell (NMOS + PMOS per PDN leaf).
    fn transistor_count(cell: &CellTemplate) -> usize {
        cell.stages().iter().map(|s| 2 * s.pdn.leaves().len()).sum()
    }

    #[test]
    fn transistor_counts() {
        assert_eq!(
            transistor_count(&template_for(GateKind::Not, 1).unwrap()),
            2
        );
        assert_eq!(
            transistor_count(&template_for(GateKind::Nand, 2).unwrap()),
            4
        );
        assert_eq!(
            transistor_count(&template_for(GateKind::Nand, 3).unwrap()),
            6
        );
        assert_eq!(
            transistor_count(&template_for(GateKind::And, 2).unwrap()),
            6
        );
        // XOR2 = 4 NAND2-ish stages = 4*4 transistors.
        assert_eq!(
            transistor_count(&template_for(GateKind::Xor, 2).unwrap()),
            16
        );
        assert_eq!(
            transistor_count(&template_for(GateKind::Xnor, 2).unwrap()),
            18
        );
    }

    #[test]
    fn dual_is_involutive() {
        let e = PdnExpr::Series(vec![
            pin(0),
            PdnExpr::Parallel(vec![pin(1), PdnExpr::Series(vec![pin(2), pin(3)])]),
        ]);
        assert_eq!(e.dual().dual(), e);
        assert_eq!(e.leaves(), e.dual().leaves());
    }

    #[test]
    fn dual_complements_conduction_for_cmos() {
        // For any input assignment, exactly one of PDN / PUN conducts
        // (PUN conducts when the dual does on *inverted* inputs).
        let e = PdnExpr::Parallel(vec![PdnExpr::Series(vec![pin(0), pin(1)]), pin(2)]);
        let dual = e.dual();
        for pattern in 0..8u32 {
            let high = |s: StageSignal| match s {
                StageSignal::Pin(i) => pattern >> i & 1 == 1,
                _ => unreachable!(),
            };
            let low = |s: StageSignal| !high(s);
            assert_ne!(e.conducts(&high), dual.conducts(&low), "pattern {pattern}");
        }
    }

    #[test]
    fn unsupported_arities_rejected() {
        assert!(template_for(GateKind::Nand, 1).is_err());
        assert!(template_for(GateKind::Nand, 9).is_err());
        assert!(template_for(GateKind::Not, 2).is_err());
        assert!(template_for(GateKind::Input, 0).is_err());
        assert!(template_for(GateKind::Xor, 1).is_err());
    }

    #[test]
    fn cell_names_follow_convention() {
        assert_eq!(template_for(GateKind::Nand, 3).unwrap().name(), "NAND3");
        assert_eq!(template_for(GateKind::Not, 1).unwrap().name(), "INV");
        assert_eq!(template_for(GateKind::Xnor, 2).unwrap().name(), "XNOR2");
    }

    #[test]
    fn leaves_in_order() {
        let e = PdnExpr::Series(vec![pin(1), PdnExpr::Parallel(vec![pin(0), pin(2)])]);
        assert_eq!(
            e.leaves(),
            vec![
                StageSignal::Pin(1),
                StageSignal::Pin(0),
                StageSignal::Pin(2)
            ]
        );
    }
}
