//! Three-valued composite (good/faulty) simulation for PODEM.
//!
//! PODEM reasons over partial input assignments: unassigned inputs are `X`.
//! A [`Composite`] value carries the good-circuit and faulty-circuit levels
//! side by side, so `D` (good 1 / faulty 0) and `D̄` are representable
//! without a separate five-valued algebra.

use dlp_circuit::{GateKind, Netlist};
use dlp_sim::stuck_at::{FaultSite, StuckAtFault};
use dlp_sim::switchlevel::Logic;

/// A good/faulty value pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Composite {
    /// Value in the fault-free circuit.
    pub good: Logic,
    /// Value in the faulty circuit.
    pub faulty: Logic,
}

impl Composite {
    /// Both copies `X`.
    pub const XX: Composite = Composite {
        good: Logic::X,
        faulty: Logic::X,
    };

    /// A known, fault-free value on both copies.
    #[cfg(test)]
    fn known(b: bool) -> Composite {
        let l = Logic::from_bool(b);
        Composite { good: l, faulty: l }
    }

    /// True if the line carries a fault effect (`D` or `D̄`).
    pub fn is_d(self) -> bool {
        self.good.is_known() && self.faulty.is_known() && self.good != self.faulty
    }

    /// True if either copy is `X`.
    pub fn has_x(self) -> bool {
        !self.good.is_known() || !self.faulty.is_known()
    }
}

/// Evaluates a gate in three-valued logic.
fn eval3(kind: GateKind, fanin: &[Logic]) -> Logic {
    match kind {
        GateKind::Input => panic!("inputs are not evaluated"),
        GateKind::Buf => fanin[0],
        GateKind::Not => fanin[0].not(),
        GateKind::And | GateKind::Nand => {
            let mut any_x = false;
            let mut v = Logic::One;
            for &f in fanin {
                match f {
                    Logic::Zero => {
                        v = Logic::Zero;
                        any_x = false;
                        break;
                    }
                    Logic::X => any_x = true,
                    Logic::One => {}
                }
            }
            let v = if any_x { Logic::X } else { v };
            if kind == GateKind::Nand {
                v.not()
            } else {
                v
            }
        }
        GateKind::Or | GateKind::Nor => {
            let mut any_x = false;
            let mut v = Logic::Zero;
            for &f in fanin {
                match f {
                    Logic::One => {
                        v = Logic::One;
                        any_x = false;
                        break;
                    }
                    Logic::X => any_x = true,
                    Logic::Zero => {}
                }
            }
            let v = if any_x { Logic::X } else { v };
            if kind == GateKind::Nor {
                v.not()
            } else {
                v
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            let mut acc = Logic::Zero;
            for &f in fanin {
                acc = match (acc, f) {
                    (Logic::X, _) | (_, Logic::X) => Logic::X,
                    (a, b) => Logic::from_bool((a == Logic::One) ^ (b == Logic::One)),
                };
                if acc == Logic::X {
                    break;
                }
            }
            if kind == GateKind::Xnor {
                acc.not()
            } else {
                acc
            }
        }
    }
}

/// Simulates the whole netlist under a partial PI assignment with `fault`
/// injected in the faulty copy. Returns the composite value of every node.
///
/// # Panics
///
/// Panics if `pi_values.len() != netlist.inputs().len()`.
pub fn simulate_composite(
    netlist: &Netlist,
    fault: &StuckAtFault,
    pi_values: &[Logic],
) -> Vec<Composite> {
    assert_eq!(pi_values.len(), netlist.inputs().len());
    let mut values = vec![Composite::XX; netlist.node_count()];
    for (i, &id) in netlist.inputs().iter().enumerate() {
        values[id.index()] = Composite {
            good: pi_values[i],
            faulty: pi_values[i],
        };
    }
    let stuck = Logic::from_bool(fault.stuck_at_one);

    let mut good_buf: Vec<Logic> = Vec::with_capacity(8);
    let mut faulty_buf: Vec<Logic> = Vec::with_capacity(8);
    for id in netlist.node_ids() {
        let kind = netlist.kind(id);
        if kind != GateKind::Input {
            good_buf.clear();
            faulty_buf.clear();
            for (pin, &f) in netlist.fanin(id).iter().enumerate() {
                let mut v = values[f.index()];
                if fault.site == (FaultSite::Branch { gate: id, pin }) {
                    v.faulty = stuck;
                }
                good_buf.push(v.good);
                faulty_buf.push(v.faulty);
            }
            values[id.index()] = Composite {
                good: eval3(kind, &good_buf),
                faulty: eval3(kind, &faulty_buf),
            };
        }
        if fault.site == FaultSite::Stem(id) {
            values[id.index()].faulty = stuck;
        }
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlp_circuit::generators;
    use Logic::{One, Zero, X};

    #[test]
    fn eval3_controlling_values_beat_x() {
        assert_eq!(eval3(GateKind::And, &[Zero, X]), Zero);
        assert_eq!(eval3(GateKind::Nand, &[Zero, X]), One);
        assert_eq!(eval3(GateKind::Or, &[One, X]), One);
        assert_eq!(eval3(GateKind::Nor, &[One, X]), Zero);
    }

    #[test]
    fn eval3_x_dominates_otherwise() {
        assert_eq!(eval3(GateKind::And, &[One, X]), X);
        assert_eq!(eval3(GateKind::Or, &[Zero, X]), X);
        assert_eq!(eval3(GateKind::Xor, &[One, X]), X);
        assert_eq!(eval3(GateKind::Not, &[X]), X);
    }

    #[test]
    fn eval3_agrees_with_binary_eval_on_known_inputs() {
        for kind in [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            for p in 0..8u32 {
                let bits: Vec<Logic> = (0..3).map(|i| Logic::from_bool(p >> i & 1 == 1)).collect();
                let words: Vec<u64> = (0..3)
                    .map(|i| if p >> i & 1 == 1 { 1 } else { 0 })
                    .collect();
                let expect = kind.eval_words(&words) & 1 == 1;
                assert_eq!(
                    eval3(kind, &bits),
                    Logic::from_bool(expect),
                    "{kind} {p:03b}"
                );
            }
        }
    }

    #[test]
    fn composite_simulation_shows_d_at_activated_site() {
        let c17 = generators::c17();
        let n10 = c17.find("10").unwrap();
        let fault = StuckAtFault {
            site: FaultSite::Stem(n10),
            stuck_at_one: false,
        };
        // 10 = NAND(1, 3); with input 1 = 0 the good value is 1 -> D.
        let mut pis = vec![X; 5];
        pis[0] = Zero; // input "1"
        let values = simulate_composite(&c17, &fault, &pis);
        let v = values[n10.index()];
        assert_eq!(v.good, One);
        assert_eq!(v.faulty, Zero);
        assert!(v.is_d());
    }

    #[test]
    fn branch_fault_affects_only_its_gate() {
        let c17 = generators::c17();
        // 16 = NAND(2, 11); fault: input pin 1 (signal 11) SA1 at gate 16.
        let g16 = c17.find("16").unwrap();
        let n11 = c17.find("11").unwrap();
        let g19 = c17.find("19").unwrap();
        let fault = StuckAtFault {
            site: FaultSite::Branch { gate: g16, pin: 1 },
            stuck_at_one: true,
        };
        // Force 11 to 0 (inputs 3 = 1, 6 = 1): stem carries 0, branch sees 1.
        let pis = vec![One, One, One, One, One];
        let values = simulate_composite(&c17, &fault, &pis);
        assert_eq!(values[n11.index()].good, Zero);
        assert!(!values[n11.index()].is_d(), "stem itself is healthy");
        // 19 = NAND(11, 7) also consumes 11 and must see the healthy 0.
        assert!(!values[g19.index()].is_d());
        // 16 = NAND(2=1, branch 11 faulty=1): good nand(1,0)=1, faulty nand(1,1)=0.
        assert!(values[g16.index()].is_d());
    }

    #[test]
    fn composite_constructors() {
        assert!(Composite::XX.has_x());
        assert!(!Composite::known(true).has_x());
        assert!(!Composite::known(true).is_d());
    }
}
