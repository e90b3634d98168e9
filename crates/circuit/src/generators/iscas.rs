//! ISCAS-85-class benchmark analogues: deterministic re-syntheses
//! matching the vital statistics (size, gate mix, reconvergence) of the
//! classic circuits the defect-level literature sweeps.
//!
//! As with [`c432_class`](super::c432_class), the original netlists are
//! not redistributable offline, so each constructor *re-synthesises a
//! function of the same kind and scale* — an error-correcting XOR
//! network for c1355, ALU/controller mixes for c2670/c5315, a 16x16
//! parallel array multiplier for c6288, and an adder/comparator/parity
//! datapath for c7552 — into 2-input gates plus inverters. Primary-input
//! and output counts land near the originals' functional pins (the
//! originals' published totals include scan); gate counts land in the
//! originals' range, asserted by the vital-statistics tests.

use super::blocks::Emit;
use crate::must::MustExt;
use crate::{GateKind, Netlist, NodeId};

/// An `m x m` parallel array multiplier (`2m` product outputs).
///
/// This is the c6288 structure at arbitrary width: an AND
/// partial-product plane feeding a row-by-row carry chain. Fault lists
/// grow as `O(m^2)`, which makes the width the natural scale knob.
///
/// # Panics
///
/// Panics if `m < 2` or `m > 32` (a 64-bit product is plenty for a
/// benchmark, and tests check products against native `u64` math).
pub fn array_multiplier(m: usize) -> Netlist {
    assert!((2..=32).contains(&m), "multiplier width must be in 2..=32");
    let mut nl = Netlist::new(format!("mul{m}x{m}"));
    let a: Vec<NodeId> = (0..m)
        .map(|i| nl.add_input(format!("a{i}")).must())
        .collect();
    let b: Vec<NodeId> = (0..m)
        .map(|i| nl.add_input(format!("b{i}")).must())
        .collect();
    let mut e = Emit::new(&mut nl, "g");
    let product = e.multiplier(&a, &b);
    for p in product {
        nl.mark_output(p);
    }
    nl.freeze();
    nl.validate().must();
    nl
}

/// The c6288-class 16x16 array multiplier: 32 inputs, 32 outputs,
/// ~2.4k gates of pure reconvergent adder array.
pub fn c6288_class() -> Netlist {
    let mut nl = array_multiplier(16);
    nl.set_name("c6288_class");
    nl
}

/// Membership pattern of data bit `i` in the eight c1355-class parity
/// groups. Multiplying by an odd constant keeps the patterns distinct,
/// so the match decode is unambiguous.
fn c1355_pattern(i: usize) -> u8 {
    (i as u8).wrapping_mul(9) ^ 0x5A
}

/// The c1355-class 32-bit single-error-correcting network: 32 data
/// bits, 8 check bits and an enable (41 inputs), 32 corrected outputs,
/// XOR-tree heavy like the original.
///
/// Function: syndrome bit `s[j]` is the XOR of check bit `k[j]` with
/// the parity of the data bits whose [`c1355_pattern`] has bit `j`
/// set. A data bit whose full pattern matches the syndrome is flipped
/// when `en` is high.
pub fn c1355_class() -> Netlist {
    let mut nl = Netlist::new("c1355_class");
    let d: Vec<NodeId> = (0..32)
        .map(|i| nl.add_input(format!("d{i}")).must())
        .collect();
    let k: Vec<NodeId> = (0..8)
        .map(|j| nl.add_input(format!("k{j}")).must())
        .collect();
    let en = nl.add_input("en").must();
    let mut e = Emit::new(&mut nl, "g");

    let mut s = Vec::with_capacity(8);
    let mut ns = Vec::with_capacity(8);
    for (j, &kj) in k.iter().enumerate() {
        let members: Vec<NodeId> = (0..32)
            .filter(|&i| c1355_pattern(i) >> j & 1 == 1)
            .map(|i| d[i])
            .collect();
        let par = e.tree(GateKind::Xor, &members);
        let sj = e.gate(GateKind::Xor, vec![par, kj]);
        ns.push(e.gate(GateKind::Not, vec![sj]));
        s.push(sj);
    }
    let mut outs = Vec::with_capacity(32);
    for (i, &di) in d.iter().enumerate() {
        let lits: Vec<NodeId> = (0..8)
            .map(|j| {
                if c1355_pattern(i) >> j & 1 == 1 {
                    s[j]
                } else {
                    ns[j]
                }
            })
            .collect();
        let matched = e.tree(GateKind::And, &lits);
        let flip = e.gate(GateKind::And, vec![matched, en]);
        outs.push(e.gate(GateKind::Xor, vec![di, flip]));
    }
    for o in outs {
        nl.mark_output(o);
    }
    nl.freeze();
    nl.validate().must();
    nl
}

/// Adds `a{i}`/`b{i}`/`op{i}` buses for one ALU core under a prefix.
fn alu_inputs(
    nl: &mut Netlist,
    prefix: &str,
    width: usize,
) -> (Vec<NodeId>, Vec<NodeId>, [NodeId; 3]) {
    let a: Vec<NodeId> = (0..width)
        .map(|i| nl.add_input(format!("{prefix}a{i}")).must())
        .collect();
    let b: Vec<NodeId> = (0..width)
        .map(|i| nl.add_input(format!("{prefix}b{i}")).must())
        .collect();
    let op = [
        nl.add_input(format!("{prefix}op0")).must(),
        nl.add_input(format!("{prefix}op1")).must(),
        nl.add_input(format!("{prefix}op2")).must(),
    ];
    (a, b, op)
}

/// The c2670-class ALU + controller: a 24-bit 8-function ALU with
/// compare/parity flags, plus a 9-channel enabled priority interrupt
/// encoder cross-checked against the datapath parity.
pub fn c2670_class() -> Netlist {
    let mut nl = Netlist::new("c2670_class");
    let (a, b, op) = alu_inputs(&mut nl, "", 24);
    let req: Vec<NodeId> = (0..9)
        .map(|i| nl.add_input(format!("r{i}")).must())
        .collect();
    let en = nl.add_input("en").must();
    let mut e = Emit::new(&mut nl, "g");
    let alu = e.alu(&a, &b, &op);
    let z = e.priority9(&req, en);
    // Cross-check: encoder index parity against datapath parity — the
    // reconvergent XOR content of the original's control section.
    let zp = e.tree(GateKind::Xor, &z);
    let chk = e.gate(GateKind::Xnor, vec![alu.parity, zp]);
    for o in alu
        .bits
        .iter()
        .copied()
        .chain([alu.cout, alu.eq, alu.gt])
        .chain(z)
        .chain([chk])
    {
        nl.mark_output(o);
    }
    nl.freeze();
    nl.validate().must();
    nl
}

/// The c5315-class dual-datapath ALU: two 24-bit 8-function cores, a
/// selected result bus, and cross-core consistency checks. Both cores'
/// raw buses stay observable, like the original's many outputs.
pub fn c5315_class() -> Netlist {
    let mut nl = Netlist::new("c5315_class");
    let (xa, xb, xop) = alu_inputs(&mut nl, "x", 24);
    let (ya, yb, yop) = alu_inputs(&mut nl, "y", 24);
    let sel = nl.add_input("sel").must();
    let mut e = Emit::new(&mut nl, "x_g");
    let xu = e.alu(&xa, &xb, &xop);
    e.set_prefix("y_g");
    let yu = e.alu(&ya, &yb, &yop);
    e.set_prefix("m_g");
    let nsel = e.gate(GateKind::Not, vec![sel]);
    let mut muxed = Vec::with_capacity(28);
    for (&x, &y) in xu
        .bits
        .iter()
        .chain([&xu.cout, &xu.eq, &xu.gt, &xu.parity])
        .zip(yu.bits.iter().chain([&yu.cout, &yu.eq, &yu.gt, &yu.parity]))
    {
        let tx = e.gate(GateKind::And, vec![x, nsel]);
        let ty = e.gate(GateKind::And, vec![y, sel]);
        muxed.push(e.gate(GateKind::Or, vec![tx, ty]));
    }
    let chk = e.gate(GateKind::Xnor, vec![xu.parity, yu.parity]);
    for o in xu
        .bits
        .iter()
        .chain(yu.bits.iter())
        .copied()
        .chain(muxed)
        .chain([xu.eq, yu.eq, chk])
    {
        nl.mark_output(o);
    }
    nl.freeze();
    nl.validate().must();
    nl
}

/// The c7552-class triple-core datapath: three 24-bit ALU cores plus a
/// 34-bit adder, 34-bit magnitude comparator, and parity cross-checks
/// over the wide bus — the original's adder/comparator/parity mix.
pub fn c7552_class() -> Netlist {
    let mut nl = Netlist::new("c7552_class");
    let (xa, xb, xop) = alu_inputs(&mut nl, "x", 24);
    let (ya, yb, yop) = alu_inputs(&mut nl, "y", 24);
    let (za, zb, zop) = alu_inputs(&mut nl, "z", 24);
    let wa: Vec<NodeId> = (0..34)
        .map(|i| nl.add_input(format!("wa{i}")).must())
        .collect();
    let wb: Vec<NodeId> = (0..34)
        .map(|i| nl.add_input(format!("wb{i}")).must())
        .collect();
    let mut e = Emit::new(&mut nl, "x_g");
    let xu = e.alu(&xa, &xb, &xop);
    e.set_prefix("y_g");
    let yu = e.alu(&ya, &yb, &yop);
    e.set_prefix("z_g");
    let zu = e.alu(&za, &zb, &zop);
    e.set_prefix("w_g");
    let (wsum, wcout) = e.ripple(&wa, &wb, None);
    let (weq, wgt) = e.compare(&wa, &wb);
    let wpar = e.tree(GateKind::Xor, &wsum);
    // Parity cross-checks couple the three cores and the wide adder.
    let p01 = e.gate(GateKind::Xnor, vec![xu.parity, yu.parity]);
    let p23 = e.gate(GateKind::Xnor, vec![zu.parity, wpar]);
    let chk = e.gate(GateKind::Xor, vec![p01, p23]);
    for o in xu
        .bits
        .iter()
        .chain(yu.bits.iter())
        .chain(zu.bits.iter())
        .chain(wsum.iter())
        .copied()
        .chain([
            xu.cout, xu.eq, xu.gt, yu.cout, yu.eq, yu.gt, zu.cout, zu.eq, zu.gt, wcout, weq, wgt,
            chk,
        ])
    {
        nl.mark_output(o);
    }
    nl.freeze();
    nl.validate().must();
    nl
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_bits(nl: &Netlist, bits: &[bool]) -> Vec<bool> {
        let words: Vec<u64> = bits.iter().map(|&b| if b { 1 } else { 0 }).collect();
        nl.eval_words(&words).iter().map(|&w| w & 1 == 1).collect()
    }

    #[test]
    fn multiplier_matches_native_math() {
        for m in [2usize, 3, 8] {
            let nl = array_multiplier(m);
            assert_eq!(nl.inputs().len(), 2 * m);
            assert_eq!(nl.outputs().len(), 2 * m);
            let mut state = 0x9E37_79B9_7F4A_7C15u64 | 1;
            for _ in 0..40 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let a = state & ((1 << m) - 1);
                let b = (state >> 20) & ((1 << m) - 1);
                let mut bits: Vec<bool> = (0..m).map(|i| a >> i & 1 == 1).collect();
                bits.extend((0..m).map(|i| b >> i & 1 == 1));
                let out = eval_bits(&nl, &bits);
                let product: u64 = out.iter().enumerate().map(|(i, &x)| (x as u64) << i).sum();
                assert_eq!(product, a * b, "{m}x{m}: {a} * {b}");
            }
        }
    }

    #[test]
    fn c6288_class_is_a_16x16_multiplier() {
        let nl = c6288_class();
        assert_eq!(nl.name(), "c6288_class");
        assert_eq!(nl.inputs().len(), 32);
        assert_eq!(nl.outputs().len(), 32);
        assert!(
            (1_300..=2_800).contains(&nl.gate_count()),
            "gate count {} out of c6288 class",
            nl.gate_count()
        );
        // Spot-check one wide product against native math.
        let (a, b) = (0xBEEFu64, 0xCAFEu64);
        let mut bits: Vec<bool> = (0..16).map(|i| a >> i & 1 == 1).collect();
        bits.extend((0..16).map(|i| b >> i & 1 == 1));
        let out = eval_bits(&nl, &bits);
        let product: u64 = out.iter().enumerate().map(|(i, &x)| (x as u64) << i).sum();
        assert_eq!(product, a * b);
    }

    /// Reference model for the c1355-class corrector.
    fn c1355_reference(data: u32, check: u8, en: bool) -> u32 {
        let mut syndrome = check;
        for i in 0..32 {
            if data >> i & 1 == 1 {
                syndrome ^= c1355_pattern(i);
            }
        }
        let mut out = data;
        if en {
            for i in 0..32 {
                if c1355_pattern(i) == syndrome {
                    out ^= 1 << i;
                }
            }
        }
        out
    }

    #[test]
    fn c1355_class_corrects_single_errors() {
        let nl = c1355_class();
        assert_eq!(nl.inputs().len(), 41);
        assert_eq!(nl.outputs().len(), 32);
        assert!(
            (380..=620).contains(&nl.gate_count()),
            "gate count {} out of c1355 class",
            nl.gate_count()
        );
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        for trial in 0..60 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let data = state as u32;
            let check = (state >> 32) as u8;
            let en = trial % 4 != 0;
            let mut bits: Vec<bool> = (0..32).map(|i| data >> i & 1 == 1).collect();
            bits.extend((0..8).map(|j| check >> j & 1 == 1));
            bits.push(en);
            let out = eval_bits(&nl, &bits);
            let got: u32 = out.iter().enumerate().map(|(i, &x)| (x as u32) << i).sum();
            assert_eq!(got, c1355_reference(data, check, en), "trial {trial}");
        }
        // The headline property: flipping one data bit of a consistent
        // word is corrected back (syndrome = that bit's pattern).
        let data = 0xDEAD_BEEFu32;
        let mut check = 0u8;
        for i in 0..32 {
            if data >> i & 1 == 1 {
                check ^= c1355_pattern(i);
            }
        }
        for flip in [0usize, 13, 31] {
            let corrupted = data ^ (1 << flip);
            assert_eq!(
                c1355_reference(corrupted, check, true),
                data,
                "bit {flip} not corrected"
            );
            let mut bits: Vec<bool> = (0..32).map(|i| corrupted >> i & 1 == 1).collect();
            bits.extend((0..8).map(|j| check >> j & 1 == 1));
            bits.push(true);
            let out = eval_bits(&nl, &bits);
            let got: u32 = out.iter().enumerate().map(|(i, &x)| (x as u32) << i).sum();
            assert_eq!(got, data, "circuit did not correct bit {flip}");
        }
    }

    #[test]
    fn c2670_class_vital_statistics_and_alu_functions() {
        let nl = c2670_class();
        assert_eq!(nl.inputs().len(), 61);
        assert_eq!(nl.outputs().len(), 32);
        assert!(
            (900..=1_500).contains(&nl.gate_count()),
            "gate count {} out of c2670 class",
            nl.gate_count()
        );
        // op = 0 is add: check the 24-bit sum on a couple of operands.
        for (a, b) in [(0x12_3456u64, 0x0F_EDCBu64), (0xFF_FFFFu64, 0x00_0001u64)] {
            let mut bits: Vec<bool> = (0..24).map(|i| a >> i & 1 == 1).collect();
            bits.extend((0..24).map(|i| b >> i & 1 == 1));
            bits.extend([false, false, false]); // op = add
            bits.extend(std::iter::repeat_n(false, 10)); // req, en
            let out = eval_bits(&nl, &bits);
            let sum: u64 = out[..24]
                .iter()
                .enumerate()
                .map(|(i, &x)| (x as u64) << i)
                .sum();
            let cout = out[24];
            assert_eq!(sum, (a + b) & 0xFF_FFFF, "sum of {a:x} + {b:x}");
            assert_eq!(cout, a + b > 0xFF_FFFF, "carry of {a:x} + {b:x}");
            // eq/gt flags agree with native compare.
            assert_eq!(out[25], a == b);
            assert_eq!(out[26], a > b);
        }
    }

    #[test]
    fn c5315_and_c7552_vital_statistics() {
        let five = c5315_class();
        assert_eq!(five.inputs().len(), 103);
        assert!(
            (1_800..=2_800).contains(&five.gate_count()),
            "gate count {} out of c5315 class",
            five.gate_count()
        );
        let seven = c7552_class();
        assert_eq!(seven.inputs().len(), 221);
        assert!(
            (3_000..=4_200).contains(&seven.gate_count()),
            "gate count {} out of c7552 class",
            seven.gate_count()
        );
        // XOR content: both carry parity networks.
        for nl in [&five, &seven] {
            let xors = nl
                .node_ids()
                .filter(|&id| matches!(nl.kind(id), GateKind::Xor | GateKind::Xnor))
                .count();
            assert!(
                xors >= 100,
                "{}: expected XOR content, got {xors}",
                nl.name()
            );
        }
    }

    /// FNV-1a over the bench-format text — the same fingerprint scheme
    /// as the c432-class stability test.
    fn fingerprint(nl: &Netlist) -> (usize, u64) {
        let text = crate::bench::write(nl);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for b in text.bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
        (text.lines().count(), hash)
    }

    /// The generators are part of the reproducibility contract: the
    /// scale-sweep numbers assume these exact netlists. Any structural
    /// change must be deliberate (update the fingerprints *and*
    /// EXPERIMENTS.md).
    #[test]
    fn family_netlists_are_stable() {
        let mut failures = String::new();
        for (name, nl, expect) in [
            ("c1355", c1355_class(), (498usize, 13067958427763265124u64)),
            ("c2670", c2670_class(), (1088, 15254609920594273663)),
            ("c5315", c5315_class(), (2165, 1336898359355999777)),
            ("c6288", c6288_class(), (1473, 18334141168421870834)),
            ("c7552", c7552_class(), (3589, 11644130054771842293)),
        ] {
            let got = fingerprint(&nl);
            if got != expect {
                failures.push_str(&format!("{name}: got {got:?}, expected {expect:?}\n"));
            }
        }
        assert!(
            failures.is_empty(),
            "family structure changed; refresh fingerprints + EXPERIMENTS.md:\n{failures}"
        );
    }

    #[test]
    fn c5315_class_selects_between_cores() {
        let nl = c5315_class();
        // Drive core x with an AND op (op=1) and core y with OR (op=2);
        // sel chooses whose result lands on the muxed bus.
        let a = 0b1010_1100_1111_0000_1010_0101u64;
        let b = 0b0110_0110_0110_0110_0110_0110u64;
        for sel in [false, true] {
            let mut bits: Vec<bool> = (0..24).map(|i| a >> i & 1 == 1).collect();
            bits.extend((0..24).map(|i| b >> i & 1 == 1));
            bits.extend([true, false, false]); // x op = 1 (and)
            bits.extend((0..24).map(|i| a >> i & 1 == 1));
            bits.extend((0..24).map(|i| b >> i & 1 == 1));
            bits.extend([false, true, false]); // y op = 2 (or)
            bits.push(sel);
            let out = eval_bits(&nl, &bits);
            let muxed: u64 = out[48..72]
                .iter()
                .enumerate()
                .map(|(i, &x)| (x as u64) << i)
                .sum();
            let expect = if sel { a | b } else { a & b };
            assert_eq!(muxed, expect, "sel = {sel}");
        }
    }
}
