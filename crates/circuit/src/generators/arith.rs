//! Arithmetic and datapath benchmark generators.

use crate::must::MustExt;
use crate::{GateKind, Netlist, NodeId};

/// An `n`-bit ripple-carry adder: inputs `a0..`, `b0..`, `cin`; outputs
/// `s0..` and `cout`. Built from XOR/AND/OR full adders (2n XORs), so it is
/// a good XOR-heavy extraction workload.
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Example
///
/// ```
/// let add = dlp_circuit::generators::ripple_adder(4);
/// assert_eq!(add.inputs().len(), 9);
/// assert_eq!(add.outputs().len(), 5);
/// ```
pub fn ripple_adder(n: usize) -> Netlist {
    assert!(n > 0, "adder width must be positive");
    let mut nl = Netlist::new(format!("rca{n}"));
    let a: Vec<NodeId> = (0..n)
        .map(|i| nl.add_input(format!("a{i}")).must())
        .collect();
    let b: Vec<NodeId> = (0..n)
        .map(|i| nl.add_input(format!("b{i}")).must())
        .collect();
    let mut carry = nl.add_input("cin").must();
    for i in 0..n {
        let p = nl
            .add_gate(format!("p{i}"), GateKind::Xor, vec![a[i], b[i]])
            .must();
        let s = nl
            .add_gate(format!("s{i}"), GateKind::Xor, vec![p, carry])
            .must();
        let g = nl
            .add_gate(format!("g{i}"), GateKind::And, vec![a[i], b[i]])
            .must();
        let t = nl
            .add_gate(format!("t{i}"), GateKind::And, vec![p, carry])
            .must();
        let c = nl
            .add_gate(format!("c{i}"), GateKind::Or, vec![g, t])
            .must();
        nl.mark_output(s);
        carry = c;
    }
    nl.mark_output(carry);
    nl.freeze();
    nl
}

/// An `n`-bit magnitude comparator: outputs `eq` and `gt` for inputs
/// `a0..` (LSB first) vs `b0..`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn comparator(n: usize) -> Netlist {
    assert!(n > 0, "comparator width must be positive");
    let mut nl = Netlist::new(format!("cmp{n}"));
    let a: Vec<NodeId> = (0..n)
        .map(|i| nl.add_input(format!("a{i}")).must())
        .collect();
    let b: Vec<NodeId> = (0..n)
        .map(|i| nl.add_input(format!("b{i}")).must())
        .collect();
    // Bitwise equality, then a prefix-AND walked from the MSB down:
    // entering iteration i, `prefix` holds "bits i+1..n-1 all equal".
    let eqs: Vec<NodeId> = (0..n)
        .map(|i| {
            nl.add_gate(format!("eq{i}"), GateKind::Xnor, vec![a[i], b[i]])
                .must()
        })
        .collect();
    let mut prefix: Option<NodeId> = None;
    let mut gt: Option<NodeId> = None;
    for i in (0..n).rev() {
        let nb = nl
            .add_gate(format!("nb{i}"), GateKind::Not, vec![b[i]])
            .must();
        let here = match prefix {
            None => nl
                .add_gate(format!("gt{i}"), GateKind::And, vec![a[i], nb])
                .must(),
            Some(p) => {
                // a[i] > b[i] and all higher bits equal.
                nl.add_gate(format!("gt{i}"), GateKind::And, vec![a[i], nb, p])
                    .must()
            }
        };
        gt = Some(match gt {
            None => here,
            Some(acc) => nl
                .add_gate(format!("go{i}"), GateKind::Or, vec![acc, here])
                .must(),
        });
        prefix = Some(match prefix {
            None => eqs[i],
            Some(p) => nl
                .add_gate(format!("ea{i}"), GateKind::And, vec![p, eqs[i]])
                .must(),
        });
    }
    nl.mark_output(prefix.must());
    nl.mark_output(gt.must());
    nl.freeze();
    nl
}

/// A 1-bit ALU slice with two select lines: computes AND, OR, XOR or full
/// add (with `cin`/`cout`) of `a` and `b`. A classic textbook cell that
/// exercises every gate kind.
pub fn alu_slice() -> Netlist {
    let mut nl = Netlist::new("alu_slice");
    let a = nl.add_input("a").must();
    let b = nl.add_input("b").must();
    let cin = nl.add_input("cin").must();
    let s0 = nl.add_input("s0").must();
    let s1 = nl.add_input("s1").must();

    let and_ab = nl.add_gate("and_ab", GateKind::And, vec![a, b]).must();
    let or_ab = nl.add_gate("or_ab", GateKind::Or, vec![a, b]).must();
    let xor_ab = nl.add_gate("xor_ab", GateKind::Xor, vec![a, b]).must();
    let sum = nl.add_gate("sum", GateKind::Xor, vec![xor_ab, cin]).must();
    let t = nl.add_gate("t", GateKind::And, vec![xor_ab, cin]).must();
    let cout = nl.add_gate("cout", GateKind::Or, vec![and_ab, t]).must();

    // 4:1 mux on (s1, s0): 00=and, 01=or, 10=xor, 11=sum.
    let ns0 = nl.add_gate("ns0", GateKind::Not, vec![s0]).must();
    let ns1 = nl.add_gate("ns1", GateKind::Not, vec![s1]).must();
    let m0 = nl
        .add_gate("m0", GateKind::And, vec![and_ab, ns1, ns0])
        .must();
    let m1 = nl
        .add_gate("m1", GateKind::And, vec![or_ab, ns1, s0])
        .must();
    let m2 = nl
        .add_gate("m2", GateKind::And, vec![xor_ab, s1, ns0])
        .must();
    let m3 = nl.add_gate("m3", GateKind::And, vec![sum, s1, s0]).must();
    let y = nl.add_gate("y", GateKind::Or, vec![m0, m1, m2, m3]).must();

    nl.mark_output(y);
    nl.mark_output(cout);
    nl.freeze();
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
    fn adder_adds_exhaustively_4bit() {
        let nl = ripple_adder(4);
        for a in 0u32..16 {
            for b in 0u32..16 {
                for cin in 0u32..2 {
                    let mut bits = Vec::new();
                    for i in 0..4 {
                        bits.push(a >> i & 1 == 1);
                    }
                    for i in 0..4 {
                        bits.push(b >> i & 1 == 1);
                    }
                    bits.push(cin == 1);
                    let out = eval_bits(&nl, &bits);
                    let expect = a + b + cin;
                    for (i, &bit) in out.iter().enumerate().take(4) {
                        assert_eq!(bit, expect >> i & 1 == 1, "a={a} b={b} cin={cin} s{i}");
                    }
                    assert_eq!(out[4], expect >> 4 & 1 == 1, "a={a} b={b} cin={cin} cout");
                }
            }
        }
    }

    #[test]
    fn comparator_matches_integers() {
        let nl = comparator(3);
        for a in 0u32..8 {
            for b in 0u32..8 {
                let mut bits = Vec::new();
                for i in 0..3 {
                    bits.push(a >> i & 1 == 1);
                }
                for i in 0..3 {
                    bits.push(b >> i & 1 == 1);
                }
                let out = eval_bits(&nl, &bits);
                assert_eq!(out[0], a == b, "eq for {a} vs {b}");
                assert_eq!(out[1], a > b, "gt for {a} vs {b}");
            }
        }
    }

    #[test]
    fn alu_slice_all_ops() {
        let nl = alu_slice();
        for p in 0..32u32 {
            let bits: Vec<bool> = (0..5).map(|i| p >> i & 1 == 1).collect();
            let (a, b, cin, s0, s1) = (bits[0], bits[1], bits[2], bits[3], bits[4]);
            let out = eval_bits(&nl, &bits);
            let expect_y = match (s1, s0) {
                (false, false) => a & b,
                (false, true) => a | b,
                (true, false) => a ^ b,
                (true, true) => a ^ b ^ cin,
            };
            let expect_cout = (a & b) | ((a ^ b) & cin);
            assert_eq!(out[0], expect_y, "y at pattern {p}");
            assert_eq!(out[1], expect_cout, "cout at pattern {p}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_adder_panics() {
        let _ = ripple_adder(0);
    }
}
