//! A c432-class 27-channel interrupt controller.
//!
//! ISCAS-85 `c432` is a 27-channel interrupt controller: three 9-bit request
//! buses `A`, `B`, `C` (bus `A` has the highest priority), a 9-bit channel
//! enable bus `E`, three bus-grant outputs `PA`, `PB`, `PC` and a 4-bit
//! encoding of the highest-priority active channel. The original netlist is
//! not redistributable offline, so this module *re-synthesises the function*
//! into NAND/NOR/NOT/XOR gates, targeting the original's vital statistics:
//! 36 primary inputs, 7 primary outputs, and a gate count in the 160–200
//! range with XOR content and reconvergent fanout (the properties the
//! defect-level experiment actually exercises).

use crate::must::MustExt;
use crate::{GateKind, Netlist, NodeId};

/// Builds the c432-class interrupt controller.
///
/// Function, for request buses `a[0..9]`, `b[0..9]`, `c[0..9]` and enables
/// `e[0..9]` (enable `e[i]` gates channel `i` on every bus):
///
/// * `PA = OR_i(a[i] & e[i])` — bus A has an enabled request,
/// * `PB = OR_i(b[i] & e[i]) & !PA`,
/// * `PC = OR_i(c[i] & e[i]) & !PA & !PB`,
/// * `z[0..4]` — binary index (one-hot priority, channel 8 highest) of the
///   highest active channel on the granted bus.
///
/// # Example
///
/// ```
/// let ic = dlp_circuit::generators::c432_class();
/// assert_eq!(ic.inputs().len(), 36);
/// assert_eq!(ic.outputs().len(), 7);
/// assert!(ic.gate_count() >= 150);
/// ```
pub fn c432_class() -> Netlist {
    let mut n = Netlist::new("c432_class");
    let a: Vec<NodeId> = (0..9)
        .map(|i| n.add_input(format!("a{i}")).must())
        .collect();
    let b: Vec<NodeId> = (0..9)
        .map(|i| n.add_input(format!("b{i}")).must())
        .collect();
    let c: Vec<NodeId> = (0..9)
        .map(|i| n.add_input(format!("c{i}")).must())
        .collect();
    let e: Vec<NodeId> = (0..9)
        .map(|i| n.add_input(format!("e{i}")).must())
        .collect();

    // All logic is emitted as 2-input gates (plus NOT/BUF), matching the
    // original c432's composition; wide functions become balanced trees.
    let mut fresh = 0usize;
    let mut gate = |n: &mut Netlist, kind: GateKind, fanin: Vec<NodeId>| -> NodeId {
        fresh += 1;
        n.add_gate(format!("g{fresh}"), kind, fanin).must()
    };
    /// Balanced tree of 2-input `kind` gates (kind must be associative).
    fn tree(
        n: &mut Netlist,
        g: &mut dyn FnMut(&mut Netlist, GateKind, Vec<NodeId>) -> NodeId,
        kind: GateKind,
        xs: &[NodeId],
    ) -> NodeId {
        match xs.len() {
            0 => panic!("tree over empty operand list"),
            1 => xs[0],
            _ => {
                let mid = xs.len() / 2;
                let l = tree(n, g, kind, &xs[..mid]);
                let r = tree(n, g, kind, &xs[mid..]);
                g(n, kind, vec![l, r])
            }
        }
    }

    let mut req = Vec::new(); // bus-active (PA-raw, PB-raw, PC-raw)
    for bus in [&a, &b, &c] {
        // Active-low per-channel terms: lows[i] = !(bus[i] & e[i]).
        let lows: Vec<NodeId> = (0..9)
            .map(|i| gate(&mut n, GateKind::Nand, vec![bus[i], e[i]]))
            .collect();
        // 9-input NAND of the active-low terms = OR of the enabled requests.
        let left = tree(&mut n, &mut gate, GateKind::And, &lows[0..5]);
        let right = tree(&mut n, &mut gate, GateKind::And, &lows[5..9]);
        let active = gate(&mut n, GateKind::Nand, vec![left, right]);
        req.push(active);
    }

    // Priority grants.
    let pa = req[0];
    let na = gate(&mut n, GateKind::Not, vec![pa]);
    let pb = gate(&mut n, GateKind::And, vec![req[1], na]);
    let nb = gate(&mut n, GateKind::Not, vec![pb]);
    let pc0 = gate(&mut n, GateKind::And, vec![req[2], na]);
    let pc1 = gate(&mut n, GateKind::And, vec![pc0, nb]);
    let pc = gate(&mut n, GateKind::Buf, vec![pc1]);

    // Selected-channel lines: s[i] active (high) iff channel i requests on
    // the granted bus. Build with AOI structure:
    //   s[i] = (PA & a[i] | PB & b[i] | PC & c[i]) & e[i]
    // The XOR content of the original c432 lives in its priority/decode
    // modules; we use XORs in the grant-consistency checks below.
    let mut sel = Vec::new();
    for i in 0..9 {
        let ta = gate(&mut n, GateKind::And, vec![pa, a[i]]);
        let tb = gate(&mut n, GateKind::And, vec![pb, b[i]]);
        let tc = gate(&mut n, GateKind::And, vec![pc, c[i]]);
        let any0 = gate(&mut n, GateKind::Or, vec![ta, tb]);
        let any = gate(&mut n, GateKind::Or, vec![any0, tc]);
        let s = gate(&mut n, GateKind::And, vec![any, e[i]]);
        sel.push(s);
    }

    // Priority encoder over sel[8..0] (channel 8 wins). hi[i] = sel[i] and
    // no higher channel set.
    let mut not_above = Vec::new(); // not_above[i] = none of sel[i+1..9]
    let mut acc: Option<NodeId> = None;
    for i in (0..9).rev() {
        let na_i = acc.map(|x| gate(&mut n, GateKind::Not, vec![x]));
        not_above.push((i, na_i));
        acc = Some(match acc {
            None => sel[i],
            Some(x) => gate(&mut n, GateKind::Or, vec![x, sel[i]]),
        });
    }
    not_above.reverse();
    let mut hi = [NodeId(0); 9];
    for (i, na_i) in not_above {
        hi[i] = match na_i {
            None => sel[i], // channel 8: nothing above
            Some(mask) => gate(&mut n, GateKind::And, vec![sel[i], mask]),
        };
    }

    // Binary encode hi[0..9] into z[0..4] (one-hot to binary), plus XOR
    // parity chains that cross-couple the encoder (mimicking c432's XOR
    // modules and adding reconvergent fanout).
    let z0 = tree(
        &mut n,
        &mut gate,
        GateKind::Or,
        &[hi[1], hi[3], hi[5], hi[7]],
    );
    let z1 = tree(
        &mut n,
        &mut gate,
        GateKind::Or,
        &[hi[2], hi[3], hi[6], hi[7]],
    );
    let z2 = tree(
        &mut n,
        &mut gate,
        GateKind::Or,
        &[hi[4], hi[5], hi[6], hi[7]],
    );
    let z3 = hi[8];

    // XOR cross-checks: channel parity of the granted bus against the
    // encoded index parity. These XOR chains consume the raw bus lines and
    // the encoder outputs, creating the XOR content of the original design.
    let mut par: Option<NodeId> = None;
    for &s in &sel {
        par = Some(match par {
            None => s,
            Some(p) => gate(&mut n, GateKind::Xor, vec![p, s]),
        });
    }
    let idx_par = gate(&mut n, GateKind::Xor, vec![z0, z1]);
    let idx_par2 = gate(&mut n, GateKind::Xor, vec![idx_par, z2]);
    let idx_par3 = gate(&mut n, GateKind::Xnor, vec![idx_par2, z3]);
    let consistent = gate(&mut n, GateKind::Xnor, vec![par.must(), idx_par3]);

    // Fold the consistency bit into the PA grant with an XNOR. XOR-family
    // gates mask nothing, so the parity chains stay observable; and PA
    // shares no operand with the parity chains' XOR terms, so nothing
    // cancels structurally (folding into z3 would cancel sel[8], which
    // appears in both chains, making its cone untestable).
    let pa_out = gate(&mut n, GateKind::Xnor, vec![pa, consistent]);

    for o in [pa_out, pb, pc, z0, z1, z2, z3] {
        n.mark_output(o);
    }
    n.freeze();
    n.validate().must();
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference model of the controller, bit-level.
    fn reference(a: u16, b: u16, c: u16, e: u16) -> [bool; 7] {
        let mask = |bus: u16| bus & e & 0x1FF;
        let (ma, mb, mc) = (mask(a), mask(b), mask(c));
        let pa = ma != 0;
        let pb = mb != 0 && !pa;
        let pc = mc != 0 && !pa && !pb;
        let sel = if pa {
            ma
        } else if pb {
            mb
        } else if pc {
            mc
        } else {
            0
        };
        let hi = (0..9).rev().find(|&i| sel >> i & 1 == 1);
        let idx = hi.unwrap_or(0) as u16;
        let z = if hi.is_some() { idx } else { 0 };
        let (z0, z1, z2, z3) = (
            z & 1 == 1,
            z >> 1 & 1 == 1,
            z >> 2 & 1 == 1,
            z >> 3 & 1 == 1,
        );
        let sel_par = (sel.count_ones() % 2) == 1;
        let idx_par = !(z0 ^ z1 ^ z2 ^ z3); // xnor chain as built
        let consistent = !(sel_par ^ idx_par);
        [!(pa ^ consistent), pb, pc, z0, z1, z2, z3]
    }

    #[test]
    fn vital_statistics_match_c432_class() {
        let n = c432_class();
        assert_eq!(n.inputs().len(), 36);
        assert_eq!(n.outputs().len(), 7);
        assert!(
            (150..=230).contains(&n.gate_count()),
            "gate count {} out of c432 class",
            n.gate_count()
        );
        assert!(n.depth() >= 10, "depth {} too shallow", n.depth());
        let xors = n
            .node_ids()
            .filter(|&id| matches!(n.kind(id), GateKind::Xor | GateKind::Xnor))
            .count();
        assert!(xors >= 10, "expected XOR content, got {xors}");
    }

    #[test]
    fn agrees_with_reference_model() {
        let n = c432_class();
        let mut rng_state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            rng_state
        };
        for _ in 0..200 {
            let r = next();
            let (a, b, c, e) = (
                (r & 0x1FF) as u16,
                (r >> 9 & 0x1FF) as u16,
                (r >> 18 & 0x1FF) as u16,
                (r >> 27 & 0x1FF) as u16,
            );
            let mut words = Vec::new();
            for i in 0..9 {
                words.push(if a >> i & 1 == 1 { u64::MAX } else { 0 });
            }
            for i in 0..9 {
                words.push(if b >> i & 1 == 1 { u64::MAX } else { 0 });
            }
            for i in 0..9 {
                words.push(if c >> i & 1 == 1 { u64::MAX } else { 0 });
            }
            for i in 0..9 {
                words.push(if e >> i & 1 == 1 { u64::MAX } else { 0 });
            }
            let out = n.eval_words(&words);
            let expect = reference(a, b, c, e);
            for (k, (&w, &x)) in out.iter().zip(expect.iter()).enumerate() {
                assert_eq!(
                    w & 1 == 1,
                    x,
                    "output {k} for a={a:03x} b={b:03x} c={c:03x} e={e:03x}"
                );
            }
        }
    }

    #[test]
    fn quiet_bus_grants_nothing() {
        let n = c432_class();
        let out = n.eval_words(&vec![0u64; 36]);
        for &w in &out[1..3] {
            assert_eq!(w & 1, 0, "no request, no grant");
        }
        // PA output carries the consistency XNOR; with everything quiet
        // par = 0, idx parity chain = 1, consistent = 0, PA_out = 1.
        assert_eq!(out[0] & 1, 1);
    }
}

#[cfg(test)]
mod stability_tests {
    use crate::{bench, generators};

    /// The generator is part of the reproducibility contract: the figure
    /// binaries' numbers assume this exact netlist. Any structural change
    /// must be deliberate (update the fingerprint *and* EXPERIMENTS.md).
    #[test]
    fn c432_class_netlist_is_stable() {
        let text = bench::write(&generators::c432_class());
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for b in text.bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
        assert_eq!(
            (text.lines().count(), hash),
            (201, 4801230917625243275),
            "c432_class structure changed; refresh fingerprint + EXPERIMENTS.md"
        );
    }
}
