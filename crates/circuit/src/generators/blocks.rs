//! Shared gate-emission helpers for the deterministic benchmark
//! generators: balanced trees, adders, the array-multiplier core, and a
//! parameterized ALU slice. Everything emits 2-input gates plus
//! inverters — the composition every cell in the layout library maps.

use crate::must::MustExt;
use crate::{GateKind, Netlist, NodeId};

/// Emits uniquely named gates into a netlist under a fixed name prefix.
pub(super) struct Emit<'n> {
    nl: &'n mut Netlist,
    prefix: String,
    fresh: usize,
}

impl<'n> Emit<'n> {
    pub(super) fn new(nl: &'n mut Netlist, prefix: impl Into<String>) -> Self {
        Emit {
            nl,
            prefix: prefix.into(),
            fresh: 0,
        }
    }

    /// Switches the name prefix (for multi-block constructors); the gate
    /// counter keeps running so names stay unique per prefix choice.
    pub(super) fn set_prefix(&mut self, prefix: impl Into<String>) {
        self.prefix = prefix.into();
        self.fresh = 0;
    }

    pub(super) fn gate(&mut self, kind: GateKind, fanin: Vec<NodeId>) -> NodeId {
        self.fresh += 1;
        let name = format!("{}{}", self.prefix, self.fresh);
        self.nl.add_gate(name, kind, fanin).must()
    }

    /// Balanced tree of 2-input `kind` gates (kind must be associative).
    pub(super) fn tree(&mut self, kind: GateKind, xs: &[NodeId]) -> NodeId {
        match xs.len() {
            0 => panic!("tree over empty operand list"),
            1 => xs[0],
            _ => {
                let mid = xs.len() / 2;
                let l = self.tree(kind, &xs[..mid]);
                let r = self.tree(kind, &xs[mid..]);
                self.gate(kind, vec![l, r])
            }
        }
    }

    /// A 1-bit adder cell degrading gracefully to half adders (or a
    /// wire) when an addend is absent: returns `(sum, carry)`.
    pub(super) fn add3(
        &mut self,
        x: NodeId,
        y: Option<NodeId>,
        cin: Option<NodeId>,
    ) -> (NodeId, Option<NodeId>) {
        match (y, cin) {
            (None, None) => (x, None),
            (Some(y), None) | (None, Some(y)) => {
                let s = self.gate(GateKind::Xor, vec![x, y]);
                let c = self.gate(GateKind::And, vec![x, y]);
                (s, Some(c))
            }
            (Some(y), Some(c)) => {
                let p = self.gate(GateKind::Xor, vec![x, y]);
                let s = self.gate(GateKind::Xor, vec![p, c]);
                let g = self.gate(GateKind::And, vec![x, y]);
                let t = self.gate(GateKind::And, vec![p, c]);
                let cout = self.gate(GateKind::Or, vec![g, t]);
                (s, Some(cout))
            }
        }
    }

    /// Ripple-carry sum of two equal-width buses; returns the sum bits
    /// (LSB first) and the carry out.
    pub(super) fn ripple(
        &mut self,
        a: &[NodeId],
        b: &[NodeId],
        mut carry: Option<NodeId>,
    ) -> (Vec<NodeId>, NodeId) {
        assert_eq!(a.len(), b.len(), "ripple operands must match");
        assert!(!a.is_empty(), "ripple over empty operands");
        let mut sums = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b) {
            let (s, c) = self.add3(x, Some(y), carry);
            sums.push(s);
            carry = c;
        }
        (sums, carry.must())
    }

    /// The `m x m` array-multiplier core: partial-product AND plane plus
    /// a row-by-row carry chain. Returns the `2m` product bits, LSB
    /// first. This one routine defines the tile structure shared by
    /// [`array_multiplier`](super::array_multiplier) and
    /// [`tiled_multiplier`](super::tiled_multiplier), so a laid-out
    /// template tile is structurally identical to every instance.
    pub(super) fn multiplier(&mut self, a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
        let m = a.len();
        assert_eq!(b.len(), m, "multiplier operands must match");
        assert!(m >= 2, "multiplier width must be at least 2");
        let product = |e: &mut Emit<'_>, i: usize, j: usize| -> NodeId {
            e.gate(GateKind::And, vec![a[i], b[j]])
        };
        let mut acc: Vec<NodeId> = (0..m).map(|j| product(self, 0, j)).collect();
        let mut outs = vec![acc[0]];
        let mut top: Option<NodeId> = None;
        for i in 1..m {
            let mut cin: Option<NodeId> = None;
            let mut next = Vec::with_capacity(m);
            for j in 0..m {
                let x = product(self, i, j);
                let y = if j + 1 < m { Some(acc[j + 1]) } else { top };
                let (s, c) = self.add3(x, y, cin);
                next.push(s);
                cin = c;
            }
            top = cin;
            outs.push(next[0]);
            acc = next;
        }
        outs.extend_from_slice(&acc[1..]);
        outs.push(top.must());
        outs
    }

    /// An 8-function ALU over equal-width buses `a`, `b` with a 3-bit
    /// opcode: add, and, or, xor, nand, nor, xnor, and borrow-style
    /// subtract (`a + !b`). Returns the result bus plus carry, compare,
    /// and parity flags.
    pub(super) fn alu(&mut self, a: &[NodeId], b: &[NodeId], op: &[NodeId; 3]) -> AluOut {
        let w = a.len();
        assert_eq!(b.len(), w, "alu operands must match");
        assert!(w >= 2, "alu width must be at least 2");
        // One-hot opcode decode, shared by every bit slice.
        let nop: Vec<NodeId> = op
            .iter()
            .map(|&o| self.gate(GateKind::Not, vec![o]))
            .collect();
        let hot: Vec<NodeId> = (0..8)
            .map(|k| {
                let lit = |bit: usize| {
                    if k >> bit & 1 == 1 {
                        op[bit]
                    } else {
                        nop[bit]
                    }
                };
                let (l0, l1, l2) = (lit(0), lit(1), lit(2));
                let t = self.gate(GateKind::And, vec![l0, l1]);
                self.gate(GateKind::And, vec![t, l2])
            })
            .collect();
        let (add_s, add_c) = self.ripple(a, b, None);
        let nb: Vec<NodeId> = b
            .iter()
            .map(|&y| self.gate(GateKind::Not, vec![y]))
            .collect();
        let (sub_s, sub_c) = self.ripple(a, &nb, None);
        let mut bits = Vec::with_capacity(w);
        for j in 0..w {
            let pair = vec![a[j], b[j]];
            let funcs = [
                add_s[j],
                self.gate(GateKind::And, pair.clone()),
                self.gate(GateKind::Or, pair.clone()),
                self.gate(GateKind::Xor, pair.clone()),
                self.gate(GateKind::Nand, pair.clone()),
                self.gate(GateKind::Nor, pair.clone()),
                self.gate(GateKind::Xnor, pair),
                sub_s[j],
            ];
            let terms: Vec<NodeId> = funcs
                .iter()
                .zip(&hot)
                .map(|(&f, &h)| self.gate(GateKind::And, vec![f, h]))
                .collect();
            bits.push(self.tree(GateKind::Or, &terms));
        }
        let ca = self.gate(GateKind::And, vec![add_c, hot[0]]);
        let cs = self.gate(GateKind::And, vec![sub_c, hot[7]]);
        let cout = self.gate(GateKind::Or, vec![ca, cs]);
        let (eq, gt) = self.compare(a, b);
        let parity = self.tree(GateKind::Xor, &bits);
        AluOut {
            bits,
            cout,
            eq,
            gt,
            parity,
        }
    }

    /// Equality and greater-than of two equal-width buses (MSB-down
    /// prefix walk).
    pub(super) fn compare(&mut self, a: &[NodeId], b: &[NodeId]) -> (NodeId, NodeId) {
        assert_eq!(a.len(), b.len(), "compare operands must match");
        let mut eq_prefix: Option<NodeId> = None;
        let mut gt_acc: Option<NodeId> = None;
        for j in (0..a.len()).rev() {
            let nb = self.gate(GateKind::Not, vec![b[j]]);
            let here = self.gate(GateKind::And, vec![a[j], nb]);
            let term = match eq_prefix {
                None => here,
                Some(p) => self.gate(GateKind::And, vec![here, p]),
            };
            gt_acc = Some(match gt_acc {
                None => term,
                Some(g) => self.gate(GateKind::Or, vec![g, term]),
            });
            let x = self.gate(GateKind::Xnor, vec![a[j], b[j]]);
            eq_prefix = Some(match eq_prefix {
                None => x,
                Some(p) => self.gate(GateKind::And, vec![p, x]),
            });
        }
        (eq_prefix.must(), gt_acc.must())
    }

    /// A 9-channel enabled priority encoder (channel 8 wins): returns
    /// the 4 index bits, mirroring the c432-class encoder structure.
    pub(super) fn priority9(&mut self, req: &[NodeId], en: NodeId) -> [NodeId; 4] {
        assert_eq!(req.len(), 9, "priority encoder is 9-channel");
        let sel: Vec<NodeId> = req
            .iter()
            .map(|&r| self.gate(GateKind::And, vec![r, en]))
            .collect();
        let mut not_above: Vec<(usize, Option<NodeId>)> = Vec::new();
        let mut acc: Option<NodeId> = None;
        for i in (0..9).rev() {
            let na = acc.map(|x| self.gate(GateKind::Not, vec![x]));
            not_above.push((i, na));
            acc = Some(match acc {
                None => sel[i],
                Some(x) => self.gate(GateKind::Or, vec![x, sel[i]]),
            });
        }
        let mut hi = [NodeId::from_index(0); 9];
        for (i, na) in not_above {
            hi[i] = match na {
                None => sel[i],
                Some(mask) => self.gate(GateKind::And, vec![sel[i], mask]),
            };
        }
        let z0 = self.tree(GateKind::Or, &[hi[1], hi[3], hi[5], hi[7]]);
        let z1 = self.tree(GateKind::Or, &[hi[2], hi[3], hi[6], hi[7]]);
        let z2 = self.tree(GateKind::Or, &[hi[4], hi[5], hi[6], hi[7]]);
        [z0, z1, z2, hi[8]]
    }
}

/// Result buses of [`Emit::alu`].
pub(super) struct AluOut {
    pub bits: Vec<NodeId>,
    pub cout: NodeId,
    pub eq: NodeId,
    pub gt: NodeId,
    pub parity: NodeId,
}
