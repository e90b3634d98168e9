//! Transistor-level (switch-level) netlists and CMOS expansion.
//!
//! [`expand`] lowers a gate-level [`Netlist`] into a [`SwitchNetlist`] by
//! instantiating the static-CMOS [`cells`](crate::cells) template of every
//! gate: each stage becomes an NMOS pull-down network between the stage
//! output and ground plus the dual PMOS pull-up network to VDD, with
//! explicit internal nodes between stacked transistors.
//!
//! The switch netlist is what the realistic-fault simulator (`dlp-sim`)
//! operates on: bridging faults connect two of its nodes, open faults break
//! a connection, and transistor stuck-opens remove a device.

use crate::cells::{self, PdnExpr, StageSignal};
use crate::{GateKind, Netlist, NetlistError, NodeId};

/// Identifier of a node in a [`SwitchNetlist`]. Node 0 is VDD and node 1 is
/// ground; every other node is a signal or internal stack node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SwitchNodeId(pub(crate) u32);

impl SwitchNodeId {
    /// The power rail.
    pub const VDD: SwitchNodeId = SwitchNodeId(0);
    /// The ground rail.
    pub const GND: SwitchNodeId = SwitchNodeId(1);

    /// Dense index of this node.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an ID from a dense index. The index must come from the
    /// [`SwitchNetlist`] the ID will be used with; out-of-range IDs make
    /// accessor methods panic.
    #[inline]
    pub const fn from_index(index: usize) -> Self {
        SwitchNodeId(index as u32)
    }

    /// True for VDD or GND.
    #[inline]
    pub const fn is_rail(self) -> bool {
        self.0 < 2
    }
}

impl core::fmt::Display for SwitchNodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            SwitchNodeId::VDD => f.write_str("VDD"),
            SwitchNodeId::GND => f.write_str("GND"),
            SwitchNodeId(i) => write!(f, "sw{i}"),
        }
    }
}

/// Polarity of a MOS device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TransKind {
    /// N-channel: conducts when its gate is high.
    Nmos,
    /// P-channel: conducts when its gate is low.
    Pmos,
}

/// A MOS transistor: a voltage-controlled switch between `a` and `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Transistor {
    /// Device polarity.
    pub kind: TransKind,
    /// The controlling node.
    pub gate: SwitchNodeId,
    /// One channel terminal (source/drain are symmetric at switch level).
    pub a: SwitchNodeId,
    /// The other channel terminal.
    pub b: SwitchNodeId,
    /// The gate-level node whose cell this device belongs to.
    pub owner: NodeId,
}

/// A transistor-level netlist produced by [`expand`].
#[derive(Debug, Clone)]
pub struct SwitchNetlist {
    node_names: Vec<String>,
    transistors: Vec<Transistor>,
    /// gate-level node index -> switch node of its output net.
    net_node: Vec<SwitchNodeId>,
    input_nodes: Vec<SwitchNodeId>,
    output_nodes: Vec<SwitchNodeId>,
    /// node index -> indices of transistors it gates.
    gate_adjacency: Vec<Vec<u32>>,
}

impl SwitchNetlist {
    /// Number of nodes, rails included.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// All transistors.
    pub fn transistors(&self) -> &[Transistor] {
        &self.transistors
    }

    /// Debug name of a node.
    pub fn node_name(&self, id: SwitchNodeId) -> &str {
        &self.node_names[id.index()]
    }

    /// Looks up a node by name. Gate-level signals use their netlist
    /// names; internal stage nodes are named `<signal>#s<stage>`.
    pub fn node_by_name(&self, name: &str) -> Option<SwitchNodeId> {
        self.node_names
            .iter()
            .position(|n| n == name)
            .map(SwitchNodeId::from_index)
    }

    /// The switch node carrying a gate-level signal.
    pub fn node_of_net(&self, net: NodeId) -> SwitchNodeId {
        self.net_node[net.index()]
    }

    /// Switch nodes of the primary inputs, in netlist input order.
    pub fn input_nodes(&self) -> &[SwitchNodeId] {
        &self.input_nodes
    }

    /// Switch nodes of the primary outputs, in netlist output order.
    pub fn output_nodes(&self) -> &[SwitchNodeId] {
        &self.output_nodes
    }

    /// Indices into [`transistors`](Self::transistors) of devices gated by
    /// `node`.
    pub fn gated_by(&self, node: SwitchNodeId) -> &[u32] {
        &self.gate_adjacency[node.index()]
    }
}

/// Lowers a gate-level netlist to transistors using the standard-cell
/// templates of [`cells`](crate::cells).
///
/// # Errors
///
/// Returns [`NetlistError::BadArity`] if a gate has no realisable cell
/// template (e.g. a 9-input NAND).
///
/// # Example
///
/// ```
/// use dlp_circuit::{generators, switch};
///
/// let c17 = generators::c17();
/// let sw = switch::expand(&c17)?;
/// // c17 is six NAND2 cells: 6 * 4 transistors.
/// assert_eq!(sw.transistors().len(), 24);
/// # Ok::<(), dlp_circuit::NetlistError>(())
/// ```
pub fn expand(netlist: &Netlist) -> Result<SwitchNetlist, NetlistError> {
    let mut node_names = vec!["VDD".to_string(), "GND".to_string()];
    let mut new_node = |name: String| -> SwitchNodeId {
        let id = SwitchNodeId(node_names.len() as u32);
        node_names.push(name);
        id
    };

    // One switch node per gate-level signal.
    let mut net_node = Vec::with_capacity(netlist.node_count());
    for id in netlist.node_ids() {
        net_node.push(new_node(netlist.node_name(id).to_string()));
    }

    let mut transistors = Vec::new();
    for id in netlist.node_ids() {
        let kind = netlist.kind(id);
        if kind == GateKind::Input {
            continue;
        }
        let fanin = netlist.fanin(id);
        let template = cells::template_for(kind, fanin.len())?;
        let stages = template.stages();
        // Output nodes per stage; the last stage drives the net.
        let mut stage_nodes = Vec::with_capacity(stages.len());
        for s in 0..stages.len() {
            if s + 1 == stages.len() {
                stage_nodes.push(net_node[id.index()]);
            } else {
                stage_nodes.push(new_node(format!("{}#s{s}", netlist.node_name(id))));
            }
        }
        let signal_node = |sig: StageSignal| -> SwitchNodeId {
            match sig {
                StageSignal::Pin(p) => net_node[fanin[p].index()],
                StageSignal::Stage(s) => stage_nodes[s],
            }
        };
        for (s, stage) in stages.iter().enumerate() {
            let out = stage_nodes[s];
            let mut ctx = ExpandCtx {
                owner: id,
                transistors: &mut transistors,
                new_node: &mut new_node,
                stage_label: format!("{}#s{s}", netlist.node_name(id)),
                counter: 0,
            };
            ctx.emit(
                &stage.pdn,
                TransKind::Nmos,
                out,
                SwitchNodeId::GND,
                &signal_node,
            );
            ctx.emit(
                &stage.pdn.dual(),
                TransKind::Pmos,
                SwitchNodeId::VDD,
                out,
                &signal_node,
            );
        }
    }

    let node_total = node_names.len();
    let mut gate_adjacency = vec![Vec::new(); node_total];
    for (i, t) in transistors.iter().enumerate() {
        gate_adjacency[t.gate.index()].push(i as u32);
    }

    Ok(SwitchNetlist {
        node_names,
        transistors,
        input_nodes: netlist
            .inputs()
            .iter()
            .map(|&i| net_node[i.index()])
            .collect(),
        output_nodes: netlist
            .outputs()
            .iter()
            .map(|&o| net_node[o.index()])
            .collect(),
        net_node,
        gate_adjacency,
    })
}

struct ExpandCtx<'a> {
    owner: NodeId,
    transistors: &'a mut Vec<Transistor>,
    new_node: &'a mut dyn FnMut(String) -> SwitchNodeId,
    stage_label: String,
    counter: usize,
}

impl ExpandCtx<'_> {
    /// Emits the transistor network realising `expr` between `top` and
    /// `bottom`.
    fn emit(
        &mut self,
        expr: &PdnExpr,
        kind: TransKind,
        top: SwitchNodeId,
        bottom: SwitchNodeId,
        signal_node: &dyn Fn(StageSignal) -> SwitchNodeId,
    ) {
        match expr {
            PdnExpr::Leaf(sig) => {
                self.transistors.push(Transistor {
                    kind,
                    gate: signal_node(*sig),
                    a: top,
                    b: bottom,
                    owner: self.owner,
                });
            }
            PdnExpr::Parallel(subs) => {
                for sub in subs {
                    self.emit(sub, kind, top, bottom, signal_node);
                }
            }
            PdnExpr::Series(subs) => {
                let mut upper = top;
                for (i, sub) in subs.iter().enumerate() {
                    let lower = if i + 1 == subs.len() {
                        bottom
                    } else {
                        self.counter += 1;
                        (self.new_node)(format!("{}.{:?}{}", self.stage_label, kind, self.counter))
                    };
                    self.emit(sub, kind, upper, lower, signal_node);
                    upper = lower;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use std::collections::HashMap;

    /// Reference switch-level evaluation of a *fault-free* netlist on a single
    /// input pattern, used to cross-check the expansion against gate-level
    /// logic. Returns the value of every gate-level signal.
    ///
    /// This is a structural evaluator (it walks cells in topological order and
    /// asks each stage whether its PDN conducts); the production simulator in
    /// `dlp-sim` solves the transistor graph directly and handles faults.
    ///
    /// Panics if `pattern.len() != netlist.inputs().len()` or if the netlist has
    /// a gate without a template.
    fn reference_eval(netlist: &Netlist, pattern: &[bool]) -> HashMap<NodeId, bool> {
        assert_eq!(pattern.len(), netlist.inputs().len());
        let mut values: HashMap<NodeId, bool> = HashMap::new();
        for (i, &id) in netlist.inputs().iter().enumerate() {
            values.insert(id, pattern[i]);
        }
        for id in netlist.node_ids() {
            let kind = netlist.kind(id);
            if kind == GateKind::Input {
                continue;
            }
            let fanin = netlist.fanin(id);
            let template = match cells::template_for(kind, fanin.len()) {
                Ok(t) => t,
                Err(e) => panic!("netlist gate is not realisable as a cell: {e}"),
            };
            let pins: Vec<bool> = fanin.iter().map(|f| values[f]).collect();
            values.insert(id, template.eval(&pins));
        }
        values
    }

    #[test]
    fn c17_expansion_counts() {
        let c17 = generators::c17();
        let sw = expand(&c17).unwrap();
        assert_eq!(sw.transistors().len(), 24);
        // Nodes: 2 rails + 11 nets + one series node per NAND2 stack (6 NMOS
        // stacks of depth 2 -> 6 internal nodes).
        assert_eq!(sw.node_count(), 2 + 11 + 6);
        assert_eq!(sw.input_nodes().len(), 5);
        assert_eq!(sw.output_nodes().len(), 2);
    }

    #[test]
    fn every_stage_output_reaches_both_rails_structurally() {
        let nl = generators::ripple_adder(2);
        let sw = expand(&nl).unwrap();
        // Each non-rail, non-input node must touch at least one NMOS and
        // one PMOS channel (it is driven by a complementary stage) or be a
        // pure interconnect (input) node.
        for t in sw.transistors() {
            assert_ne!(t.a, t.b, "degenerate channel");
        }
        for &o in sw.output_nodes() {
            let on_channel = |kind| {
                sw.transistors()
                    .iter()
                    .any(|t| t.kind == kind && (t.a == o || t.b == o))
            };
            assert!(on_channel(TransKind::Nmos), "output lacks pull-down");
            assert!(on_channel(TransKind::Pmos), "output lacks pull-up");
        }
    }

    #[test]
    fn rails_are_fixed_ids() {
        assert_eq!(SwitchNodeId::VDD.index(), 0);
        assert_eq!(SwitchNodeId::GND.index(), 1);
        assert!(SwitchNodeId::VDD.is_rail());
        assert!(!SwitchNodeId(5).is_rail());
    }

    #[test]
    fn reference_eval_matches_gate_level() {
        for nl in [
            generators::c17(),
            generators::ripple_adder(3),
            generators::c432_class(),
        ] {
            let n_in = nl.inputs().len();
            let mut seed = 0xDEAD_BEEFu64;
            for _ in 0..20 {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                let pattern: Vec<bool> = (0..n_in).map(|i| seed >> (i % 64) & 1 == 1).collect();
                let words: Vec<u64> = pattern.iter().map(|&b| if b { 1 } else { 0 }).collect();
                let gate_out = nl.eval_words(&words);
                let sw_values = reference_eval(&nl, &pattern);
                for (k, &o) in nl.outputs().iter().enumerate() {
                    assert_eq!(
                        sw_values[&o],
                        gate_out[k] & 1 == 1,
                        "{} output {k}",
                        nl.name()
                    );
                }
            }
        }
    }

    #[test]
    fn adjacency_is_consistent() {
        let sw = expand(&generators::c17()).unwrap();
        for (i, t) in sw.transistors().iter().enumerate() {
            assert!(sw.gated_by(t.gate).contains(&(i as u32)));
        }
    }

    #[test]
    fn pmos_and_nmos_balance_in_complementary_cells() {
        let sw = expand(&generators::c432_class()).unwrap();
        let n = sw
            .transistors()
            .iter()
            .filter(|t| t.kind == TransKind::Nmos)
            .count();
        let p = sw
            .transistors()
            .iter()
            .filter(|t| t.kind == TransKind::Pmos)
            .count();
        assert_eq!(n, p, "fully complementary CMOS has equal N and P counts");
    }
}
