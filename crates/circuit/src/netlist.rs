use std::collections::HashMap;

use crate::{GateKind, NetlistError};

/// Identifier of a netlist node (a primary input or a gate output signal).
///
/// IDs are dense indices into the owning [`Netlist`], assigned in insertion
/// order; they are meaningless across netlists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The dense index of this node.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an ID from a dense index. The index must come from the
    /// [`Netlist`] the ID will be used with; out-of-range IDs make accessor
    /// methods panic.
    #[inline]
    pub const fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }
}

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct Node {
    name: String,
    kind: GateKind,
    fanin: Vec<NodeId>,
}

/// A combinational gate-level netlist in single-output-per-gate (ISCAS)
/// style: every node is either a primary input or a gate, and the node *is*
/// its output signal.
///
/// Construction is incremental ([`add_input`], [`add_gate`]) and validated:
/// names are unique, fanins must already exist (which also guarantees the
/// netlist is acyclic by construction), arities are checked.
///
/// The netlist is the common currency of the whole toolkit: ATPG and the
/// gate-level fault simulator consume it directly, the layout generator maps
/// each gate to a standard cell, and the switch-level expander lowers it to
/// transistors.
///
/// [`add_input`]: Netlist::add_input
/// [`add_gate`]: Netlist::add_gate
///
/// # Example
///
/// ```
/// use dlp_circuit::{GateKind, Netlist};
///
/// # fn main() -> Result<(), dlp_circuit::NetlistError> {
/// let mut n = Netlist::new("mux");
/// let s = n.add_input("s")?;
/// let a = n.add_input("a")?;
/// let b = n.add_input("b")?;
/// let ns = n.add_gate("ns", GateKind::Not, vec![s])?;
/// let t0 = n.add_gate("t0", GateKind::And, vec![a, ns])?;
/// let t1 = n.add_gate("t1", GateKind::And, vec![b, s])?;
/// let y = n.add_gate("y", GateKind::Or, vec![t0, t1])?;
/// n.mark_output(y);
/// n.freeze();
/// assert_eq!(n.level(y), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    // Output membership by node index — `is_output` sits in fault
    // simulators' innermost cone loops, where scanning `outputs` is
    // O(|outputs|) per node and dominates at scale.
    output_flags: Vec<bool>,
    by_name: HashMap<String, NodeId>,
    // Derived, rebuilt lazily on structural change.
    fanouts: Vec<Vec<NodeId>>,
    levels: Vec<u32>,
}

impl Netlist {
    /// Creates an empty netlist called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            nodes: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            output_flags: Vec::new(),
            by_name: HashMap::new(),
            fanouts: Vec::new(),
            levels: Vec::new(),
        }
    }

    /// The netlist's name (used in reports and layout cell prefixes).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the netlist (generators that wrap a parameterized core
    /// under a benchmark-family name).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Declares a primary input.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken.
    pub fn add_input(&mut self, name: impl Into<String>) -> Result<NodeId, NetlistError> {
        let id = self.add_node(name.into(), GateKind::Input, Vec::new())?;
        self.inputs.push(id);
        Ok(id)
    }

    /// Adds a gate whose output signal is `name`.
    ///
    /// Fanins must already exist, which makes cycles unrepresentable.
    ///
    /// # Errors
    ///
    /// [`NetlistError::DuplicateName`] for a reused name,
    /// [`NetlistError::BadArity`] if `fanin.len()` does not fit `kind`.
    pub fn add_gate(
        &mut self,
        name: impl Into<String>,
        kind: GateKind,
        fanin: Vec<NodeId>,
    ) -> Result<NodeId, NetlistError> {
        let name = name.into();
        if kind == GateKind::Input {
            return Err(NetlistError::BadArity {
                gate: name,
                got: fanin.len(),
                expected: "use add_input for primary inputs",
            });
        }
        if !kind.accepts_arity(fanin.len()) {
            return Err(NetlistError::BadArity {
                gate: name,
                got: fanin.len(),
                expected: kind.arity_spec(),
            });
        }
        for f in &fanin {
            if f.index() >= self.nodes.len() {
                return Err(NetlistError::UnknownSignal(format!("{f}")));
            }
        }
        self.add_node(name, kind, fanin)
    }

    fn add_node(
        &mut self,
        name: String,
        kind: GateKind,
        fanin: Vec<NodeId>,
    ) -> Result<NodeId, NetlistError> {
        if self.by_name.contains_key(&name) {
            return Err(NetlistError::DuplicateName(name));
        }
        let id = NodeId(self.nodes.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.nodes.push(Node { name, kind, fanin });
        self.fanouts.clear();
        self.levels.clear();
        Ok(id)
    }

    /// Marks a node as a primary output. A node may be marked only once;
    /// repeated marks are ignored.
    pub fn mark_output(&mut self, id: NodeId) {
        if self.output_flags.len() <= id.index() {
            self.output_flags.resize(id.index() + 1, false);
        }
        if !self.output_flags[id.index()] {
            self.output_flags[id.index()] = true;
            self.outputs.push(id);
        }
    }

    /// Number of nodes (inputs + gates).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of gates (excludes primary inputs).
    pub fn gate_count(&self) -> usize {
        self.nodes.len() - self.inputs.len()
    }

    /// Primary inputs in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Primary outputs in declaration order.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// All node IDs in insertion (topological) order.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// The node's logic kind.
    pub fn kind(&self, id: NodeId) -> GateKind {
        self.nodes[id.index()].kind
    }

    /// The node's signal name.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.nodes[id.index()].name
    }

    /// Looks a node up by signal name.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// The node's fanin signals, in gate-input order.
    pub fn fanin(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.index()].fanin
    }

    /// True if the node is a primary output. O(1).
    #[inline]
    pub fn is_output(&self, id: NodeId) -> bool {
        self.output_flags.get(id.index()).copied().unwrap_or(false)
    }

    /// Finalises derived structures (fanout lists and levels). Called
    /// automatically by queries that need them; call it eagerly to pay the
    /// cost at a deterministic point.
    pub fn freeze(&mut self) {
        if self.fanouts.len() == self.nodes.len() {
            return;
        }
        let mut fanouts = vec![Vec::new(); self.nodes.len()];
        let mut levels = vec![0u32; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            let id = NodeId(i as u32);
            let mut level = 0;
            for &f in &node.fanin {
                fanouts[f.index()].push(id);
                level = level.max(levels[f.index()] + 1);
            }
            levels[i] = level;
        }
        self.fanouts = fanouts;
        self.levels = levels;
    }

    fn frozen(&self) -> (&[Vec<NodeId>], &[u32]) {
        assert_eq!(
            self.fanouts.len(),
            self.nodes.len(),
            "call Netlist::freeze() after structural edits (query on stale netlist)"
        );
        (&self.fanouts, &self.levels)
    }

    /// Nodes that consume this node's output signal.
    ///
    /// # Panics
    ///
    /// Panics if the netlist was structurally modified after the last
    /// [`freeze`](Netlist::freeze).
    pub fn fanout(&self, id: NodeId) -> &[NodeId] {
        self.frozen().0[id.index()].as_slice()
    }

    /// Logic level of the node (0 for primary inputs, 1 + max fanin level
    /// for gates).
    ///
    /// # Panics
    ///
    /// Panics if the netlist was structurally modified after the last
    /// [`freeze`](Netlist::freeze).
    pub fn level(&self, id: NodeId) -> u32 {
        self.frozen().1[id.index()]
    }

    /// Depth of the circuit: the maximum node level.
    ///
    /// # Panics
    ///
    /// See [`level`](Netlist::level).
    pub fn depth(&self) -> u32 {
        self.frozen().1.iter().copied().max().unwrap_or(0)
    }

    /// Validates output markings and returns self-checks a parser relies on.
    ///
    /// # Errors
    ///
    /// [`NetlistError::UndrivenOutput`] if an output has no defining node
    /// (cannot happen through the builder API, but parsers build in two
    /// phases).
    pub fn validate(&self) -> Result<(), NetlistError> {
        for &o in &self.outputs {
            if o.index() >= self.nodes.len() {
                return Err(NetlistError::UndrivenOutput(format!("{o}")));
            }
        }
        Ok(())
    }

    /// Evaluates the whole netlist over 64 parallel patterns.
    ///
    /// `input_words[i]` carries 64 values of input `self.inputs()[i]`
    /// (bit *b* of every word belongs to pattern *b*). Returns one word per
    /// primary output, in [`outputs`](Netlist::outputs) order.
    ///
    /// # Panics
    ///
    /// Panics if `input_words.len() != self.inputs().len()`.
    pub fn eval_words(&self, input_words: &[u64]) -> Vec<u64> {
        let values = self.eval_words_all(input_words);
        self.outputs.iter().map(|o| values[o.index()]).collect()
    }

    /// Like [`eval_words`](Netlist::eval_words) but returns the value word
    /// of *every* node (indexed by `NodeId::index`), which fault simulators
    /// need for fault-site comparison.
    ///
    /// # Panics
    ///
    /// Panics if `input_words.len() != self.inputs().len()`.
    pub fn eval_words_all(&self, input_words: &[u64]) -> Vec<u64> {
        assert_eq!(
            input_words.len(),
            self.inputs.len(),
            "one input word per primary input"
        );
        let mut values = vec![0u64; self.nodes.len()];
        for (i, &id) in self.inputs.iter().enumerate() {
            values[id.index()] = input_words[i];
        }
        let mut fanin_buf = Vec::with_capacity(8);
        for (i, node) in self.nodes.iter().enumerate() {
            if node.kind == GateKind::Input {
                continue;
            }
            fanin_buf.clear();
            fanin_buf.extend(node.fanin.iter().map(|f| values[f.index()]));
            values[i] = node.kind.eval_words(&fanin_buf);
        }
        values
    }

    /// The transitive fanout cone of `seed` (inclusive), as a sorted list.
    /// Fault simulators resimulate only this cone. Repeated queries (a
    /// fault simulator building one cone per fault site) reuse the
    /// caller-owned scratch's visited marks instead of zeroing a
    /// node-count array per call, so the cost per cone is proportional
    /// to the cone, not the netlist.
    ///
    /// # Panics
    ///
    /// Panics if the netlist is stale; see [`fanout`](Netlist::fanout).
    pub fn fanout_cone_with(&self, seed: NodeId, scratch: &mut ConeScratch) -> Vec<NodeId> {
        let (fanouts, _) = self.frozen();
        let epoch = scratch.begin(self.nodes.len());
        let mut cone = vec![seed];
        scratch.mark[seed.index()] = epoch;
        let mut head = 0;
        while head < cone.len() {
            let n = cone[head];
            head += 1;
            for &s in &fanouts[n.index()] {
                if scratch.mark[s.index()] != epoch {
                    scratch.mark[s.index()] = epoch;
                    cone.push(s);
                }
            }
        }
        cone.sort_unstable();
        cone
    }
}

/// Reusable visited-marks for [`Netlist::fanout_cone_with`]: an epoch
/// counter makes "clearing" the marks between queries free. One scratch
/// serves netlists of any size (it grows on demand) but is not shareable
/// across threads — give each worker its own.
#[derive(Debug, Default)]
pub struct ConeScratch {
    mark: Vec<u32>,
    epoch: u32,
}

impl ConeScratch {
    /// An empty scratch; storage is allocated by the first query.
    pub fn new() -> ConeScratch {
        ConeScratch::default()
    }

    /// Starts a query over `nodes` nodes and returns the fresh epoch.
    fn begin(&mut self, nodes: usize) -> u32 {
        if self.mark.len() < nodes {
            self.mark.resize(nodes, 0);
        }
        if self.epoch == u32::MAX {
            self.mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mux() -> Netlist {
        let mut n = Netlist::new("mux");
        let s = n.add_input("s").unwrap();
        let a = n.add_input("a").unwrap();
        let b = n.add_input("b").unwrap();
        let ns = n.add_gate("ns", GateKind::Not, vec![s]).unwrap();
        let t0 = n.add_gate("t0", GateKind::And, vec![a, ns]).unwrap();
        let t1 = n.add_gate("t1", GateKind::And, vec![b, s]).unwrap();
        let y = n.add_gate("y", GateKind::Or, vec![t0, t1]).unwrap();
        n.mark_output(y);
        n.freeze();
        n
    }

    #[test]
    fn counts_and_lookup() {
        let n = mux();
        assert_eq!(n.node_count(), 7);
        assert_eq!(n.gate_count(), 4);
        assert_eq!(n.inputs().len(), 3);
        assert_eq!(n.outputs().len(), 1);
        assert_eq!(n.find("t1"), Some(NodeId(5)));
        assert_eq!(n.find("nope"), None);
        assert_eq!(n.node_name(NodeId(5)), "t1");
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut n = Netlist::new("t");
        n.add_input("a").unwrap();
        assert_eq!(
            n.add_input("a"),
            Err(NetlistError::DuplicateName("a".into()))
        );
        let a = n.find("a").unwrap();
        assert!(matches!(
            n.add_gate("a", GateKind::Not, vec![a]),
            Err(NetlistError::DuplicateName(_))
        ));
    }

    #[test]
    fn arity_enforced() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a").unwrap();
        assert!(matches!(
            n.add_gate("g", GateKind::Nand, vec![a]),
            Err(NetlistError::BadArity { .. })
        ));
        assert!(matches!(
            n.add_gate("g", GateKind::Not, vec![a, a]),
            Err(NetlistError::BadArity { .. })
        ));
        assert!(matches!(
            n.add_gate("g", GateKind::Input, vec![]),
            Err(NetlistError::BadArity { .. })
        ));
    }

    #[test]
    fn mux_truth_table() {
        let n = mux();
        // Patterns (s,a,b): enumerate all 8 in bits 0..8.
        let mut s = 0u64;
        let mut a = 0u64;
        let mut b = 0u64;
        for p in 0..8u64 {
            if p & 1 != 0 {
                s |= 1 << p;
            }
            if p & 2 != 0 {
                a |= 1 << p;
            }
            if p & 4 != 0 {
                b |= 1 << p;
            }
        }
        let y = n.eval_words(&[s, a, b])[0];
        for p in 0..8u64 {
            let (sv, av, bv) = (p & 1 != 0, p & 2 != 0, p & 4 != 0);
            let expect = if sv { bv } else { av };
            assert_eq!(y >> p & 1 == 1, expect, "pattern {p}");
        }
    }

    #[test]
    fn levels_and_depth() {
        let n = mux();
        assert_eq!(n.level(n.find("s").unwrap()), 0);
        assert_eq!(n.level(n.find("ns").unwrap()), 1);
        assert_eq!(n.level(n.find("t0").unwrap()), 2);
        assert_eq!(n.level(n.find("y").unwrap()), 3);
        assert_eq!(n.depth(), 3);
    }

    #[test]
    fn fanouts() {
        let n = mux();
        let s = n.find("s").unwrap();
        let mut fo: Vec<&str> = n.fanout(s).iter().map(|&x| n.node_name(x)).collect();
        fo.sort();
        assert_eq!(fo, ["ns", "t1"]);
        assert!(n.fanout(n.find("y").unwrap()).is_empty());
    }

    #[test]
    fn fanout_cone_includes_seed_and_descendants() {
        let n = mux();
        let a = n.find("a").unwrap();
        let mut scratch = ConeScratch::new();
        let cone: Vec<&str> = n
            .fanout_cone_with(a, &mut scratch)
            .iter()
            .map(|&x| n.node_name(x))
            .collect();
        assert_eq!(cone, ["a", "t0", "y"]);
    }

    #[test]
    #[should_panic(expected = "freeze")]
    fn stale_query_panics() {
        let mut n = mux();
        let a = n.find("a").unwrap();
        n.add_gate("extra", GateKind::Not, vec![a]).unwrap();
        let _ = n.depth();
    }

    #[test]
    fn mark_output_is_idempotent() {
        let mut n = mux();
        let y = n.find("y").unwrap();
        n.mark_output(y);
        assert_eq!(n.outputs().len(), 1);
    }
}
