//! Critical-area weight distribution onto stuck-at fault universes —
//! the scale path from one extracted layout to millions of weighted
//! gate-level faults.
//!
//! The figure pipeline carries realistic faults end to end: extraction
//! produces a [`FaultSet`] and the switch-level simulator measures
//! `θ(k)` directly on it. That representation is monolithic — every
//! fault owns a heap label and the switch netlist must hold the whole
//! circuit — and stops scaling long before 10^6 faults. This module
//! provides the streaming alternative used by the `scale_sweep` bench:
//!
//! * [`TiledWeights`] projects an extracted fault set onto the
//!   circuit's collapsed stuck-at list, giving each gate-level fault
//!   the critical-area weight of the net it lives on. `θ(k)` then
//!   comes from the PPSFP record alone — no switch-level pass, no
//!   per-fault labels.
//! * The same profile replicates one laid-out template tile's weights
//!   across `n` identical instances: extraction runs once on
//!   the template, and each instance fault inherits its structural
//!   counterpart's weight through a caller-supplied site map. Peak
//!   memory is the template's, independent of `n`. Members that are
//!   not tiled copies use the [`kind_map`] proxy.
//!
//! Both are documented approximations (see `DESIGN.md` §13): a bridge
//! between two nets becomes weight on *both* nets' stuck-at faults
//! rather than a dedicated bridge fault, and a tiled chip's routing
//! context is assumed tile-local. What is preserved is the paper's
//! load-bearing structure — a heavy-tailed, layout-derived weight
//! distribution over a simulable fault universe.

use std::collections::HashMap;

use dlp_circuit::{GateKind, Netlist, NodeId};
use dlp_layout::chip::ElecNet;
use dlp_sim::stuck_at::{FaultSite, StuckAtFault};

use crate::faults::{FaultKind, FaultSet};
use crate::ExtractError;

/// The node that owns an electrical net's signal: the driving gate.
fn net_node(net: &ElecNet) -> NodeId {
    match net {
        ElecNet::Signal(n) => *n,
        // Stage-internal nets belong to their cell; their defects land
        // on the owning gate's signal for weighting purposes.
        ElecNet::Stage(g, _) => *g,
    }
}

/// Attributes every extracted fault's weight to the netlist nodes whose
/// signals the defect touches: a two-net bridge splits evenly, a rail
/// bridge / break / device fault lands on its single net.
fn node_weights(netlist: &Netlist, set: &FaultSet) -> Vec<f64> {
    let mut w = vec![0.0f64; netlist.node_count()];
    let mut add = |n: NodeId, v: f64| {
        if let Some(slot) = w.get_mut(n.index()) {
            *slot += v;
        }
    };
    for f in set.faults() {
        match &f.kind {
            FaultKind::Bridge { a, b: Some(b), .. } => {
                add(net_node(a), f.weight / 2.0);
                add(net_node(b), f.weight / 2.0);
            }
            FaultKind::Bridge { a, b: None, .. } => add(net_node(a), f.weight),
            FaultKind::Break { net, .. } => add(net_node(net), f.weight),
            FaultKind::StuckOpen { owner, .. } | FaultKind::StuckOn { owner, .. } => {
                add(*owner, f.weight)
            }
        }
    }
    w
}

/// The net a stuck-at fault lives on: a stem fault is on its own node's
/// output net; a branch fault is on the *source* net feeding that pin.
fn site_node(netlist: &Netlist, site: &StuckAtFault) -> Result<NodeId, ExtractError> {
    match site.site {
        FaultSite::Stem(n) if n.index() < netlist.node_count() => Ok(n),
        FaultSite::Branch { gate, pin } if gate.index() < netlist.node_count() => netlist
            .fanin(gate)
            .get(pin)
            .copied()
            .ok_or(ExtractError::StuckAtSiteOutOfRange { gate: gate.index() }),
        FaultSite::Stem(n) => Err(ExtractError::StuckAtSiteOutOfRange { gate: n.index() }),
        FaultSite::Branch { gate, .. } => {
            Err(ExtractError::StuckAtSiteOutOfRange { gate: gate.index() })
        }
    }
}

/// One template tile's weight profile, replicable across any number of
/// structurally identical instances.
///
/// Built from a *template* netlist (one tile laid out and extracted on
/// its own) and the template's collapsed stuck-at list; expanded onto a
/// full tiled circuit through a site map taking each full-circuit node
/// to its template counterpart. Sites outside every tile (shared
/// primary inputs, fold logic) take the template's average per-fault
/// weight — the documented approximation for logic the template cannot
/// see.
#[derive(Debug, Clone)]
pub struct TiledWeights {
    node_weight: Vec<f64>,
    node_sites: Vec<usize>,
    default_per_fault: f64,
}

impl TiledWeights {
    /// Builds the profile from the template's extraction and its own
    /// collapsed stuck-at enumeration.
    ///
    /// # Errors
    ///
    /// [`ExtractError::StuckAtSiteOutOfRange`] if a template site falls
    /// outside the template netlist; [`ExtractError::EmptyTemplate`] if
    /// `template_sites` is empty (an average weight would be undefined).
    pub fn new(
        template: &Netlist,
        extracted: &FaultSet,
        template_sites: &[StuckAtFault],
    ) -> Result<TiledWeights, ExtractError> {
        if template_sites.is_empty() {
            return Err(ExtractError::EmptyTemplate);
        }
        let node_weight = node_weights(template, extracted);
        let mut node_sites = vec![0usize; template.node_count()];
        for s in template_sites {
            node_sites[site_node(template, s)?.index()] += 1;
        }
        let total: f64 = node_weight.iter().sum();
        Ok(TiledWeights {
            node_weight,
            node_sites,
            default_per_fault: total / template_sites.len() as f64,
        })
    }

    /// Per-fault weight for a site mapping to `template_node` (`None`
    /// for out-of-tile sites).
    fn weight_for(&self, template_node: Option<NodeId>) -> f64 {
        match template_node {
            Some(n) if self.node_sites.get(n.index()).copied().unwrap_or(0) > 0 => {
                self.node_weight[n.index()] / self.node_sites[n.index()] as f64
            }
            _ => self.default_per_fault,
        }
    }

    /// Expands the profile onto a full circuit's stuck-at list: each
    /// site's net node goes through `map` and inherits its template
    /// counterpart's per-fault weight.
    ///
    /// Expanding the template onto itself with the identity map gives
    /// each site its net's weight split evenly among the sites on that
    /// net, for every net the extractor weighted (the invariant
    /// `tiled_weights_match_direct_distribution` tests against a direct
    /// projection).
    ///
    /// # Errors
    ///
    /// [`ExtractError::StuckAtSiteOutOfRange`] if a site falls outside
    /// `netlist`.
    pub fn expand(
        &self,
        netlist: &Netlist,
        sites: &[StuckAtFault],
        map: impl Fn(NodeId) -> Option<NodeId>,
    ) -> Result<Vec<f64>, ExtractError> {
        sites
            .iter()
            .map(|s| Ok(self.weight_for(map(site_node(netlist, s)?))))
            .collect()
    }
}

/// Kind-proxy site map for members that are not tiled copies of the
/// template: every gate maps to the first template gate of the same
/// [`GateKind`], primary inputs and kinds the template lacks to `None`
/// (the template's average per-fault weight under
/// [`TiledWeights::expand`]).
pub fn kind_map(template: &Netlist, member: &Netlist) -> Box<dyn Fn(NodeId) -> Option<NodeId>> {
    let mut rep: HashMap<GateKind, NodeId> = HashMap::new();
    for id in template.node_ids() {
        if !template.fanin(id).is_empty() {
            rep.entry(template.kind(id)).or_insert(id);
        }
    }
    let kinds: Vec<Option<NodeId>> = member
        .node_ids()
        .map(|id| {
            if member.fanin(id).is_empty() {
                None
            } else {
                rep.get(&member.kind(id)).copied()
            }
        })
        .collect();
    Box::new(move |n: NodeId| kinds.get(n.index()).copied().flatten())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defects::DefectStatistics;
    use crate::extractor;
    use dlp_circuit::generators;
    use dlp_layout::chip::ChipLayout;
    use dlp_sim::stuck_at;

    /// The direct projection [`TiledWeights::expand`] is checked
    /// against: each stuck-at fault's weight is its net's attributed
    /// critical-area weight, split evenly among the stuck-at faults
    /// sharing that net. Index-aligned with `sites`; it sums to the
    /// fault set's total weight whenever every weighted net carries a
    /// site.
    fn stuck_at_weights(
        netlist: &Netlist,
        set: &FaultSet,
        sites: &[StuckAtFault],
    ) -> Result<Vec<f64>, ExtractError> {
        let node_w = node_weights(netlist, set);
        let mut sites_on = vec![0usize; netlist.node_count()];
        let mut nodes = Vec::with_capacity(sites.len());
        for s in sites {
            let n = site_node(netlist, s)?;
            sites_on[n.index()] += 1;
            nodes.push(n);
        }
        Ok(nodes
            .into_iter()
            .map(|n| node_w[n.index()] / sites_on[n.index()] as f64)
            .collect())
    }

    fn c17_setup() -> (Netlist, FaultSet, Vec<StuckAtFault>) {
        let nl = generators::c17();
        let chip = ChipLayout::generate(&nl, &Default::default()).unwrap();
        let set = extractor::extract_for_test(&chip, &DefectStatistics::maly_cmos()).unwrap();
        let sites = stuck_at::enumerate(&nl).collapse().faults().to_vec();
        (nl, set, sites)
    }

    #[test]
    fn weights_are_conserved_and_nonnegative() {
        let (nl, set, sites) = c17_setup();
        let w = stuck_at_weights(&nl, &set, &sites).unwrap();
        assert_eq!(w.len(), sites.len());
        assert!(w.iter().all(|&x| x >= 0.0 && x.is_finite()));
        // c17 is tiny and fully enumerated: every node carries at least
        // one collapsed site, so distribution conserves total weight.
        let total: f64 = set.weights().iter().sum();
        let distributed: f64 = w.iter().sum();
        assert!(
            (total - distributed).abs() < 1e-9 * total.max(1.0),
            "total {total} vs distributed {distributed}"
        );
        assert!(distributed > 0.0);
    }

    #[test]
    fn branch_faults_inherit_their_source_net() {
        let (nl, set, _) = c17_setup();
        // A stem fault and a branch fault on the same net, alone on it,
        // split that net's weight evenly.
        let node = nl.node_ids().find(|&n| !nl.fanout(n).is_empty()).unwrap();
        let sink = nl.fanout(node)[0];
        let pin = nl.fanin(sink).iter().position(|&f| f == node).unwrap();
        let sites = [
            StuckAtFault {
                site: FaultSite::Stem(node),
                stuck_at_one: false,
            },
            StuckAtFault {
                site: FaultSite::Branch { gate: sink, pin },
                stuck_at_one: true,
            },
        ];
        let w = stuck_at_weights(&nl, &set, &sites).unwrap();
        assert_eq!(w[0], w[1], "same net, even split");
    }

    #[test]
    fn out_of_range_sites_are_typed_errors() {
        let (nl, set, _) = c17_setup();
        let beyond = NodeId::from_index(nl.node_count());
        for site in [
            FaultSite::Stem(beyond),
            FaultSite::Branch {
                gate: beyond,
                pin: 0,
            },
            FaultSite::Branch {
                gate: NodeId::from_index(nl.node_count() - 1),
                pin: 99,
            },
        ] {
            let bad = [StuckAtFault {
                site,
                stuck_at_one: false,
            }];
            assert!(matches!(
                stuck_at_weights(&nl, &set, &bad),
                Err(ExtractError::StuckAtSiteOutOfRange { .. })
            ));
        }
    }

    #[test]
    fn tiled_weights_match_direct_distribution() {
        // Expanding the template profile onto the template itself with
        // the identity map must reproduce the direct distribution.
        let (nl, set, sites) = c17_setup();
        let direct = stuck_at_weights(&nl, &set, &sites).unwrap();
        let tiled = TiledWeights::new(&nl, &set, &sites).unwrap();
        let expanded = tiled.expand(&nl, &sites, Some).unwrap();
        for (i, (a, b)) in direct.iter().zip(&expanded).enumerate() {
            assert!(
                (a - b).abs() < 1e-12,
                "site {i}: direct {a} vs expanded {b}"
            );
        }
    }

    #[test]
    fn unmapped_sites_take_the_average_weight() {
        let (nl, set, sites) = c17_setup();
        let tiled = TiledWeights::new(&nl, &set, &sites).unwrap();
        let everything_unmapped = tiled.expand(&nl, &sites, |_| None).unwrap();
        let total: f64 = set.weights().iter().sum();
        let avg = total / sites.len() as f64;
        assert!(everything_unmapped.iter().all(|&w| (w - avg).abs() < 1e-12));
    }

    #[test]
    fn empty_template_site_list_is_rejected() {
        let (nl, set, _) = c17_setup();
        assert!(matches!(
            TiledWeights::new(&nl, &set, &[]),
            Err(ExtractError::EmptyTemplate)
        ));
    }
}
