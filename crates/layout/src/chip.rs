//! Full-chip assembly: placed cells, pin escapes, routed nets, pads and
//! rails, with every rectangle tagged by electrical identity.
//!
//! The tagging contract is what the fault extractor consumes:
//!
//! * [`ElecRole::Net`] shapes carry a routable net ([`ElecNet`]);
//! * [`ElecRole::StageDiff`] shapes are shared diffusion strips whose
//!   defects map to transistor-level faults via [`PlacedTransistor`];
//! * [`ShapeOrigin::Route`] records which *terminal* a routed shape was
//!   created for, giving per-branch open-fault semantics (terminal 0 is
//!   always the net's driver).

use std::collections::HashMap;

use dlp_circuit::switch::TransKind;
use dlp_circuit::{Netlist, NodeId};
use dlp_geometry::{Coord, Layer, Rect};

use crate::cell::{CellSignal, LocalRole};
use crate::grid::{GridPoint, PathNode, RouteLayer, RoutedPath, RoutingGrid};
use crate::place::Placement;
use crate::tech::Technology;
use crate::LayoutError;

/// An electrical net of the chip: a gate-level signal or the internal
/// output of a non-final stage of a multi-stage cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ElecNet {
    /// A gate-level signal (the output net of `NodeId`).
    Signal(NodeId),
    /// Stage `s` output inside the cell of gate `NodeId`.
    Stage(NodeId, usize),
}

impl ElecNet {
    /// The net that stage `stage` of `gate`'s cell drives: the gate's
    /// own signal for the cell's last stage, a stage-internal net for
    /// every earlier one.
    ///
    /// # Panics
    ///
    /// Panics if `gate` has no cell template. Every gate of a placed
    /// chip has one: `ChipLayout::generate` maps each gate to its
    /// template during placement and returns a typed `LayoutError` for
    /// a gate it cannot map.
    pub fn of_stage(netlist: &Netlist, gate: NodeId, stage: usize) -> ElecNet {
        let stages =
            match dlp_circuit::cells::template_for(netlist.kind(gate), netlist.fanin(gate).len()) {
                Ok(t) => t.stages().len(),
                Err(e) => panic!("placed gate lost its cell template: {e}"),
            };
        if stage + 1 == stages {
            ElecNet::Signal(gate)
        } else {
            ElecNet::Stage(gate, stage)
        }
    }
}

/// Electrical identity of a shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElecRole {
    /// Part of a routable net.
    Net(ElecNet),
    /// Shared diffusion of a cell stage (defects map to its devices).
    StageDiff {
        /// Owning gate.
        gate: NodeId,
        /// Stage index.
        stage: usize,
        /// Device row.
        kind: TransKind,
    },
    /// Power.
    Vdd,
    /// Ground.
    Gnd,
}

/// Where a shape came from — used for open-fault semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeOrigin {
    /// Drawn as part of a placed cell.
    Cell {
        /// The gate instance.
        gate: NodeId,
    },
    /// Drawn by the router (or as a pin escape / pad) for one terminal of
    /// a net.
    Route {
        /// Index into [`ChipLayout::nets`].
        net_index: usize,
        /// Index into that net's terminal list; 0 is the driver.
        terminal: usize,
    },
    /// Power distribution.
    Supply,
}

/// One tagged rectangle of chip geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Mask layer.
    pub layer: Layer,
    /// Absolute geometry in λ.
    pub rect: Rect,
    /// Electrical identity.
    pub role: ElecRole,
    /// Provenance.
    pub origin: ShapeOrigin,
}

/// What a net terminal connects to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminalKind {
    /// The net's driving pin (cell output strap or input pad).
    Driver,
    /// An input pin of the given sink gate.
    SinkGate(NodeId),
    /// A primary-output observation pad.
    OutputPad,
}

/// A routable net with its terminal list (terminal 0 is the driver).
#[derive(Debug, Clone)]
pub struct NetInfo {
    /// The net.
    pub net: ElecNet,
    /// Terminals in routing order.
    pub terminals: Vec<TerminalKind>,
}

/// A drawn transistor with its global placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacedTransistor {
    /// Owning gate.
    pub owner: NodeId,
    /// Ordinal within the owner, matching `dlp_circuit::switch::expand`.
    pub ordinal: usize,
    /// Polarity.
    pub kind: TransKind,
    /// Stage within the cell.
    pub stage: usize,
    /// Absolute channel rectangle.
    pub channel: Rect,
}

/// Router work counters of one generated chip (DESIGN.md §9). The
/// router is single-threaded, so they are the same at every thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteStats {
    /// A* searches, one per terminal not already on its net's route tree.
    pub waves: u64,
    /// States expanded over all searches.
    pub expanded: u64,
    /// Nets ripped up and requeued by the negotiation.
    pub reroutes: u64,
    /// Net branches the final routes leave unconnected (as
    /// [`ChipLayout::unrouted`]).
    pub unrouted: usize,
}

/// The assembled chip.
#[derive(Debug, Clone)]
pub struct ChipLayout {
    netlist: Netlist,
    tech: Technology,
    shapes: Vec<Shape>,
    nets: Vec<NetInfo>,
    transistors: Vec<PlacedTransistor>,
    bbox: Rect,
    rows: usize,
    route: RouteStats,
}

impl ChipLayout {
    /// Places and routes `netlist` under `tech` rules.
    ///
    /// # Errors
    ///
    /// [`LayoutError::BadTechnology`] for inconsistent design rules,
    /// [`LayoutError::Cell`] for unmappable gates and
    /// [`LayoutError::Unroutable`] if the router runs out of resources
    /// (raise [`Technology::channel_rows`] in that case).
    pub fn generate(netlist: &Netlist, tech: &Technology) -> Result<ChipLayout, LayoutError> {
        if !tech.validate() {
            return Err(LayoutError::BadTechnology);
        }
        Builder::new(netlist.clone(), tech.clone())?.run()
    }

    /// The netlist this chip implements.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The technology used.
    pub fn tech(&self) -> &Technology {
        &self.tech
    }

    /// All tagged geometry.
    pub fn shapes(&self) -> &[Shape] {
        &self.shapes
    }

    /// All routable nets with their terminals.
    pub fn nets(&self) -> &[NetInfo] {
        &self.nets
    }

    /// All placed transistors.
    pub fn transistors(&self) -> &[PlacedTransistor] {
        &self.transistors
    }

    /// Chip bounding box.
    pub fn bbox(&self) -> Rect {
        self.bbox
    }

    /// Number of cell rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of net *branches* (terminals) the final routes leave
    /// unconnected; a route ripped up by the negotiation no longer
    /// counts. Zero for healthy designs; nonzero when the negotiation
    /// runs out of rip-up budget under congestion (the affected geometry
    /// is simply absent, which undercounts critical area but never
    /// creates shorts).
    pub fn unrouted(&self) -> usize {
        self.route.unrouted
    }

    /// How much work the router did for this chip.
    pub fn route_stats(&self) -> RouteStats {
        self.route
    }

    /// Checks that no two shapes with different electrical identities
    /// touch on the same conductor layer. Returns the violating pairs
    /// (empty on a healthy chip). O(n²) with coarse pruning — intended for
    /// tests and the extractor's self-check, not inner loops.
    pub fn verify_connectivity(&self) -> Vec<(Shape, Shape)> {
        let mut violations = Vec::new();
        let mut by_layer: HashMap<Layer, Vec<&Shape>> = HashMap::new();
        for s in &self.shapes {
            if s.layer.is_conductor() {
                by_layer.entry(s.layer).or_default().push(s);
            }
        }
        for shapes in by_layer.values() {
            // Sort by x0 for a simple sweep prune.
            let mut sorted: Vec<&&Shape> = shapes.iter().collect();
            sorted.sort_by_key(|s| s.rect.x0());
            for (i, a) in sorted.iter().enumerate() {
                for b in &sorted[i + 1..] {
                    if b.rect.x0() > a.rect.x1() {
                        break;
                    }
                    if !a.rect.touches(&b.rect) {
                        continue;
                    }
                    let compatible = match (a.role, b.role) {
                        (ElecRole::Net(x), ElecRole::Net(y)) => x == y,
                        (ElecRole::Vdd, ElecRole::Vdd) | (ElecRole::Gnd, ElecRole::Gnd) => true,
                        // Diffusion strips legitimately touch straps/taps of
                        // their own stage (the contact structure) — and only
                        // live on diffusion layers where nothing else routes.
                        (ElecRole::StageDiff { .. }, _) | (_, ElecRole::StageDiff { .. }) => true,
                        _ => false,
                    };
                    if !compatible {
                        violations.push((***a, ***b));
                    }
                }
            }
        }
        violations
    }

    /// Total conductor area per layer (λ², union semantics), a quick
    /// statistic used by yield estimates and reports.
    pub fn conductor_area(&self, layer: Layer) -> i64 {
        let rects: Vec<Rect> = self
            .shapes
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.rect)
            .collect();
        dlp_geometry::sweep::union_area(&rects)
    }
}

struct Builder {
    netlist: Netlist,
    tech: Technology,
    placement: Placement,
    shapes: Vec<Shape>,
    transistors: Vec<PlacedTransistor>,
    nets: Vec<NetInfo>,
    net_index: HashMap<ElecNet, usize>,
    /// Per net: terminal grid points (parallel to NetInfo::terminals).
    terminals: Vec<Vec<(GridPoint, RouteLayer)>>,
    margin: Coord,
    chip_w: Coord,
    chip_h: Coord,
    route: RouteStats,
}

impl Builder {
    fn new(netlist: Netlist, tech: Technology) -> Result<Builder, LayoutError> {
        let placement = Placement::place(&netlist, &tech)?;
        let margin = 4 * tech.grid_pitch; // multiple of column pitch too (24)
        let chip_w = placement.row_width() + 2 * margin;
        let rows = placement.rows();
        let chip_h = (rows as Coord + 1) * tech.channel_height() + rows as Coord * tech.cell_height;
        Ok(Builder {
            netlist,
            tech,
            placement,
            shapes: Vec::new(),
            transistors: Vec::new(),
            nets: Vec::new(),
            net_index: HashMap::new(),
            terminals: Vec::new(),
            margin,
            chip_w,
            chip_h,
            route: RouteStats::default(),
        })
    }

    fn row_base(&self, row: usize) -> Coord {
        (row as Coord + 1) * self.tech.channel_height() + row as Coord * self.tech.cell_height
    }

    fn net_id(&mut self, net: ElecNet) -> usize {
        if let Some(&i) = self.net_index.get(&net) {
            return i;
        }
        let i = self.nets.len();
        self.net_index.insert(net, i);
        self.nets.push(NetInfo {
            net,
            terminals: Vec::new(),
        });
        self.terminals.push(Vec::new());
        i
    }

    /// Resolves a cell-local signal to the chip-level net.
    fn resolve(&self, gate: NodeId, signal: CellSignal) -> ElecNet {
        match signal {
            CellSignal::Input(i) => ElecNet::Signal(self.netlist.fanin(gate)[i]),
            CellSignal::Stage(s) => ElecNet::of_stage(&self.netlist, gate, s),
        }
    }

    fn run(self) -> Result<ChipLayout, LayoutError> {
        self.layout().map(|(chip, _)| chip)
    }

    /// Places and routes; also returns each net's final routes, in net
    /// order, for tests that recount them.
    fn layout(mut self) -> Result<(ChipLayout, Vec<Vec<RoutedPath>>), LayoutError> {
        let pitch = self.tech.grid_pitch;
        let cols = (self.chip_w / pitch) as usize + 1;
        let grows = (self.chip_h / pitch) as usize + 1;
        let mut grid = RoutingGrid::new(cols, grows, pitch);

        // Carve m1 channels (interior rows only, so wires clear the rails)
        // and block m2 over cell rows on pin columns (escape stubs live
        // there). Pin columns are odd grid columns; even columns stay open
        // as over-the-cell feedthroughs.
        let rows = self.placement.rows();
        for gy in 0..grows {
            let y = gy as Coord * pitch;
            let in_channel = (0..=rows).any(|c| {
                let base = c as Coord * self.tech.row_pitch();
                y >= base + pitch && y <= base + self.tech.channel_height() - pitch
            });
            for gx in 0..cols {
                let p = GridPoint { gx, gy };
                if gx == 0 || gx + 1 == cols || gy == 0 || gy + 1 == grows {
                    // Keep wires (half a width wide past the node) inside
                    // the die: the outermost ring is unusable.
                    grid.set_m2_ok(p, false);
                    continue;
                }
                if in_channel {
                    grid.set_m1_ok(p, true);
                }
                // m2 over cell rows stays open by default; the exact
                // columns carrying escape stubs are blocked per pin in
                // collect_terminals.
            }
        }

        self.instantiate_cells();
        // Primary-input pads go first so they occupy terminal slot 0
        // (the driver) of their nets; output pads are appended after the
        // cell pins so the driving strap keeps slot 0.
        let pis: Vec<(ElecNet, TerminalKind)> = self
            .netlist
            .inputs()
            .to_vec()
            .into_iter()
            .map(|i| (ElecNet::Signal(i), TerminalKind::Driver))
            .collect();
        self.place_pads(&mut grid, cols, pis, 1);
        self.collect_terminals(&mut grid)?;
        // Discourage trunks from squatting next to pin landings.
        for ts in self.terminals.clone() {
            for (p, _) in ts {
                grid.add_history(p, 1, 2);
            }
        }
        let top_gy = ((self.placement.rows() as Coord * self.tech.row_pitch()
            + self.tech.grid_pitch)
            / self.tech.grid_pitch) as usize;
        let pos: Vec<(ElecNet, TerminalKind)> = self
            .netlist
            .outputs()
            .to_vec()
            .into_iter()
            .map(|o| (ElecNet::Signal(o), TerminalKind::OutputPad))
            .collect();
        self.place_pads(&mut grid, cols, pos, top_gy);
        let routes = self.route(&mut grid)?;
        let searched = grid.stats();
        self.route.waves = searched.waves;
        self.route.expanded = searched.expanded;

        let bbox = Rect::new(0, 0, self.chip_w, self.chip_h);
        let chip = ChipLayout {
            netlist: self.netlist,
            tech: self.tech,
            shapes: self.shapes,
            nets: self.nets,
            transistors: self.transistors,
            bbox,
            rows,
            route: self.route,
        };
        Ok((chip, routes))
    }

    /// Translates cell geometry into chip space with resolved roles.
    fn instantiate_cells(&mut self) {
        let placed: Vec<_> = self.placement.gates().to_vec();
        for pg in placed {
            let x0 = self.margin + pg.x;
            let y0 = self.row_base(pg.row);
            let cell = &self.placement.library()[pg.cell];
            let mut new_shapes = Vec::with_capacity(cell.shapes().len());
            for ls in cell.shapes() {
                let role = match ls.role {
                    LocalRole::Signal(sig) => ElecRole::Net(self.resolve(pg.node, sig)),
                    LocalRole::StageDiff { stage, kind } => ElecRole::StageDiff {
                        gate: pg.node,
                        stage,
                        kind,
                    },
                    LocalRole::Rail(true) => ElecRole::Vdd,
                    LocalRole::Rail(false) => ElecRole::Gnd,
                };
                new_shapes.push(Shape {
                    layer: ls.layer,
                    rect: ls.rect.translated(x0, y0),
                    role,
                    origin: ShapeOrigin::Cell { gate: pg.node },
                });
            }
            let cell = &self.placement.library()[pg.cell];
            let mut new_transistors = Vec::with_capacity(cell.transistor_sites().len());
            for site in cell.transistor_sites() {
                new_transistors.push(PlacedTransistor {
                    owner: pg.node,
                    ordinal: site.ordinal,
                    kind: site.kind,
                    stage: site.stage,
                    channel: site.channel.translated(x0, y0),
                });
            }
            self.shapes.extend(new_shapes);
            self.transistors.extend(new_transistors);
        }
    }

    /// Creates I/O pads in a channel: an m1 square with a via to an m2
    /// patch, claimed on both layers at the pad node.
    fn place_pads(
        &mut self,
        grid: &mut RoutingGrid,
        cols: usize,
        nets: Vec<(ElecNet, TerminalKind)>,
        gy_base: usize,
    ) {
        let mut slot = 0usize;
        let count = nets.len().max(1);
        // Spread pads across the full chip width (even columns), wrapping
        // to a second pad row only when the design is pin-dominated.
        let step = (((cols - 4) / count).max(2) / 2 * 2).max(2);
        let per_row = (cols - 4) / step;
        #[allow(clippy::explicit_counter_loop)] // slot drives both column and row wrap
        for (net, kind) in nets {
            let gx = 2 + step * (slot % per_row);
            let gy = gy_base + 2 * (slot / per_row);
            slot += 1;
            let p = GridPoint { gx, gy };
            let ni = self.net_id(net);
            grid.claim_permanent(p, RouteLayer::M2, ni as u32);
            grid.claim_permanent(p, RouteLayer::M1, ni as u32);
            let (x, y) = grid.position(p);
            let terminal = self.nets[ni].terminals.len();
            self.nets[ni].terminals.push(kind);
            self.terminals[ni].push((p, RouteLayer::M2));
            let half = self.tech.cut_size;
            for (layer, d) in [
                (Layer::Metal1, half + 1),
                (Layer::Via, half / 2),
                (Layer::Metal2, half),
            ] {
                self.shapes.push(Shape {
                    layer,
                    rect: Rect::new(x - d, y - d, x + d, y + d),
                    role: ElecRole::Net(net),
                    origin: ShapeOrigin::Route {
                        net_index: ni,
                        terminal,
                    },
                });
            }
        }
    }

    /// Registers every cell pin as a net terminal, drawing its escape stub
    /// down to the channel below and claiming the landing node.
    fn collect_terminals(&mut self, grid: &mut RoutingGrid) -> Result<(), LayoutError> {
        let pitch = self.tech.grid_pitch;
        let placed: Vec<_> = self.placement.gates().to_vec();
        // Gather (net, is_driver, gate, pin position) for ordering: the
        // driver terminal must be terminal 0.
        let mut pins: Vec<(ElecNet, bool, NodeId, Coord, Coord)> = Vec::new();
        for pg in &placed {
            let x0 = self.margin + pg.x;
            let y0 = self.row_base(pg.row);
            let cell = &self.placement.library()[pg.cell];
            for pin in cell.pins() {
                let net = self.resolve(pg.node, pin.signal);
                pins.push((net, pin.is_driver, pg.node, x0 + pin.x, y0 + pin.y));
            }
        }
        // Drivers first.
        pins.sort_by_key(|&(_, is_driver, ..)| !is_driver);

        for (net, is_driver, gate, px, py) in pins {
            let ni = self.net_id(net);
            let kind = if is_driver {
                TerminalKind::Driver
            } else {
                TerminalKind::SinkGate(gate)
            };
            let terminal = self.nets[ni].terminals.len();
            if is_driver && terminal != 0 {
                // Two drivers can only mean a PI net also has a strap —
                // impossible by construction; keep the invariant loud.
                debug_assert!(
                    false,
                    "driver terminal of {net:?} displaced to slot {terminal}"
                );
            }
            self.nets[ni].terminals.push(kind);

            // Escape stub: m2 from the pin pad down to the channel-top
            // grid node one pitch below the pin's row base. The stub's
            // column is blocked for foreign m2 over this cell row.
            let ch_y = self.row_base_below(py);
            let node = GridPoint {
                gx: (px / pitch) as usize,
                gy: (ch_y / pitch) as usize,
            };
            let row_base = ch_y + pitch;
            for gy in
                (row_base / pitch) as usize..=((row_base + self.tech.cell_height) / pitch) as usize
            {
                grid.set_m2_ok(GridPoint { gx: node.gx, gy }, false);
            }
            let half_m2 = self.tech.m2_width / 2;
            self.shapes.push(Shape {
                layer: Layer::Metal2,
                rect: Rect::new(px - half_m2, ch_y - half_m2, px + half_m2, py + 1),
                role: ElecRole::Net(net),
                origin: ShapeOrigin::Route {
                    net_index: ni,
                    terminal,
                },
            });
            let cut = self.tech.cut_size;
            self.shapes.push(Shape {
                layer: Layer::Via,
                rect: Rect::new(px - cut / 2, py - cut / 2, px + cut / 2, py + cut / 2),
                role: ElecRole::Net(net),
                origin: ShapeOrigin::Route {
                    net_index: ni,
                    terminal,
                },
            });
            // Claim both layers at the landing, permanently: the m1 claim
            // guarantees the pin can always drop onto m1 and move
            // sideways, and the permanence keeps rip-up from ever
            // stranding the drawn escape stub.
            grid.claim_permanent(node, RouteLayer::M2, ni as u32);
            grid.claim_permanent(node, RouteLayer::M1, ni as u32);
            self.terminals[ni].push((node, RouteLayer::M2));
        }
        Ok(())
    }

    /// The y of the grid row just below the cell row containing `py`.
    fn row_base_below(&self, py: Coord) -> Coord {
        // Cell rows start at k*row_pitch + channel_height.
        let rp = self.tech.row_pitch();
        let k = (py - self.tech.channel_height()) / rp;
        let base = (k + 1) * self.tech.channel_height() + k * self.tech.cell_height;
        base - self.tech.grid_pitch
    }

    fn route(&mut self, grid: &mut RoutingGrid) -> Result<Vec<Vec<RoutedPath>>, LayoutError> {
        // Rip-up-and-reroute negotiation: route nets shortest-span first;
        // when a terminal is walled in, evict the nets claiming its
        // neighbourhood, route this net, and requeue the victims. A global
        // attempt budget bounds the negotiation.
        let mut order: Vec<usize> = (0..self.nets.len()).collect();
        let span = |ts: &Vec<(GridPoint, RouteLayer)>| -> usize {
            let (mut x0, mut x1, mut y0, mut y1) = (usize::MAX, 0, usize::MAX, 0);
            for (p, _) in ts {
                x0 = x0.min(p.gx);
                x1 = x1.max(p.gx);
                y0 = y0.min(p.gy);
                y1 = y1.max(p.gy);
            }
            (x1 - x0) + (y1 - y0)
        };
        order.sort_by_key(|&i| span(&self.terminals[i]));

        let mut queue: std::collections::VecDeque<usize> = order.into_iter().collect();
        // Each net's current routes and the branches they left open; a
        // rip-up clears both, so the open count is the final routes'.
        let mut routed: Vec<Option<(Vec<RoutedPath>, usize)>> = vec![None; self.nets.len()];
        let mut budget = 20 * self.nets.len() + 300;
        while let Some(ni) = queue.pop_front() {
            if routed[ni].is_some() {
                continue;
            }
            let terminals = self.terminals[ni].clone();
            if terminals.len() < 2 {
                routed[ni] = Some((Vec::new(), 0)); // degenerate net
                continue;
            }
            let over_budget = budget == 0;
            let (paths, victims, skipped) = grid.route_net(ni as u32, &terminals, !over_budget);
            routed[ni] = Some((paths, skipped));
            if over_budget {
                // Negotiation diverged: keep whatever this net got and
                // stop evicting others (their claims stand).
                continue;
            }
            for victim in victims {
                budget = budget.saturating_sub(1);
                self.route.reroutes += 1;
                let v = victim as usize;
                grid.release(victim);
                routed[v] = None;
                queue.push_back(v);
            }
        }
        self.route.unrouted = routed.iter().flatten().map(|(_, open)| open).sum();
        let routes: Vec<Vec<RoutedPath>> = routed
            .into_iter()
            .map(|r| r.map(|(paths, _)| paths).unwrap_or_default())
            .collect();
        let (half_m1, half_m2) = (self.tech.m1_width / 2, self.tech.m2_width / 2);
        for (ni, paths) in routes.iter().enumerate() {
            let net = self.nets[ni].net;
            for path in paths {
                self.emit_path(ni, net, &path.nodes, path.terminal, grid, half_m1, half_m2);
            }
        }
        Ok(routes)
    }

    /// Converts a grid path into wire and via shapes.
    #[allow(clippy::too_many_arguments)]
    fn emit_path(
        &mut self,
        ni: usize,
        net: ElecNet,
        nodes: &[PathNode],
        terminal: usize,
        grid: &RoutingGrid,
        half_m1: Coord,
        half_m2: Coord,
    ) {
        if nodes.len() < 2 {
            return;
        }
        let origin = ShapeOrigin::Route {
            net_index: ni,
            terminal,
        };
        let role = ElecRole::Net(net);
        let cut = self.tech.cut_size;
        let dir = |a: &PathNode, b: &PathNode| -> (i32, i32) {
            (
                (b.at.gx as i32 - a.at.gx as i32).signum(),
                (b.at.gy as i32 - a.at.gy as i32).signum(),
            )
        };
        let emit_run = |this: &mut Vec<Shape>, a: &PathNode, b: &PathNode| {
            let (ax, ay) = grid.position(a.at);
            let (bx, by) = grid.position(b.at);
            let (layer, half) = match a.layer {
                RouteLayer::M1 => (Layer::Metal1, half_m1),
                RouteLayer::M2 => (Layer::Metal2, half_m2),
            };
            this.push(Shape {
                layer,
                rect: Rect::new(
                    ax.min(bx) - half,
                    ay.min(by) - half,
                    ax.max(bx) + half,
                    ay.max(by) + half,
                ),
                role,
                origin,
            });
        };
        // Split the path into maximal straight, single-layer runs; a run
        // merged across a corner would emit a bounding box that bulldozes
        // foreign territory.
        let mut run_start = 0usize;
        for i in 1..=nodes.len() {
            let boundary = i == nodes.len()
                || nodes[i].layer != nodes[i - 1].layer
                || (i - 1 > run_start
                    && nodes[i - 1].layer == nodes[run_start].layer
                    && dir(&nodes[i - 1], &nodes[i])
                        != dir(&nodes[run_start], &nodes[run_start + 1]));
            if !boundary {
                continue;
            }
            emit_run(&mut self.shapes, &nodes[run_start], &nodes[i - 1]);
            if i < nodes.len() {
                if nodes[i].layer != nodes[i - 1].layer {
                    // Layer switch at the shared grid point: drop a via.
                    let (vx, vy) = grid.position(nodes[i].at);
                    self.shapes.push(Shape {
                        layer: Layer::Via,
                        rect: Rect::new(vx - cut / 2, vy - cut / 2, vx + cut / 2, vy + cut / 2),
                        role,
                        origin,
                    });
                    run_start = i;
                } else {
                    // Corner: the next run starts at the corner node.
                    run_start = i - 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlp_circuit::generators;

    fn chip(netlist: &Netlist) -> ChipLayout {
        ChipLayout::generate(netlist, &Technology::default()).expect("generates")
    }

    #[test]
    fn c17_generates_and_verifies() {
        let c = chip(&generators::c17());
        assert!(c.bbox().area() > 0);
        assert_eq!(c.transistors().len(), 24);
        let violations = c.verify_connectivity();
        assert!(
            violations.is_empty(),
            "{} connectivity violations, first: {:?}",
            violations.len(),
            violations.first()
        );
    }

    #[test]
    fn every_net_has_a_driver_terminal_first() {
        let c = chip(&generators::c17());
        for net in c.nets() {
            assert!(!net.terminals.is_empty(), "{:?} has no terminals", net.net);
            if net.terminals.len() >= 2 {
                assert_eq!(net.terminals[0], TerminalKind::Driver, "{:?}", net.net);
            }
        }
    }

    #[test]
    fn adder_with_xors_routes_and_verifies() {
        let c = chip(&generators::ripple_adder(4));
        let violations = c.verify_connectivity();
        assert!(
            violations.is_empty(),
            "first violation: {:?}",
            violations.first()
        );
        // XOR cells expose internal stage nets.
        assert!(c
            .nets()
            .iter()
            .any(|n| matches!(n.net, ElecNet::Stage(_, _))));
    }

    #[test]
    fn transistor_ordinals_cover_switch_netlist() {
        let nl = generators::c17();
        let c = chip(&nl);
        let sw = dlp_circuit::switch::expand(&nl).unwrap();
        // Per owner, the drawn ordinals are exactly 0..count and kinds
        // match the expansion order.
        let mut by_owner: HashMap<NodeId, Vec<&PlacedTransistor>> = HashMap::new();
        for t in c.transistors() {
            by_owner.entry(t.owner).or_default().push(t);
        }
        for (owner, mut drawn) in by_owner {
            drawn.sort_by_key(|t| t.ordinal);
            let expanded: Vec<_> = sw
                .transistors()
                .iter()
                .filter(|t| t.owner == owner)
                .collect();
            assert_eq!(drawn.len(), expanded.len());
            for (d, e) in drawn.iter().zip(&expanded) {
                assert_eq!(d.kind, e.kind, "owner {owner:?} ordinal {}", d.ordinal);
            }
        }
    }

    #[test]
    fn unrouted_counts_the_open_branches_of_the_final_routes() {
        // Two-row channels congest c17 enough that the negotiation rips
        // nets up, and some of the ripped routes had left branches open.
        let tech = Technology {
            channel_rows: 2,
            ..Technology::default()
        };
        let (chip, routes) = Builder::new(generators::c17(), tech)
            .and_then(Builder::layout)
            .expect("generates");
        assert!(
            chip.route_stats().reroutes > 0,
            "the fixture must rip nets up"
        );
        let open: usize = chip
            .nets()
            .iter()
            .zip(&routes)
            .filter(|(net, _)| net.terminals.len() >= 2)
            .map(|(net, paths)| {
                (1..net.terminals.len())
                    .filter(|t| !paths.iter().any(|p| p.terminal == *t))
                    .count()
            })
            .sum();
        assert!(open > 0, "the fixture must leave branches open");
        assert_eq!(chip.unrouted(), open);
    }
}
