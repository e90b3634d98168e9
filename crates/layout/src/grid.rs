//! A two-layer gridded router: A* over (node, layer) states, drained
//! through a monotone bucket queue.
//!
//! The routing fabric is a uniform grid (pitch [`Technology::grid_pitch`]):
//! metal-1 runs horizontally (channel-bound), metal-2 vertically
//! (everywhere, with over-cell columns restricted to the feedthrough
//! class), and vias switch layers at a node. Every grid node stores at most
//! one owner per layer, so routed geometry is *short-free by construction*
//! — grid exclusivity subsumes the spacing rules (the pitch exceeds
//! width + space for both metals).
//!
//! Nets are routed terminal by terminal: an A* search from the new
//! terminal to any state the net's route tree already holds, guided by
//! the Manhattan distance to the tree's bounding box and priced by steps,
//! vias, steals and PathFinder history. Each claimed node remembers which
//! terminal pulled it in, which is what gives the fault extractor its
//! per-branch open semantics.
//!
//! Everything is indexed by the search state `node * 2 + layer`, so a
//! neighbour is `s ± 2`, `s ± 2·cols` or `s ^ 1`. Search scratch lives in
//! the grid and is invalidated by epoch stamps rather than refilled. The
//! heuristic is consistent (a step costs ≥ 1 and moves it by ≤ 1; a via
//! costs ≥ 3 and leaves it unchanged), so f never decreases and a bucket
//! queue keyed on f, with a min-heap of state ids inside the bucket being
//! drained, pops exactly the `(f, state)` sequence a binary heap would
//! (DESIGN.md §19).
//!
//! [`Technology::grid_pitch`]: crate::tech::Technology::grid_pitch

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dlp_geometry::Coord;

/// A grid node coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct GridPoint {
    /// Column index (x = `gx * pitch`).
    pub(crate) gx: usize,
    /// Row index (y = `gy * pitch`).
    pub(crate) gy: usize,
}

/// Routing layer selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum RouteLayer {
    /// Metal-1, horizontal.
    M1,
    /// Metal-2, vertical.
    M2,
}

/// One step of a routed path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PathNode {
    /// Where.
    pub(crate) at: GridPoint,
    /// On which layer.
    pub(crate) layer: RouteLayer,
}

/// A path claimed for one terminal of a net.
#[derive(Debug, Clone)]
pub(crate) struct RoutedPath {
    /// The terminal index (within the net's terminal list) this path was
    /// routed for.
    pub(crate) terminal: usize,
    /// Nodes from the terminal to the join point with the existing net.
    pub(crate) nodes: Vec<PathNode>,
}

const FREE: u32 = u32::MAX;
/// Penalty for stealing a foreign non-permanent claim.
const STEAL_COST: u32 = 3000;
/// Extra cost of a via on top of the unit step.
const VIA_COST: u32 = 2;

/// [`Cell::flags`] bit: the state is usable.
const OK: u8 = 1;
/// [`Cell::flags`] bit: a permanent claim (terminal landing, pad), which
/// survives [`RoutingGrid::release`] and cannot be stolen.
const PERM: u8 = 2;
/// [`Cell::flags`] bits holding the search's step into the state: the
/// predecessor is the state plus the step's offset.
const STEP_SHIFT: u32 = 2;
const STEP_MASK: u8 = 0b111 << STEP_SHIFT;

/// Search steps: how the cheapest arrival at a state moved.
const FROM_START: u8 = 0;
const FROM_WEST: u8 = 1;
const FROM_EAST: u8 = 2;
const FROM_SOUTH: u8 = 3;
const FROM_NORTH: u8 = 4;
const FROM_VIA: u8 = 5;

/// One (node, layer) state of the fabric and its search scratch, in one
/// 16-byte record so a relaxation touches one cache line. `best` and the
/// step hold only while `wave` equals the current wave epoch; the state
/// is in the net's route tree while `tree` equals the current tree epoch.
#[derive(Debug, Clone, Copy)]
struct Cell {
    owner: u32,
    best: u32,
    wave: u32,
    /// PathFinder-style history cost: congested spots accumulate
    /// penalties so rerouted nets learn to detour.
    history: u16,
    /// [`OK`], [`PERM`] and the step (`STEP_MASK`).
    flags: u8,
    tree: u8,
}

impl Cell {
    fn ok(&self) -> bool {
        self.flags & OK != 0
    }

    fn perm(&self) -> bool {
        self.flags & PERM != 0
    }

    fn set(&mut self, bit: u8, on: bool) {
        self.flags = if on {
            self.flags | bit
        } else {
            self.flags & !bit
        };
    }

    fn step(&self) -> u8 {
        (self.flags & STEP_MASK) >> STEP_SHIFT
    }
}

/// Router work counters, accumulated over the grid's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct WaveStats {
    /// Searches started.
    pub(crate) waves: u64,
    /// States popped and relaxed (stale pops and the goal excluded).
    pub(crate) expanded: u64,
}

/// The routing grid: per-state availability, ownership and history, plus
/// the reusable search scratch.
#[derive(Debug, Clone)]
pub(crate) struct RoutingGrid {
    cols: usize,
    rows: usize,
    pitch: Coord,
    cells: Vec<Cell>,
    queue: BucketQueue,
    wave_epoch: u32,
    tree_epoch: u8,
    stats: WaveStats,
}

fn state(cols: usize, p: GridPoint, l: RouteLayer) -> usize {
    (p.gy * cols + p.gx) * 2 + l as usize
}

impl RoutingGrid {
    /// Creates a grid of `cols × rows` nodes; all nodes start unusable on
    /// m1 and usable on m2 (callers carve channels and blockages).
    pub(crate) fn new(cols: usize, rows: usize, pitch: Coord) -> Self {
        debug_assert!(cols * rows * 2 < u32::MAX as usize, "state ids are u32");
        let cells = (0..cols * rows * 2)
            .map(|s| Cell {
                owner: FREE,
                best: 0,
                wave: 0,
                history: 0,
                flags: if s.is_multiple_of(2) { 0 } else { OK },
                tree: 0,
            })
            .collect();
        RoutingGrid {
            cols,
            rows,
            pitch,
            cells,
            queue: BucketQueue::new(cols * rows * 2),
            wave_epoch: 0,
            tree_epoch: 0,
            stats: WaveStats::default(),
        }
    }

    /// The λ coordinates of a node.
    pub(crate) fn position(&self, p: GridPoint) -> (Coord, Coord) {
        (p.gx as Coord * self.pitch, p.gy as Coord * self.pitch)
    }

    /// Work done by every search so far.
    pub(crate) fn stats(&self) -> WaveStats {
        self.stats
    }

    fn cell(&mut self, p: GridPoint, layer: RouteLayer) -> &mut Cell {
        debug_assert!(p.gx < self.cols && p.gy < self.rows);
        &mut self.cells[state(self.cols, p, layer)]
    }

    /// Marks a node usable (or not) for m1.
    pub(crate) fn set_m1_ok(&mut self, p: GridPoint, ok: bool) {
        self.cell(p, RouteLayer::M1).set(OK, ok);
    }

    /// Marks a node usable (or not) for m2.
    pub(crate) fn set_m2_ok(&mut self, p: GridPoint, ok: bool) {
        self.cell(p, RouteLayer::M2).set(OK, ok);
    }

    /// Claims a node's layer for a net without routing (used for pin
    /// escapes and pads).
    ///
    /// # Panics
    ///
    /// Panics if the node is unusable on that layer or already owned by a
    /// different net.
    pub(crate) fn claim(&mut self, p: GridPoint, layer: RouteLayer, net: u32) {
        let c = self.cell(p, layer);
        assert!(c.ok(), "claiming an unusable node {p:?} {layer:?}");
        assert!(
            c.owner == FREE || c.owner == net,
            "node {p:?} {layer:?} already owned by net {}",
            c.owner
        );
        c.owner = net;
    }

    /// Like [`claim`](Self::claim), but the claim survives
    /// [`release`](Self::release) — used for terminal landings and pads
    /// whose geometry is drawn eagerly.
    ///
    /// # Panics
    ///
    /// As [`claim`](Self::claim).
    pub(crate) fn claim_permanent(&mut self, p: GridPoint, layer: RouteLayer, net: u32) {
        self.claim(p, layer, net);
        self.cell(p, layer).set(PERM, true);
    }

    /// Frees every non-permanent node owned by `net` (rip-up for
    /// rerouting). Permanent claims (terminals, pads) stay.
    pub(crate) fn release(&mut self, net: u32) {
        for c in &mut self.cells {
            if c.owner == net && !c.perm() {
                c.owner = FREE;
            }
        }
    }

    /// Adds `amount` of history cost to both layers of every node within
    /// Manhattan radius `r` of `p`. Called around walled-in terminals so
    /// the negotiation converges instead of replaying the same paths.
    pub(crate) fn add_history(&mut self, p: GridPoint, r: usize, amount: u16) {
        let (gx, gy) = (p.gx as isize, p.gy as isize);
        for dy in -(r as isize)..=r as isize {
            for dx in -(r as isize)..=r as isize {
                if dx.abs() + dy.abs() > r as isize {
                    continue;
                }
                let (nx, ny) = (gx + dx, gy + dy);
                if nx < 0 || ny < 0 || nx as usize >= self.cols || ny as usize >= self.rows {
                    continue;
                }
                let i = (ny as usize * self.cols + nx as usize) * 2;
                for c in &mut self.cells[i..i + 2] {
                    c.history = c.history.saturating_add(amount);
                }
            }
        }
    }

    /// The owner of a node's layer, if any.
    #[cfg(test)]
    pub(crate) fn owner(&self, p: GridPoint, layer: RouteLayer) -> Option<u32> {
        let o = self.cells[state(self.cols, p, layer)].owner;
        (o != FREE).then_some(o)
    }

    /// Takes ownership of a state regardless of a previous non-permanent
    /// owner, returning the evicted net if any.
    fn steal(&mut self, s: usize, net: u32) -> Option<u32> {
        let c = &mut self.cells[s];
        let prev = c.owner;
        assert!(
            prev == FREE || prev == net || !c.perm(),
            "cannot steal a permanent claim at state {s}"
        );
        c.owner = net;
        (prev != FREE && prev != net).then_some(prev)
    }

    fn decode(&self, s: usize) -> PathNode {
        let node = s / 2;
        PathNode {
            at: GridPoint {
                gx: node % self.cols,
                gy: node / self.cols,
            },
            layer: if s.is_multiple_of(2) {
                RouteLayer::M1
            } else {
                RouteLayer::M2
            },
        }
    }

    /// Starts a new, empty route tree; [`Self::connect`] adds to it. The
    /// one-byte tree stamps are cleared each time the epoch wraps.
    fn begin_tree(&mut self) {
        self.tree_epoch = self.tree_epoch.wrapping_add(1);
        if self.tree_epoch == 0 {
            self.cells.iter_mut().for_each(|c| c.tree = 0);
            self.tree_epoch = 1;
        }
    }

    fn connect(&mut self, s: usize) {
        self.cells[s].tree = self.tree_epoch;
    }

    fn connected(&self, s: usize) -> bool {
        self.cells[s].tree == self.tree_epoch
    }

    /// Routes `net` by connecting each terminal (after the first) to the
    /// already-claimed portion of the net with an A* search. Terminals
    /// must have been [`claim`](Self::claim)ed beforehand.
    ///
    /// Returns the claimed paths (one per connected terminal, including a
    /// trivial path for terminal 0), the nets whose claims were stolen,
    /// and the number of terminals left unreachable.
    pub(crate) fn route_net(
        &mut self,
        net: u32,
        terminals: &[(GridPoint, RouteLayer)],
        allow_steal: bool,
    ) -> (Vec<RoutedPath>, Vec<u32>, usize) {
        if terminals.is_empty() {
            return (Vec::new(), Vec::new(), 0);
        }
        let mut victims: Vec<u32> = Vec::new();
        let mut skipped = 0usize;
        let cols = self.cols;
        // States already wired into the growing route tree. Terminals are
        // *claimed* up front but only become connected when a path lands —
        // joining a not-yet-routed terminal's claim would leave islands.
        self.begin_tree();
        self.connect(state(cols, terminals[0].0, terminals[0].1));
        // Bounding box of the connected set, for the A* heuristic.
        let mut bbox = (
            terminals[0].0.gx,
            terminals[0].0.gx,
            terminals[0].0.gy,
            terminals[0].0.gy,
        );
        let mut paths = vec![RoutedPath {
            terminal: 0,
            nodes: vec![PathNode {
                at: terminals[0].0,
                layer: terminals[0].1,
            }],
        }];
        for (t, &(start, start_layer)) in terminals.iter().enumerate().skip(1) {
            if self.connected(state(cols, start, start_layer)) {
                // A previous path already ran through this terminal.
                paths.push(RoutedPath {
                    terminal: t,
                    nodes: vec![PathNode {
                        at: start,
                        layer: start_layer,
                    }],
                });
                continue;
            }
            let path = match self.wave(net, start, start_layer, bbox, allow_steal) {
                Some(p) => p,
                None => {
                    // Hard-walled terminal: leave the branch open and
                    // count it (graceful degradation under congestion).
                    skipped += 1;
                    continue;
                }
            };
            for n in &path {
                let s = state(cols, n.at, n.layer);
                if let Some(victim) = self.steal(s, net) {
                    if !victims.contains(&victim) {
                        victims.push(victim);
                    }
                    // Congestion memory: stolen spots get pricier.
                    let h = &mut self.cells[s].history;
                    *h = h.saturating_add(24);
                }
                self.connect(s);
                bbox.0 = bbox.0.min(n.at.gx);
                bbox.1 = bbox.1.max(n.at.gx);
                bbox.2 = bbox.2.min(n.at.gy);
                bbox.3 = bbox.3.max(n.at.gy);
            }
            paths.push(RoutedPath {
                terminal: t,
                nodes: path,
            });
        }
        (paths, victims, skipped)
    }

    /// Cheapest-path search from `start` to any state of the current route
    /// tree. Cost = steps + accumulated history penalties + via and steal
    /// surcharges, so congested regions are avoided; ties in f go to the
    /// smaller state id and a state's predecessor only changes on a
    /// strictly cheaper arrival.
    fn wave(
        &mut self,
        net: u32,
        start: GridPoint,
        start_layer: RouteLayer,
        bbox: (usize, usize, usize, usize),
        allow_steal: bool,
    ) -> Option<Vec<PathNode>> {
        self.stats.waves += 1;
        self.wave_epoch = self.wave_epoch.wrapping_add(1);
        if self.wave_epoch == 0 {
            self.cells.iter_mut().for_each(|c| c.wave = 0);
            self.wave_epoch = 1;
        }
        let epoch = self.wave_epoch;
        let tree = self.tree_epoch;
        // A* heuristic: Manhattan distance to the route tree's bounding
        // box, split per axis so a neighbour's value is one lookup away.
        let (bx0, bx1, by0, by1) = (bbox.0 as u32, bbox.1 as u32, bbox.2 as u32, bbox.3 as u32);
        let hx = |x: u32| bx0.saturating_sub(x) + x.saturating_sub(bx1);
        let hy = |y: u32| by0.saturating_sub(y) + y.saturating_sub(by1);
        let (cols, rows) = (self.cols as u32, self.rows as u32);
        let row = 2 * self.cols;
        let s0 = state(self.cols, start, start_layer);

        let RoutingGrid {
            cells,
            queue,
            stats,
            ..
        } = self;
        let f0 = hx(start.gx as u32) + hy(start.gy as u32);
        let c0 = &mut cells[s0];
        c0.wave = epoch;
        c0.best = 0;
        c0.flags = (c0.flags & !STEP_MASK) | (FROM_START << STEP_SHIFT);
        queue.reset(f0);
        queue.push(f0, s0 as u32);

        let mut goal = None;
        while let Some((f, s)) = queue.pop() {
            let s = s as usize;
            let node = (s / 2) as u32;
            let (gy, gx) = (node / cols, node % cols);
            let (hx0, hy0) = (hx(gx), hy(gy));
            let cost = f - hx0 - hy0;
            let c = cells[s];
            if cost > c.best {
                continue;
            }
            if c.tree == tree {
                goal = Some(s);
                break;
            }
            stats.expanded += 1;
            // `from` is the step into the neighbour, seen from it.
            let mut relax = |st: usize, h: u32, extra: u32, from: u8| {
                let c = &mut cells[st];
                if !c.ok() {
                    return;
                }
                let steal = if c.owner == FREE || c.owner == net {
                    0
                } else if c.perm() || !allow_steal {
                    return;
                } else {
                    STEAL_COST
                };
                let cost = cost + 1 + extra + steal + c.history as u32;
                if c.wave != epoch || cost < c.best {
                    c.wave = epoch;
                    c.best = cost;
                    c.flags = (c.flags & !STEP_MASK) | (from << STEP_SHIFT);
                    queue.push(cost + h, st as u32);
                }
            };
            if gx > 0 {
                relax(s - 2, hx(gx - 1) + hy0, 0, FROM_EAST);
            }
            if gx + 1 < cols {
                relax(s + 2, hx(gx + 1) + hy0, 0, FROM_WEST);
            }
            if gy > 0 {
                relax(s - row, hx0 + hy(gy - 1), 0, FROM_NORTH);
            }
            if gy + 1 < rows {
                relax(s + row, hx0 + hy(gy + 1), 0, FROM_SOUTH);
            }
            relax(s ^ 1, hx0 + hy0, VIA_COST, FROM_VIA);
        }

        let mut cur = goal?;
        let mut path = Vec::new();
        loop {
            path.push(self.decode(cur));
            cur = match self.cells[cur].step() {
                FROM_WEST => cur - 2,
                FROM_EAST => cur + 2,
                FROM_SOUTH => cur - row,
                FROM_NORTH => cur + row,
                FROM_VIA => cur ^ 1,
                _ => return Some(path), // FROM_START
            };
        }
    }
}

/// Ring size of the bucket queue: f values within this distance of the
/// bucket being drained go to the ring, larger jumps to the far heap.
const RING: usize = 1024;
const NIL: u32 = u32::MAX;

/// A monotone priority queue of `(f, state)` pairs that pops in
/// lexicographic order, provided no push goes below the last popped f.
///
/// The bucket being drained is an [`IdSet`] popped smallest id first (a
/// push can land in it with an id below one already popped), so no
/// `(f, state)` pair may be pushed twice. Near buckets are chains through
/// one shared arena, far pushes wait in a small heap.
#[derive(Debug, Clone)]
struct BucketQueue {
    /// The f of the bucket being drained.
    f: u32,
    current: IdSet,
    /// Chain heads of the ring buckets, indexed by `f % RING`.
    heads: Vec<u32>,
    /// Chain links: `(state, next)`.
    links: Vec<(u32, u32)>,
    /// Head of the free-link chain.
    free: u32,
    /// Entries in the ring.
    near: usize,
    far: BinaryHeap<Reverse<(u32, u32)>>,
}

impl BucketQueue {
    fn new(states: usize) -> Self {
        BucketQueue {
            f: 0,
            current: IdSet::new(states),
            heads: vec![NIL; RING],
            links: Vec::new(),
            free: NIL,
            near: 0,
            far: BinaryHeap::new(),
        }
    }

    /// Empties the queue and sets the floor f.
    fn reset(&mut self, f: u32) {
        self.f = f;
        self.current.clear();
        if self.near > 0 {
            self.heads.fill(NIL);
            self.near = 0;
        }
        self.links.clear();
        self.free = NIL;
        self.far.clear();
    }

    fn push(&mut self, f: u32, s: u32) {
        debug_assert!(f >= self.f, "bucket queue is monotone");
        let d = f - self.f;
        if d == 0 {
            self.current.insert(s);
        } else if (d as usize) < RING {
            let b = f as usize % RING;
            let link = (s, self.heads[b]);
            self.heads[b] = if self.free == NIL {
                self.links.push(link);
                (self.links.len() - 1) as u32
            } else {
                let i = self.free;
                self.free = self.links[i as usize].1;
                self.links[i as usize] = link;
                i
            };
            self.near += 1;
        } else {
            self.far.push(Reverse((f, s)));
        }
    }

    fn pop(&mut self) -> Option<(u32, u32)> {
        loop {
            if let Some(s) = self.current.pop_min() {
                return Some((self.f, s));
            }
            // Live ring entries sit in (f, f + RING), one f per bucket, so
            // the first non-empty bucket is the ring's minimum; a far entry
            // pushed under an older, lower f may still undercut it.
            let far = self.far.peek().map(|Reverse((f, _))| *f);
            let next = if self.near > 0 {
                let mut f = self.f + 1;
                while self.heads[f as usize % RING] == NIL {
                    f += 1;
                }
                far.map_or(f, |g| g.min(f))
            } else {
                far?
            };
            self.f = next;
            let b = next as usize % RING;
            let mut i = std::mem::replace(&mut self.heads[b], NIL);
            while i != NIL {
                let (s, nx) = self.links[i as usize];
                self.current.insert(s);
                self.links[i as usize].1 = self.free;
                self.free = i;
                self.near -= 1;
                i = nx;
            }
            while let Some(&Reverse((g, s))) = self.far.peek() {
                if g != next {
                    break;
                }
                self.far.pop();
                self.current.insert(s);
            }
        }
    }
}

/// A set of state ids with O(1) insert and min-extraction: a three-level
/// bitmap, each level one bit per non-zero word of the level below.
#[derive(Debug, Clone)]
struct IdSet {
    words: [Vec<u64>; 3],
    len: usize,
}

impl IdSet {
    fn new(ids: usize) -> Self {
        let l0 = ids.div_ceil(64).max(1);
        let l1 = l0.div_ceil(64);
        IdSet {
            words: [vec![0; l0], vec![0; l1], vec![0; l1.div_ceil(64)]],
            len: 0,
        }
    }

    fn clear(&mut self) {
        if self.len > 0 {
            self.words.iter_mut().for_each(|l| l.fill(0));
            self.len = 0;
        }
    }

    /// Adds an id that is not in the set.
    fn insert(&mut self, id: u32) {
        debug_assert!(self.words[0][id as usize / 64] & (1 << (id % 64)) == 0);
        let mut i = id as usize;
        for level in &mut self.words {
            let w = &mut level[i / 64];
            let was_empty = *w == 0;
            *w |= 1 << (i % 64);
            if !was_empty {
                break;
            }
            i /= 64;
        }
        self.len += 1;
    }

    fn pop_min(&mut self) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        let [l0, l1, l2] = &mut self.words;
        let w2 = l2.iter().position(|&w| w != 0)?;
        let w1 = w2 * 64 + l2[w2].trailing_zeros() as usize;
        let w0 = w1 * 64 + l1[w1].trailing_zeros() as usize;
        let id = w0 * 64 + l0[w0].trailing_zeros() as usize;
        l0[w0] &= l0[w0] - 1;
        if l0[w0] == 0 {
            l1[w1] &= l1[w1] - 1;
            if l1[w1] == 0 {
                l2[w2] &= l2[w2] - 1;
            }
        }
        Some(id as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlp_core::rng::Xorshift64Star;

    fn open_grid(cols: usize, rows: usize) -> RoutingGrid {
        let mut g = RoutingGrid::new(cols, rows, 6);
        for gy in 0..rows {
            for gx in 0..cols {
                g.set_m1_ok(GridPoint { gx, gy }, true);
            }
        }
        g
    }

    fn claim_terminals(g: &mut RoutingGrid, net: u32, ts: &[(GridPoint, RouteLayer)]) {
        for &(p, l) in ts {
            g.claim(p, l, net);
        }
    }

    /// The original search, kept as the oracle for [`RoutingGrid::wave`]:
    /// fresh `best`/`prev` arrays and a binary heap of `(f, state)`.
    fn reference_wave(
        g: &RoutingGrid,
        net: u32,
        start: GridPoint,
        start_layer: RouteLayer,
        connected: &[bool],
        bbox: (usize, usize, usize, usize),
        allow_steal: bool,
    ) -> Option<Vec<PathNode>> {
        let h = |p: GridPoint| -> u32 {
            let dx = if p.gx < bbox.0 {
                bbox.0 - p.gx
            } else {
                p.gx.saturating_sub(bbox.1)
            };
            let dy = if p.gy < bbox.2 {
                bbox.2 - p.gy
            } else {
                p.gy.saturating_sub(bbox.3)
            };
            (dx + dy) as u32
        };
        let traverse_cost = |st: usize| -> Option<u32> {
            let c = g.cells[st];
            if !c.ok() {
                None
            } else if c.owner == FREE || c.owner == net {
                Some(0)
            } else if c.perm() {
                None
            } else {
                Some(STEAL_COST)
            }
        };
        let n_states = g.cols * g.rows * 2;
        let mut best = vec![u32::MAX; n_states];
        let mut prev: Vec<u32> = vec![u32::MAX; n_states];
        let s0 = state(g.cols, start, start_layer);
        let mut heap: BinaryHeap<Reverse<(u32, usize)>> = BinaryHeap::new();
        best[s0] = 0;
        prev[s0] = s0 as u32;
        heap.push(Reverse((h(start), s0)));

        while let Some(Reverse((fcost, s))) = heap.pop() {
            let here = g.decode(s);
            let cost = fcost - h(here.at);
            if cost > best[s] {
                continue;
            }
            if connected[s] {
                let mut path = Vec::new();
                let mut cur = s;
                loop {
                    path.push(g.decode(cur));
                    let p = prev[cur] as usize;
                    if p == cur {
                        break;
                    }
                    cur = p;
                }
                return Some(path);
            }
            let mut push = |p: GridPoint, l: RouteLayer, extra: u32| {
                let st = state(g.cols, p, l);
                let Some(steal_cost) = traverse_cost(st) else {
                    return;
                };
                if steal_cost > 0 && !allow_steal {
                    return;
                }
                let c = cost + 1 + extra + steal_cost + g.cells[st].history as u32;
                if c < best[st] {
                    best[st] = c;
                    prev[st] = s as u32;
                    heap.push(Reverse((c + h(p), st)));
                }
            };
            let GridPoint { gx, gy } = here.at;
            if gx > 0 {
                push(GridPoint { gx: gx - 1, gy }, here.layer, 0);
            }
            if gx + 1 < g.cols {
                push(GridPoint { gx: gx + 1, gy }, here.layer, 0);
            }
            if gy > 0 {
                push(GridPoint { gx, gy: gy - 1 }, here.layer, 0);
            }
            if gy + 1 < g.rows {
                push(GridPoint { gx, gy: gy + 1 }, here.layer, 0);
            }
            match here.layer {
                RouteLayer::M1 => push(here.at, RouteLayer::M2, VIA_COST),
                RouteLayer::M2 => push(here.at, RouteLayer::M1, VIA_COST),
            }
        }
        None
    }

    /// A random grid: mostly usable states, a few nets' claims (some
    /// permanent), and history from none through the u16 ceiling.
    fn random_grid(rng: &mut Xorshift64Star) -> RoutingGrid {
        let cols = 1 + rng.next_below(24);
        let rows = 1 + rng.next_below(24);
        let mut g = RoutingGrid::new(cols, rows, 6);
        for c in &mut g.cells {
            c.set(OK, rng.next_below(10) < 6);
            if rng.next_below(4) == 0 {
                c.owner = rng.next_below(4) as u32;
                c.set(PERM, rng.next_bool());
            }
            c.history = match rng.next_below(8) {
                0..=3 => 0,
                4 | 5 => rng.next_below(30) as u16,
                6 => rng.next_below(4000) as u16,
                _ => u16::MAX - rng.next_below(2) as u16,
            };
        }
        g
    }

    #[test]
    fn wave_matches_reference_on_random_grids() {
        let mut rng = Xorshift64Star::new(0x5EA4C4);
        let (mut queries, mut found) = (0usize, 0usize);
        for round in 0..150 {
            let mut g = random_grid(&mut rng);
            if round % 3 == 0 {
                // Exercise the epoch wrap-around on a grid with live stamps.
                g.wave_epoch = u32::MAX - 5;
                g.tree_epoch = u8::MAX - 1;
            }
            let n_states = g.cells.len();
            for _ in 0..20 {
                let net = rng.next_below(4) as u32;
                let allow_steal = rng.next_bool();
                let mut connected = vec![false; n_states];
                g.begin_tree();
                let mut bbox = (usize::MAX, 0, usize::MAX, 0);
                for _ in 0..1 + rng.next_below(6) {
                    let s = rng.next_below(n_states);
                    connected[s] = true;
                    g.connect(s);
                    let at = g.decode(s).at;
                    bbox = (
                        bbox.0.min(at.gx),
                        bbox.1.max(at.gx),
                        bbox.2.min(at.gy),
                        bbox.3.max(at.gy),
                    );
                }
                for _ in 0..4 {
                    let s = rng.next_below(n_states);
                    if connected[s] {
                        continue;
                    }
                    let PathNode { at, layer } = g.decode(s);
                    let want = reference_wave(&g, net, at, layer, &connected, bbox, allow_steal);
                    let got = g.wave(net, at, layer, bbox, allow_steal);
                    assert_eq!(got, want, "round {round}: wave from {at:?} {layer:?}");
                    queries += 1;
                    found += usize::from(got.is_some());
                }
            }
        }
        // Both outcomes must be well represented for the check to mean much.
        assert!(queries > 10_000, "{queries} queries");
        assert!(
            found * 5 > queries && found * 5 < queries * 4,
            "{found}/{queries} found"
        );
    }

    #[test]
    fn a_state_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Cell>(), 16);
    }

    #[test]
    fn tree_stamps_clear_when_the_epoch_wraps() {
        let mut g = open_grid(4, 4);
        g.begin_tree();
        g.connect(5);
        // 255 more trees bring the one-byte epoch back to the same value.
        for _ in 0..255 {
            g.begin_tree();
            assert!(!g.connected(5));
        }
        assert_eq!(g.tree_epoch, 1);
    }

    #[test]
    fn bucket_queue_pops_in_lexicographic_order() {
        let mut rng = Xorshift64Star::new(19);
        let mut q = BucketQueue::new(1 << 20);
        for _ in 0..50 {
            let f0 = rng.next_below(100) as u32;
            q.reset(f0);
            let mut reference = BinaryHeap::new();
            let mut pushed = std::collections::HashSet::new();
            let mut last = (f0, 0u32);
            for step in 0..2000 {
                if step % 3 != 0 || reference.is_empty() {
                    // Jumps from zero through far past the ring.
                    let d = match rng.next_below(10) {
                        0..=4 => 0,
                        5..=7 => rng.next_below(8),
                        8 => rng.next_below(RING + 2),
                        _ => rng.next_below(70_000),
                    } as u32;
                    let entry = (last.0 + d, rng.next_below(1 << 20) as u32);
                    if !pushed.insert(entry) {
                        continue; // the search never repeats an (f, state) pair
                    }
                    q.push(entry.0, entry.1);
                    reference.push(Reverse(entry));
                } else {
                    let Reverse(want) = reference.pop().expect("non-empty");
                    assert_eq!(q.pop(), Some(want));
                    last = want;
                }
            }
            while let Some(Reverse(want)) = reference.pop() {
                assert_eq!(q.pop(), Some(want));
            }
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn straight_line_route() {
        let mut g = open_grid(10, 10);
        let ts = [
            (GridPoint { gx: 1, gy: 5 }, RouteLayer::M2),
            (GridPoint { gx: 8, gy: 5 }, RouteLayer::M2),
        ];
        claim_terminals(&mut g, 0, &ts);
        let (paths, _, skipped) = g.route_net(0, &ts, true);
        assert_eq!(skipped, 0, "routable");
        assert_eq!(paths.len(), 2);
        // The second path must join terminal 0's position.
        let joined = paths[1].nodes.iter().any(|n| n.at == ts[0].0);
        assert!(joined);
        assert_eq!(g.stats().waves, 1);
        assert!(g.stats().expanded >= 7);
    }

    #[test]
    fn routes_around_obstacles() {
        let mut g = open_grid(10, 10);
        // Wall of foreign *permanent* ownership across column 5.
        for gy in 0..10 {
            let p = GridPoint { gx: 5, gy };
            g.claim_permanent(p, RouteLayer::M2, 99);
            g.claim_permanent(p, RouteLayer::M1, 99);
        }
        let ts = [
            (GridPoint { gx: 2, gy: 2 }, RouteLayer::M2),
            (GridPoint { gx: 8, gy: 2 }, RouteLayer::M2),
        ];
        claim_terminals(&mut g, 0, &ts);
        let (_, _, sk) = g.route_net(0, &ts, true);
        assert!(sk > 0, "full wall blocks everything");

        // Open one crossing point on m1 only: the router must thread it.
        let mut g = open_grid(10, 10);
        for gy in 0..10 {
            let p = GridPoint { gx: 5, gy };
            g.claim_permanent(p, RouteLayer::M2, 99);
            if gy != 7 {
                g.claim_permanent(p, RouteLayer::M1, 99);
            }
        }
        claim_terminals(&mut g, 0, &ts);
        let (paths, _, skipped) = g.route_net(0, &ts, true);
        assert_eq!(skipped, 0, "threads the gap");
        assert!(paths[1]
            .nodes
            .iter()
            .any(|n| n.at == GridPoint { gx: 5, gy: 7 } && n.layer == RouteLayer::M1));
    }

    #[test]
    fn different_layers_share_a_node() {
        let mut g = open_grid(5, 5);
        let p = GridPoint { gx: 2, gy: 2 };
        g.claim(p, RouteLayer::M1, 1);
        g.claim(p, RouteLayer::M2, 2);
        assert_eq!(g.owner(p, RouteLayer::M1), Some(1));
        assert_eq!(g.owner(p, RouteLayer::M2), Some(2));
    }

    #[test]
    #[should_panic(expected = "already owned")]
    fn double_claim_panics() {
        let mut g = open_grid(3, 3);
        let p = GridPoint { gx: 1, gy: 1 };
        g.claim(p, RouteLayer::M2, 1);
        g.claim(p, RouteLayer::M2, 2);
    }

    #[test]
    fn multi_terminal_net_builds_a_tree() {
        let mut g = open_grid(12, 12);
        let ts = [
            (GridPoint { gx: 1, gy: 1 }, RouteLayer::M2),
            (GridPoint { gx: 10, gy: 1 }, RouteLayer::M2),
            (GridPoint { gx: 5, gy: 10 }, RouteLayer::M2),
            (GridPoint { gx: 10, gy: 10 }, RouteLayer::M2),
        ];
        claim_terminals(&mut g, 7, &ts);
        let (paths, _, skipped) = g.route_net(7, &ts, true);
        assert_eq!(skipped, 0, "routable");
        assert_eq!(paths.len(), 4);
        // All path nodes now belong to net 7.
        for path in &paths {
            for n in &path.nodes {
                assert_eq!(g.owner(n.at, n.layer), Some(7));
            }
        }
    }

    #[test]
    fn m1_disallowed_region_is_respected() {
        // m1 nowhere usable, and a full m2 wall between the terminals: no
        // path may sneak through the m1 plane.
        let mut g = RoutingGrid::new(8, 8, 6);
        for gy in 0..8 {
            g.claim_permanent(GridPoint { gx: 4, gy }, RouteLayer::M2, 99);
        }
        let ts = [
            (GridPoint { gx: 1, gy: 1 }, RouteLayer::M2),
            (GridPoint { gx: 6, gy: 1 }, RouteLayer::M2),
        ];
        claim_terminals(&mut g, 0, &ts);
        let (_, _, sk) = g.route_net(0, &ts, true);
        assert!(sk > 0);
    }

    #[test]
    fn nets_cannot_cross_each_other() {
        let mut g = open_grid(10, 3);
        let a = [
            (GridPoint { gx: 0, gy: 1 }, RouteLayer::M1),
            (GridPoint { gx: 9, gy: 1 }, RouteLayer::M1),
        ];
        claim_terminals(&mut g, 1, &a);
        let (_, _, sk) = g.route_net(1, &a, true);
        assert_eq!(sk, 0, "first net routes straight");
        // A second net crossing the same m1 row must use m2/another row.
        let b = [
            (GridPoint { gx: 4, gy: 0 }, RouteLayer::M2),
            (GridPoint { gx: 4, gy: 2 }, RouteLayer::M2),
        ];
        claim_terminals(&mut g, 2, &b);
        let (paths, victims, sk) = g.route_net(2, &b, true);
        assert_eq!(sk, 0, "crosses on the other layer");
        // Either the route crossed on m2 (no victims) or it stole net 1's
        // m1 — in which case net 1 is reported for rerouting. Never both
        // silent and overlapping.
        if victims.is_empty() {
            for n in &paths[1].nodes {
                if n.layer == RouteLayer::M1 {
                    assert_ne!(g.owner(n.at, RouteLayer::M1), Some(1));
                }
            }
        } else {
            assert_eq!(victims, vec![1]);
        }
    }
}
