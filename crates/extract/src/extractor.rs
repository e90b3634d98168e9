//! The end-to-end extraction pass: tagged chip geometry in, weighted
//! realistic fault list out.
//!
//! Mapping of defect mechanisms onto faults (approximations are the
//! documented substitutions of `DESIGN.md` §2):
//!
//! | defect                        | fault                                        |
//! |-------------------------------|----------------------------------------------|
//! | extra material, two nets      | [`FaultKind::Bridge`] between the nets        |
//! | extra material, net + rail    | bridge to VDD/GND                             |
//! | extra material, diffusion     | device [`FaultKind::StuckOn`] (S/D short), or a bridge between the stage outputs for inter-strip shorts |
//! | missing material, routed wire | [`FaultKind::Break`] of that branch           |
//! | missing material, poly column | device [`FaultKind::StuckOpen`] (floating gate drifts off) |
//! | missing material, diffusion   | device stuck-open, weight split across the strip's devices |
//! | missing cut (pin contact/via) | break of that pin branch                      |
//! | missing cut (strap contact)   | device stuck-open on the starved side         |
//! | gate-oxide pinhole            | device stuck-on                               |

use std::collections::HashMap;

use dlp_circuit::switch::TransKind;
use dlp_circuit::NodeId;
use dlp_core::obs::{Histogram, Recorder};
use dlp_core::par::{self, ThreadCount};
use dlp_geometry::{Coord, Layer, Rect};
use dlp_layout::chip::{
    ChipLayout, ElecNet, ElecRole, PlacedTransistor, ShapeOrigin, TerminalKind,
};

use crate::critical_area::{missing_cut_area, open_area, weighted, ShortPairs};
use crate::defects::{DefectStatistics, Mechanism};
use crate::faults::{Detached, FaultKind, FaultSet, RealisticFault};
use crate::ExtractError;

/// Extraction tuning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractionConfig {
    /// Defect-size integration samples per class.
    pub size_samples: usize,
}

impl Default for ExtractionConfig {
    fn default() -> Self {
        ExtractionConfig { size_samples: 6 }
    }
}

/// Spatial bin size (λ) of the bridge-candidate search: 64 λ measured
/// fastest on the ripple-adder extraction bench, against 32 and 128.
const BIN: Coord = 64;

/// Identity of a shape for bridge extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum BridgeId {
    Net(ElecNet),
    Rail(bool),
    Diff {
        gate: dlp_circuit::NodeId,
        stage: usize,
        kind: TransKind,
    },
}

/// Runs extraction.
///
/// Inputs are validated before any geometry is touched, so adversarial
/// defect statistics (NaN/infinite/zero densities, inverted size ranges)
/// and degenerate configs are rejected up front with a typed error rather
/// than contaminating fault weights.
///
/// The bridge critical-area integration — the extraction hot path — is
/// spread across `threads` workers; the extracted fault set is
/// bit-identical for every thread count.
///
/// When the recorder is enabled, the run is traced under the `extract`
/// scope: a span over the whole pass (plus sub-spans for the bridge,
/// open, and cut/device sweeps), counters for defect classes / candidate
/// bridge pairs / extracted faults, gauges for the bridge / open /
/// total critical-area weight, the bridge pair-weight histogram
/// (`extract.pair_weight` — deterministic percentiles at any thread
/// count), and per-worker timeline telemetry from the parallel bridge
/// integration. Tracing never changes the fault set.
///
/// # Errors
///
/// * [`ExtractError::BadDefectStatistics`] — a class has a non-finite or
///   non-positive density, `x_min < 1`, or `x_max < x_min`;
/// * [`ExtractError::NoSizeSamples`] — `config.size_samples == 0`;
/// * [`ExtractError::MissingOutputNet`] — the chip's tagged geometry is
///   inconsistent with its netlist (cannot happen for layouts produced by
///   `ChipLayout::generate`).
pub fn extract_obs(
    chip: &ChipLayout,
    stats: &DefectStatistics,
    config: &ExtractionConfig,
    threads: ThreadCount,
    obs: &Recorder,
) -> Result<FaultSet, ExtractError> {
    let _span = obs.span("extract");
    if config.size_samples == 0 {
        return Err(ExtractError::NoSizeSamples);
    }
    stats.validate()?;
    obs.add("extract.defect_classes", stats.classes().len() as u64);
    obs.add("extract.shapes", chip.shapes().len() as u64);

    let mut acc = Faults::default();
    {
        let _s = obs.span("extract.bridges");
        extract_bridges(chip, stats, config, threads.get(), obs, &mut acc)?;
    }
    let devices = Devices::new(chip);
    {
        let _s = obs.span("extract.opens");
        extract_opens(chip, &devices, stats, config, &mut acc)?;
    }
    {
        let _s = obs.span("extract.cuts");
        extract_cut_and_device_defects(chip, &devices, stats, config, &mut acc)?;
    }

    let mut faults: Vec<RealisticFault> = acc
        .0
        .into_iter()
        .map(|(kind, (weight, label))| RealisticFault {
            kind,
            weight,
            label,
        })
        .collect();
    faults.sort_by(|a, b| a.label.cmp(&b.label));
    let set = FaultSet::new(faults);
    obs.add("extract.faults", set.len() as u64);
    obs.gauge("extract.bridge_weight", set.bridge_weight());
    obs.gauge("extract.open_weight", set.open_weight());
    obs.gauge("extract.total_weight", set.weights().iter().sum());
    Ok(set)
}

/// Default-config, untraced extraction at the `DLP_THREADS` worker count,
/// so both thread passes of the suite exercise the parallel path.
#[cfg(test)]
pub(crate) fn extract_for_test(
    chip: &ChipLayout,
    stats: &DefectStatistics,
) -> Result<FaultSet, ExtractError> {
    let (config, obs) = (ExtractionConfig::default(), Recorder::noop());
    extract_obs(chip, stats, &config, ThreadCount::from_env().unwrap(), obs)
}

fn bridge_identity(role: &ElecRole) -> Option<BridgeId> {
    match role {
        ElecRole::Net(n) => Some(BridgeId::Net(*n)),
        ElecRole::Vdd => Some(BridgeId::Rail(true)),
        ElecRole::Gnd => Some(BridgeId::Rail(false)),
        ElecRole::StageDiff { gate, stage, kind } => Some(BridgeId::Diff {
            gate: *gate,
            stage: *stage,
            kind: *kind,
        }),
    }
}

fn net_label(chip: &ChipLayout, net: &ElecNet) -> String {
    match net {
        ElecNet::Signal(n) => chip.netlist().node_name(*n).to_string(),
        ElecNet::Stage(g, s) => format!("{}#s{s}", chip.netlist().node_name(*g)),
    }
}

/// Extracted faults keyed by kind: the summed weight and the label of the
/// kind's first contribution.
#[derive(Debug, Default)]
struct Faults(HashMap<FaultKind, (f64, String)>);

impl Faults {
    /// Adds a positive `weight` to `kind`. The label is only built for a
    /// kind not seen before.
    fn add(&mut self, kind: FaultKind, weight: f64, label: impl FnOnce() -> String) {
        if weight <= 0.0 {
            return;
        }
        self.0.entry(kind).or_insert_with(|| (0.0, label())).0 += weight;
    }
}

/// Each gate's placed transistors, in chip order, so a per-shape device
/// lookup scans one cell's devices instead of the whole chip's.
#[derive(Debug)]
struct Devices<'a>(HashMap<NodeId, Vec<&'a PlacedTransistor>>);

impl<'a> Devices<'a> {
    fn new(chip: &'a ChipLayout) -> Self {
        let mut by_owner: HashMap<NodeId, Vec<&PlacedTransistor>> = HashMap::new();
        for t in chip.transistors() {
            by_owner.entry(t.owner).or_default().push(t);
        }
        Devices(by_owner)
    }

    /// `gate`'s transistors, in chip order.
    fn of(&self, gate: NodeId) -> impl Iterator<Item = &'a PlacedTransistor> + '_ {
        self.0.get(&gate).into_iter().flatten().copied()
    }
}

/// The far end of a bridge: another net or a rail (`true` = VDD).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FarEnd {
    Net(ElecNet),
    Rail(bool),
}

/// The nets a short between identities `a < b` connects, or `None` when
/// it changes nothing electrically: rail to rail, or two strips of the
/// same stage output. Diffusion strips never share a layer with nets or
/// rails.
fn bridge_ends(chip: &ChipLayout, a: BridgeId, b: BridgeId) -> Option<(ElecNet, FarEnd)> {
    match (a, b) {
        (BridgeId::Net(x), BridgeId::Net(y)) => Some((x, FarEnd::Net(y))),
        (BridgeId::Net(x), BridgeId::Rail(v)) | (BridgeId::Rail(v), BridgeId::Net(x)) => {
            Some((x, FarEnd::Rail(v)))
        }
        (
            BridgeId::Diff {
                gate: g1,
                stage: s1,
                ..
            },
            BridgeId::Diff {
                gate: g2,
                stage: s2,
                ..
            },
        ) => {
            // Inter-strip diffusion short: approximate as a bridge between
            // the stage outputs.
            let na = ElecNet::of_stage(chip.netlist(), g1, s1);
            let nb = ElecNet::of_stage(chip.netlist(), g2, s2);
            (na != nb).then_some((na, FarEnd::Net(nb)))
        }
        _ => None,
    }
}

fn bridge_kind(near: ElecNet, far: FarEnd) -> FaultKind {
    match far {
        FarEnd::Net(y) => FaultKind::Bridge {
            a: near,
            b: Some(y),
            rail: None,
        },
        FarEnd::Rail(v) => FaultKind::Bridge {
            a: near,
            b: None,
            rail: Some(v),
        },
    }
}

fn bridge_label(chip: &ChipLayout, layer: Layer, near: &ElecNet, far: FarEnd) -> String {
    let far = match far {
        FarEnd::Net(y) => net_label(chip, &y),
        FarEnd::Rail(v) => (if v { "vdd" } else { "gnd" }).to_string(),
    };
    format!("br:{layer}:{}:{far}", net_label(chip, near))
}

/// One layer's bridge shapes grouped by identity. Identities are numbered
/// densely in `BridgeId` order, so sorted pairs of numbers are sorted
/// pairs of identities.
#[derive(Debug)]
struct Identities {
    ids: Vec<BridgeId>,
    /// Identity `i` owns `rects[starts[i]..starts[i + 1]]`, in shape order.
    starts: Vec<usize>,
    rects: Vec<Rect>,
}

impl Identities {
    fn new(chip: &ChipLayout, layer: Layer) -> Self {
        let mut shapes: Vec<(BridgeId, Rect)> = chip
            .shapes()
            .iter()
            .filter(|s| s.layer == layer)
            .filter_map(|s| Some((bridge_identity(&s.role)?, s.rect)))
            .collect();
        shapes.sort_by_key(|&(id, _)| id);
        let mut ids = Vec::new();
        let mut starts = Vec::new();
        for (k, &(id, _)) in shapes.iter().enumerate() {
            if ids.last() != Some(&id) {
                ids.push(id);
                starts.push(k);
            }
        }
        starts.push(shapes.len());
        Identities {
            ids,
            starts,
            rects: shapes.into_iter().map(|(_, r)| r).collect(),
        }
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn rects(&self, i: usize) -> &[Rect] {
        &self.rects[self.starts[i]..self.starts[i + 1]]
    }
}

/// The identity pairs `(a, b)`, `a < b`, with a rectangle of each in one
/// common `bin × bin` bin once grown by `grow`: sorted, without repeats.
/// Bins are numbered by truncating division, as the candidate search has
/// always numbered them, so the pair set is unchanged.
fn candidate_pairs(ids: &Identities, grow: Coord, bin: Coord) -> Vec<(u32, u32)> {
    let span = |r: &Rect| {
        let g = r.dilated(grow);
        (g.x0() / bin, g.x1() / bin, g.y0() / bin, g.y1() / bin)
    };
    let Some(first) = ids.rects.first() else {
        return Vec::new();
    };
    let (mut x0, mut x1, mut y0, mut y1) = span(first);
    for r in &ids.rects {
        let (a, b, c, d) = span(r);
        (x0, x1, y0, y1) = (x0.min(a), x1.max(b), y0.min(c), y1.max(d));
    }
    let nx = (x1 - x0 + 1) as usize;
    // Each bin's member identities, ascending, and each identity's bins.
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); nx * (y1 - y0 + 1) as usize];
    let mut bins_of: Vec<Vec<u32>> = vec![Vec::new(); ids.len()];
    for (i, bins) in bins_of.iter_mut().enumerate() {
        let id = i as u32;
        for r in ids.rects(i) {
            let (a, b, c, d) = span(r);
            for by in c..=d {
                for bx in a..=b {
                    let bin = (by - y0) as usize * nx + (bx - x0) as usize;
                    // Identities arrive in order, so a repeat is the last.
                    if members[bin].last() != Some(&id) {
                        members[bin].push(id);
                        bins.push(bin as u32);
                    }
                }
            }
        }
    }
    // Each identity's later partners, deduplicated by a stamp.
    let mut seen = vec![u32::MAX; ids.len()];
    let mut pairs = Vec::new();
    for (a, bins) in bins_of.iter().enumerate() {
        let start = pairs.len();
        for &bin in bins {
            let m = &members[bin as usize];
            for &b in &m[m.partition_point(|&b| b as usize <= a)..] {
                if seen[b as usize] != a as u32 {
                    seen[b as usize] = a as u32;
                    pairs.push((a as u32, b));
                }
            }
        }
        pairs[start..].sort_unstable();
    }
    pairs
}

/// Side (λ) of a [`RectIndex`] cell: about one grown wire window, so a
/// query visits a handful of cells.
const INDEX_CELL: Coord = 32;

/// A uniform grid over each identity's rectangles, so a window query
/// tests only the rectangles registered in the cells the window covers.
#[derive(Debug)]
struct RectIndex {
    grids: Vec<CellGrid>,
    /// Cell `c` of every grid lists `items[starts[c]..starts[c + 1]]`:
    /// the identity-local indices of the rectangles touching it.
    starts: Vec<u32>,
    items: Vec<u32>,
}

/// One identity's cells: `nx × ny` cells from its bounding box's lower
/// left corner, numbered from `first` row by row.
#[derive(Debug, Clone, Copy)]
struct CellGrid {
    bbox: Rect,
    nx: usize,
    ny: usize,
    first: usize,
}

impl CellGrid {
    /// The cell holding point `(x, y)`, clamped to the grid.
    fn cell(&self, x: Coord, y: Coord) -> (usize, usize) {
        let at = |d: Coord, n: usize| ((d.max(0) / INDEX_CELL) as usize).min(n - 1);
        (
            at(x - self.bbox.x0(), self.nx),
            at(y - self.bbox.y0(), self.ny),
        )
    }

    /// The inclusive cell ranges `(x0, x1, y0, y1)` covering `r`.
    fn cells(&self, r: &Rect) -> (usize, usize, usize, usize) {
        let (x0, y0) = self.cell(r.x0(), r.y0());
        let (x1, y1) = self.cell(r.x1(), r.y1());
        (x0, x1, y0, y1)
    }
}

impl RectIndex {
    fn new(ids: &Identities) -> Self {
        let mut grids = Vec::with_capacity(ids.len());
        let mut starts = vec![0u32];
        let mut items = Vec::new();
        let mut cursor: Vec<u32> = Vec::new();
        for i in 0..ids.len() {
            let rects = ids.rects(i);
            let bbox = rects[1..].iter().fold(rects[0], |b, r| b.union_bbox(r));
            let side = |d: Coord| (d / INDEX_CELL + 1) as usize;
            let grid = CellGrid {
                bbox,
                nx: side(bbox.width()),
                ny: side(bbox.height()),
                first: starts.len() - 1,
            };
            let n = grid.nx * grid.ny;
            cursor.clear();
            cursor.resize(n, 0);
            for r in rects {
                let (x0, x1, y0, y1) = grid.cells(r);
                for cy in y0..=y1 {
                    cursor[cy * grid.nx + x0..=cy * grid.nx + x1]
                        .iter_mut()
                        .for_each(|c| *c += 1);
                }
            }
            let mut at = items.len() as u32;
            for c in &mut cursor {
                let count = *c;
                *c = at;
                at += count;
                starts.push(at);
            }
            items.resize(at as usize, 0);
            for (k, r) in rects.iter().enumerate() {
                let (x0, x1, y0, y1) = grid.cells(r);
                for cy in y0..=y1 {
                    for c in &mut cursor[cy * grid.nx + x0..=cy * grid.nx + x1] {
                        items[*c as usize] = k as u32;
                        *c += 1;
                    }
                }
            }
            grids.push(grid);
        }
        RectIndex {
            grids,
            starts,
            items,
        }
    }

    /// Calls `hit` once with each of identity `i`'s rectangles (`rects`)
    /// that shares interior points with `window`; returns the number of
    /// overlap tests made.
    fn overlapping(
        &self,
        i: usize,
        rects: &[Rect],
        window: &Rect,
        mut hit: impl FnMut(&Rect),
    ) -> u64 {
        let g = &self.grids[i];
        if !window.overlaps(&g.bbox) {
            return 0;
        }
        let (x0, x1, y0, y1) = g.cells(window);
        let mut tests = 0;
        for cy in y0..=y1 {
            for cx in x0..=x1 {
                let c = g.first + cy * g.nx + cx;
                let cell = &self.items[self.starts[c] as usize..self.starts[c + 1] as usize];
                for &k in cell {
                    let r = &rects[k as usize];
                    tests += 1;
                    // A rectangle registered in several cells is reported
                    // from the one holding the lower left corner of its
                    // overlap with the window: that cell is in both ranges.
                    if window.overlaps(r)
                        && g.cell(r.x0().max(window.x0()), r.y0().max(window.y0())) == (cx, cy)
                    {
                        hit(r);
                    }
                }
            }
        }
        tests
    }

    /// Keeps in `shorts` every rectangle pair of identities `a` and `b`
    /// whose dilations overlap at `max_x` (`dilations_overlap`), testing
    /// each rectangle of the smaller side against the index of the other;
    /// returns the number of rectangle tests made.
    fn short_pairs(
        &self,
        ids: &Identities,
        a: usize,
        b: usize,
        max_x: Coord,
        shorts: &mut ShortPairs,
    ) -> u64 {
        shorts.clear();
        if max_x <= 0 {
            return 0;
        }
        // For max_x > 0 the pair test is "the other rectangle overlaps
        // this one grown by max_x", in either direction.
        let (ra, rb) = (ids.rects(a), ids.rects(b));
        if ra.len() <= rb.len() {
            ra.iter()
                .map(|r| self.overlapping(b, rb, &r.dilated(max_x), |o| shorts.push(*r, *o)))
                .sum()
        } else {
            rb.iter()
                .map(|r| self.overlapping(a, ra, &r.dilated(max_x), |o| shorts.push(*o, *r)))
                .sum()
        }
    }
}

fn extract_bridges(
    chip: &ChipLayout,
    stats: &DefectStatistics,
    config: &ExtractionConfig,
    workers: usize,
    obs: &Recorder,
    acc: &mut Faults,
) -> Result<(), ExtractError> {
    let max_x = stats.max_defect_size();
    let mut rect_tests = 0;
    let mut pair_weights = Histogram::new();
    for class in stats.classes() {
        if class.mechanism != Mechanism::ExtraMaterial {
            continue;
        }
        let samples = class.size_samples(config.size_samples)?;
        let max_sample = samples.iter().map(|&(x, _)| x).max().unwrap_or(0);
        let ids = Identities::new(chip, class.layer);
        // Sorted pair list: the work decomposition and the accumulation
        // order stay a function of the geometry alone, never of hash or
        // thread scheduling.
        let pairs = candidate_pairs(&ids, max_x, BIN);
        obs.add("extract.bridge_pairs", pairs.len() as u64);
        let shorts: Vec<(u32, u32, ElecNet, FarEnd)> = pairs
            .into_iter()
            .filter_map(|(a, b)| {
                let (near, far) = bridge_ends(chip, ids.ids[a as usize], ids.ids[b as usize])?;
                Some((a, b, near, far))
            })
            .collect();
        let index = RectIndex::new(&ids);

        // Per-pair critical-area integration — the extraction hot path —
        // is pure, so fanning pairs across workers cannot change weights.
        let found =
            par::map_chunks_counted(workers, &shorts, workers, obs, "extract", |_, chunk| {
                let mut pairs = ShortPairs::default();
                let mut tests = 0;
                let weights: Vec<f64> = chunk
                    .iter()
                    .map(|&(a, b, _, _)| {
                        tests +=
                            index.short_pairs(&ids, a as usize, b as usize, max_sample, &mut pairs);
                        weighted(&samples, |x| pairs.area(x))
                    })
                    .collect();
                (weights, tests)
            });
        let mut weights = Vec::with_capacity(shorts.len());
        for (chunk, tests) in found {
            weights.extend(chunk);
            rect_tests += tests;
        }
        for (&(_, _, near, far), w) in shorts.iter().zip(weights) {
            if w <= 0.0 {
                continue;
            }
            // Chunk order is deterministic, so the weight distribution's
            // percentiles are thread-count invariant.
            if obs.is_enabled() {
                pair_weights.observe(w);
            }
            acc.add(bridge_kind(near, far), w, || {
                bridge_label(chip, class.layer, &near, far)
            });
        }
    }
    if pair_weights.count() > 0 {
        obs.merge_hist("extract.pair_weight", &pair_weights);
    }
    obs.add("extract.rect_tests", rect_tests);
    Ok(())
}

fn extract_opens(
    chip: &ChipLayout,
    devices: &Devices,
    stats: &DefectStatistics,
    config: &ExtractionConfig,
    acc: &mut Faults,
) -> Result<(), ExtractError> {
    for class in stats.classes() {
        if class.mechanism != Mechanism::MissingMaterial {
            continue;
        }
        let samples = class.size_samples(config.size_samples)?;
        for s in chip.shapes() {
            if s.layer != class.layer {
                continue;
            }
            match (&s.role, &s.origin) {
                // Routed branches: break semantics by terminal.
                (
                    ElecRole::Net(net),
                    ShapeOrigin::Route {
                        net_index,
                        terminal,
                    },
                ) => {
                    let w = weighted(&samples, |x| open_area(&s.rect, x));
                    let Some(detached) = route_detached(chip, net, *net_index, *terminal)? else {
                        continue;
                    };
                    acc.add(
                        FaultKind::Break {
                            net: *net,
                            detached,
                        },
                        w,
                        || format!("op:{}:{}:t{}", class.layer, net_label(chip, net), terminal),
                    );
                }
                // Cell-internal conductor shapes.
                (ElecRole::Net(net), ShapeOrigin::Cell { gate }) => {
                    let w = weighted(&samples, |x| open_area(&s.rect, x));
                    if s.layer == Layer::Poly {
                        // Floating-gate column: drifts off — model as the
                        // column's NMOS stuck open.
                        if let Some(t) = devices.of(*gate).find(|t| {
                            t.kind == TransKind::Nmos
                                && t.channel.x0() >= s.rect.x0()
                                && t.channel.x1() <= s.rect.x1()
                        }) {
                            acc.add(
                                FaultKind::StuckOpen {
                                    owner: *gate,
                                    ordinal: t.ordinal,
                                },
                                w,
                                || {
                                    format!(
                                        "op:po:{}:{}",
                                        chip.netlist().node_name(*gate),
                                        t.ordinal
                                    )
                                },
                            );
                        }
                    } else {
                        // Pin pad or strap m1: pad (input net ≠ gate's own
                        // nets) detaches the sink; strap detaches all.
                        let own = matches!(net, ElecNet::Signal(n) if n == gate)
                            || matches!(net, ElecNet::Stage(g, _) if g == gate);
                        let detached = if own {
                            Detached::All
                        } else {
                            Detached::Sink(*gate)
                        };
                        acc.add(
                            FaultKind::Break {
                                net: *net,
                                detached,
                            },
                            w,
                            || {
                                format!(
                                    "op:{}:{}:cell{}",
                                    class.layer,
                                    net_label(chip, net),
                                    chip.netlist().node_name(*gate)
                                )
                            },
                        );
                    }
                }
                // Diffusion strips: split the open weight across devices.
                (ElecRole::StageDiff { gate, stage, kind }, _) => {
                    let w = weighted(&samples, |x| open_area(&s.rect, x));
                    let strip: Vec<_> = devices
                        .of(*gate)
                        .filter(|t| t.stage == *stage && t.kind == *kind)
                        .collect();
                    if strip.is_empty() {
                        continue;
                    }
                    let each = w / strip.len() as f64;
                    for t in strip {
                        acc.add(
                            FaultKind::StuckOpen {
                                owner: *gate,
                                ordinal: t.ordinal,
                            },
                            each,
                            || format!("op:df:{}:{}", chip.netlist().node_name(*gate), t.ordinal),
                        );
                    }
                }
                _ => {}
            }
        }
    }
    Ok(())
}

/// What a break at `terminal` of routed net `net_index` (conductor
/// `net`) detaches: the whole net at its driver, one sink at a gate
/// pin, the observation at an output pad. `None` for an output pad on a
/// net that is not a `Signal`, where no break is modelled.
///
/// # Errors
///
/// [`ExtractError::MissingOutputNet`] when an output pad's net is not a
/// primary output of the netlist.
fn route_detached(
    chip: &ChipLayout,
    net: &ElecNet,
    net_index: usize,
    terminal: usize,
) -> Result<Option<Detached>, ExtractError> {
    Ok(Some(match chip.nets()[net_index].terminals[terminal] {
        TerminalKind::Driver => Detached::All,
        TerminalKind::SinkGate(g) => Detached::Sink(g),
        TerminalKind::OutputPad => {
            let ElecNet::Signal(n) = net else {
                return Ok(None);
            };
            let oi = chip
                .netlist()
                .outputs()
                .iter()
                .position(|o| o == n)
                .ok_or_else(|| {
                    ExtractError::MissingOutputNet(chip.netlist().node_name(*n).to_string())
                })?;
            Detached::Observation(oi)
        }
    }))
}

fn extract_cut_and_device_defects(
    chip: &ChipLayout,
    devices: &Devices,
    stats: &DefectStatistics,
    config: &ExtractionConfig,
    acc: &mut Faults,
) -> Result<(), ExtractError> {
    let poly_w = chip.tech().poly_width;
    for class in stats.classes() {
        match class.mechanism {
            Mechanism::MissingCut => {
                let samples = class.size_samples(config.size_samples)?;
                for s in chip.shapes() {
                    if s.layer != class.layer {
                        continue;
                    }
                    let ElecRole::Net(net) = &s.role else {
                        continue;
                    };
                    let w = weighted(&samples, |x| missing_cut_area(&s.rect, x));
                    match &s.origin {
                        ShapeOrigin::Route {
                            net_index,
                            terminal,
                        } => {
                            let Some(detached) = route_detached(chip, net, *net_index, *terminal)?
                            else {
                                continue;
                            };
                            acc.add(
                                FaultKind::Break {
                                    net: *net,
                                    detached,
                                },
                                w,
                                || format!("cut:{}:t{}", net_label(chip, net), terminal),
                            );
                        }
                        ShapeOrigin::Cell { gate } => {
                            let own = matches!(net, ElecNet::Signal(n) if n == gate)
                                || matches!(net, ElecNet::Stage(g, _) if g == gate);
                            if own {
                                // Strap contact: starves one device row of
                                // the stage — nearest-device stuck-open.
                                // The gate's own signal is its last
                                // stage's output.
                                let stage = match net {
                                    ElecNet::Stage(_, s) => *s,
                                    ElecNet::Signal(_) => {
                                        devices.of(*gate).map(|t| t.stage).max().unwrap_or(0)
                                    }
                                };
                                // Which device row the contact feeds: its
                                // y within the cell decides N vs P side.
                                let local_y = (s.rect.center().y - chip.tech().channel_height())
                                    .rem_euclid(chip.tech().row_pitch());
                                let kind = if local_y < chip.tech().cell_height / 2 {
                                    TransKind::Nmos
                                } else {
                                    TransKind::Pmos
                                };
                                if let Some(t) = devices
                                    .of(*gate)
                                    .filter(|t| t.stage == stage && t.kind == kind)
                                    .min_by_key(|t| {
                                        (t.channel.center().x - s.rect.center().x).abs()
                                    })
                                {
                                    acc.add(
                                        FaultKind::StuckOpen {
                                            owner: *gate,
                                            ordinal: t.ordinal,
                                        },
                                        w,
                                        || {
                                            format!(
                                                "cut:st:{}:{}",
                                                chip.netlist().node_name(*gate),
                                                t.ordinal
                                            )
                                        },
                                    );
                                }
                            } else {
                                acc.add(
                                    FaultKind::Break {
                                        net: *net,
                                        detached: Detached::Sink(*gate),
                                    },
                                    w,
                                    || {
                                        format!(
                                            "cut:pin:{}:{}",
                                            net_label(chip, net),
                                            chip.netlist().node_name(*gate)
                                        )
                                    },
                                );
                            }
                        }
                        ShapeOrigin::Supply => {}
                    }
                }
            }
            Mechanism::OxidePinhole => {
                for s in chip.shapes() {
                    if s.layer != Layer::GateOxide {
                        continue;
                    }
                    let ElecRole::StageDiff { gate, stage, kind } = &s.role else {
                        continue;
                    };
                    // Pinhole anywhere in the channel: gate-to-channel
                    // short -> device stuck on.
                    let w = class.density * s.rect.area() as f64 / 1e6;
                    if let Some(t) = devices
                        .of(*gate)
                        .find(|t| t.stage == *stage && t.kind == *kind && t.channel == s.rect)
                    {
                        acc.add(
                            FaultKind::StuckOn {
                                owner: *gate,
                                ordinal: t.ordinal,
                            },
                            w,
                            || format!("ox:{}:{}", chip.netlist().node_name(*gate), t.ordinal),
                        );
                    }
                }
            }
            Mechanism::ExtraMaterial if class.layer.is_conductor() => {
                // Intra-strip diffusion shorts: extra material across a
                // channel shorts the device's source/drain -> stuck-on.
                if !matches!(class.layer, Layer::Ndiff | Layer::Pdiff) {
                    continue;
                }
                let samples = class.size_samples(config.size_samples)?;
                let want = if class.layer == Layer::Ndiff {
                    TransKind::Nmos
                } else {
                    TransKind::Pmos
                };
                for t in chip.transistors() {
                    if t.kind != want {
                        continue;
                    }
                    let h = t.channel.height().max(t.channel.width());
                    let w = weighted(&samples, |x| {
                        if x <= poly_w {
                            0
                        } else {
                            (x - poly_w) * (x + h)
                        }
                    });
                    acc.add(
                        FaultKind::StuckOn {
                            owner: t.owner,
                            ordinal: t.ordinal,
                        },
                        w,
                        || {
                            format!(
                                "sd:{}:{}:{}",
                                class.layer,
                                chip.netlist().node_name(t.owner),
                                t.ordinal
                            )
                        },
                    );
                }
            }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::OpenLevelModel;
    use dlp_circuit::{generators, switch};
    use dlp_layout::chip::ChipLayout;

    fn c17_faults() -> (dlp_circuit::Netlist, ChipLayout, FaultSet) {
        let nl = generators::c17();
        let chip = ChipLayout::generate(&nl, &Default::default()).unwrap();
        let faults = extract_for_test(&chip, &DefectStatistics::maly_cmos()).unwrap();
        (nl, chip, faults)
    }

    #[test]
    fn extracts_all_fault_families() {
        let (_, _, faults) = c17_faults();
        let mut bridges = 0;
        let mut breaks = 0;
        let mut opens = 0;
        let mut ons = 0;
        for f in faults.faults() {
            match f.kind {
                FaultKind::Bridge { .. } => bridges += 1,
                FaultKind::Break { .. } => breaks += 1,
                FaultKind::StuckOpen { .. } => opens += 1,
                FaultKind::StuckOn { .. } => ons += 1,
            }
        }
        assert!(bridges > 10, "bridges {bridges}");
        assert!(breaks > 10, "breaks {breaks}");
        assert!(opens >= 6, "stuck-opens {opens}");
        assert!(ons >= 12, "stuck-ons {ons}");
    }

    #[test]
    fn weights_are_positive_and_dispersed() {
        let (_, _, faults) = c17_faults();
        let weights = faults.weights();
        assert!(weights.iter().all(|&w| w > 0.0));
        let max = weights.iter().cloned().fold(0.0, f64::max);
        let min = weights.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max / min > 10.0,
            "weight dispersion too small: {min}..{max}"
        );
    }

    #[test]
    fn bridge_weight_dominates_in_maly_line() {
        // c17 is too sparse for meaningful channel adjacency; use a denser
        // block (the effect is stronger still on the c432-class chip).
        let nl = generators::ripple_adder(4);
        let chip = ChipLayout::generate(&nl, &Default::default()).unwrap();
        let faults = extract_for_test(&chip, &DefectStatistics::maly_cmos()).unwrap();
        assert!(
            faults.bridge_weight() > faults.open_weight(),
            "bridge {} vs open {}",
            faults.bridge_weight(),
            faults.open_weight()
        );
        // And the open-heavy ablation line flips it.
        let open_faults = extract_for_test(&chip, &DefectStatistics::open_heavy()).unwrap();
        assert!(open_faults.open_weight() > open_faults.bridge_weight());
    }

    #[test]
    fn all_faults_lower_onto_switch_netlist() {
        let (nl, _, faults) = c17_faults();
        let sw = switch::expand(&nl).unwrap();
        let lowered = faults
            .to_switch_faults(&nl, &sw, &OpenLevelModel::default())
            .unwrap();
        assert_eq!(lowered.len(), faults.len());
    }

    #[test]
    fn no_self_bridges() {
        let (_, _, faults) = c17_faults();
        for f in faults.faults() {
            if let FaultKind::Bridge { a, b: Some(b), .. } = &f.kind {
                assert_ne!(a, b, "self-bridge {}", f.label);
            }
        }
    }

    #[test]
    fn extraction_is_deterministic() {
        let nl = generators::c17();
        let chip = ChipLayout::generate(&nl, &Default::default()).unwrap();
        let a = extract_for_test(&chip, &DefectStatistics::maly_cmos()).unwrap();
        let b = extract_for_test(&chip, &DefectStatistics::maly_cmos()).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.faults().iter().zip(b.faults()) {
            assert_eq!(x.label, y.label);
            assert!((x.weight - y.weight).abs() < 1e-18);
        }
    }

    /// The bridge-candidate search as first written: `HashMap` bins of
    /// identities and a `HashSet` of pairs, sorted at the end. Returns
    /// the pairs and each identity's rectangles.
    #[allow(clippy::type_complexity)]
    fn reference_candidates(
        chip: &ChipLayout,
        layer: Layer,
        grow: Coord,
        bin: Coord,
    ) -> (Vec<(BridgeId, BridgeId)>, HashMap<BridgeId, Vec<Rect>>) {
        let mut regions: HashMap<BridgeId, Vec<Rect>> = HashMap::new();
        for s in chip.shapes() {
            if s.layer != layer {
                continue;
            }
            if let Some(id) = bridge_identity(&s.role) {
                regions.entry(id).or_default().push(s.rect);
            }
        }
        let mut bins: HashMap<(Coord, Coord), Vec<BridgeId>> = HashMap::new();
        for (&id, rects) in &regions {
            for r in rects {
                let grown = r.dilated(grow);
                for bx in grown.x0() / bin..=grown.x1() / bin {
                    for by in grown.y0() / bin..=grown.y1() / bin {
                        let v = bins.entry((bx, by)).or_default();
                        if !v.contains(&id) {
                            v.push(id);
                        }
                    }
                }
            }
        }
        let mut pairs = std::collections::HashSet::new();
        for ids in bins.values() {
            for (i, &a) in ids.iter().enumerate() {
                for &b in &ids[i + 1..] {
                    pairs.insert(if a < b { (a, b) } else { (b, a) });
                }
            }
        }
        let mut pairs: Vec<_> = pairs.into_iter().collect();
        pairs.sort_unstable();
        (pairs, regions)
    }

    /// The binned pair search and the per-identity index keep exactly the
    /// identity pairs and rectangle pairs the reference search keeps, on
    /// seeded random layouts, at the default and at odd bin and defect
    /// sizes.
    #[test]
    fn indexed_search_matches_the_reference_on_seeded_layouts() {
        let (mut pairs, mut kept) = (0usize, 0usize);
        for seed in 0..3 {
            let nl = generators::random_logic(&generators::RandomLogicConfig {
                inputs: 8,
                gates: 30,
                outputs: 4,
                seed,
            })
            .unwrap();
            let chip = ChipLayout::generate(&nl, &Default::default()).unwrap();
            for layer in [Layer::Metal1, Layer::Metal2, Layer::Poly, Layer::Ndiff] {
                let ids = Identities::new(&chip, layer);
                let index = RectIndex::new(&ids);
                for (grow, bin, max_x) in [(24, 64, 22), (5, 17, 3), (40, 9, 41)] {
                    let (want, regions) = reference_candidates(&chip, layer, grow, bin);
                    let got = candidate_pairs(&ids, grow, bin);
                    let named: Vec<_> = got
                        .iter()
                        .map(|&(a, b)| (ids.ids[a as usize], ids.ids[b as usize]))
                        .collect();
                    assert_eq!(named, want, "seed {seed} {layer} bin {bin}");
                    let mut shorts = ShortPairs::default();
                    for &(a, b) in &got {
                        let (a, b) = (a as usize, b as usize);
                        index.short_pairs(&ids, a, b, max_x, &mut shorts);
                        let mut mine = shorts.pairs().to_vec();
                        let reference =
                            ShortPairs::new(&regions[&ids.ids[a]], &regions[&ids.ids[b]], max_x);
                        let mut theirs = reference.pairs().to_vec();
                        mine.sort_unstable();
                        theirs.sort_unstable();
                        assert_eq!(mine, theirs, "seed {seed} {layer} pair {a}-{b}");
                        kept += mine.len();
                    }
                    pairs += got.len();
                }
            }
        }
        assert!(pairs > 1000 && kept > 1000, "{pairs} pairs, {kept} kept");
    }

    #[test]
    fn extraction_is_thread_count_invariant() {
        let nl = generators::c17();
        let chip = ChipLayout::generate(&nl, &Default::default()).unwrap();
        let stats = DefectStatistics::maly_cmos();
        let cfg = ExtractionConfig::default();
        let reference = extract_obs(
            &chip,
            &stats,
            &cfg,
            ThreadCount::fixed(1).unwrap(),
            Recorder::noop(),
        )
        .unwrap();
        for t in [2usize, 4] {
            let got = extract_obs(
                &chip,
                &stats,
                &cfg,
                ThreadCount::fixed(t).unwrap(),
                Recorder::noop(),
            )
            .unwrap();
            assert_eq!(got.len(), reference.len(), "threads={t}");
            for (x, y) in got.faults().iter().zip(reference.faults()) {
                assert_eq!(x.label, y.label, "threads={t}");
                assert_eq!(x.kind, y.kind, "threads={t}");
                assert!(
                    x.weight.to_bits() == y.weight.to_bits(),
                    "threads={t}: weight {} vs {}",
                    x.weight,
                    y.weight
                );
            }
        }
    }
}
