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
use dlp_core::obs::Recorder;
use dlp_core::par::{self, ThreadCount};
use dlp_geometry::{Coord, Layer, Rect};
use dlp_layout::chip::{ChipLayout, ElecNet, ElecRole, ShapeOrigin, TerminalKind};

use crate::critical_area::{missing_cut_area, open_area, weighted, ShortPairs};
use crate::defects::{DefectStatistics, Mechanism};
use crate::faults::{Detached, FaultKind, FaultSet, RealisticFault};
use crate::ExtractError;

/// Extraction tuning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractionConfig {
    /// Defect-size integration samples per class.
    pub size_samples: usize,
    /// Spatial bin size (λ) for bridge-candidate search.
    pub bin: Coord,
}

impl Default for ExtractionConfig {
    fn default() -> Self {
        ExtractionConfig {
            size_samples: 6,
            bin: 64,
        }
    }
}

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

    let mut acc: HashMap<FaultKind, (f64, String)> = HashMap::new();
    let mut add = |kind: FaultKind, weight: f64, label: String| {
        if weight <= 0.0 {
            return;
        }
        let entry = acc.entry(kind).or_insert((0.0, label));
        entry.0 += weight;
    };

    {
        let _s = obs.span("extract.bridges");
        extract_bridges(chip, stats, config, threads.get(), obs, &mut add)?;
    }
    {
        let _s = obs.span("extract.opens");
        extract_opens(chip, stats, config, &mut add)?;
    }
    {
        let _s = obs.span("extract.cuts");
        extract_cut_and_device_defects(chip, stats, config, &mut add)?;
    }

    let mut faults: Vec<RealisticFault> = acc
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

/// Stage-output net of `(gate, stage)` (the last stage is the gate's own
/// signal).
fn stage_net(chip: &ChipLayout, gate: dlp_circuit::NodeId, stage: usize) -> ElecNet {
    let stages = FaultSet::stage_count(chip.netlist(), gate);
    if stage + 1 == stages {
        ElecNet::Signal(gate)
    } else {
        ElecNet::Stage(gate, stage)
    }
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

fn extract_bridges(
    chip: &ChipLayout,
    stats: &DefectStatistics,
    config: &ExtractionConfig,
    workers: usize,
    obs: &Recorder,
    add: &mut dyn FnMut(FaultKind, f64, String),
) -> Result<(), ExtractError> {
    let max_x = stats.max_defect_size();
    for class in stats.classes() {
        if class.mechanism != Mechanism::ExtraMaterial {
            continue;
        }
        let samples = class.size_samples(config.size_samples)?;
        let max_sample = samples.iter().map(|&(x, _)| x).max().unwrap_or(0);
        // Gather shapes of this layer grouped by identity.
        let mut regions: HashMap<BridgeId, Vec<Rect>> = HashMap::new();
        for s in chip.shapes() {
            if s.layer != class.layer {
                continue;
            }
            if let Some(id) = bridge_identity(&s.role) {
                regions.entry(id).or_default().push(s.rect);
            }
        }
        // Spatial bins over identities' rects.
        let mut bins: HashMap<(Coord, Coord), Vec<BridgeId>> = HashMap::new();
        for (&id, rects) in &regions {
            for r in rects {
                let grown = r.dilated(max_x);
                for bx in grown.x0() / config.bin..=grown.x1() / config.bin {
                    for by in grown.y0() / config.bin..=grown.y1() / config.bin {
                        let v = bins.entry((bx, by)).or_default();
                        if !v.contains(&id) {
                            v.push(id);
                        }
                    }
                }
            }
        }
        let mut pairs: std::collections::HashSet<(BridgeId, BridgeId)> =
            std::collections::HashSet::new();
        for ids in bins.values() {
            for (i, &a) in ids.iter().enumerate() {
                for &b in &ids[i + 1..] {
                    let (x, y) = if a < b { (a, b) } else { (b, a) };
                    pairs.insert((x, y));
                }
            }
        }
        // Sorted pair list: the work decomposition and the accumulation
        // order stay a function of the geometry alone, never of hash or
        // thread scheduling.
        let mut pairs: Vec<(BridgeId, BridgeId)> = pairs.into_iter().collect();
        pairs.sort_unstable();
        obs.add("extract.bridge_pairs", pairs.len() as u64);

        // Per-pair critical-area integration — the extraction hot path —
        // is pure, so fanning pairs across workers cannot change weights.
        let pair_fault = |a: BridgeId, b: BridgeId| -> Option<(FaultKind, f64, String)> {
            if matches!((a, b), (BridgeId::Rail(_), BridgeId::Rail(_))) {
                return None;
            }
            let mut shorts = ShortPairs::new(&regions[&a], &regions[&b], max_sample);
            let w = weighted(&samples, |x| shorts.area(x));
            if w <= 0.0 {
                return None;
            }
            let (kind, label) = match (a, b) {
                (BridgeId::Net(x), BridgeId::Net(y)) => (
                    FaultKind::Bridge {
                        a: x,
                        b: Some(y),
                        rail: None,
                    },
                    format!(
                        "br:{}:{}:{}",
                        class.layer,
                        net_label(chip, &x),
                        net_label(chip, &y)
                    ),
                ),
                (BridgeId::Net(x), BridgeId::Rail(v)) | (BridgeId::Rail(v), BridgeId::Net(x)) => (
                    FaultKind::Bridge {
                        a: x,
                        b: None,
                        rail: Some(v),
                    },
                    format!(
                        "br:{}:{}:{}",
                        class.layer,
                        net_label(chip, &x),
                        if v { "vdd" } else { "gnd" }
                    ),
                ),
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
                    // Inter-strip diffusion short: approximate as a bridge
                    // between the stage outputs.
                    let na = stage_net(chip, g1, s1);
                    let nb = stage_net(chip, g2, s2);
                    if na == nb {
                        return None;
                    }
                    (
                        FaultKind::Bridge {
                            a: na,
                            b: Some(nb),
                            rail: None,
                        },
                        format!(
                            "br:{}:{}:{}",
                            class.layer,
                            net_label(chip, &na),
                            net_label(chip, &nb)
                        ),
                    )
                }
                // Diffusion strips never share a layer with nets or rails.
                _ => return None,
            };
            Some((kind, w, label))
        };
        let found = par::map_chunks_counted(workers, &pairs, workers, obs, "extract", |_, chunk| {
            chunk
                .iter()
                .filter_map(|&(a, b)| pair_fault(a, b))
                .collect::<Vec<_>>()
        });
        for (kind, w, label) in found.into_iter().flatten() {
            // Chunk order is deterministic, so the weight distribution's
            // percentiles are thread-count invariant.
            obs.observe("extract.pair_weight", w);
            add(kind, w, label);
        }
    }
    Ok(())
}

fn extract_opens(
    chip: &ChipLayout,
    stats: &DefectStatistics,
    config: &ExtractionConfig,
    add: &mut dyn FnMut(FaultKind, f64, String),
) -> Result<(), ExtractError> {
    let poly_w = chip.tech().poly_width;
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
                    let info = &chip.nets()[*net_index];
                    let detached = match info.terminals[*terminal] {
                        TerminalKind::Driver => Detached::All,
                        TerminalKind::SinkGate(g) => Detached::Sink(g),
                        TerminalKind::OutputPad => {
                            let ElecNet::Signal(n) = net else { continue };
                            let oi = chip
                                .netlist()
                                .outputs()
                                .iter()
                                .position(|o| o == n)
                                .ok_or_else(|| {
                                    ExtractError::MissingOutputNet(
                                        chip.netlist().node_name(*n).to_string(),
                                    )
                                })?;
                            Detached::Observation(oi)
                        }
                    };
                    add(
                        FaultKind::Break {
                            net: *net,
                            detached,
                        },
                        w,
                        format!("op:{}:{}:t{}", class.layer, net_label(chip, net), terminal),
                    );
                }
                // Cell-internal conductor shapes.
                (ElecRole::Net(net), ShapeOrigin::Cell { gate }) => {
                    let w = weighted(&samples, |x| open_area(&s.rect, x));
                    if s.layer == Layer::Poly {
                        // Floating-gate column: drifts off — model as the
                        // column's NMOS stuck open.
                        if let Some(t) = chip.transistors().iter().find(|t| {
                            t.owner == *gate
                                && t.kind == TransKind::Nmos
                                && t.channel.x0() >= s.rect.x0()
                                && t.channel.x1() <= s.rect.x1()
                        }) {
                            add(
                                FaultKind::StuckOpen {
                                    owner: *gate,
                                    ordinal: t.ordinal,
                                },
                                w,
                                format!("op:po:{}:{}", chip.netlist().node_name(*gate), t.ordinal),
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
                        add(
                            FaultKind::Break {
                                net: *net,
                                detached,
                            },
                            w,
                            format!(
                                "op:{}:{}:cell{}",
                                class.layer,
                                net_label(chip, net),
                                chip.netlist().node_name(*gate)
                            ),
                        );
                    }
                }
                // Diffusion strips: split the open weight across devices.
                (ElecRole::StageDiff { gate, stage, kind }, _) => {
                    let w = weighted(&samples, |x| open_area(&s.rect, x));
                    let devices: Vec<_> = chip
                        .transistors()
                        .iter()
                        .filter(|t| t.owner == *gate && t.stage == *stage && t.kind == *kind)
                        .collect();
                    if devices.is_empty() {
                        continue;
                    }
                    let each = w / devices.len() as f64;
                    for t in devices {
                        add(
                            FaultKind::StuckOpen {
                                owner: *gate,
                                ordinal: t.ordinal,
                            },
                            each,
                            format!("op:df:{}:{}", chip.netlist().node_name(*gate), t.ordinal),
                        );
                    }
                }
                _ => {}
            }
        }
    }
    let _ = poly_w;
    Ok(())
}

fn extract_cut_and_device_defects(
    chip: &ChipLayout,
    stats: &DefectStatistics,
    config: &ExtractionConfig,
    add: &mut dyn FnMut(FaultKind, f64, String),
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
                            let info = &chip.nets()[*net_index];
                            let detached = match info.terminals[*terminal] {
                                TerminalKind::Driver => Detached::All,
                                TerminalKind::SinkGate(g) => Detached::Sink(g),
                                TerminalKind::OutputPad => {
                                    let ElecNet::Signal(n) = net else { continue };
                                    let oi = chip
                                        .netlist()
                                        .outputs()
                                        .iter()
                                        .position(|o| o == n)
                                        .ok_or_else(|| {
                                            ExtractError::MissingOutputNet(
                                                chip.netlist().node_name(*n).to_string(),
                                            )
                                        })?;
                                    Detached::Observation(oi)
                                }
                            };
                            add(
                                FaultKind::Break {
                                    net: *net,
                                    detached,
                                },
                                w,
                                format!("cut:{}:t{}", net_label(chip, net), terminal),
                            );
                        }
                        ShapeOrigin::Cell { gate } => {
                            let own = matches!(net, ElecNet::Signal(n) if n == gate)
                                || matches!(net, ElecNet::Stage(g, _) if g == gate);
                            if own {
                                // Strap contact: starves one device row of
                                // the stage — nearest-device stuck-open.
                                let stage = match net {
                                    ElecNet::Stage(_, s) => *s,
                                    ElecNet::Signal(g) => {
                                        FaultSet::stage_count(chip.netlist(), *g) - 1
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
                                if let Some(t) = chip
                                    .transistors()
                                    .iter()
                                    .filter(|t| {
                                        t.owner == *gate && t.stage == stage && t.kind == kind
                                    })
                                    .min_by_key(|t| {
                                        (t.channel.center().x - s.rect.center().x).abs()
                                    })
                                {
                                    add(
                                        FaultKind::StuckOpen {
                                            owner: *gate,
                                            ordinal: t.ordinal,
                                        },
                                        w,
                                        format!(
                                            "cut:st:{}:{}",
                                            chip.netlist().node_name(*gate),
                                            t.ordinal
                                        ),
                                    );
                                }
                            } else {
                                add(
                                    FaultKind::Break {
                                        net: *net,
                                        detached: Detached::Sink(*gate),
                                    },
                                    w,
                                    format!(
                                        "cut:pin:{}:{}",
                                        net_label(chip, net),
                                        chip.netlist().node_name(*gate)
                                    ),
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
                    if let Some(t) = chip.transistors().iter().find(|t| {
                        t.owner == *gate
                            && t.stage == *stage
                            && t.kind == *kind
                            && t.channel == s.rect
                    }) {
                        add(
                            FaultKind::StuckOn {
                                owner: *gate,
                                ordinal: t.ordinal,
                            },
                            w,
                            format!("ox:{}:{}", chip.netlist().node_name(*gate), t.ordinal),
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
                    add(
                        FaultKind::StuckOn {
                            owner: t.owner,
                            ordinal: t.ordinal,
                        },
                        w,
                        format!(
                            "sd:{}:{}:{}",
                            class.layer,
                            chip.netlist().node_name(t.owner),
                            t.ordinal
                        ),
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
