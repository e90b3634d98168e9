//! Pinned layout digests: every shape, net, placed transistor and the
//! `unrouted` count of a generated chip, folded into one `KeyHasher` key.
//!
//! The router kernel is an optimisation of a fixed search order, so any
//! change to it must leave these keys untouched. A change that alters a
//! route on purpose re-pins them and says why.

use dlp_circuit::{generators, Netlist};
use dlp_core::ckpt::KeyHasher;
use dlp_geometry::Layer;
use dlp_layout::chip::ChipLayout;

fn layout_digest(netlist: &Netlist) -> u64 {
    chip_digest(&ChipLayout::generate(netlist, &Default::default()).expect("layout"))
}

fn chip_digest(chip: &ChipLayout) -> u64 {
    let mut h = KeyHasher::new();
    h.write_usize(chip.shapes().len());
    for s in chip.shapes() {
        h.write_bytes(format!("{s:?}").as_bytes());
    }
    h.write_usize(chip.nets().len());
    for n in chip.nets() {
        h.write_bytes(format!("{n:?}").as_bytes());
    }
    h.write_usize(chip.transistors().len());
    for t in chip.transistors() {
        h.write_bytes(format!("{t:?}").as_bytes());
    }
    h.write_usize(chip.unrouted());
    h.finish()
}

#[test]
fn small_circuit_layouts_are_pinned() {
    let cases: [(&str, Netlist, u64); 6] = [
        ("c17", generators::c17(), 0xed7d_f77e_b03e_4279),
        ("alu_slice", generators::alu_slice(), 0x35c5_dc16_a920_72ca),
        (
            "parity_tree16",
            generators::parity_tree(16),
            0x44fc_ee1e_e922_7410,
        ),
        ("decoder4", generators::decoder(4), 0x9b98_ef9c_ece9_6cfc),
        ("mux_tree3", generators::mux_tree(3), 0x0c92_b6ed_4b58_c18a),
        (
            "ripple_adder8",
            generators::ripple_adder(8),
            0x4ae9_7d7c_4feb_4a42,
        ),
    ];
    for (name, netlist, want) in &cases {
        let d = layout_digest(netlist);
        assert_eq!(d, *want, "{name} layout digest drifted: now {d:#018x}");
    }
}

/// Every pinned or benchmarked circuit that routes to completion
/// leaves no branch open. c432_class is not listed: at the default
/// channel height its negotiation runs out of rip-up budget with open
/// branches, which its pinned digest records.
#[test]
fn pinned_and_benchmarked_circuits_route_to_completion() {
    let circuits = [
        generators::c17(),
        generators::alu_slice(),
        generators::parity_tree(16),
        generators::decoder(4),
        generators::mux_tree(3),
        generators::ripple_adder(8),
        generators::parity_tree(48),
        generators::ripple_adder(24),
        generators::mux_tree(5),
    ];
    for netlist in &circuits {
        let chip = ChipLayout::generate(netlist, &Default::default()).expect("layout");
        assert_eq!(
            chip.unrouted(),
            0,
            "{} leaves branches open",
            netlist.name()
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow unoptimised; scripts/check.sh runs it in release"
)]
fn c432_class_layout_is_pinned() {
    let chip =
        ChipLayout::generate(&generators::c432_class(), &Default::default()).expect("layout");
    assert!(chip.rows() >= 2);
    let violations = chip.verify_connectivity();
    assert!(
        violations.is_empty(),
        "{} violations, first: {:?}",
        violations.len(),
        violations.first()
    );
    // Conductor area exists on every routed layer.
    for layer in [Layer::Metal1, Layer::Metal2, Layer::Poly] {
        assert!(chip.conductor_area(layer) > 0, "{layer} empty");
    }
    let d = chip_digest(&chip);
    assert_eq!(
        d, 0x8200_7e8f_dc05_674b,
        "c432_class layout digest drifted: now {d:#018x}"
    );
}
