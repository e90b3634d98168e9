//! Critical-area computations (Stapper).
//!
//! The square-defect model is used throughout: a defect of "size" `x` is an
//! `x × x` square of extra or missing material. Then
//!
//! * a **short** between shape sets A and B occurs iff the defect centre
//!   lies in `dilate(A, x/2) ∩ dilate(B, x/2)` — computed exactly with the
//!   scanline union machinery of `dlp-geometry`;
//! * an **open** on a wire rectangle of width `w` and length `l` needs the
//!   defect to sever the full width: centre area `(x − w)·l` for `x > w`
//!   (end effects ignored — a slight underestimate, documented);
//! * a **missing cut** of size `c` requires the defect to cover the whole
//!   cut: centre area `(x − c)²` for `x > c`.

use dlp_geometry::sweep::UnionScratch;
use dlp_geometry::{Coord, Rect};

/// Critical area (λ²) for a short between two fixed shape sets, under
/// the square-defect model, at many defect sizes no larger than `max_x`.
///
/// The caller keeps the rectangle pairs whose dilations overlap at
/// `max_x` (`dilations_overlap`); each size then unions only their
/// intersections. Dilation grows with the defect size, so a pair that
/// overlaps at a smaller size is never dropped, and areas are exact
/// integers: every size gives exactly the overlap area of the two dilated
/// sets. The union of a set of rectangles does not depend on their order
/// or multiplicity, so only the *set* of kept pairs matters. One value is reused across
/// shape-set pairs, so its buffers are allocated once.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShortPairs {
    pairs: Vec<(Rect, Rect)>,
    pieces: Vec<Rect>,
    union: UnionScratch,
}

impl ShortPairs {
    /// Keeps the pairs of `a × b` whose dilations overlap at `max_x`,
    /// testing all `|a|·|b|` of them: the reference for the extractor's
    /// indexed search.
    #[cfg(test)]
    pub(crate) fn new(a: &[Rect], b: &[Rect], max_x: Coord) -> Self {
        let mut pairs = ShortPairs::default();
        for ra in a {
            for rb in b {
                if dilations_overlap(ra, rb, max_x) {
                    pairs.push(*ra, *rb);
                }
            }
        }
        pairs
    }

    /// Forgets every kept pair.
    pub(crate) fn clear(&mut self) {
        self.pairs.clear();
    }

    /// Keeps the pair `(ra, rb)`: `ra` from the first shape set, `rb`
    /// from the second.
    pub(crate) fn push(&mut self, ra: Rect, rb: Rect) {
        self.pairs.push((ra, rb));
    }

    /// The kept pairs, in the order they were pushed.
    #[cfg(test)]
    pub(crate) fn pairs(&self) -> &[(Rect, Rect)] {
        &self.pairs
    }

    /// The short critical area (λ²) at defect size `x ≤ max_x`.
    pub(crate) fn area(&mut self, x: Coord) -> i64 {
        if x <= 0 || self.pairs.is_empty() {
            return 0;
        }
        let (ha, hb) = halves(x);
        self.pieces.clear();
        for (ra, rb) in &self.pairs {
            if let Some(i) = ra.dilated(ha).intersection(&rb.dilated(hb)) {
                if !i.is_degenerate() {
                    self.pieces.push(i);
                }
            }
        }
        self.union.area(&self.pieces)
    }
}

/// True if `a` and `b`, dilated by the two halves of `max_x`, share
/// interior points: the pair can short at some defect size up to
/// `max_x`. For `max_x > 0` this is exactly `a.dilated(max_x).overlaps(b)`
/// (and `b.dilated(max_x).overlaps(a)`): each side of the strict overlap
/// test moves by `ha + hb = max_x`. The extractor's index asks the
/// window form; this one is its test reference.
#[cfg(test)]
pub(crate) fn dilations_overlap(a: &Rect, b: &Rect, max_x: Coord) -> bool {
    if max_x <= 0 {
        return false;
    }
    let (ha, hb) = halves(max_x);
    a.dilated(ha).overlaps(&b.dilated(hb))
}

/// The dilations of the two sides at defect size `x`: halves that sum to
/// `x`, so odd sizes don't lose a λ.
fn halves(x: Coord) -> (Coord, Coord) {
    (x / 2, x - x / 2)
}

/// Critical area (λ²) for an open severing a single wire rectangle at
/// defect size `x`.
pub fn open_area(wire: &Rect, x: Coord) -> i64 {
    let w = wire.short_side();
    let l = wire.long_side();
    if x <= w {
        0
    } else {
        (x - w) * l
    }
}

/// Critical area (λ²) for a missing cut (contact/via) of the given drawn
/// rectangle at defect size `x`.
pub fn missing_cut_area(cut: &Rect, x: Coord) -> i64 {
    let c = cut.long_side();
    if x <= c {
        0
    } else {
        (x - c) * (x - c)
    }
}

/// Weighted critical area: folds a per-size geometry function over the
/// discretised defect size distribution (`(size, density)` pairs from
/// [`DefectClass::size_samples`]), returning the expected defect count per
/// 10⁶ λ² — i.e. the fault weight contribution before global scaling.
///
/// [`DefectClass::size_samples`]: crate::defects::DefectClass::size_samples
pub fn weighted<F: FnMut(Coord) -> i64>(samples: &[(Coord, f64)], mut area_at: F) -> f64 {
    samples
        .iter()
        .map(|&(x, density)| area_at(x) as f64 * density / 1e6)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlp_core::rng::Xorshift64Star;
    use dlp_geometry::sweep::union_area;

    /// Exact area of `union(a) ∩ union(b)`: pairwise-intersect, then
    /// take the union of the pieces.
    fn intersection_area(a: &[Rect], b: &[Rect]) -> i64 {
        let mut pieces = Vec::new();
        for ra in a {
            for rb in b {
                if let Some(i) = ra.intersection(rb) {
                    if !i.is_degenerate() {
                        pieces.push(i);
                    }
                }
            }
        }
        union_area(&pieces)
    }

    /// Critical area for a short at defect size `x`, straight from the
    /// scanline intersection of the two dilated sets: the reference
    /// [`ShortPairs`] is checked against.
    fn short_area(a: &[Rect], b: &[Rect], x: Coord) -> i64 {
        if x <= 0 {
            return 0;
        }
        let (ha, hb) = halves(x);
        let dilate = |rs: &[Rect], d| rs.iter().map(|r| r.dilated(d)).collect::<Vec<_>>();
        intersection_area(&dilate(a, ha), &dilate(b, hb))
    }

    #[test]
    fn intersection_area_disjoint_sets() {
        let a = [Rect::new(0, 0, 1, 1)];
        let b = [Rect::new(5, 5, 6, 6)];
        assert_eq!(intersection_area(&a, &b), 0);
        let a = [Rect::new(0, 0, 10, 10)];
        let b = [Rect::new(5, 5, 15, 15), Rect::new(-5, -5, 2, 2)];
        assert_eq!(intersection_area(&a, &b), 25 + 4);
    }

    #[test]
    fn intersection_area_handles_internal_overlap() {
        // Both pieces of `b` overlap the same region of `a`; the overlap
        // must be counted once.
        let a = [Rect::new(0, 0, 10, 10)];
        let b = [Rect::new(2, 2, 8, 8), Rect::new(4, 4, 12, 12)];
        // union(b) ∩ a = union of (2,2,8,8) and (4,4,10,10): 36 + 36 - 16 = 56
        assert_eq!(intersection_area(&a, &b), 56);
    }

    /// intersection_area is symmetric and bounded by either union.
    #[test]
    fn intersection_area_symmetric() {
        let mut rng = Xorshift64Star::new(13);
        let mut rect_set = || {
            let n = 1 + rng.next_below(7);
            (0..n)
                .map(|_| {
                    let (x, y) = (rng.next_below(30) as Coord, rng.next_below(30) as Coord);
                    let w = 1 + rng.next_below(9) as Coord;
                    let h = 1 + rng.next_below(9) as Coord;
                    Rect::with_size(x, y, w, h)
                })
                .collect::<Vec<_>>()
        };
        for _ in 0..150 {
            let (ra, rb) = (rect_set(), rect_set());
            let iab = intersection_area(&ra, &rb);
            assert_eq!(iab, intersection_area(&rb, &ra));
            assert!(iab <= union_area(&ra));
            assert!(iab <= union_area(&rb));
        }
    }

    fn wire(y0: Coord, y1: Coord) -> Vec<Rect> {
        vec![Rect::new(0, y0, 100, y1)]
    }

    #[test]
    fn short_area_grows_with_defect_size() {
        let a = wire(0, 4);
        let b = wire(10, 14);
        let mut prev = 0;
        for x in [6, 8, 10, 14] {
            let area = short_area(&a, &b, x);
            assert!(area >= prev, "x={x}");
            prev = area;
        }
        assert_eq!(short_area(&a, &b, 0), 0);
    }

    #[test]
    fn short_area_matches_parallel_wire_formula() {
        // Parallel wires, separation s, length l: A(x) ≈ (x − s)(l + x).
        let s = 6;
        let a = wire(0, 4);
        let b = wire(4 + s, 8 + s);
        for x in [8, 10, 12] {
            let expect = (x - s) * (100 + x);
            assert_eq!(short_area(&a, &b, x), expect, "x={x}");
        }
    }

    #[test]
    fn open_area_formula() {
        let w = Rect::new(0, 0, 50, 3);
        assert_eq!(open_area(&w, 3), 0);
        assert_eq!(open_area(&w, 5), 2 * 50);
        // Orientation-independent.
        let v = Rect::new(0, 0, 3, 50);
        assert_eq!(open_area(&v, 5), 2 * 50);
    }

    #[test]
    fn missing_cut_formula() {
        let c = Rect::new(0, 0, 2, 2);
        assert_eq!(missing_cut_area(&c, 2), 0);
        assert_eq!(missing_cut_area(&c, 5), 9);
    }

    #[test]
    fn weighted_folds_distribution() {
        let samples = [(4i64, 2.0), (8, 1.0)];
        // area_at(x) = x: w = (4*2 + 8*1)/1e6.
        let w = weighted(&samples, |x| x);
        assert!((w - 16.0 / 1e6).abs() < 1e-15);
    }

    #[test]
    fn short_area_symmetric() {
        for sep in 1i64..20 {
            for x in 1i64..30 {
                let a = wire(0, 4);
                let b = wire(4 + sep, 8 + sep);
                assert_eq!(
                    short_area(&a, &b, x),
                    short_area(&b, &a, x),
                    "sep={sep} x={x}"
                );
            }
        }
    }

    #[test]
    fn short_pairs_match_short_area_at_every_sample() {
        let mut rng = Xorshift64Star::new(7);
        let mut coord = |bound: usize| rng.next_below(bound) as Coord;
        for _ in 0..400 {
            let region = |coord: &mut dyn FnMut(usize) -> Coord| -> Vec<Rect> {
                let n = 1 + coord(4) as usize;
                (0..n)
                    .map(|_| {
                        let (x, y) = (coord(60), coord(60));
                        // Degenerate rectangles included: they mark pins.
                        Rect::new(x, y, x + coord(25), y + coord(25))
                    })
                    .collect()
            };
            let (a, b) = (region(&mut coord), region(&mut coord));
            let max_x = coord(30);
            let mut pairs = ShortPairs::new(&a, &b, max_x);
            for x in 0..=max_x {
                assert_eq!(pairs.area(x), short_area(&a, &b, x), "{a:?} {b:?} x={x}");
            }
        }
    }

    #[test]
    fn dilations_overlap_is_a_window_test() {
        let mut rng = Xorshift64Star::new(8);
        let mut rect = || {
            let (x, y) = (rng.next_below(60) as Coord, rng.next_below(60) as Coord);
            let (w, h) = (rng.next_below(20) as Coord, rng.next_below(20) as Coord);
            Rect::new(x, y, x + w, y + h)
        };
        for _ in 0..20_000 {
            let (a, b) = (rect(), rect());
            for max_x in 1..30 {
                let want = dilations_overlap(&a, &b, max_x);
                assert_eq!(a.dilated(max_x).overlaps(&b), want, "{a:?} {b:?} {max_x}");
                assert_eq!(b.dilated(max_x).overlaps(&a), want, "{a:?} {b:?} {max_x}");
            }
        }
    }

    #[test]
    fn open_area_monotone() {
        for w in 1i64..6 {
            for l in (1i64..100).step_by(7) {
                let r = Rect::with_size(0, 0, l.max(w), w.min(l));
                let mut prev = 0;
                for x in 1..20 {
                    let area = open_area(&r, x);
                    assert!(area >= prev, "w={w} l={l} x={x}");
                    prev = area;
                }
            }
        }
    }
}
