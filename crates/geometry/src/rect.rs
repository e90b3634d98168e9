use crate::{Coord, Point};

/// An axis-aligned rectangle in database units.
///
/// The rectangle is half-open in spirit but stored as inclusive bounds on a
/// continuous plane: it spans `x0..x1` × `y0..y1` with `x0 <= x1` and
/// `y0 <= y1` (enforced by [`Rect::new`]). A rectangle with zero width or
/// height is *degenerate*: it has zero area but can still participate in
/// spacing queries.
///
/// # Example
///
/// ```
/// use dlp_geometry::Rect;
///
/// let wire = Rect::new(0, 0, 100, 4);
/// assert_eq!(wire.width(), 100);
/// assert_eq!(wire.height(), 4);
/// assert_eq!(wire.area(), 400);
/// let fat = wire.dilated(1);
/// assert_eq!(fat, Rect::new(-1, -1, 101, 5));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rect {
    x0: Coord,
    y0: Coord,
    x1: Coord,
    y1: Coord,
}

impl Rect {
    /// Creates a rectangle spanning `min(x0,x1)..max(x0,x1)` ×
    /// `min(y0,y1)..max(y0,y1)`. Corner order does not matter.
    #[inline]
    pub fn new(x0: Coord, y0: Coord, x1: Coord, y1: Coord) -> Self {
        Rect {
            x0: x0.min(x1),
            y0: y0.min(y1),
            x1: x0.max(x1),
            y1: y0.max(y1),
        }
    }

    /// Creates a rectangle from its lower-left corner plus a size.
    ///
    /// # Panics
    ///
    /// Panics if `w < 0` or `h < 0`.
    #[inline]
    pub fn with_size(x: Coord, y: Coord, w: Coord, h: Coord) -> Self {
        assert!(w >= 0 && h >= 0, "rectangle size must be non-negative");
        Rect::new(x, y, x + w, y + h)
    }

    /// Left edge.
    #[inline]
    pub const fn x0(&self) -> Coord {
        self.x0
    }

    /// Bottom edge.
    #[inline]
    pub const fn y0(&self) -> Coord {
        self.y0
    }

    /// Right edge.
    #[inline]
    pub const fn x1(&self) -> Coord {
        self.x1
    }

    /// Top edge.
    #[inline]
    pub const fn y1(&self) -> Coord {
        self.y1
    }

    /// Lower-left corner.
    #[inline]
    pub const fn lower_left(&self) -> Point {
        Point::new(self.x0, self.y0)
    }

    /// Upper-right corner.
    #[inline]
    pub const fn upper_right(&self) -> Point {
        Point::new(self.x1, self.y1)
    }

    /// Horizontal extent.
    #[inline]
    pub const fn width(&self) -> Coord {
        self.x1 - self.x0
    }

    /// Vertical extent.
    #[inline]
    pub const fn height(&self) -> Coord {
        self.y1 - self.y0
    }

    /// The smaller of width and height — the "wire width" of a segment.
    #[inline]
    pub fn short_side(&self) -> Coord {
        self.width().min(self.height())
    }

    /// The larger of width and height — the "wire length" of a segment.
    #[inline]
    pub fn long_side(&self) -> Coord {
        self.width().max(self.height())
    }

    /// Area in square database units.
    #[inline]
    pub const fn area(&self) -> i64 {
        self.width() * self.height()
    }

    /// Centre point, rounded toward the lower-left on odd spans.
    #[inline]
    pub const fn center(&self) -> Point {
        Point::new((self.x0 + self.x1) / 2, (self.y0 + self.y1) / 2)
    }

    /// True if the rectangle has zero area (zero width and/or height).
    #[inline]
    pub const fn is_degenerate(&self) -> bool {
        self.x0 == self.x1 || self.y0 == self.y1
    }

    /// Returns this rectangle translated by `(dx, dy)`.
    #[inline]
    #[must_use]
    pub const fn translated(&self, dx: Coord, dy: Coord) -> Self {
        Rect {
            x0: self.x0 + dx,
            y0: self.y0 + dy,
            x1: self.x1 + dx,
            y1: self.y1 + dy,
        }
    }

    /// Returns this rectangle grown outward by `d` on every side (Minkowski
    /// sum with a `2d × 2d` square). A negative `d` shrinks the rectangle;
    /// shrinking past degeneracy collapses it onto its centre line rather
    /// than inverting.
    #[inline]
    #[must_use]
    pub fn dilated(&self, d: Coord) -> Self {
        let x0 = self.x0 - d;
        let x1 = self.x1 + d;
        let y0 = self.y0 - d;
        let y1 = self.y1 + d;
        if x0 > x1 || y0 > y1 {
            let c = self.center();
            let (x0, x1) = if x0 > x1 { (c.x, c.x) } else { (x0, x1) };
            let (y0, y1) = if y0 > y1 { (c.y, c.y) } else { (y0, y1) };
            Rect { x0, y0, x1, y1 }
        } else {
            Rect { x0, y0, x1, y1 }
        }
    }

    /// True if `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        self.x0 <= p.x && p.x <= self.x1 && self.y0 <= p.y && p.y <= self.y1
    }

    /// True if `other` lies entirely inside or on the boundary of `self`.
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.x0 <= other.x0 && other.x1 <= self.x1 && self.y0 <= other.y0 && other.y1 <= self.y1
    }

    /// True if the two rectangles share any point (boundaries included).
    #[inline]
    pub fn touches(&self, other: &Rect) -> bool {
        self.x0 <= other.x1 && other.x0 <= self.x1 && self.y0 <= other.y1 && other.y0 <= self.y1
    }

    /// True if the two rectangles share interior points (positive-area
    /// overlap).
    #[inline]
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.x0 < other.x1 && other.x0 < self.x1 && self.y0 < other.y1 && other.y0 < self.y1
    }

    /// The overlapping region, if the rectangles share any point.
    ///
    /// Degenerate (zero-area) intersections — shared edges or corners — are
    /// returned as degenerate rectangles.
    #[inline]
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.touches(other) {
            return None;
        }
        Some(Rect {
            x0: self.x0.max(other.x0),
            y0: self.y0.max(other.y0),
            x1: self.x1.min(other.x1),
            y1: self.y1.min(other.y1),
        })
    }

    /// Smallest rectangle containing both inputs.
    #[inline]
    #[must_use]
    pub fn union_bbox(&self, other: &Rect) -> Rect {
        Rect {
            x0: self.x0.min(other.x0),
            y0: self.y0.min(other.y0),
            x1: self.x1.max(other.x1),
            y1: self.y1.max(other.y1),
        }
    }
}

impl core::fmt::Display for Rect {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{},{} .. {},{}]", self.x0, self.y0, self.x1, self.y1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_normalizes_corner_order() {
        let r = Rect::new(10, 20, 0, 5);
        assert_eq!(r, Rect::new(0, 5, 10, 20));
        assert_eq!(r.width(), 10);
        assert_eq!(r.height(), 15);
    }

    #[test]
    fn with_size_matches_new() {
        assert_eq!(Rect::with_size(2, 3, 10, 4), Rect::new(2, 3, 12, 7));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn with_size_rejects_negative() {
        let _ = Rect::with_size(0, 0, -1, 5);
    }

    #[test]
    fn area_and_sides() {
        let r = Rect::new(0, 0, 8, 3);
        assert_eq!(r.area(), 24);
        assert_eq!(r.short_side(), 3);
        assert_eq!(r.long_side(), 8);
        assert!(!r.is_degenerate());
        assert!(Rect::new(0, 0, 0, 5).is_degenerate());
    }

    #[test]
    fn dilation_grows_every_side() {
        let r = Rect::new(0, 0, 4, 4).dilated(3);
        assert_eq!(r, Rect::new(-3, -3, 7, 7));
    }

    #[test]
    fn negative_dilation_collapses_gracefully() {
        let r = Rect::new(0, 0, 4, 10).dilated(-3);
        // Width 4 collapses to the centre line x=2; height shrinks to 4.
        assert_eq!(r, Rect::new(2, 3, 2, 7));
    }

    #[test]
    fn intersection_of_overlapping() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 15, 15);
        assert_eq!(a.intersection(&b), Some(Rect::new(5, 5, 10, 10)));
        assert!(a.overlaps(&b));
    }

    #[test]
    fn intersection_of_abutting_is_degenerate() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(10, 0, 20, 10);
        let i = a.intersection(&b).unwrap();
        assert!(i.is_degenerate());
        assert!(a.touches(&b));
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn intersection_of_disjoint_is_none() {
        let a = Rect::new(0, 0, 1, 1);
        let b = Rect::new(5, 5, 6, 6);
        assert_eq!(a.intersection(&b), None);
    }

    #[test]
    fn contains_rect_and_points() {
        let big = Rect::new(0, 0, 10, 10);
        assert!(big.contains_rect(&Rect::new(2, 2, 8, 8)));
        assert!(big.contains_rect(&big));
        assert!(!big.contains_rect(&Rect::new(2, 2, 11, 8)));
        assert!(big.contains(Point::new(10, 10)));
        assert!(!big.contains(Point::new(10, 11)));
    }

    #[test]
    fn union_bbox_covers_both() {
        let a = Rect::new(0, 0, 1, 1);
        let b = Rect::new(5, -3, 6, 0);
        assert_eq!(a.union_bbox(&b), Rect::new(0, -3, 6, 1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Rect::new(0, 0, 2, 3).to_string(), "[0,0 .. 2,3]");
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;

    /// Deterministic stream of rectangles (xorshift64* driven) replacing
    /// the former proptest strategies so the crate builds offline.
    fn rect_stream(seed: u64, count: usize) -> Vec<Rect> {
        let mut rng = crate::test_rng::TestRng::new(seed);
        (0..count)
            .map(|_| {
                let x = rng.range(-50, 50);
                let y = rng.range(-50, 50);
                let w = rng.range(0, 40);
                let h = rng.range(0, 40);
                Rect::with_size(x, y, w, h)
            })
            .collect()
    }

    /// Intersection is commutative and contained in both operands.
    #[test]
    fn intersection_properties() {
        let rects_a = rect_stream(3, 300);
        let rects_b = rect_stream(4, 300);
        for (a, b) in rects_a.iter().zip(&rects_b) {
            assert_eq!(a.intersection(b), b.intersection(a));
            if let Some(i) = a.intersection(b) {
                assert!(a.contains_rect(&i));
                assert!(b.contains_rect(&i));
                assert!(i.area() <= a.area().min(b.area()));
            }
        }
    }

    /// Dilation distributes over translation.
    #[test]
    fn dilation_commutes_with_translation() {
        let mut rng = crate::test_rng::TestRng::new(5);
        for r in rect_stream(6, 300) {
            let d = rng.range(0, 10);
            let dx = rng.range(-20, 20);
            let dy = rng.range(-20, 20);
            assert_eq!(
                r.translated(dx, dy).dilated(d),
                r.dilated(d).translated(dx, dy)
            );
        }
    }

    /// union_bbox is the smallest rectangle containing both.
    #[test]
    fn union_bbox_is_minimal() {
        let rects_a = rect_stream(7, 300);
        let rects_b = rect_stream(8, 300);
        for (a, b) in rects_a.iter().zip(&rects_b) {
            let u = a.union_bbox(b);
            assert!(u.contains_rect(a));
            assert!(u.contains_rect(b));
            // Shrinking any side loses one operand.
            if u.width() > 0 {
                let shrunk = Rect::new(u.x0() + 1, u.y0(), u.x1(), u.y1());
                assert!(!(shrunk.contains_rect(a) && shrunk.contains_rect(b)));
            }
        }
    }
}
