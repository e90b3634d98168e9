use crate::Coord;

/// A point in the layout plane, in database units.
///
/// `Point` is a plain value type: cheap to copy, ordered lexicographically
/// (`x` first, then `y`) so collections of points sort deterministically.
///
/// # Example
///
/// ```
/// use dlp_geometry::Point;
///
/// let a = Point::new(3, 4);
/// let b = a.translated(1, -2);
/// assert_eq!(b, Point::new(4, 2));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Point {
    /// Horizontal coordinate in database units.
    pub x: Coord,
    /// Vertical coordinate in database units.
    pub y: Coord,
}

impl Point {
    /// The origin, `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0, y: 0 };

    /// Creates a point at `(x, y)`.
    #[inline]
    pub const fn new(x: Coord, y: Coord) -> Self {
        Point { x, y }
    }

    /// Returns this point moved by `(dx, dy)`.
    #[inline]
    #[must_use]
    pub const fn translated(self, dx: Coord, dy: Coord) -> Self {
        Point::new(self.x + dx, self.y + dy)
    }
}

impl From<(Coord, Coord)> for Point {
    fn from((x, y): (Coord, Coord)) -> Self {
        Point::new(x, y)
    }
}

impl core::fmt::Display for Point {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_is_zero() {
        assert_eq!(Point::ORIGIN, Point::new(0, 0));
        assert_eq!(Point::default(), Point::ORIGIN);
    }

    #[test]
    fn translation_composes() {
        let p = Point::new(5, -7).translated(2, 3).translated(-2, -3);
        assert_eq!(p, Point::new(5, -7));
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(Point::new(0, 100) < Point::new(1, -100));
        assert!(Point::new(1, 1) < Point::new(1, 2));
    }

    #[test]
    fn from_tuple() {
        let p: Point = (3, 4).into();
        assert_eq!(p, Point::new(3, 4));
    }

    #[test]
    fn display_formats_as_pair() {
        assert_eq!(Point::new(-1, 2).to_string(), "(-1, 2)");
    }
}
