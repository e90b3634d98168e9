//! Scanline algorithms over rectangle sets.
//!
//! The extractor needs *exact* union areas (critical areas of dilated
//! shapes overlap heavily, so summing rectangle areas would overcount).
//! [`union_area`] implements the classic coordinate-compressed sweep:
//! O(n log n) events, O(n) segment accounting per event — plenty for
//! the tens of thousands of rectangles a standard-cell block produces.
//! [`UnionScratch`] runs the same sweep in reused buffers.

use crate::Rect;

/// Exact area of the union of `rects`, ignoring degenerate rectangles.
///
/// Runs a vertical scanline over x-sorted edge events; each distinct
/// y-segment counts the open rectangles covering it, so the covered
/// y-length is kept up to date as counts leave or reach zero.
///
/// # Example
///
/// ```
/// use dlp_geometry::{Rect, sweep::union_area};
///
/// // Two 10x10 squares overlapping in a 5x10 band: 100 + 100 - 50.
/// let area = union_area(&[Rect::new(0, 0, 10, 10), Rect::new(5, 0, 15, 10)]);
/// assert_eq!(area, 150);
/// ```
pub fn union_area(rects: &[Rect]) -> i64 {
    UnionScratch::default().sweep(rects)
}

/// Reusable buffers for repeated union areas: [`UnionScratch::area`]
/// gives exactly [`union_area`]'s value without allocating once its
/// buffers have grown, and answers one or two rectangles in closed form.
///
/// # Example
///
/// ```
/// use dlp_geometry::{Rect, sweep::{union_area, UnionScratch}};
///
/// let mut scratch = UnionScratch::default();
/// let rs = [Rect::new(0, 0, 10, 10), Rect::new(5, 0, 15, 10)];
/// assert_eq!(scratch.area(&rs), union_area(&rs));
/// ```
#[derive(Debug, Clone, Default)]
pub struct UnionScratch {
    /// `(x, opens, y-segment range)` per vertical rectangle edge.
    events: Vec<(i64, bool, u32, u32)>,
    /// The distinct y coordinates, bounding the y-segments.
    ys: Vec<i64>,
    /// How many open rectangles cover each y-segment.
    cover: Vec<u32>,
}

impl UnionScratch {
    /// Exact area of the union of `rects`, ignoring degenerate
    /// rectangles.
    ///
    /// A degenerate rectangle has zero area and meets anything in zero
    /// area, so one rectangle is its own area and two are inclusion–
    /// exclusion; larger sets run the sweep.
    pub fn area(&mut self, rects: &[Rect]) -> i64 {
        match rects {
            [] => 0,
            [a] => a.area(),
            [a, b] => a.area() + b.area() - a.intersection(b).map_or(0, |i| i.area()),
            _ => self.sweep(rects),
        }
    }

    /// The scanline: x-sorted edge events over the distinct y-segments,
    /// each segment counting the open rectangles that cover it, so the
    /// covered y-length changes only where a count leaves or reaches 0.
    fn sweep(&mut self, rects: &[Rect]) -> i64 {
        let UnionScratch { events, ys, cover } = self;
        let solid = || rects.iter().filter(|r| !r.is_degenerate());
        ys.clear();
        ys.extend(solid().flat_map(|r| [r.y0(), r.y1()]));
        if ys.is_empty() {
            return 0;
        }
        ys.sort_unstable();
        ys.dedup();
        let segment = |y: i64| ys.partition_point(|&v| v < y) as u32;
        events.clear();
        for r in solid() {
            let (lo, hi) = (segment(r.y0()), segment(r.y1()));
            events.push((r.x0(), true, lo, hi));
            events.push((r.x1(), false, lo, hi));
        }
        // Events at one x may come in any order: the strip before them is
        // counted first, and the strip they open has zero width until the
        // next x.
        events.sort_unstable_by_key(|e| e.0);
        cover.clear();
        cover.resize(ys.len() - 1, 0);
        let (mut area, mut covered, mut prev_x) = (0i64, 0i64, events[0].0);
        for &(x, opens, lo, hi) in events.iter() {
            area += (x - prev_x) * covered;
            prev_x = x;
            for k in lo as usize..hi as usize {
                let len = ys[k + 1] - ys[k];
                if opens {
                    cover[k] += 1;
                    if cover[k] == 1 {
                        covered += len;
                    }
                } else {
                    cover[k] -= 1;
                    if cover[k] == 0 {
                        covered -= len;
                    }
                }
            }
        }
        area
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(union_area(&[]), 0);
        assert_eq!(union_area(&[Rect::new(0, 0, 0, 10)]), 0);
    }

    #[test]
    fn single_rect() {
        assert_eq!(union_area(&[Rect::new(1, 2, 4, 7)]), 15);
    }

    #[test]
    fn disjoint_rects_sum() {
        let rs = [Rect::new(0, 0, 2, 2), Rect::new(10, 10, 13, 12)];
        assert_eq!(union_area(&rs), 4 + 6);
    }

    #[test]
    fn identical_rects_count_once() {
        let r = Rect::new(0, 0, 5, 5);
        assert_eq!(union_area(&[r, r, r]), 25);
    }

    #[test]
    fn nested_rects_count_outer() {
        let rs = [Rect::new(0, 0, 10, 10), Rect::new(3, 3, 6, 6)];
        assert_eq!(union_area(&rs), 100);
    }

    #[test]
    fn cross_shape() {
        // Horizontal bar 20x4 and vertical bar 4x20 crossing: 80+80-16.
        let rs = [Rect::new(0, 8, 20, 12), Rect::new(8, 0, 12, 20)];
        assert_eq!(union_area(&rs), 144);
    }

    #[test]
    fn abutting_rects_do_not_overlap() {
        let rs = [Rect::new(0, 0, 5, 5), Rect::new(5, 0, 10, 5)];
        assert_eq!(union_area(&rs), 50);
    }

    /// Deterministic random rectangle set from the shared test RNG.
    fn rect_set(rng: &mut crate::test_rng::TestRng, max_n: i64, pos: i64, size: i64) -> Vec<Rect> {
        let n = rng.range(1, max_n);
        (0..n)
            .map(|_| {
                let x = rng.range(0, pos);
                let y = rng.range(0, pos);
                let w = rng.range(1, size);
                let h = rng.range(1, size);
                Rect::with_size(x, y, w, h)
            })
            .collect()
    }

    /// Union area never exceeds the sum of areas and never undercuts
    /// the largest member.
    #[test]
    fn union_area_bounds() {
        let mut rng = crate::test_rng::TestRng::new(11);
        for _ in 0..120 {
            let rs = rect_set(&mut rng, 40, 50, 20);
            let ua = union_area(&rs);
            let sum: i64 = rs.iter().map(Rect::area).sum();
            let max = rs.iter().map(Rect::area).max().unwrap();
            assert!(ua <= sum);
            assert!(ua >= max);
        }
    }

    /// Union area agrees with a brute-force unit-cell rasterization on
    /// small canvases.
    #[test]
    fn union_area_matches_raster() {
        let mut rng = crate::test_rng::TestRng::new(12);
        for _ in 0..200 {
            let rs = rect_set(&mut rng, 10, 12, 6);
            let mut grid = [[false; 20]; 20];
            for r in &rs {
                for gx in r.x0()..r.x1() {
                    for gy in r.y0()..r.y1() {
                        grid[gx as usize][gy as usize] = true;
                    }
                }
            }
            let raster: i64 = grid.iter().flatten().filter(|&&b| b).count() as i64;
            assert_eq!(union_area(&rs), raster);
        }
    }

    /// The closed forms for one and two rectangles, and the reused
    /// sweep buffers, agree with a fresh sweep on degenerate, touching,
    /// nested and duplicate rectangles.
    #[test]
    fn scratch_area_matches_union_area() {
        let mut rng = crate::test_rng::TestRng::new(14);
        let mut scratch = UnionScratch::default();
        let rect = |rng: &mut crate::test_rng::TestRng| {
            let (x, y) = (rng.range(0, 12), rng.range(0, 12));
            // Zero sizes make degenerate rectangles (points and segments).
            Rect::with_size(x, y, rng.range(0, 8), rng.range(0, 8))
        };
        for round in 0..3000 {
            let a = rect(&mut rng);
            let b = match round % 5 {
                0 => a,                                                 // duplicate
                1 => Rect::new(a.x1(), a.y0(), a.x1() + 3, a.y1()),     // touching edge
                2 => Rect::new(a.x1(), a.y1(), a.x1() + 2, a.y1() + 2), // touching corner
                3 => {
                    // nested, possibly degenerate
                    let (dx, dy) = (rng.range(0, 3), rng.range(0, 3));
                    Rect::new(
                        (a.x0() + dx).min(a.x1()),
                        (a.y0() + dy).min(a.y1()),
                        (a.x1() - dx).max(a.x0()),
                        (a.y1() - dy).max(a.y0()),
                    )
                }
                _ => rect(&mut rng),
            };
            for rs in [
                vec![a],
                vec![a, b],
                vec![b, a],
                vec![a, b, rect(&mut rng), b],
            ] {
                assert_eq!(scratch.area(&rs), union_area(&rs), "{rs:?}");
            }
        }
    }
}
