//! Rectangle-level geometry: the GDS-like layer beneath the window-grid
//! abstraction.
//!
//! Filling *synthesis* (this repository's core) decides per-window fill
//! areas; filling *insertion* (paper §I: "the latter determines the
//! shapes, locations of dummies in these windows") turns those areas into
//! actual rectangles. This module provides the rectangle primitives, the
//! window-statistics extractor that turns drawn geometry into
//! [`crate::WindowPattern`]s, and the slack-region bookkeeping the
//! inserter uses.

/// An axis-aligned rectangle in chip coordinates (µm).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Left edge (µm).
    pub x0: f64,
    /// Bottom edge (µm).
    pub y0: f64,
    /// Right edge (µm).
    pub x1: f64,
    /// Top edge (µm).
    pub y1: f64,
}

impl Rect {
    /// Creates a rectangle from two corners, normalizing the order.
    #[must_use]
    pub fn new(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        Self { x0: x0.min(x1), y0: y0.min(y1), x1: x0.max(x1), y1: y0.max(y1) }
    }

    /// Width (µm).
    #[must_use]
    pub fn width(&self) -> f64 {
        self.x1 - self.x0
    }

    /// Height (µm).
    #[must_use]
    pub fn height(&self) -> f64 {
        self.y1 - self.y0
    }

    /// Area (µm²).
    #[must_use]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Perimeter (µm).
    #[must_use]
    pub fn perimeter(&self) -> f64 {
        2.0 * (self.width() + self.height())
    }

    /// Whether the rectangle is empty (zero area).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.width() <= 0.0 || self.height() <= 0.0
    }

    /// Intersection with another rectangle, if non-empty.
    #[must_use]
    pub fn intersect(&self, other: &Rect) -> Option<Rect> {
        let r = Rect {
            x0: self.x0.max(other.x0),
            y0: self.y0.max(other.y0),
            x1: self.x1.min(other.x1),
            y1: self.y1.min(other.y1),
        };
        if r.is_empty() {
            None
        } else {
            Some(r)
        }
    }

    /// Whether this rectangle overlaps another (positive-area overlap).
    #[must_use]
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.intersect(other).is_some()
    }

    /// The rectangle grown by `margin` on every side (negative shrinks;
    /// may produce an empty rectangle).
    #[must_use]
    pub fn inflate(&self, margin: f64) -> Rect {
        Rect { x0: self.x0 - margin, y0: self.y0 - margin, x1: self.x1 + margin, y1: self.y1 + margin }
    }
}

/// One drawn shape on a layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// The rectangle.
    pub rect: Rect,
    /// Whether this shape is a dummy (inserted fill) rather than signal
    /// wire.
    pub is_dummy: bool,
}

/// Rectangle-level content of one layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerGeometry {
    shapes: Vec<Shape>,
}

impl LayerGeometry {
    /// Creates an empty layer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a shape — what a collecting sink of
    /// [`crate::insertion::realize_fill_into`] does with each one.
    pub fn push(&mut self, shape: Shape) {
        self.shapes.push(shape);
    }

    /// Adds a signal wire rectangle.
    pub fn add_wire(&mut self, rect: Rect) {
        self.push(Shape { rect, is_dummy: false });
    }

    /// Adds a dummy rectangle.
    pub fn add_dummy(&mut self, rect: Rect) {
        self.push(Shape { rect, is_dummy: true });
    }

    /// All shapes.
    #[must_use]
    pub fn shapes(&self) -> &[Shape] {
        &self.shapes
    }

    /// Number of shapes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shapes.len()
    }

    /// Whether the layer has no shapes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shapes.is_empty()
    }

    /// Number of dummy shapes.
    #[must_use]
    pub fn dummy_count(&self) -> usize {
        self.shapes.iter().filter(|s| s.is_dummy).count()
    }

    /// Total drawn area clipped to `clip` (µm²). Overlapping shapes are
    /// counted once only if they do not overlap each other — the
    /// generators and inserter in this crate never draw overlapping
    /// shapes on one layer.
    #[must_use]
    pub fn area_in(&self, clip: &Rect) -> f64 {
        self.shapes.iter().filter_map(|s| s.rect.intersect(clip)).map(|r| r.area()).sum()
    }

    /// Statistics of the geometry clipped to one window: `(area,
    /// perimeter, area-weighted width)` — the quantities behind
    /// [`crate::WindowPattern`].
    ///
    /// Perimeter counts only the clipped part's boundary that lies inside
    /// the window (the simplification used by window-level extraction).
    #[must_use]
    pub fn window_stats(&self, window: &Rect) -> WindowStats {
        let mut area = 0.0;
        let mut perimeter = 0.0;
        let mut width_weighted = 0.0;
        for s in &self.shapes {
            if let Some(r) = s.rect.intersect(window) {
                area += r.area();
                perimeter += r.perimeter();
                width_weighted += r.width().min(r.height()) * r.area();
            }
        }
        WindowStats { area, perimeter, avg_width: if area > 0.0 { width_weighted / area } else { 0.0 } }
    }
}

/// Extracted statistics of one window's geometry.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WindowStats {
    /// Drawn metal area inside the window (µm²).
    pub area: f64,
    /// Drawn perimeter inside the window (µm).
    pub perimeter: f64,
    /// Area-weighted feature width (µm).
    pub avg_width: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_basics() {
        let r = Rect::new(2.0, 1.0, 0.0, 5.0); // corners normalize
        assert_eq!(r.x0, 0.0);
        assert_eq!(r.width(), 2.0);
        assert_eq!(r.height(), 4.0);
        assert_eq!(r.area(), 8.0);
        assert_eq!(r.perimeter(), 12.0);
        assert!(!r.is_empty());
    }

    #[test]
    fn intersection_cases() {
        let a = Rect::new(0.0, 0.0, 4.0, 4.0);
        let b = Rect::new(2.0, 2.0, 6.0, 6.0);
        let i = a.intersect(&b).unwrap();
        assert_eq!(i, Rect::new(2.0, 2.0, 4.0, 4.0));
        let c = Rect::new(5.0, 5.0, 7.0, 7.0);
        assert!(a.intersect(&c).is_none());
        assert!(!a.overlaps(&c));
        // Touching edges do not overlap (zero area).
        let d = Rect::new(4.0, 0.0, 8.0, 4.0);
        assert!(!a.overlaps(&d));
    }

    #[test]
    fn inflate_grows_and_shrinks() {
        let r = Rect::new(1.0, 1.0, 3.0, 3.0);
        assert_eq!(r.inflate(0.5).area(), 9.0);
        assert!(r.inflate(-1.5).is_empty());
    }

    #[test]
    fn layer_area_and_stats() {
        let mut layer = LayerGeometry::new();
        layer.add_wire(Rect::new(0.0, 0.0, 2.0, 10.0)); // 20 µm², w = 2
        layer.add_dummy(Rect::new(5.0, 5.0, 7.0, 7.0)); // 4 µm², w = 2
        assert_eq!(layer.len(), 2);
        assert_eq!(layer.dummy_count(), 1);

        let window = Rect::new(0.0, 0.0, 10.0, 10.0);
        assert_eq!(layer.area_in(&window), 24.0);
        let stats = layer.window_stats(&window);
        assert_eq!(stats.area, 24.0);
        assert_eq!(stats.perimeter, 24.0 + 8.0);
        assert!((stats.avg_width - 2.0).abs() < 1e-12);
    }

    #[test]
    fn clipping_splits_stats_between_windows() {
        let mut layer = LayerGeometry::new();
        layer.add_wire(Rect::new(8.0, 0.0, 12.0, 2.0)); // straddles x = 10
        let left = Rect::new(0.0, 0.0, 10.0, 10.0);
        let right = Rect::new(10.0, 0.0, 20.0, 10.0);
        assert_eq!(layer.area_in(&left), 4.0);
        assert_eq!(layer.area_in(&right), 4.0);
    }
}
