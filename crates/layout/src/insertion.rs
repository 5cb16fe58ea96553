//! Filling **insertion**: turning per-window fill *areas* (the output of
//! filling synthesis) into actual dummy rectangles (paper §I: "the latter
//! determines the shapes, locations of dummies in these windows").
//!
//! The inserter places square dummies on a regular grid inside each
//! window, skipping positions that violate spacing rules against existing
//! wires or other dummies, until the synthesized area is realized (or the
//! window runs out of legal positions — reported as shortfall).

use crate::geometry::{Rect, Shape};
use crate::layout::{Layout, WindowId};
use crate::FillPlan;

/// Design rules of dummy insertion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InsertionRules {
    /// Edge length of one square dummy (µm).
    pub edge_um: f64,
    /// Minimum dummy-to-dummy spacing (µm).
    pub spacing_um: f64,
    /// Minimum dummy-to-wire spacing (µm).
    pub wire_margin_um: f64,
}

impl Default for InsertionRules {
    fn default() -> Self {
        Self { edge_um: 2.0, spacing_um: 0.5, wire_margin_um: 0.5 }
    }
}

/// Places square dummies inside `window`, avoiding `blocked` shapes
/// (inflated by the wire margin), until `target_area` µm² is placed or the
/// window is exhausted. Returns the placed rectangles.
///
/// # Panics
///
/// Panics in debug builds when the rules are non-positive.
#[must_use]
pub fn insert_dummies(
    window: &Rect,
    blocked: &[Rect],
    target_area: f64,
    rules: &InsertionRules,
) -> Vec<Rect> {
    let mut placed = Vec::new();
    for_each_dummy(window, blocked, target_area, rules, |d| placed.push(d));
    placed
}

/// The grid scan behind [`insert_dummies`]: hands each placed rectangle to
/// `visit`, in placement order, without keeping it.
fn for_each_dummy(
    window: &Rect,
    blocked: &[Rect],
    target_area: f64,
    rules: &InsertionRules,
    mut visit: impl FnMut(Rect),
) {
    debug_assert!(rules.edge_um > 0.0 && rules.spacing_um >= 0.0 && rules.wire_margin_um >= 0.0);
    if target_area <= 0.0 {
        return;
    }
    let pitch = rules.edge_um + rules.spacing_um;
    let dummy_area = rules.edge_um * rules.edge_um;
    let need = (target_area / dummy_area).round() as usize;
    let cols = ((window.width() - rules.spacing_um) / pitch).floor().max(0.0) as usize;
    let rows = ((window.height() - rules.spacing_um) / pitch).floor().max(0.0) as usize;
    let mut placed = 0;
    let inflated: Vec<Rect> = blocked.iter().map(|b| b.inflate(rules.wire_margin_um)).collect();
    // Per grid column, the inflated blockers whose x-interval overlaps the
    // column's — the only ones a candidate of that column can overlap —
    // stored back to back: column `c` owns `[column_ends[c-1], column_ends[c])`.
    // The first grid row fills them in as it visits each column.
    let mut column_blockers: Vec<Rect> = Vec::new();
    let mut column_ends: Vec<usize> = Vec::with_capacity(cols);
    'grid: for r in 0..rows {
        for c in 0..cols {
            if placed >= need {
                break 'grid;
            }
            let x0 = window.x0 + rules.spacing_um + c as f64 * pitch;
            let y0 = window.y0 + rules.spacing_um + r as f64 * pitch;
            let candidate = Rect::new(x0, y0, x0 + rules.edge_um, y0 + rules.edge_um);
            if r == 0 {
                let strip = Rect {
                    x0: candidate.x0,
                    y0: f64::NEG_INFINITY,
                    x1: candidate.x1,
                    y1: f64::INFINITY,
                };
                column_blockers.extend(inflated.iter().filter(|b| strip.overlaps(b)));
                column_ends.push(column_blockers.len());
            }
            if candidate.x1 > window.x1 || candidate.y1 > window.y1 {
                continue;
            }
            let start = if c == 0 { 0 } else { column_ends[c - 1] };
            if column_blockers[start..column_ends[c]].iter().all(|b| !candidate.overlaps(b)) {
                placed += 1;
                visit(candidate);
            }
        }
    }
}

/// Multi-size insertion: tries the nominal dummy size first, then falls
/// back to progressively smaller dummies (halving the edge, scaling the
/// spacing rules proportionally) for whatever area is still missing — the
/// strategy real fill flows use in congested windows.
///
/// `min_edge_um` bounds the fallback; returns all placed rectangles.
#[must_use]
pub fn insert_dummies_multisize(
    window: &Rect,
    blocked: &[Rect],
    target_area: f64,
    rules: &InsertionRules,
    min_edge_um: f64,
) -> Vec<Rect> {
    let mut placed: Vec<Rect> = Vec::new();
    let mut remaining = target_area;
    let mut edge = rules.edge_um;
    while remaining > 0.0 && edge >= min_edge_um {
        let scale = edge / rules.edge_um;
        let level_rules = InsertionRules {
            edge_um: edge,
            spacing_um: rules.spacing_um * scale,
            wire_margin_um: rules.wire_margin_um * scale,
        };
        // Earlier-placed dummies are obstacles for the next size level.
        let mut obstacles: Vec<Rect> = blocked.to_vec();
        obstacles.extend(placed.iter().copied());
        let level = insert_dummies(window, &obstacles, remaining, &level_rules);
        let got: f64 = level.iter().map(Rect::area).sum();
        placed.extend(level);
        remaining -= got;
        edge *= 0.5;
    }
    placed
}

/// Synthesizes a plausible wire pattern for one window from its extracted
/// parameters: a densely routed band (local density ≈ 0.85) on the left of
/// the window sized to realize the window's average density, leaving an
/// open field on the right — the region window-level *slack* refers to.
#[must_use]
pub fn wires_for_pattern(window: &Rect, density: f64, width: f64) -> Vec<Rect> {
    if density <= 0.0 || width <= 0.0 {
        return Vec::new();
    }
    let density = density.min(0.95);
    let local = density.max(0.85); // in-band density
    let band_width = window.width() * density / local;
    let pitch = width / local;
    let n = (band_width / pitch).floor() as usize;
    (0..n)
        .map(|i| {
            let x0 = window.x0 + i as f64 * pitch;
            Rect::new(x0, window.y0, (x0 + width).min(window.x1), window.y1)
        })
        .collect()
}

/// Per-window insertion outcome.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WindowInsertion {
    /// Requested fill area (µm²).
    pub requested: f64,
    /// Actually placed dummy area (µm²).
    pub placed: f64,
    /// Number of dummy rectangles placed.
    pub count: usize,
}

/// Whole-chip insertion bookkeeping. The rectangles themselves are not
/// kept: [`realize_fill_into`] hands each one to the caller's sink.
#[derive(Debug)]
pub struct InsertionReport {
    /// Per-window outcomes in flat window order.
    pub windows: Vec<WindowInsertion>,
}

impl InsertionReport {
    /// Total placed dummy area (µm²).
    #[must_use]
    pub fn total_placed(&self) -> f64 {
        self.windows.iter().map(|w| w.placed).sum()
    }

    /// Total requested fill area (µm²).
    #[must_use]
    pub fn total_requested(&self) -> f64 {
        self.windows.iter().map(|w| w.requested).sum()
    }

    /// Fraction of the requested area that was realized.
    #[must_use]
    pub fn realization_ratio(&self) -> f64 {
        let req = self.total_requested();
        if req > 0.0 {
            self.total_placed() / req
        } else {
            1.0
        }
    }

    /// Total number of placed dummy shapes.
    #[must_use]
    pub fn dummy_count(&self) -> usize {
        self.windows.iter().map(|w| w.count).sum()
    }
}

/// Realizes a synthesized fill plan as rectangles over the whole layout:
/// wires are synthesized from each window's pattern, then dummies are
/// inserted per the plan under the given rules. Every shape goes to
/// `sink(layer, shape)` — layer by layer, window by window in row-major
/// order, a window's wires before its dummies — and is not kept; the
/// returned report holds the per-window bookkeeping only. A sink that
/// pushes into one [`LayerGeometry`](crate::LayerGeometry) per layer
/// collects the chip's geometry, one that writes streams it out.
///
/// # Panics
///
/// Panics when the plan length disagrees with the layout.
pub fn realize_fill_into(
    layout: &Layout,
    plan: &FillPlan,
    rules: &InsertionRules,
    mut sink: impl FnMut(usize, Shape),
) -> InsertionReport {
    assert_eq!(plan.as_slice().len(), layout.num_windows(), "plan length mismatch");
    let w_um = layout.window_um();
    let mut windows = vec![WindowInsertion::default(); layout.num_windows()];
    for l in 0..layout.num_layers() {
        for row in 0..layout.rows() {
            for col in 0..layout.cols() {
                let id = WindowId { layer: l, row, col };
                let k = layout.flat_index(id);
                let pat = layout.window(id);
                let win_rect = Rect::new(
                    col as f64 * w_um,
                    row as f64 * w_um,
                    (col + 1) as f64 * w_um,
                    (row + 1) as f64 * w_um,
                );
                let wires = wires_for_pattern(&win_rect, pat.density, pat.avg_width);
                for wire in &wires {
                    sink(l, Shape { rect: *wire, is_dummy: false });
                }
                let requested = plan.amount(k).clamp(0.0, pat.slack);
                // From −0.0, rectangle by rectangle: the bits of summing
                // the collected areas, for which a window that places
                // nothing reads −0.0.
                let mut placed = -0.0;
                let mut count = 0;
                for_each_dummy(&win_rect, &wires, requested, rules, |d| {
                    placed += d.area();
                    count += 1;
                    sink(l, Shape { rect: d, is_dummy: true });
                });
                windows[k] = WindowInsertion { requested, placed, count };
            }
        }
    }
    InsertionReport { windows }
}

/// [`realize_fill_into`] with a sink that drops the shapes: the per-window
/// placed areas and counts of the realized fill.
///
/// # Panics
///
/// Panics when the plan length disagrees with the layout.
#[must_use]
pub fn realize_fill(layout: &Layout, plan: &FillPlan, rules: &InsertionRules) -> InsertionReport {
    realize_fill_into(layout, plan, rules, |_, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{DesignKind, DesignSpec};
    use crate::geometry::LayerGeometry;
    use proptest::prelude::*;

    /// The scan `insert_dummies` replaced: every candidate against every
    /// blocker, inflating as it goes.
    fn insert_dummies_reference(
        window: &Rect,
        blocked: &[Rect],
        target_area: f64,
        rules: &InsertionRules,
    ) -> Vec<Rect> {
        if target_area <= 0.0 {
            return Vec::new();
        }
        let pitch = rules.edge_um + rules.spacing_um;
        let need = (target_area / (rules.edge_um * rules.edge_um)).round() as usize;
        let cols = ((window.width() - rules.spacing_um) / pitch).floor().max(0.0) as usize;
        let rows = ((window.height() - rules.spacing_um) / pitch).floor().max(0.0) as usize;
        let mut placed = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if placed.len() >= need {
                    return placed;
                }
                let x0 = window.x0 + rules.spacing_um + c as f64 * pitch;
                let y0 = window.y0 + rules.spacing_um + r as f64 * pitch;
                let candidate = Rect::new(x0, y0, x0 + rules.edge_um, y0 + rules.edge_um);
                if candidate.x1 > window.x1 || candidate.y1 > window.y1 {
                    continue;
                }
                if blocked.iter().all(|b| !candidate.overlaps(&b.inflate(rules.wire_margin_um))) {
                    placed.push(candidate);
                }
            }
        }
        placed
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        // Random windows, rules and blockers (wire-like strips, small
        // blocks, some outside or straddling the window, some degenerate):
        // the same rectangles in the same order as the naive scan.
        // `insert_dummies_multisize` places through `insert_dummies` only.
        #[test]
        fn column_filtered_scan_matches_naive_scan(
            origin in proptest::collection::vec(-50.0f64..50.0, 2),
            size in proptest::collection::vec(0.5f64..60.0, 2),
            rule in proptest::collection::vec(0.0f64..1.0, 3),
            blockers in proptest::collection::vec(-0.2f64..1.2, 4 * 12),
            strips in 0usize..=12,
            target_fraction in 0.0f64..1.5,
        ) {
            let window = Rect::new(origin[0], origin[1], origin[0] + size[0], origin[1] + size[1]);
            let rules = InsertionRules {
                edge_um: 0.25 + 3.0 * rule[0],
                spacing_um: rule[1],
                wire_margin_um: rule[2],
            };
            let blocked: Vec<Rect> = blockers
                .chunks(4)
                .enumerate()
                .map(|(i, q)| {
                    let x = |f: f64| window.x0 + f * window.width();
                    let y = |f: f64| window.y0 + f * window.height();
                    if i < strips {
                        // Full-height strip, as `wires_for_pattern` draws.
                        Rect::new(x(q[0]), window.y0, x(q[0]) + q[1].abs(), window.y1)
                    } else {
                        Rect::new(x(q[0]), y(q[1]), x(q[2]), y(q[3]))
                    }
                })
                .collect();
            let target = target_fraction * window.area();
            let got = insert_dummies(&window, &blocked, target, &rules);
            prop_assert_eq!(got, insert_dummies_reference(&window, &blocked, target, &rules));
        }
    }

    #[test]
    fn places_requested_area_in_empty_window() {
        let window = Rect::new(0.0, 0.0, 100.0, 100.0);
        let rules = InsertionRules::default();
        let placed = insert_dummies(&window, &[], 400.0, &rules);
        let area: f64 = placed.iter().map(Rect::area).sum();
        assert!((area - 400.0).abs() < rules.edge_um * rules.edge_um + 1e-9, "area {area}");
        assert_eq!(placed.len(), 100);
    }

    #[test]
    fn zero_request_places_nothing() {
        let window = Rect::new(0.0, 0.0, 100.0, 100.0);
        assert!(insert_dummies(&window, &[], 0.0, &InsertionRules::default()).is_empty());
    }

    #[test]
    fn dummies_stay_inside_window_and_clear_of_wires() {
        let window = Rect::new(0.0, 0.0, 50.0, 50.0);
        let wires = vec![Rect::new(20.0, 0.0, 25.0, 50.0)];
        let rules = InsertionRules::default();
        let placed = insert_dummies(&window, &wires, 2000.0, &rules);
        assert!(!placed.is_empty());
        for d in &placed {
            assert!(d.x0 >= window.x0 && d.x1 <= window.x1);
            assert!(d.y0 >= window.y0 && d.y1 <= window.y1);
            for w in &wires {
                assert!(!d.overlaps(&w.inflate(rules.wire_margin_um)), "{d:?} too close to {w:?}");
            }
        }
    }

    #[test]
    fn dummies_never_overlap_each_other() {
        let window = Rect::new(0.0, 0.0, 30.0, 30.0);
        let placed = insert_dummies(&window, &[], 1e9, &InsertionRules::default());
        for (i, a) in placed.iter().enumerate() {
            for b in placed.iter().skip(i + 1) {
                assert!(!a.overlaps(b), "{a:?} overlaps {b:?}");
            }
        }
    }

    #[test]
    fn multisize_outplaces_single_size_in_congested_window() {
        // A picket fence of wires with gaps too small for 2 µm dummies but
        // big enough for 1 µm ones.
        let window = Rect::new(0.0, 0.0, 40.0, 40.0);
        let mut wires = Vec::new();
        let mut x = 0.0;
        while x < 40.0 {
            wires.push(Rect::new(x, 0.0, (x + 1.0).min(40.0), 40.0));
            x += 4.0; // 3 µm gaps: 2 µm dummy + 2×0.5 margin does not fit
        }
        let rules = InsertionRules { edge_um: 2.0, spacing_um: 0.5, wire_margin_um: 0.5 };
        let single = insert_dummies(&window, &wires, 200.0, &rules);
        let multi = insert_dummies_multisize(&window, &wires, 200.0, &rules, 0.5);
        let area = |v: &[Rect]| v.iter().map(Rect::area).sum::<f64>();
        assert!(area(&multi) > area(&single), "{} !> {}", area(&multi), area(&single));
        // Placed shapes still respect wires and each other.
        for (i, d) in multi.iter().enumerate() {
            for w in &wires {
                assert!(!d.overlaps(w), "{d:?} on wire");
            }
            for other in multi.iter().skip(i + 1) {
                assert!(!d.overlaps(other));
            }
        }
    }

    #[test]
    fn multisize_equals_single_size_in_open_window() {
        let window = Rect::new(0.0, 0.0, 50.0, 50.0);
        let rules = InsertionRules::default();
        let single = insert_dummies(&window, &[], 500.0, &rules);
        let multi = insert_dummies_multisize(&window, &[], 500.0, &rules, 0.5);
        let area = |v: &[Rect]| v.iter().map(Rect::area).sum::<f64>();
        // Open windows satisfy the request at the first (nominal) level.
        assert!((area(&multi) - area(&single)).abs() <= rules.edge_um * rules.edge_um);
    }

    #[test]
    fn wires_realize_requested_density() {
        let window = Rect::new(0.0, 0.0, 100.0, 100.0);
        for density in [0.1, 0.3, 0.6] {
            let wires = wires_for_pattern(&window, density, 0.2);
            let area: f64 = wires.iter().map(Rect::area).sum();
            let realized = area / window.area();
            assert!((realized - density).abs() < 0.05, "target {density}, got {realized}");
        }
        assert!(wires_for_pattern(&window, 0.0, 0.2).is_empty());
    }

    /// A plan at `fraction` of every window's slack.
    fn slack_plan(layout: &Layout, fraction: f64) -> FillPlan {
        let mut plan = FillPlan::zeros(layout);
        for (x, s) in plan.as_mut_slice().iter_mut().zip(layout.slack_vector()) {
            *x = fraction * s;
        }
        plan
    }

    /// A collecting sink: one [`LayerGeometry`] per layer.
    fn collect(
        layout: &Layout,
        plan: &FillPlan,
        rules: &InsertionRules,
    ) -> (Vec<LayerGeometry>, InsertionReport) {
        let mut layers = vec![LayerGeometry::new(); layout.num_layers()];
        let report = realize_fill_into(layout, plan, rules, |l, shape| layers[l].push(shape));
        (layers, report)
    }

    /// The `realize_fill` the sink replaced: every window's rectangles
    /// collected, `placed` summed from the collection, all of it kept.
    fn realize_fill_reference(
        layout: &Layout,
        plan: &FillPlan,
        rules: &InsertionRules,
    ) -> (Vec<LayerGeometry>, Vec<WindowInsertion>) {
        let w_um = layout.window_um();
        let mut layers = Vec::new();
        let mut windows = vec![WindowInsertion::default(); layout.num_windows()];
        for l in 0..layout.num_layers() {
            let mut geom = LayerGeometry::new();
            for row in 0..layout.rows() {
                for col in 0..layout.cols() {
                    let id = WindowId { layer: l, row, col };
                    let pat = layout.window(id);
                    let win_rect = Rect::new(
                        col as f64 * w_um,
                        row as f64 * w_um,
                        (col + 1) as f64 * w_um,
                        (row + 1) as f64 * w_um,
                    );
                    let wires = wires_for_pattern(&win_rect, pat.density, pat.avg_width);
                    let requested = plan.amount(layout.flat_index(id)).clamp(0.0, pat.slack);
                    let dummies = insert_dummies(&win_rect, &wires, requested, rules);
                    let placed: f64 = dummies.iter().map(Rect::area).sum();
                    windows[layout.flat_index(id)] =
                        WindowInsertion { requested, placed, count: dummies.len() };
                    wires.into_iter().for_each(|w| geom.add_wire(w));
                    dummies.into_iter().for_each(|d| geom.add_dummy(d));
                }
            }
            layers.push(geom);
        }
        (layers, windows)
    }

    #[test]
    fn streamed_fill_matches_the_collected_fill_bit_for_bit() {
        let rules = InsertionRules::default();
        for edge in [8, 32] {
            for layout in crate::benchmark_designs(edge, edge, 5) {
                // Mid-slack, every seventh window left without a request.
                let mut plan = slack_plan(&layout, 0.5);
                plan.as_mut_slice().iter_mut().step_by(7).for_each(|x| *x = 0.0);
                let (want_layers, want_windows) = realize_fill_reference(&layout, &plan, &rules);
                let (layers, streamed) = collect(&layout, &plan, &rules);
                let counted = realize_fill(&layout, &plan, &rules);
                let bits = |w: &[WindowInsertion]| -> Vec<(u64, u64, usize)> {
                    w.iter().map(|w| (w.requested.to_bits(), w.placed.to_bits(), w.count)).collect()
                };
                assert_eq!(bits(&counted.windows), bits(&want_windows), "{} {edge}", layout.name());
                assert_eq!(bits(&streamed.windows), bits(&want_windows), "{} {edge}", layout.name());
                // A window that placed nothing sums to −0.0, not 0.0.
                let empty = want_windows.iter().filter(|w| w.count == 0).collect::<Vec<_>>();
                assert!(!empty.is_empty(), "{} {edge}: no empty window", layout.name());
                assert!(empty.iter().all(|w| w.placed.to_bits() == (-0.0f64).to_bits()));
                // Same shapes in the same order, so the same wire / dummy
                // counts per layer.
                assert_eq!(layers, want_layers, "{} {edge}", layout.name());
                let dummies: usize = layers.iter().map(LayerGeometry::dummy_count).sum();
                assert_eq!(dummies, counted.dummy_count());
            }
        }
    }

    #[test]
    fn realize_fill_matches_plan_approximately() {
        let layout = DesignSpec::new(DesignKind::Fpga, 4, 4, 5).generate();
        let plan = slack_plan(&layout, 0.4);
        let report = realize_fill(&layout, &plan, &InsertionRules::default());
        assert_eq!(report.windows.len(), layout.num_windows());
        // Most of the requested area can actually be placed.
        assert!(
            report.realization_ratio() > 0.6,
            "only {:.2} of requested area placed",
            report.realization_ratio()
        );
        assert!(report.dummy_count() > 0);
        assert!(report.total_placed() <= report.total_requested() + 16.0);
    }

    #[test]
    fn realized_geometry_extraction_is_consistent_with_windows() {
        // Closing the loop: window stats extracted from realized rectangles
        // must approximate the grid-level pattern parameters.
        let layout = DesignSpec::new(DesignKind::CmpTest, 4, 4, 2).generate();
        let plan = FillPlan::zeros(&layout);
        let (layers, _) = collect(&layout, &plan, &InsertionRules::default());
        let w_um = layout.window_um();
        for row in 0..4 {
            for col in 0..4 {
                let id = WindowId { layer: 0, row, col };
                let pat = layout.window(id);
                let rect = Rect::new(
                    col as f64 * w_um,
                    row as f64 * w_um,
                    (col + 1) as f64 * w_um,
                    (row + 1) as f64 * w_um,
                );
                let stats = layers[0].window_stats(&rect);
                let realized_density = stats.area / rect.area();
                assert!(
                    (realized_density - pat.density).abs() < 0.06,
                    "window ({row},{col}): density {} vs {}",
                    realized_density,
                    pat.density
                );
            }
        }
    }
}
