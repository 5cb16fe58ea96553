//! Cross-phase consistency: filling synthesis (window areas) → filling
//! insertion (rectangles) → re-extraction (window stats) must agree, and
//! the realized fill must score close to the synthesized plan.

use neurfill::pkb::plan_for_target_density;
use neurfill::PlanarityMetrics;
use neurfill_cmpsim::{CmpSimulator, ProcessParams};
use neurfill_layout::insertion::{realize_fill, realize_fill_into, InsertionRules};
use neurfill_layout::{
    apply_fill, DesignKind, DesignSpec, DummySpec, FillPlan, LayerGeometry, Rect, WindowId,
};

#[test]
fn realized_geometry_matches_synthesized_densities() {
    let layout = DesignSpec::new(DesignKind::CmpTest, 6, 6, 9).generate();
    let (_, hi) = neurfill::pkb::target_density_range(&layout, 0);
    let td = vec![hi * 0.85; 3];
    let plan = plan_for_target_density(&layout, &td);
    let rules = InsertionRules::default();
    // A collecting sink: layer 0's rectangles are all this test reads.
    let mut layer0 = LayerGeometry::new();
    let report = realize_fill_into(&layout, &plan, &rules, |layer, shape| {
        if layer == 0 {
            layer0.push(shape);
        }
    });
    assert!(report.realization_ratio() > 0.7, "{}", report.realization_ratio());

    // Window stats re-extracted from the rectangles track the filled
    // layout's densities.
    let filled = apply_fill(&layout, &plan, &DummySpec::new(rules.edge_um));
    let w_um = layout.window_um();
    let mut checked = 0;
    for row in 0..layout.rows() {
        for col in 0..layout.cols() {
            let id = WindowId { layer: 0, row, col };
            let rect = Rect::new(
                col as f64 * w_um,
                row as f64 * w_um,
                (col + 1) as f64 * w_um,
                (row + 1) as f64 * w_um,
            );
            let stats = layer0.window_stats(&rect);
            let realized_density = stats.area / rect.area();
            let target_density = filled.window(id).density;
            // Insertion quantization + spacing rules cost a few percent.
            assert!(
                (realized_density - target_density).abs() < 0.12,
                "window ({row},{col}): realized {realized_density:.3} vs synthesized {target_density:.3}"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 36);
}

#[test]
fn realized_fill_scores_close_to_synthesized_plan() {
    let layout = DesignSpec::new(DesignKind::RiscV, 8, 8, 10).generate();
    let sim = CmpSimulator::new(ProcessParams::fast()).unwrap();
    let (_, hi) = neurfill::pkb::target_density_range(&layout, 0);
    let plan = plan_for_target_density(&layout, &[hi * 0.8; 3]);
    let rules = InsertionRules::default();
    let report = realize_fill(&layout, &plan, &rules);

    let mut realized = FillPlan::zeros(&layout);
    for (slot, w) in realized.as_mut_slice().iter_mut().zip(&report.windows) {
        *slot = w.placed;
    }

    let dummy = DummySpec::new(rules.edge_um);
    let m_unfilled = PlanarityMetrics::from_profile(&sim.simulate(&layout));
    let m_plan = PlanarityMetrics::from_profile(&sim.simulate(&apply_fill(&layout, &plan, &dummy)));
    let m_real = PlanarityMetrics::from_profile(&sim.simulate(&apply_fill(&layout, &realized, &dummy)));
    // σ is quadratic in the residual density deviations, so a small
    // insertion shortfall can move it noticeably; the invariant that must
    // survive insertion is the planarity *improvement* over unfilled.
    assert!(
        m_plan.sigma < m_unfilled.sigma && m_real.sigma < m_unfilled.sigma,
        "fill must improve planarity: unfilled {:.0}, plan {:.0}, realized {:.0}",
        m_unfilled.sigma,
        m_plan.sigma,
        m_real.sigma
    );
    assert!(
        m_real.sigma < 0.8 * m_unfilled.sigma,
        "realized fill keeps most of the gain: {:.0} vs unfilled {:.0}",
        m_real.sigma,
        m_unfilled.sigma
    );
}

#[test]
fn insertion_is_deterministic_and_dummy_counted() {
    let layout = DesignSpec::new(DesignKind::Fpga, 5, 5, 11).generate();
    let mut plan = FillPlan::zeros(&layout);
    for (x, s) in plan.as_mut_slice().iter_mut().zip(layout.slack_vector()) {
        *x = 0.6 * s;
    }
    let rules = InsertionRules::default();
    let a = realize_fill(&layout, &plan, &rules);
    let mut geometric = 0;
    let b =
        realize_fill_into(&layout, &plan, &rules, |_, shape| geometric += usize::from(shape.is_dummy));
    assert_eq!(a.total_placed(), b.total_placed());
    assert_eq!(a.dummy_count(), b.dummy_count());
    // Count matches the geometry the sink saw.
    assert_eq!(geometric, a.dummy_count());
}
