//! Property-based tests of the layout substrate's invariants.

use neurfill_layout::insertion::{insert_dummies, InsertionRules};
use neurfill_layout::{apply_fill, slack_types, DesignKind, DesignSpec, DummySpec, FillPlan, Rect};
use proptest::prelude::*;

fn any_design() -> impl Strategy<Value = DesignKind> {
    prop_oneof![Just(DesignKind::CmpTest), Just(DesignKind::Fpga), Just(DesignKind::RiscV),]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn generated_designs_are_always_valid(kind in any_design(), seed in 0u64..1000) {
        let layout = DesignSpec::new(kind, 8, 8, seed).generate();
        prop_assert!(layout.is_valid());
        for id in layout.window_ids() {
            let w = layout.window(id);
            prop_assert!((0.0..=1.0).contains(&w.density));
            prop_assert!(w.slack >= 0.0);
        }
    }

    #[test]
    fn apply_fill_preserves_validity_for_any_feasible_plan(
        kind in any_design(),
        seed in 0u64..200,
        fracs in proptest::collection::vec(0.0f64..=1.0, 192),
    ) {
        let layout = DesignSpec::new(kind, 8, 8, seed).generate();
        let slack = layout.slack_vector();
        let mut plan = FillPlan::zeros(&layout);
        for ((x, s), f) in plan.as_mut_slice().iter_mut().zip(&slack).zip(&fracs) {
            *x = f * s;
        }
        prop_assert!(plan.is_feasible(&layout, 1e-9));
        let filled = apply_fill(&layout, &plan, &DummySpec::default());
        prop_assert!(filled.is_valid());
        // Density rises exactly by fill/area.
        let area = layout.window_area();
        for id in layout.window_ids() {
            let expect = layout.window(id).density + plan.amount_at(&layout, id) / area;
            prop_assert!((filled.window(id).density - expect.min(1.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn slack_types_partition_for_any_window(kind in any_design(), seed in 0u64..200) {
        let layout = DesignSpec::new(kind, 6, 6, seed).generate();
        for id in layout.window_ids() {
            let st = slack_types(&layout, id);
            prop_assert!((st.total() - layout.window(id).slack).abs() < 1e-9);
            prop_assert!(st.areas.iter().all(|a| *a >= -1e-12));
        }
    }

    #[test]
    fn fill_by_priority_conserves_amount(
        areas in proptest::collection::vec(0.0f64..100.0, 4),
        request in 0.0f64..500.0,
    ) {
        let st = neurfill_layout::SlackTypes { areas: [areas[0], areas[1], areas[2], areas[3]] };
        let split = st.fill_by_priority(request);
        let placed: f64 = split.iter().sum();
        prop_assert!(placed <= request + 1e-9);
        prop_assert!(placed <= st.total() + 1e-9);
        prop_assert!((placed - request.min(st.total())).abs() < 1e-9);
        // Priority: a later type is used only when all earlier are full.
        for k in 1..4 {
            if split[k] > 0.0 {
                for (sj, aj) in split.iter().zip(&st.areas).take(k) {
                    prop_assert!((sj - aj).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn inserted_dummies_respect_rules(target in 0.0f64..4000.0, wire_x in 10.0f64..80.0) {
        let window = Rect::new(0.0, 0.0, 100.0, 100.0);
        let wires = vec![Rect::new(wire_x, 0.0, wire_x + 5.0, 100.0)];
        let rules = InsertionRules::default();
        let placed = insert_dummies(&window, &wires, target, &rules);
        let area: f64 = placed.iter().map(Rect::area).sum();
        prop_assert!(area <= target + rules.edge_um * rules.edge_um);
        for (i, d) in placed.iter().enumerate() {
            prop_assert!(d.x0 >= window.x0 && d.x1 <= window.x1);
            prop_assert!(!d.overlaps(&wires[0].inflate(rules.wire_margin_um)));
            for other in placed.iter().skip(i + 1) {
                prop_assert!(!d.overlaps(other));
            }
        }
    }

    #[test]
    fn io_roundtrip_for_any_design(kind in any_design(), seed in 0u64..100) {
        let layout = DesignSpec::new(kind, 5, 7, seed).generate();
        let mut buf = Vec::new();
        neurfill_layout::io::write_layout_bits(&layout, &mut buf).unwrap();
        let back = neurfill_layout::io::read_layout_bits(buf.as_slice()).unwrap();
        prop_assert_eq!(layout, back);
    }
}
