//! A chip source that hands back a wrong tile is refused with an error:
//! one naming the layer by the chip simulator and by the whole run, one
//! naming the tile by the fill rule — never a panic inside the polish
//! loop.

use neurfill_chip::{
    model_fill, run_full_chip, ChipFillConfig, ChipRunConfig, ChipSimConfig, ChipSimulator, ChipSource,
};
use neurfill_cmpsim::{CmpSimulator, ProcessParams};
use neurfill_layout::{DesignKind, DesignSpec, Layout, TileRect, Tiling};

/// How a [`BadSource`] damages the tiles it materialises.
#[derive(Clone, Copy)]
enum Damage {
    /// Every tile one row short of its region.
    ShortTile,
    /// Every tile with one layer too few.
    MissingLayer,
    /// One window of layer 1 with a zero feature width.
    ZeroWidth,
    /// One window of layer 2 with a density above 1.
    OverfullWindow,
}

struct BadSource {
    chip: Layout,
    damage: Damage,
}

impl BadSource {
    fn new(damage: Damage) -> Self {
        Self { chip: DesignSpec::new(DesignKind::Fpga, 16, 16, 3).generate(), damage }
    }
}

impl ChipSource for BadSource {
    fn name(&self) -> String {
        "bad".into()
    }
    fn rows(&self) -> usize {
        self.chip.rows()
    }
    fn cols(&self) -> usize {
        self.chip.cols()
    }
    fn num_layers(&self) -> usize {
        self.chip.num_layers()
    }
    fn window_um(&self) -> f64 {
        self.chip.window_um()
    }
    fn tile_layout(&self, rect: TileRect) -> Layout {
        let mut tile = self.chip.crop(rect);
        match self.damage {
            Damage::ShortTile if rect.rows > 1 => {
                tile = tile.crop(TileRect { rows: rect.rows - 1, row0: 0, col0: 0, cols: rect.cols });
            }
            Damage::ShortTile => {}
            Damage::MissingLayer => {
                let layers = (0..tile.num_layers() - 1).map(|l| tile.layer(l).clone()).collect();
                tile = Layout::new("bad", tile.window_um(), layers, 1.0);
            }
            Damage::ZeroWidth => tile.layer_mut(1).get_mut(0, 0).avg_width = 0.0,
            Damage::OverfullWindow => tile.layer_mut(2).get_mut(0, 0).density = 1.5,
        }
        tile
    }
}

#[test]
fn a_bad_tile_is_an_error_naming_its_layer() {
    let cases = [
        (Damage::ShortTile, "layer 0:", "7x8"),
        (Damage::MissingLayer, "layer 0:", "2x8x8"),
        (Damage::ZeroWidth, "layer 1:", "feature width"),
        (Damage::OverfullWindow, "layer 2:", "density"),
    ];
    for (damage, layer, detail) in cases {
        let source = BadSource::new(damage);
        for workers in [1, 2] {
            let sim = ChipSimulator::new(ChipSimConfig::fast(8, workers)).unwrap();
            let err = sim.simulate(&source).expect_err("a bad tile must be refused");
            assert!(err.starts_with(layer) && err.contains(detail), "simulate: {err}");
            let err = run_full_chip(&source, &ChipRunConfig::fast(8, workers))
                .expect_err("a bad tile must fail the run");
            assert!(err.starts_with(layer) && err.contains(detail), "run_full_chip: {err}");
        }
    }
}

#[test]
fn the_fill_rule_refuses_a_tile_of_the_wrong_shape() {
    let params = ProcessParams::fast();
    for damage in [Damage::ShortTile, Damage::MissingLayer] {
        let source = BadSource::new(damage);
        let profile = CmpSimulator::new(params.clone()).unwrap().simulate(&source.chip);
        let tiling = Tiling::square(16, 16, 8, params.kernel_radius);
        let err = model_fill(&source, &profile, &tiling, &params, &ChipFillConfig::default(), 2, None)
            .expect_err("a tile of the wrong shape must be refused");
        assert!(err.starts_with("tile at (0, 0)"), "{err}");
    }
}
