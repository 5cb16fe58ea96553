//! Property-based tests of the tile/halo slicer: exact core coverage,
//! halo-width guarantees, degenerate chips, and crop consistency.

use neurfill_layout::{DesignKind, FullChipSpec, TileRect, Tiling, WindowId};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Every interior cell is covered by exactly one tile core.
    #[test]
    fn cores_cover_every_cell_exactly_once(
        rows in 1usize..40,
        cols in 1usize..40,
        tile_rows in 1usize..12,
        tile_cols in 1usize..12,
        halo in 0usize..6,
    ) {
        let t = Tiling::new(rows, cols, tile_rows, tile_cols, halo);
        let mut cover = vec![0u32; rows * cols];
        for tile in t.tiles() {
            prop_assert!(!tile.core.is_empty());
            for r in tile.core.row0..tile.core.row_end() {
                for c in tile.core.col0..tile.core.col_end() {
                    cover[r * cols + c] += 1;
                }
            }
        }
        prop_assert!(cover.iter().all(|&n| n == 1));
    }

    // Each extended side either spans the full requested halo width or
    // stops exactly at the chip boundary — so `halo >= kernel radius`
    // always gives every core cell its full kernel support, clamped
    // identically to the monolithic boundary handling.
    #[test]
    fn halo_width_is_full_or_chip_clamped(
        rows in 1usize..40,
        cols in 1usize..40,
        tile in 1usize..12,
        halo in 0usize..8,
    ) {
        let t = Tiling::square(rows, cols, tile, halo);
        for tile in t.tiles() {
            prop_assert!(tile.ext.row_end() <= rows && tile.ext.col_end() <= cols);
            prop_assert!(tile.ext.row0 == 0 || tile.core.row0 - tile.ext.row0 == halo);
            prop_assert!(tile.ext.col0 == 0 || tile.core.col0 - tile.ext.col0 == halo);
            prop_assert!(
                tile.ext.row_end() == rows || tile.ext.row_end() - tile.core.row_end() == halo
            );
            prop_assert!(
                tile.ext.col_end() == cols || tile.ext.col_end() - tile.core.col_end() == halo
            );
            prop_assert_eq!(tile.halo_cells(), tile.ext.len() - tile.core.len());
        }
    }

    // Chips no bigger than one tile degenerate to a single tile whose
    // core and extension are both the whole chip.
    #[test]
    fn degenerate_chips_are_single_whole_chip_tiles(
        rows in 1usize..10,
        cols in 1usize..10,
        extra_r in 0usize..50,
        extra_c in 0usize..50,
        halo in 0usize..8,
    ) {
        let t = Tiling::new(rows, cols, rows + extra_r, cols + extra_c, halo);
        prop_assert_eq!(t.num_tiles(), 1);
        let tile = t.tile(0, 0);
        prop_assert_eq!(tile.core, TileRect { row0: 0, col0: 0, rows, cols });
        prop_assert_eq!(tile.ext, tile.core);
    }

    // Cropping a chip layout to a tile's extension, then reading its
    // core windows, agrees with the monolithic chip — what a halo-padded
    // tile job and its core merge rely on.
    #[test]
    fn crop_of_ext_agrees_with_chip_on_core(
        seed in 0u64..50,
        tile in 1usize..7,
        halo in 0usize..4,
    ) {
        let design = FullChipSpec::new(DesignKind::RiscV, 12, 10, seed).build();
        let chip = design.generate();
        let tiling = Tiling::square(12, 10, tile, halo);
        for t in tiling.tiles() {
            let sub = chip.crop(t.ext);
            prop_assert_eq!(sub.rows(), t.ext.rows);
            prop_assert_eq!(sub.cols(), t.ext.cols);
            prop_assert_eq!(&sub, &design.generate_tile(t.ext));
            for layer in 0..chip.num_layers() {
                for r in t.core.row0..t.core.row_end() {
                    for c in t.core.col0..t.core.col_end() {
                        let got = sub.window(WindowId {
                            layer,
                            row: r - t.ext.row0,
                            col: c - t.ext.col0,
                        });
                        let want = chip.window(WindowId { layer, row: r, col: c });
                        prop_assert_eq!(got, want);
                    }
                }
            }
        }
    }
}
