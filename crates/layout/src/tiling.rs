//! Tile/halo decomposition of a full-chip window grid.
//!
//! A [`Tiling`] slices an `N × M` chip into rectangular tiles whose
//! *core* regions exactly partition the chip (every window belongs to
//! exactly one core), and gives each tile an *extended* region — the
//! core expanded by a halo of `halo` windows on every side, clamped at
//! the chip boundary. With `halo >= r`, the pad kernel radius of the CMP
//! simulator, the kernel support of every core window lies inside the
//! extension, so an NN tile job on the extended region sees the same
//! neighbourhood its core has in the chip. Chips smaller than one tile
//! degenerate to a single tile covering the whole chip.

/// A rectangular window region `[row0, row0+rows) × [col0, col0+cols)`
/// in chip coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileRect {
    /// First row of the region.
    pub row0: usize,
    /// First column of the region.
    pub col0: usize,
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

impl TileRect {
    /// One past the last row.
    #[must_use]
    pub fn row_end(&self) -> usize {
        self.row0 + self.rows
    }

    /// One past the last column.
    #[must_use]
    pub fn col_end(&self) -> usize {
        self.col0 + self.cols
    }

    /// Number of windows in the region.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Whether the region is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the chip cell `(r, c)` lies inside the region.
    #[must_use]
    pub fn contains(&self, r: usize, c: usize) -> bool {
        r >= self.row0 && r < self.row_end() && c >= self.col0 && c < self.col_end()
    }

    /// Row-major offset of chip cell `(r, c)` within the region.
    ///
    /// # Panics
    ///
    /// Panics when `(r, c)` is outside the region.
    #[must_use]
    pub fn offset(&self, r: usize, c: usize) -> usize {
        assert!(self.contains(r, c), "cell ({r}, {c}) outside {self:?}");
        (r - self.row0) * self.cols + (c - self.col0)
    }

    /// A stable label for names and logs: `r{row0}c{col0}_{rows}x{cols}`.
    #[must_use]
    pub fn label(&self) -> String {
        format!("r{}c{}_{}x{}", self.row0, self.col0, self.rows, self.cols)
    }
}

/// One tile of a [`Tiling`]: its grid index, owned core region and
/// halo-extended region (both in chip coordinates, core ⊆ ext).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// Tile-grid index `(tile_row, tile_col)`.
    pub index: (usize, usize),
    /// The region this tile owns; cores partition the chip.
    pub core: TileRect,
    /// Core plus a halo of up to `halo` windows per side, clamped to
    /// the chip.
    pub ext: TileRect,
}

impl Tile {
    /// Offset of the core's top-left corner inside the extended region.
    #[must_use]
    pub fn core_in_ext(&self) -> (usize, usize) {
        (self.core.row0 - self.ext.row0, self.core.col0 - self.ext.col0)
    }

    /// Number of halo windows (extended minus core).
    #[must_use]
    pub fn halo_cells(&self) -> usize {
        self.ext.len() - self.core.len()
    }
}

/// A tile/halo decomposition of an `N × M` chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tiling {
    rows: usize,
    cols: usize,
    tile_rows: usize,
    tile_cols: usize,
    halo: usize,
}

impl Tiling {
    /// A tiling with the requested nominal tile shape; edge tiles are
    /// smaller when the chip size is not a multiple of the tile size,
    /// and a tile size larger than the chip degenerates to one tile.
    ///
    /// # Panics
    ///
    /// Panics when the chip or the tile shape has a zero extent.
    #[must_use]
    pub fn new(rows: usize, cols: usize, tile_rows: usize, tile_cols: usize, halo: usize) -> Self {
        assert!(rows > 0 && cols > 0, "chip must be non-empty");
        assert!(tile_rows > 0 && tile_cols > 0, "tile shape must be non-empty");
        Self { rows, cols, tile_rows: tile_rows.min(rows), tile_cols: tile_cols.min(cols), halo }
    }

    /// A tiling with square `tile × tile` tiles.
    ///
    /// # Panics
    ///
    /// Panics when the chip is empty or `tile` is zero.
    #[must_use]
    pub fn square(rows: usize, cols: usize, tile: usize, halo: usize) -> Self {
        Self::new(rows, cols, tile, tile, halo)
    }

    /// Chip rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Chip columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Halo width in windows.
    #[must_use]
    pub fn halo(&self) -> usize {
        self.halo
    }

    /// Tile-grid shape `(tile rows, tile cols)` (ceiling division).
    #[must_use]
    pub fn grid(&self) -> (usize, usize) {
        (self.rows.div_ceil(self.tile_rows), self.cols.div_ceil(self.tile_cols))
    }

    /// Total number of tiles.
    #[must_use]
    pub fn num_tiles(&self) -> usize {
        let (tr, tc) = self.grid();
        tr * tc
    }

    /// The tile at grid index `(ti, tj)`.
    ///
    /// # Panics
    ///
    /// Panics when the index is outside the tile grid.
    #[must_use]
    pub fn tile(&self, ti: usize, tj: usize) -> Tile {
        let (tr, tc) = self.grid();
        assert!(ti < tr && tj < tc, "tile index ({ti}, {tj}) outside {tr}x{tc} grid");
        let row0 = ti * self.tile_rows;
        let col0 = tj * self.tile_cols;
        let core = TileRect {
            row0,
            col0,
            rows: self.tile_rows.min(self.rows - row0),
            cols: self.tile_cols.min(self.cols - col0),
        };
        let ext_row0 = row0.saturating_sub(self.halo);
        let ext_col0 = col0.saturating_sub(self.halo);
        let ext = TileRect {
            row0: ext_row0,
            col0: ext_col0,
            rows: (core.row_end() + self.halo).min(self.rows) - ext_row0,
            cols: (core.col_end() + self.halo).min(self.cols) - ext_col0,
        };
        Tile { index: (ti, tj), core, ext }
    }

    /// Iterates over all tiles in row-major tile-grid order.
    pub fn tiles(&self) -> impl Iterator<Item = Tile> + '_ {
        let (tr, tc) = self.grid();
        (0..tr).flat_map(move |ti| (0..tc).map(move |tj| self.tile(ti, tj)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cores_partition_exactly() {
        let t = Tiling::new(10, 13, 4, 5, 2);
        let mut cover = vec![0usize; 10 * 13];
        for tile in t.tiles() {
            for r in tile.core.row0..tile.core.row_end() {
                for c in tile.core.col0..tile.core.col_end() {
                    cover[r * 13 + c] += 1;
                }
            }
        }
        assert!(cover.iter().all(|&n| n == 1));
    }

    #[test]
    fn ext_clamps_to_chip_and_covers_halo() {
        let t = Tiling::new(8, 8, 4, 4, 3);
        for tile in t.tiles() {
            assert!(tile.ext.row0 <= tile.core.row0);
            assert!(tile.ext.row_end() >= tile.core.row_end());
            assert!(tile.ext.row_end() <= 8 && tile.ext.col_end() <= 8);
            // Each side either reaches the chip edge or has full halo width.
            assert!(tile.ext.row0 == 0 || tile.core.row0 - tile.ext.row0 == 3);
            assert!(tile.ext.row_end() == 8 || tile.ext.row_end() - tile.core.row_end() == 3);
            assert!(tile.ext.col0 == 0 || tile.core.col0 - tile.ext.col0 == 3);
            assert!(tile.ext.col_end() == 8 || tile.ext.col_end() - tile.core.col_end() == 3);
        }
    }

    #[test]
    fn degenerate_chip_is_single_tile() {
        let t = Tiling::new(3, 2, 64, 64, 4);
        assert_eq!(t.grid(), (1, 1));
        let tile = t.tile(0, 0);
        assert_eq!(tile.core, TileRect { row0: 0, col0: 0, rows: 3, cols: 2 });
        assert_eq!(tile.ext, tile.core);
        assert_eq!(tile.halo_cells(), 0);
    }

    #[test]
    fn rect_offsets_are_row_major() {
        let r = TileRect { row0: 2, col0: 3, rows: 2, cols: 4 };
        assert_eq!(r.offset(2, 3), 0);
        assert_eq!(r.offset(2, 6), 3);
        assert_eq!(r.offset(3, 3), 4);
        assert_eq!(r.len(), 8);
        assert_eq!(r.label(), "r2c3_2x4");
    }
}
