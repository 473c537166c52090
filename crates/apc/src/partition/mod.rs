//! Multi-tile partitioning: splitting one layer across a grid of CAM tiles.
//!
//! [`LayerLayout`] describes how a layer tiles onto *logical* arrays (row
//! groups × channel groups × output tiles); this module decides how those
//! logical pieces map onto a *physical* [`TileGrid`] and what data must move
//! between tiles to stitch the pieces back together. The pipeline has the
//! same three-pass shape as a place-and-route compiler:
//!
//! 1. **Split-point selection** (`split`) — choose output-channel,
//!    output-position and input-channel split points against the
//!    [`CamGeometry`](crate::layout::CamGeometry) capacity. Row and column
//!    splits follow the layout's capacity boundaries exactly; the
//!    input-channel dimension is split only as far as the grid has idle
//!    tiles, so a 1×1 grid always yields the unpartitioned execution.
//! 2. **Placement** (`place`) — assign every sub-layer unit to a grid tile
//!    (deterministic round-robin in unit order, so partial-sum merge groups
//!    occupy consecutive tiles).
//! 3. **Routing** (`route`) — derive the explicit inter-tile
//!    operand-movement schedule: input scatter from the I/O tile, partial-sum
//!    gathers to each merge tile, and the merged-output writeback, each with
//!    its Manhattan hop count on the grid.
//!
//! The result is a [`PartitionPlan`]: the unit list, the movement schedule
//! and a [`PartitionReport`] (tiles used, per-tile utilisation, traffic)
//! that the functional backend folds into its energy/latency accounting.
//! Plans are memoised exactly once per (layer signature, geometry, grid) in
//! [`CompileCache`](crate::CompileCache).
//!
//! # Example
//!
//! ```
//! use apc::layout::{CamGeometry, LayerLayout};
//! use apc::partition::{PartitionCompiler, TileGrid};
//! use tnn::model::vgg9;
//!
//! let model = vgg9(0.85, 1);
//! let fc1 = model
//!     .conv_like_layers()
//!     .into_iter()
//!     .find(|l| l.name == "fc1")
//!     .expect("vgg9 has fc1");
//! let layout = LayerLayout::for_layer(CamGeometry::default(), 4, &fc1, 32).expect("layout");
//! let plan = PartitionCompiler::new(TileGrid::new(4, 4))
//!     .compile(&layout, fc1.cout, fc1.cin)
//!     .expect("plan");
//! // fc1's 256 channel groups spread over the 16 tiles; partial sums travel.
//! assert!(plan.report.tiles_used > 1);
//! assert!(plan.report.traffic_bits > 0);
//! ```

mod place;
mod route;
mod split;
pub mod stage;

pub use route::{LegKind, RouteLeg};
pub use split::SplitPoints;
pub use stage::{plan_stages, StageLayer, StageShape};

use crate::layout::LayerLayout;
use crate::{ApcError, Result};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// A rectangular grid of physical CAM tiles that one layer may be split
/// across. `1×1` (the default) disables partitioning: every unit lands on
/// tile 0 and no inter-tile traffic is scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TileGrid {
    /// Number of tile rows in the grid.
    pub rows: usize,
    /// Number of tile columns in the grid.
    pub cols: usize,
}

impl Default for TileGrid {
    fn default() -> Self {
        TileGrid { rows: 1, cols: 1 }
    }
}

impl TileGrid {
    /// Creates a `rows × cols` grid.
    pub fn new(rows: usize, cols: usize) -> Self {
        TileGrid { rows, cols }
    }

    /// Number of tiles in the grid.
    pub fn tiles(&self) -> usize {
        self.rows * self.cols
    }

    /// Row/column coordinate of tile `tile` (row-major numbering).
    pub fn coord(&self, tile: usize) -> (usize, usize) {
        (tile / self.cols.max(1), tile % self.cols.max(1))
    }

    /// Manhattan hop distance between two tiles on the grid mesh.
    pub fn hops(&self, a: usize, b: usize) -> u64 {
        let (ar, ac) = self.coord(a);
        let (br, bc) = self.coord(b);
        (ar.abs_diff(br) + ac.abs_diff(bc)) as u64
    }

    /// Compact `RxC` label used in scenario names and bench tables.
    pub fn label(&self) -> String {
        format!("{}x{}", self.rows, self.cols)
    }
}

/// One schedulable sub-layer: the (output-channel × output-position ×
/// input-channel) block of the layer that executes on a single array of one
/// grid tile. Units with the same `(col_split, row_split)` compute partial
/// sums of the same outputs over disjoint input-channel ranges and are merged
/// after execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionUnit {
    /// Dense unit id (enumeration order: column split outermost, then row
    /// split, then channel split — so one merge group is consecutive).
    pub index: usize,
    /// Output-tile index (matches [`CompiledSlice::tile`](crate::CompiledSlice)).
    pub col_split: usize,
    /// Row-group index within the layout.
    pub row_split: usize,
    /// Input-channel split index.
    pub channel_split: usize,
    /// Output channels this unit produces.
    pub outputs: Range<usize>,
    /// Output positions (rows of the array) this unit covers.
    pub rows: Range<usize>,
    /// Input channels this unit accumulates.
    pub channels: Range<usize>,
    /// Physical grid tile the unit is placed on (filled by the placement
    /// pass).
    pub tile: usize,
}

/// Per-tile share of one partitioned layer (quality-report row).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TileLoad {
    /// Grid tile id.
    pub tile: usize,
    /// Number of units placed on the tile.
    pub units: usize,
    /// Mean fraction of the tile's CAM rows its units occupy.
    pub row_utilization: f64,
    /// Mean fraction of the tile's CAM columns its units occupy.
    pub col_utilization: f64,
}

/// The partition-quality report of one layer's plan: how many tiles the
/// layer actually spreads over, how well each tile's array is filled, and how
/// much data the movement schedule puts on the inter-tile links.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionReport {
    /// The grid the plan targets.
    pub grid: TileGrid,
    /// Total sub-layer units.
    pub units: usize,
    /// Output-channel split count (layout output tiles).
    pub col_splits: usize,
    /// Output-position split count (layout row groups).
    pub row_splits: usize,
    /// Input-channel split count chosen against the grid's slack.
    pub channel_splits: usize,
    /// Distinct grid tiles with at least one unit.
    pub tiles_used: usize,
    /// Mean per-unit row utilisation (occupied rows / array rows).
    pub row_utilization: f64,
    /// Mean per-unit column utilisation (occupied columns / array columns).
    pub col_utilization: f64,
    /// Bits crossing a tile boundary (hops > 0 legs only), at full operand
    /// widths.
    pub traffic_bits: u64,
    /// Total hop count over all scheduled legs.
    pub traffic_hops: u64,
    /// Σ bits × hops — the quantity interconnect energy scales with.
    pub traffic_bit_hops: u64,
    /// Most units any single tile carries (load-imbalance indicator).
    pub max_tile_units: usize,
    /// Per-tile breakdown, ascending tile id, used tiles only.
    pub per_tile: Vec<TileLoad>,
}

/// A fully partitioned layer: the placed unit list, the inter-tile movement
/// schedule and the quality report.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionPlan {
    /// The grid the plan targets.
    pub grid: TileGrid,
    /// Number of input-channel splits (uniform across merge groups).
    pub channel_splits: usize,
    /// Placed units in enumeration order (channel split fastest-varying).
    pub units: Vec<PartitionUnit>,
    /// Scheduled inter-tile transfers (only legs with `hops > 0`).
    pub legs: Vec<RouteLeg>,
    /// Quality summary of the plan.
    pub report: PartitionReport,
}

impl PartitionPlan {
    /// The units of each partial-sum merge group, in `(col_split, row_split)`
    /// order. Units inside one group are consecutive by construction, so each
    /// group is a contiguous `channel_splits`-sized chunk of
    /// [`units`](Self::units).
    pub fn merge_groups(&self) -> impl Iterator<Item = &[PartitionUnit]> {
        self.units.chunks(self.channel_splits.max(1))
    }
}

/// The three-pass partitioning driver: split-point selection, placement and
/// routing (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionCompiler {
    grid: TileGrid,
}

impl PartitionCompiler {
    /// Creates a compiler targeting `grid`.
    pub fn new(grid: TileGrid) -> Self {
        PartitionCompiler { grid }
    }

    /// The grid this compiler targets.
    pub fn grid(&self) -> TileGrid {
        self.grid
    }

    /// Partitions one laid-out layer with `cout` output and `cin` input
    /// channels across the grid.
    ///
    /// # Errors
    ///
    /// Returns [`ApcError::InvalidArgument`] for a grid with zero tiles.
    pub fn compile(&self, layout: &LayerLayout, cout: usize, cin: usize) -> Result<PartitionPlan> {
        if self.grid.tiles() == 0 {
            return Err(ApcError::InvalidArgument {
                reason: format!(
                    "tile grid {} has no tiles — both dimensions must be at least 1",
                    self.grid.label()
                ),
            });
        }
        let splits = split::select_split_points(layout, cout, cin, self.grid);
        let units = place::place_units(&splits, self.grid);
        let legs = route::schedule_transfers(layout, &units, self.grid);
        let report = Self::assemble_report(layout, &splits, &units, &legs, self.grid);
        Ok(PartitionPlan {
            grid: self.grid,
            channel_splits: splits.channel.len(),
            units,
            legs,
            report,
        })
    }

    fn assemble_report(
        layout: &LayerLayout,
        splits: &SplitPoints,
        units: &[PartitionUnit],
        legs: &[RouteLeg],
        grid: TileGrid,
    ) -> PartitionReport {
        let rows = layout.geometry.rows.max(1) as f64;
        let cols = layout.geometry.cols.max(1) as f64;
        let unit_row_util = |unit: &PartitionUnit| -> f64 { unit.rows.len() as f64 / rows };
        // A unit occupies the fixed prologue columns (patch, carry, chain,
        // temporaries) plus one accumulator column per output channel.
        let unit_col_util = |unit: &PartitionUnit| -> f64 {
            (layout.acc_col_start + unit.outputs.len()) as f64 / cols
        };
        let mut per_tile: Vec<TileLoad> = Vec::new();
        for unit in units {
            match per_tile.iter_mut().find(|t| t.tile == unit.tile) {
                Some(load) => {
                    load.row_utilization += unit_row_util(unit);
                    load.col_utilization += unit_col_util(unit);
                    load.units += 1;
                }
                None => per_tile.push(TileLoad {
                    tile: unit.tile,
                    units: 1,
                    row_utilization: unit_row_util(unit),
                    col_utilization: unit_col_util(unit),
                }),
            }
        }
        per_tile.sort_by_key(|t| t.tile);
        for load in &mut per_tile {
            load.row_utilization /= load.units.max(1) as f64;
            load.col_utilization /= load.units.max(1) as f64;
        }
        let total = units.len().max(1) as f64;
        PartitionReport {
            grid,
            units: units.len(),
            col_splits: splits.col.len(),
            row_splits: splits.row.len(),
            channel_splits: splits.channel.len(),
            tiles_used: per_tile.len(),
            row_utilization: units.iter().map(unit_row_util).sum::<f64>() / total,
            col_utilization: units.iter().map(unit_col_util).sum::<f64>() / total,
            traffic_bits: legs.iter().map(RouteLeg::bits).sum(),
            traffic_hops: legs.iter().map(|l| l.hops).sum(),
            traffic_bit_hops: legs.iter().map(RouteLeg::bit_hops).sum(),
            max_tile_units: per_tile.iter().map(|t| t.units).max().unwrap_or(0),
            per_tile,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::CamGeometry;
    use tnn::model::{resnet18, vgg9};

    fn layout_of(layer: &tnn::model::ConvLayerInfo, act_bits: u8) -> LayerLayout {
        LayerLayout::for_layer(CamGeometry::default(), act_bits, layer, 32).expect("layout")
    }

    #[test]
    fn grid_geometry_helpers() {
        let grid = TileGrid::new(2, 3);
        assert_eq!(grid.tiles(), 6);
        assert_eq!(grid.coord(0), (0, 0));
        assert_eq!(grid.coord(5), (1, 2));
        assert_eq!(grid.hops(0, 5), 3);
        assert_eq!(grid.hops(4, 4), 0);
        assert_eq!(grid.label(), "2x3");
        assert_eq!(TileGrid::default().tiles(), 1);
    }

    #[test]
    fn single_tile_grid_is_the_unpartitioned_execution() {
        let model = vgg9(0.85, 1);
        for layer in model.conv_like_layers() {
            let layout = layout_of(&layer, 4);
            let plan = PartitionCompiler::new(TileGrid::default())
                .compile(&layout, layer.cout, layer.cin)
                .expect("plan");
            // One channel split, every unit on tile 0, no inter-tile traffic.
            assert_eq!(plan.channel_splits, 1);
            assert!(plan.units.iter().all(|u| u.tile == 0));
            assert!(plan.legs.is_empty());
            assert_eq!(plan.report.traffic_bits, 0);
            assert_eq!(plan.report.tiles_used, 1);
            assert_eq!(
                plan.units.len(),
                layout.output_tiles * layout.row_groups,
                "{}",
                layer.name
            );
        }
    }

    #[test]
    fn units_cover_the_layer_disjointly() {
        let model = resnet18(0.8, 1);
        let deep = model
            .conv_like_layers()
            .into_iter()
            .find(|l| l.cout == 512 && l.kernel == (3, 3))
            .expect("deep layer");
        let layout = layout_of(&deep, 4);
        for grid in [
            TileGrid::new(1, 1),
            TileGrid::new(2, 2),
            TileGrid::new(4, 4),
        ] {
            let plan = PartitionCompiler::new(grid)
                .compile(&layout, deep.cout, deep.cin)
                .expect("plan");
            // Every (output, position, channel) cell is covered exactly once.
            let mut covered = 0usize;
            for unit in &plan.units {
                assert!(unit.outputs.end <= deep.cout);
                assert!(unit.rows.end <= layout.output_positions);
                assert!(unit.channels.end <= deep.cin);
                assert!(unit.tile < grid.tiles());
                assert!(unit.rows.len() <= layout.geometry.rows);
                assert!(unit.outputs.len() <= layout.cout_tile);
                // Channel splits start on residency-group boundaries.
                assert_eq!(unit.channels.start % layout.channels_per_group, 0);
                covered += unit.outputs.len() * unit.rows.len() * unit.channels.len();
            }
            assert_eq!(
                covered,
                deep.cout * layout.output_positions * deep.cin,
                "grid {}",
                grid.label()
            );
            // Merge groups are contiguous chunks with constant (col, row).
            for group in plan.merge_groups() {
                assert_eq!(group.len(), plan.channel_splits);
                assert!(group.iter().all(
                    |u| (u.col_split, u.row_split) == (group[0].col_split, group[0].row_split)
                ));
            }
        }
    }

    #[test]
    fn channel_splits_track_grid_slack() {
        let model = vgg9(0.85, 1);
        let fc1 = model
            .conv_like_layers()
            .into_iter()
            .find(|l| l.name == "fc1")
            .expect("fc1");
        let layout = layout_of(&fc1, 4);
        assert_eq!(layout.row_groups, 1);
        // fc1: 4096 inputs → 256 channel groups at 4 bits; the grid's slack
        // bounds how many become parallel splits.
        let small = PartitionCompiler::new(TileGrid::new(2, 2))
            .compile(&layout, fc1.cout, fc1.cin)
            .expect("plan");
        let large = PartitionCompiler::new(TileGrid::new(4, 4))
            .compile(&layout, fc1.cout, fc1.cin)
            .expect("plan");
        assert!(large.channel_splits > small.channel_splits);
        assert!(large.channel_splits <= layout.channel_groups);
        assert!(large.report.tiles_used > small.report.tiles_used);
        // More splits means more partial sums on the links.
        assert!(large.report.traffic_bit_hops > 0);
        // The report's totals agree with the schedule.
        assert_eq!(
            large.report.traffic_bits,
            large.legs.iter().map(RouteLeg::bits).sum::<u64>()
        );
        assert_eq!(
            large.report.units,
            large.report.per_tile.iter().map(|t| t.units).sum::<usize>()
        );
    }

    #[test]
    fn zero_sized_grids_are_rejected() {
        let model = vgg9(0.85, 1);
        let layer = &model.conv_like_layers()[0];
        let layout = layout_of(layer, 4);
        let error = PartitionCompiler::new(TileGrid::new(0, 3))
            .compile(&layout, layer.cout, layer.cin)
            .expect_err("zero rows");
        assert!(error.to_string().contains("no tiles"));
    }
}
