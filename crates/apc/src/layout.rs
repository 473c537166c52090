//! CAM layout and tiling of one layer onto the RTM-AP fabric (§III, §IV-B).
//!
//! The input mapping follows Fig. 2 of the paper: the `Fh·Fw` patch offsets become
//! CAM columns, the `Hout·Wout` output positions become CAM rows, and the `Cin`
//! input channels are stored contiguously along the racetrack domains of the input
//! cells. Because an array has a finite number of rows, columns and domains, a layer
//! is tiled into:
//!
//! * **row groups** — output positions beyond the array height go to additional APs,
//! * **channel groups** — input channels beyond the domain capacity of one cell go to
//!   additional APs (their partial sums are merged in the accumulation phase),
//! * **output tiles** — output channels beyond the column budget are processed
//!   sequentially, reusing the accumulator columns.

use crate::bitwidth::{accumulator_width, MAX_WIDTH};
use crate::{ApcError, Result};
use serde::{Deserialize, Serialize};
use tnn::model::ConvLayerInfo;

/// Geometry of one CAM array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CamGeometry {
    /// Number of rows (SIMD lanes).
    pub rows: usize,
    /// Number of columns (operand slots).
    pub cols: usize,
    /// Number of racetrack domains per cell.
    pub domains: usize,
}

impl Default for CamGeometry {
    fn default() -> Self {
        // The 256×256 array with 64-domain nanowires used in the paper's evaluation.
        CamGeometry {
            rows: 256,
            cols: 256,
            domains: 64,
        }
    }
}

impl CamGeometry {
    /// Creates the default 256×256×64 geometry.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The complete placement of one layer onto the CAM fabric.
///
/// # Example
///
/// ```
/// use apc::layout::{CamGeometry, LayerLayout};
/// use tnn::model::resnet18;
///
/// let model = resnet18(0.8, 1);
/// let stem = &model.conv_like_layers()[0];
/// let layout = LayerLayout::for_layer(CamGeometry::default(), 4, stem, 32).expect("layout");
/// // The 112x112 output of the stem needs 49 row groups of 256 rows — the paper's
/// // "#Arrays" figure for ResNet-18.
/// assert_eq!(layout.row_groups, 49);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerLayout {
    /// Array geometry the layout targets.
    pub geometry: CamGeometry,
    /// Activation precision in bits.
    pub act_bits: u8,
    /// Width of the per-AP partial-sum accumulators.
    pub acc_bits: u8,
    /// Width of the fully accumulated output (across all channel groups).
    pub final_acc_bits: u8,
    /// Patch size (`Fh·Fw`) — number of input columns.
    pub patch_size: usize,
    /// Column index of the carry/borrow bit.
    pub carry_col: usize,
    /// Column index of the per-output chain accumulator.
    pub chain_col: usize,
    /// First column of the CSE-temporary region.
    pub temp_col_start: usize,
    /// Number of columns reserved for CSE temporaries.
    pub temp_budget: usize,
    /// First column of the output-accumulator region.
    pub acc_col_start: usize,
    /// Number of output channels processed per tile (accumulator columns).
    pub cout_tile: usize,
    /// Number of sequential output tiles.
    pub output_tiles: usize,
    /// Input channels resident in one AP (stored along the domains of one cell).
    pub channels_per_group: usize,
    /// Number of parallel channel groups (APs along the input-channel dimension).
    pub channel_groups: usize,
    /// Number of parallel row groups (APs along the output-position dimension).
    pub row_groups: usize,
    /// Number of output positions (`Hout·Wout`).
    pub output_positions: usize,
}

impl LayerLayout {
    /// Computes the layout of `layer` on arrays of the given geometry.
    ///
    /// `temp_budget` is the number of columns reserved for CSE temporaries; slices
    /// whose temporaries exceed the budget fall back to the un-CSE'd form during
    /// compilation.
    ///
    /// # Errors
    ///
    /// Returns [`ApcError::DoesNotFit`] when even a single output channel cannot be
    /// placed (the patch alone exhausts the columns, or one activation does not fit
    /// in the cell domains), and [`ApcError::InvalidArgument`] for a zero activation
    /// width.
    pub fn for_layer(
        geometry: CamGeometry,
        act_bits: u8,
        layer: &ConvLayerInfo,
        temp_budget: usize,
    ) -> Result<Self> {
        if act_bits == 0 || act_bits as usize > geometry.domains {
            return Err(ApcError::InvalidArgument {
                reason: format!(
                    "activation width {act_bits} must be between 1 and the cell depth {}",
                    geometry.domains
                ),
            });
        }
        let patch_size = layer.kernel.0 * layer.kernel.1;
        let acc_bits_needed =
            accumulator_width(act_bits, patch_size * layer.cin.max(1)).min(MAX_WIDTH);
        // Fixed column roles: patch inputs, carry, chain, temporaries, accumulators.
        let overhead = patch_size + 2 + temp_budget;
        if overhead + 1 > geometry.cols {
            return Err(ApcError::DoesNotFit {
                reason: format!(
                    "layer '{}' needs {} columns for inputs and temporaries but the array has {}",
                    layer.name,
                    overhead + 1,
                    geometry.cols
                ),
            });
        }
        if acc_bits_needed as usize > geometry.domains {
            return Err(ApcError::DoesNotFit {
                reason: format!(
                    "accumulator width {acc_bits_needed} exceeds the cell depth {}",
                    geometry.domains
                ),
            });
        }
        let cout_tile = (geometry.cols - overhead).min(layer.cout.max(1));
        let output_tiles = layer.cout.max(1).div_ceil(cout_tile);
        let channels_per_group = (geometry.domains / act_bits as usize)
            .max(1)
            .min(layer.cin.max(1));
        let channel_groups = layer.cin.max(1).div_ceil(channels_per_group);
        let output_positions = layer.output_positions().max(1);
        let row_groups = output_positions.div_ceil(geometry.rows);
        let acc_bits = accumulator_width(act_bits, patch_size * channels_per_group);
        Ok(LayerLayout {
            geometry,
            act_bits,
            acc_bits,
            final_acc_bits: acc_bits_needed,
            patch_size,
            carry_col: patch_size,
            chain_col: patch_size + 1,
            temp_col_start: patch_size + 2,
            temp_budget,
            acc_col_start: patch_size + 2 + temp_budget,
            cout_tile,
            output_tiles,
            channels_per_group,
            channel_groups,
            row_groups,
            output_positions,
        })
    }

    /// Total number of APs (arrays) working on this layer in parallel.
    pub fn parallel_aps(&self) -> usize {
        self.row_groups * self.channel_groups
    }

    /// Number of leading columns the layer's programs address: the patch
    /// inputs, carry, chain, temporaries and one output tile of accumulators
    /// (`acc_col_start + cout_tile`). Every operand column of a slice program
    /// and of its tile prologue lies below it; the rest of the geometry's
    /// columns are never touched.
    pub fn columns_used(&self) -> usize {
        self.acc_col_start + self.cout_tile
    }

    /// Domain offset of the activation bits of resident channel `index` inside the
    /// input cells.
    pub fn channel_domain_base(&self, index: usize) -> usize {
        index * self.act_bits as usize
    }

    /// The output-channel range covered by tile `tile`.
    pub fn tile_range(&self, tile: usize, cout: usize) -> std::ops::Range<usize> {
        let start = tile * self.cout_tile;
        start.min(cout)..((tile + 1) * self.cout_tile).min(cout)
    }

    /// Rows of the array that are actually used (the last row group may be partial).
    pub fn rows_in_group(&self, group: usize) -> usize {
        let start = group * self.geometry.rows;
        self.output_positions
            .saturating_sub(start)
            .min(self.geometry.rows)
    }

    /// Average CAM-row utilisation across the row groups (1.0 when `Hout·Wout` is a
    /// multiple of the array height). Deep layers with small feature maps lose
    /// utilisation, which is the effect Fig. 4 shows for ResNet-18 layers 16–20.
    pub fn row_utilization(&self) -> f64 {
        self.output_positions as f64 / (self.row_groups * self.geometry.rows) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnn::model::{resnet18, vgg9};

    #[test]
    fn default_geometry_matches_paper() {
        let geometry = CamGeometry::default();
        assert_eq!(
            (geometry.rows, geometry.cols, geometry.domains),
            (256, 256, 64)
        );
    }

    #[test]
    fn resnet_stem_needs_49_arrays_and_vgg_needs_4() {
        let resnet = resnet18(0.8, 1);
        let stem = &resnet.conv_like_layers()[0];
        let layout = LayerLayout::for_layer(CamGeometry::default(), 4, stem, 32).expect("layout");
        assert_eq!(layout.row_groups, 49);

        let vgg = vgg9(0.85, 1);
        let first = &vgg.conv_like_layers()[0];
        let layout = LayerLayout::for_layer(CamGeometry::default(), 4, first, 32).expect("layout");
        assert_eq!(layout.row_groups, 4);
    }

    #[test]
    fn channel_capacity_follows_activation_precision() {
        let vgg = vgg9(0.85, 1);
        let layer = &vgg.conv_like_layers()[2]; // 128-channel layer
        let l4 = LayerLayout::for_layer(CamGeometry::default(), 4, layer, 32).expect("layout");
        let l8 = LayerLayout::for_layer(CamGeometry::default(), 8, layer, 32).expect("layout");
        assert_eq!(l4.channels_per_group, 16);
        assert_eq!(l8.channels_per_group, 8);
        assert!(l8.channel_groups >= l4.channel_groups);
    }

    #[test]
    fn wide_layers_are_tiled_over_outputs() {
        let resnet = resnet18(0.8, 1);
        let deep = resnet
            .conv_like_layers()
            .into_iter()
            .find(|l| l.cout == 512 && l.kernel == (3, 3))
            .expect("resnet has 512-channel 3x3 layers");
        let layout = LayerLayout::for_layer(CamGeometry::default(), 4, &deep, 32).expect("layout");
        assert!(layout.output_tiles >= 2);
        assert_eq!(layout.tile_range(0, deep.cout).len(), layout.cout_tile);
        let last = layout.tile_range(layout.output_tiles - 1, deep.cout);
        assert!(!last.is_empty() && last.end == deep.cout);
    }

    #[test]
    fn row_utilization_degrades_for_deep_layers() {
        let resnet = resnet18(0.8, 1);
        let layers = resnet.conv_like_layers();
        let stem =
            LayerLayout::for_layer(CamGeometry::default(), 4, &layers[0], 32).expect("layout");
        let deep = layers
            .iter()
            .find(|l| l.output_hw == (7, 7))
            .expect("7x7 layer");
        let deep_layout =
            LayerLayout::for_layer(CamGeometry::default(), 4, deep, 32).expect("layout");
        assert!(deep_layout.row_utilization() < stem.row_utilization());
        assert!(deep_layout.row_utilization() < 0.5);
        assert_eq!(deep_layout.rows_in_group(0), 49);
    }

    #[test]
    fn degenerate_geometries_are_rejected() {
        let vgg = vgg9(0.85, 1);
        let layer = &vgg.conv_like_layers()[0];
        let tiny = CamGeometry {
            rows: 16,
            cols: 8,
            domains: 64,
        };
        assert!(LayerLayout::for_layer(tiny, 4, layer, 4).is_err());
        assert!(LayerLayout::for_layer(CamGeometry::default(), 0, layer, 32).is_err());
        let shallow = CamGeometry {
            rows: 256,
            cols: 256,
            domains: 8,
        };
        assert!(LayerLayout::for_layer(shallow, 4, layer, 32).is_err());
    }

    #[test]
    fn parallel_aps_and_domain_bases() {
        let vgg = vgg9(0.85, 1);
        let layer = &vgg.conv_like_layers()[1];
        let layout = LayerLayout::for_layer(CamGeometry::default(), 4, layer, 32).expect("layout");
        assert_eq!(
            layout.parallel_aps(),
            layout.row_groups * layout.channel_groups
        );
        assert_eq!(layout.channel_domain_base(0), 0);
        assert_eq!(layout.channel_domain_base(3), 12);
    }
}
