//! The im2col transformation (Fig. 1 of the paper).
//!
//! To vectorise a convolution on the associative processor, every sliding window of
//! the input feature map is laid out as a column: the patch offsets (`fh*fw`) become
//! CAM columns and the output positions (`Hout*Wout`) become CAM rows. The functions
//! here produce exactly that layout from a `(C, H, W)` activation tensor.

use crate::{Result, Tensor, TnnError};
use std::ops::Range;

/// Parameters of a sliding-window extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Im2colSpec {
    /// Kernel height.
    pub fh: usize,
    /// Kernel width.
    pub fw: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding in both dimensions.
    pub padding: usize,
}

impl Im2colSpec {
    /// Output spatial size for an input of `(h, w)`.
    pub fn output_hw(&self, input_hw: (usize, usize)) -> (usize, usize) {
        let h = (input_hw.0 + 2 * self.padding).saturating_sub(self.fh) / self.stride + 1;
        let w = (input_hw.1 + 2 * self.padding).saturating_sub(self.fw) / self.stride + 1;
        (h, w)
    }

    /// The gather map of this window over a `(h, w)` channel plane: where
    /// each element of [`im2col_channel`]'s output comes from. Building it
    /// once per layer lets a caller stage im2col rows straight from the
    /// activation tensor, without materialising the per-channel matrices.
    pub fn gather(&self, input_hw: (usize, usize)) -> GatherMap {
        let (height, width) = input_hw;
        let (hout, wout) = self.output_hw(input_hw);
        let positions = hout * wout;
        let mut offsets = vec![GatherMap::PADDING; self.fh * self.fw * positions];
        for kh in 0..self.fh {
            for kw in 0..self.fw {
                let row = &mut offsets[(kh * self.fw + kw) * positions..][..positions];
                for oh in 0..hout {
                    let Some(ih) = (oh * self.stride + kh)
                        .checked_sub(self.padding)
                        .filter(|&ih| ih < height)
                    else {
                        continue;
                    };
                    for ow in 0..wout {
                        if let Some(iw) = (ow * self.stride + kw)
                            .checked_sub(self.padding)
                            .filter(|&iw| iw < width)
                        {
                            row[oh * wout + ow] = ih * width + iw;
                        }
                    }
                }
            }
        }
        GatherMap {
            positions,
            plane_len: height * width,
            offsets,
        }
    }
}

/// Where every im2col element of one channel comes from (see
/// [`Im2colSpec::gather`]): element `(k, p)` — patch offset `k` of output
/// position `p` — is one value of the channel plane, or zero for padding. The map depends only on the window and the plane size, so one
/// map serves every channel and every sample of a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatherMap {
    positions: usize,
    plane_len: usize,
    /// Row-major `[k][position]` plane offsets, [`PADDING`](Self::PADDING)
    /// where the window overhangs the plane.
    offsets: Vec<usize>,
}

impl GatherMap {
    /// The offset of an element that falls in the zero padding.
    const PADDING: usize = usize::MAX;

    /// Output positions (`hout * wout`): the length of one im2col row.
    pub fn positions(&self) -> usize {
        self.positions
    }

    /// Elements of one channel plane (`h * w`).
    pub fn plane_len(&self) -> usize {
        self.plane_len
    }

    /// Appends im2col row `k` over `positions` of the channel `plane` to
    /// `out`: exactly `im2col_channel(..)[k][positions]` of that channel.
    ///
    /// # Panics
    ///
    /// Panics when `k` or `positions` is out of range or `plane` does not
    /// hold exactly [`plane_len`](Self::plane_len) values.
    pub fn stage(&self, k: usize, positions: Range<usize>, plane: &[i64], out: &mut Vec<i64>) {
        assert_eq!(plane.len(), self.plane_len, "channel plane length");
        let row = &self.offsets[k * self.positions..][..self.positions];
        // Padding offsets lie outside every plane, so they read as zero.
        out.extend(
            row[positions]
                .iter()
                .map(|&offset| plane.get(offset).copied().unwrap_or(0)),
        );
    }
}

/// Extracts the im2col matrix of a single channel.
///
/// The result has shape `[fh * fw, hout * wout]`: element `(k, p)` is the activation
/// at patch offset `k` of output position `p` (zero for padded positions). This is
/// the per-input-channel layout the RTM-AP stores: patch offsets map to CAM columns,
/// output positions to CAM rows (§IV-B).
///
/// # Errors
///
/// Returns [`TnnError::IncompatibleShapes`] if `input` is not a 3-D `(C, H, W)`
/// tensor or `channel` is out of range.
///
/// # Example
///
/// ```
/// use tnn::im2col::{im2col_channel, Im2colSpec};
/// use tnn::Tensor;
///
/// # fn main() -> Result<(), tnn::TnnError> {
/// let input = Tensor::from_vec(vec![1, 3, 3], (1..=9).collect::<Vec<i64>>())?;
/// let spec = Im2colSpec { fh: 2, fw: 2, stride: 1, padding: 0 };
/// let cols = im2col_channel(&input, 0, spec)?;
/// assert_eq!(cols.shape(), &[4, 4]);
/// // First output position sees the top-left 2x2 patch 1,2,4,5.
/// assert_eq!(*cols.get(&[0, 0])?, 1);
/// assert_eq!(*cols.get(&[3, 0])?, 5);
/// # Ok(())
/// # }
/// ```
pub fn im2col_channel(
    input: &Tensor<i64>,
    channel: usize,
    spec: Im2colSpec,
) -> Result<Tensor<i64>> {
    if input.ndim() != 3 {
        return Err(TnnError::IncompatibleShapes {
            reason: format!("im2col expects a (C, H, W) tensor, got {:?}", input.shape()),
        });
    }
    let (channels, height, width) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    if channel >= channels {
        return Err(TnnError::IncompatibleShapes {
            reason: format!("channel {channel} out of range for {channels} channels"),
        });
    }
    let (hout, wout) = spec.output_hw((height, width));
    let positions = hout * wout;
    let mut out = Tensor::zeros(vec![spec.fh * spec.fw, positions]);
    let plane = &input.as_slice()[channel * height * width..(channel + 1) * height * width];
    let out_data = out.as_mut_slice();
    for oh in 0..hout {
        for ow in 0..wout {
            let position = oh * wout + ow;
            for kh in 0..spec.fh {
                for kw in 0..spec.fw {
                    let ih = (oh * spec.stride + kh) as isize - spec.padding as isize;
                    let iw = (ow * spec.stride + kw) as isize - spec.padding as isize;
                    let value =
                        if ih >= 0 && iw >= 0 && (ih as usize) < height && (iw as usize) < width {
                            plane[ih as usize * width + iw as usize]
                        } else {
                            0
                        };
                    out_data[(kh * spec.fw + kw) * positions + position] = value;
                }
            }
        }
    }
    Ok(out)
}

/// Extracts the full im2col matrix across all channels, shaped
/// `[cin * fh * fw, hout * wout]` with the channel index varying slowest.
///
/// # Errors
///
/// Returns [`TnnError::IncompatibleShapes`] if `input` is not a 3-D `(C, H, W)` tensor.
pub fn im2col(input: &Tensor<i64>, spec: Im2colSpec) -> Result<Tensor<i64>> {
    if input.ndim() != 3 {
        return Err(TnnError::IncompatibleShapes {
            reason: format!("im2col expects a (C, H, W) tensor, got {:?}", input.shape()),
        });
    }
    let channels = input.shape()[0];
    let (hout, wout) = spec.output_hw((input.shape()[1], input.shape()[2]));
    let patch = spec.fh * spec.fw;
    let mut out = Tensor::zeros(vec![channels * patch, hout * wout]);
    for channel in 0..channels {
        let single = im2col_channel(input, channel, spec)?;
        for k in 0..patch {
            for p in 0..hout * wout {
                *out.get_mut(&[channel * patch + k, p])? = *single.get(&[k, p])?;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(c: usize, h: usize, w: usize) -> Tensor<i64> {
        Tensor::from_vec(vec![c, h, w], (0..(c * h * w) as i64).collect()).expect("shape")
    }

    #[test]
    fn identity_kernel_is_a_flatten() {
        let input = ramp(1, 3, 3);
        let spec = Im2colSpec {
            fh: 1,
            fw: 1,
            stride: 1,
            padding: 0,
        };
        let cols = im2col_channel(&input, 0, spec).expect("im2col");
        assert_eq!(cols.shape(), &[1, 9]);
        assert_eq!(cols.as_slice(), input.as_slice());
    }

    #[test]
    fn padding_produces_zeros_at_the_border() {
        let input = ramp(1, 2, 2);
        let spec = Im2colSpec {
            fh: 3,
            fw: 3,
            stride: 1,
            padding: 1,
        };
        let cols = im2col_channel(&input, 0, spec).expect("im2col");
        assert_eq!(cols.shape(), &[9, 4]);
        // Output position 0 (top-left): the centre of the 3x3 patch is input (0,0)=0,
        // and the top-left patch offset falls entirely in the padding.
        assert_eq!(*cols.get(&[0, 0]).expect("get"), 0);
        assert_eq!(*cols.get(&[4, 0]).expect("get"), 0);
        assert_eq!(*cols.get(&[8, 0]).expect("get"), 3);
    }

    #[test]
    fn stride_skips_positions() {
        let input = ramp(1, 4, 4);
        let spec = Im2colSpec {
            fh: 2,
            fw: 2,
            stride: 2,
            padding: 0,
        };
        let cols = im2col_channel(&input, 0, spec).expect("im2col");
        assert_eq!(cols.shape(), &[4, 4]);
        // Second output position starts at column 2 of the input.
        assert_eq!(*cols.get(&[0, 1]).expect("get"), 2);
    }

    #[test]
    fn multi_channel_layout_stacks_channels() {
        let input = ramp(2, 3, 3);
        let spec = Im2colSpec {
            fh: 2,
            fw: 2,
            stride: 1,
            padding: 0,
        };
        let cols = im2col(&input, spec).expect("im2col");
        assert_eq!(cols.shape(), &[2 * 4, 4]);
        // Channel 1 starts at row 4 and its first element is input[1][0][0] = 9.
        assert_eq!(*cols.get(&[4, 0]).expect("get"), 9);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let flat = Tensor::from_vec(vec![4], vec![0i64; 4]).expect("shape");
        let spec = Im2colSpec {
            fh: 1,
            fw: 1,
            stride: 1,
            padding: 0,
        };
        assert!(im2col(&flat, spec).is_err());
        let input = ramp(1, 3, 3);
        assert!(im2col_channel(&input, 2, spec).is_err());
    }

    /// Stages every element of every channel through the gather map and
    /// checks it against the im2col reference.
    fn assert_gather_matches_im2col(input: &Tensor<i64>, spec: Im2colSpec) {
        let (channels, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let map = spec.gather((h, w));
        assert_eq!(map.plane_len(), h * w);
        let mut staged = Vec::new();
        for channel in 0..channels {
            let reference = im2col_channel(input, channel, spec).expect("im2col");
            assert_eq!(reference.shape(), &[spec.fh * spec.fw, map.positions()]);
            let plane = &input.as_slice()[channel * h * w..][..h * w];
            for k in 0..spec.fh * spec.fw {
                staged.clear();
                map.stage(k, 0..map.positions(), plane, &mut staged);
                let want = &reference.as_slice()[k * map.positions()..][..map.positions()];
                assert_eq!(staged, want, "channel {channel}, k {k}, {spec:?}");
                // A sub-range stages the matching slice of the row.
                let mid = map.positions() / 2;
                staged.clear();
                map.stage(k, mid..map.positions(), plane, &mut staged);
                assert_eq!(staged, &want[mid..]);
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_gather_staging_equals_im2col(
            c in 1usize..=12,
            h in 1usize..=12,
            w in 1usize..=12,
            fh in 1usize..=5,
            fw in 1usize..=5,
            stride in 1usize..=3,
            padding in 0usize..=2,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let data: Vec<i64> = (0..c * h * w)
                .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(seed) % 31) as i64 - 15)
                .collect();
            let input = Tensor::from_vec(vec![c, h, w], data).expect("shape");
            assert_gather_matches_im2col(&input, Im2colSpec { fh, fw, stride, padding });
            // The fully connected flatten: a 1x1 window over `[cin, 1, 1]`.
            let flat = Tensor::from_vec(vec![c * h * w, 1, 1], input.as_slice().to_vec())
                .expect("shape");
            assert_gather_matches_im2col(
                &flat,
                Im2colSpec { fh: 1, fw: 1, stride: 1, padding: 0 },
            );
        }
    }

    #[test]
    fn output_size_matches_conv_arithmetic() {
        let spec = Im2colSpec {
            fh: 7,
            fw: 7,
            stride: 2,
            padding: 3,
        };
        assert_eq!(spec.output_hw((224, 224)), (112, 112));
        let spec = Im2colSpec {
            fh: 3,
            fw: 3,
            stride: 1,
            padding: 1,
        };
        assert_eq!(spec.output_hw((56, 56)), (56, 56));
    }
}
