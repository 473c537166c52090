//! Analytical baselines used for the comparisons in Table II and Fig. 4:
//!
//! * [`crossbar`] — a DNN+NeuroSim-style RRAM crossbar accelerator (256×256 arrays,
//!   8-bit weights in 2-bit cells, 5-bit ADCs, bit-serial input streaming, ~41 %
//!   interconnect energy share), and
//! * [`deepcam`] — a DeepCAM-style fully CAM-based accelerator with variable hash
//!   lengths, which is extremely efficient on small networks but scales poorly and
//!   loses accuracy on complex tasks.
//!
//! Both are closed-form models over the layer geometry of a [`tnn::model::ModelGraph`];
//! README "Baselines and the accuracy substitute" lists their constants and
//! where each comes from.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod crossbar;
pub mod deepcam;

pub use crossbar::{CrossbarModel, CrossbarReport, CrossbarTechnology};
pub use deepcam::{DeepCamModel, DeepCamReport};
