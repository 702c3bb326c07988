//! # orco-bench
//!
//! The benchmark harness of the OrcoDCS reproduction: one module — and one
//! runnable binary — per figure of the paper's evaluation (§IV), plus
//! throughput benches in `benches/` (plain `harness = false` programs).
//!
//! | Binary | Paper figure | What it regenerates |
//! |--------|--------------|---------------------|
//! | `fig2` | Fig. 2 | Reconstruction quality (PSNR/SSIM table + ASCII previews) |
//! | `fig3` | Fig. 3 | Transmitted KB for 1 000 / 10 000 images |
//! | `fig4` | Fig. 4 | Time-to-loss curves, OrcoDCS vs DCSNet |
//! | `fig5` | Fig. 5 | Classifier accuracy/loss on reconstructed data |
//! | `fig6` | Fig. 6 | Latent-dimension sensitivity |
//! | `fig7` | Fig. 7 | Latent-noise sensitivity |
//! | `fig8` | Fig. 8 | Decoder-depth sensitivity |
//! | `fig9` | — (extension) | Data-plane latency & energy vs. loss rate on the event-driven backend |
//! | `all_figures` | — | Everything above in sequence |
//!
//! Scale is controlled by the `ORCO_SCALE` environment variable:
//! `quick` (CI smoke), `default`, or `full` (closest to the paper's sizes;
//! slowest). Every run is deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figs;
pub mod harness;
