//! Model checkpointing.
//!
//! The fine-tuning monitor (§III-D) relaunches training when the
//! environment drifts; deployments also restart, and the edge may want to
//! roll a decoder back after a bad adaptation. This module saves and
//! restores the asymmetric autoencoder's parameters in the workspace's
//! plain-text `MAT` format (diff-able, no format crate): one file per
//! tensor plus a small manifest.

use std::path::{Path, PathBuf};

use orco_tensor::serialize::{matrix_from_text, matrix_to_text};
use orco_tensor::{fnv1a64, Matrix};

use crate::autoencoder::AsymmetricAutoencoder;
use crate::error::OrcoError;

/// Files inside a checkpoint directory.
const MANIFEST: &str = "manifest.txt";
const ENCODER_WEIGHT: &str = "encoder_weight.mat";
const ENCODER_BIAS: &str = "encoder_bias.mat";

/// A saved encoder checkpoint (the distributable half of the model — the
/// decoder lives on the mains-powered edge and can always retrain, but the
/// encoder's columns are what the field devices hold).
#[derive(Debug, Clone, PartialEq)]
pub struct EncoderCheckpoint {
    /// Encoder weight, `(M, N)`.
    pub weight: Matrix,
    /// Encoder bias, `(1, M)`.
    pub bias: Matrix,
    /// Label recorded in the manifest (e.g. experiment id).
    pub label: String,
}

impl EncoderCheckpoint {
    /// Captures the current encoder of an autoencoder.
    #[must_use]
    pub(crate) fn capture(ae: &AsymmetricAutoencoder, label: impl Into<String>) -> Self {
        Self {
            weight: ae.encoder_weight().clone(),
            bias: ae.encoder_bias().clone(),
            label: label.into(),
        }
    }

    /// Restores this checkpoint into an autoencoder.
    ///
    /// # Errors
    ///
    /// Returns [`OrcoError::Config`] if the shapes do not match the target
    /// model.
    pub fn restore(&self, ae: &mut AsymmetricAutoencoder) -> Result<(), OrcoError> {
        if self.weight.shape() != (ae.latent_dim(), ae.input_dim()) {
            return Err(OrcoError::Config {
                detail: format!(
                    "checkpoint encoder is {}x{}, model expects {}x{}",
                    self.weight.rows(),
                    self.weight.cols(),
                    ae.latent_dim(),
                    ae.input_dim()
                ),
            });
        }
        ae.set_encoder_parts(self.weight.clone(), self.bias.clone());
        Ok(())
    }

    /// The FNV-1a digest of a checkpoint payload: the weight's `MAT` text
    /// followed by the bias's, hashed as one byte stream. Recorded in the
    /// manifest by [`EncoderCheckpoint::save`] and re-verified by
    /// [`EncoderCheckpoint::load`].
    fn payload_checksum(weight_text: &str, bias_text: &str) -> u64 {
        let mut payload = String::with_capacity(weight_text.len() + bias_text.len());
        payload.push_str(weight_text);
        payload.push_str(bias_text);
        fnv1a64(payload.as_bytes())
    }

    /// Writes the checkpoint to `dir` (created if missing).
    ///
    /// Torn-write hardened: every file lands via write-then-rename, and
    /// the manifest — carrying an FNV-1a checksum over the tensor payload
    /// — is written last, so a crash mid-save leaves either the previous
    /// checkpoint intact or no verifiable manifest at all, never a
    /// half-written one that loads.
    ///
    /// # Errors
    ///
    /// Returns [`OrcoError::Config`] wrapping any I/O failure.
    pub fn save(&self, dir: &Path) -> Result<(), OrcoError> {
        let io = |e: std::io::Error| OrcoError::Config { detail: format!("checkpoint io: {e}") };
        std::fs::create_dir_all(dir).map_err(io)?;
        let weight_text = matrix_to_text(&self.weight);
        let bias_text = matrix_to_text(&self.bias);
        let checksum = Self::payload_checksum(&weight_text, &bias_text);
        write_atomic(&dir.join(ENCODER_WEIGHT), &weight_text).map_err(io)?;
        write_atomic(&dir.join(ENCODER_BIAS), &bias_text).map_err(io)?;
        let manifest = format!(
            "orcodcs-encoder-checkpoint v2\nlabel: {}\nlatent_dim: {}\ninput_dim: {}\nchecksum: {checksum:016x}\n",
            self.label,
            self.weight.rows(),
            self.weight.cols()
        );
        write_atomic(&dir.join(MANIFEST), &manifest).map_err(io)?;
        Ok(())
    }

    /// Loads a checkpoint from `dir`, verifying the manifest's checksum
    /// against the tensor payload before parsing a single value.
    ///
    /// # Errors
    ///
    /// Returns [`OrcoError::Config`] on missing/malformed files,
    /// [`OrcoError::Corrupt`] when the payload does not match the
    /// manifest's checksum (torn write, truncation, bit rot), and
    /// [`OrcoError::Tensor`] on matrix parse failures.
    pub fn load(dir: &Path) -> Result<Self, OrcoError> {
        let manifest = std::fs::read_to_string(dir.join(MANIFEST))
            .map_err(|e| OrcoError::Config { detail: format!("missing manifest: {e}") })?;
        let mut label = String::new();
        let mut version_ok = false;
        let mut checksum: Option<u64> = None;
        for line in manifest.lines() {
            if line.trim() == "orcodcs-encoder-checkpoint v2" {
                version_ok = true;
            }
            if let Some(rest) = line.strip_prefix("label: ") {
                label = rest.to_string();
            }
            if let Some(rest) = line.strip_prefix("checksum: ") {
                checksum = u64::from_str_radix(rest.trim(), 16).ok();
            }
        }
        if !version_ok {
            return Err(OrcoError::Config { detail: "unrecognized checkpoint version".into() });
        }
        let Some(expected) = checksum else {
            return Err(OrcoError::Corrupt {
                detail: format!(
                    "checkpoint manifest in {} carries no parseable checksum",
                    dir.display()
                ),
            });
        };
        let io = |e: std::io::Error| OrcoError::Config { detail: format!("checkpoint io: {e}") };
        let weight_text = std::fs::read_to_string(dir.join(ENCODER_WEIGHT)).map_err(io)?;
        let bias_text = std::fs::read_to_string(dir.join(ENCODER_BIAS)).map_err(io)?;
        let actual = Self::payload_checksum(&weight_text, &bias_text);
        if actual != expected {
            return Err(OrcoError::Corrupt {
                detail: format!(
                    "checkpoint payload in {} hashes to {actual:016x}, manifest says {expected:016x}",
                    dir.display()
                ),
            });
        }
        let weight = matrix_from_text(&weight_text)?;
        let bias = matrix_from_text(&bias_text)?;
        if bias.rows() != 1 || bias.cols() != weight.rows() {
            return Err(OrcoError::Config {
                detail: format!(
                    "inconsistent checkpoint: weight {}x{}, bias {}x{}",
                    weight.rows(),
                    weight.cols(),
                    bias.rows(),
                    bias.cols()
                ),
            });
        }
        Ok(Self { weight, bias, label })
    }
}

/// Writes `contents` to a sibling temp file and renames it over `path`,
/// so readers never observe a half-written file (rename within one
/// directory is atomic on POSIX filesystems).
fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// A rolling checkpoint store: keeps the `capacity` most recent encoder
/// snapshots under one root directory (`ckpt-0`, `ckpt-1`, …) so the
/// monitor can roll back after an adaptation that made things worse.
#[derive(Debug)]
pub struct CheckpointStore {
    root: PathBuf,
    capacity: usize,
    saved: Vec<PathBuf>,
    counter: usize,
}

impl CheckpointStore {
    /// Creates a store rooted at `root` keeping at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(root: impl Into<PathBuf>, capacity: usize) -> Self {
        assert!(capacity > 0, "CheckpointStore: capacity must be non-zero");
        Self { root: root.into(), capacity, saved: Vec::new(), counter: 0 }
    }

    /// Saves a new snapshot, evicting the oldest when over capacity.
    ///
    /// # Errors
    ///
    /// Propagates save failures.
    pub fn push(&mut self, checkpoint: &EncoderCheckpoint) -> Result<&Path, OrcoError> {
        let dir = self.root.join(format!("ckpt-{}", self.counter));
        self.counter += 1;
        checkpoint.save(&dir)?;
        self.saved.push(dir);
        if self.saved.len() > self.capacity {
            let evicted = self.saved.remove(0);
            let _ = std::fs::remove_dir_all(&evicted);
        }
        Ok(self.saved.last().expect("just pushed").as_path())
    }

    /// Loads the most recent snapshot, if any.
    ///
    /// # Errors
    ///
    /// Propagates load failures.
    pub fn latest(&self) -> Result<Option<EncoderCheckpoint>, OrcoError> {
        match self.saved.last() {
            None => Ok(None),
            Some(dir) => EncoderCheckpoint::load(dir).map(Some),
        }
    }

    /// Number of snapshots currently kept.
    #[must_use]
    pub fn len(&self) -> usize {
        self.saved.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.saved.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OrcoConfig;
    use crate::Codec;
    use orco_datasets::DatasetKind;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("orcodcs-ckpt-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn trained_ae() -> AsymmetricAutoencoder {
        let cfg = OrcoConfig::for_dataset(DatasetKind::MnistLike).with_latent_dim(8);
        let mut ae = AsymmetricAutoencoder::new(&cfg).unwrap();
        let ds = orco_datasets::mnist_like::generate(8, 0);
        let loss = cfg.loss();
        let _ = ae.train_batch_local(ds.x(), &loss);
        ae
    }

    #[test]
    fn save_load_roundtrip_is_exact() {
        let ae = trained_ae();
        let ckpt = EncoderCheckpoint::capture(&ae, "test-roundtrip");
        let dir = tmpdir("roundtrip");
        ckpt.save(&dir).unwrap();
        let loaded = EncoderCheckpoint::load(&dir).unwrap();
        assert_eq!(ckpt, loaded);
        assert_eq!(loaded.label, "test-roundtrip");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_recovers_encodings() {
        let mut ae = trained_ae();
        let ckpt = EncoderCheckpoint::capture(&ae, "restore");
        let ds = orco_datasets::mnist_like::generate(4, 1);
        let encode = |ae: &mut AsymmetricAutoencoder| {
            let mut codes = Matrix::zeros(0, 0);
            ae.encode_batch(ds.x().as_view(), &mut codes).unwrap();
            codes
        };
        let before = encode(&mut ae);
        // Keep training → encoder changes.
        let cfg = OrcoConfig::for_dataset(DatasetKind::MnistLike).with_latent_dim(8);
        let loss = cfg.loss();
        for _ in 0..5 {
            let _ = ae.train_batch_local(ds.x(), &loss);
        }
        assert_ne!(encode(&mut ae), before);
        // Roll back.
        ckpt.restore(&mut ae).unwrap();
        assert_eq!(encode(&mut ae), before);
    }

    #[test]
    fn restore_rejects_shape_mismatch() {
        let ae = trained_ae(); // latent 8
        let ckpt = EncoderCheckpoint::capture(&ae, "mismatch");
        let cfg = OrcoConfig::for_dataset(DatasetKind::MnistLike).with_latent_dim(16);
        let mut other = AsymmetricAutoencoder::new(&cfg).unwrap();
        assert!(matches!(ckpt.restore(&mut other), Err(OrcoError::Config { .. })));
    }

    #[test]
    fn store_evicts_oldest() {
        let ae = trained_ae();
        let dir = tmpdir("store");
        let mut store = CheckpointStore::new(&dir, 2);
        for i in 0..3 {
            let ckpt = EncoderCheckpoint::capture(&ae, format!("v{i}"));
            store.push(&ckpt).unwrap();
        }
        assert_eq!(store.len(), 2);
        let latest = store.latest().unwrap().unwrap();
        assert_eq!(latest.label, "v2");
        // The evicted directory is gone.
        assert!(!dir.join("ckpt-0").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_missing_dir_errors() {
        assert!(EncoderCheckpoint::load(Path::new("/nonexistent/ckpt")).is_err());
    }

    #[test]
    fn truncated_weight_file_is_rejected_as_corrupt() {
        // The torn-write regression: a checkpoint whose weight file lost
        // its tail (power cut mid-write, partial copy) must surface as
        // `OrcoError::Corrupt`, never as weights.
        let ae = trained_ae();
        let ckpt = EncoderCheckpoint::capture(&ae, "torn");
        let dir = tmpdir("torn-write");
        ckpt.save(&dir).unwrap();
        let weight_path = dir.join(ENCODER_WEIGHT);
        let full = std::fs::read_to_string(&weight_path).unwrap();
        std::fs::write(&weight_path, &full[..full.len() / 2]).unwrap();
        let err = EncoderCheckpoint::load(&dir).unwrap_err();
        assert!(matches!(err, OrcoError::Corrupt { .. }), "unexpected error: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_payload_byte_is_rejected_as_corrupt() {
        let ae = trained_ae();
        let ckpt = EncoderCheckpoint::capture(&ae, "bitrot");
        let dir = tmpdir("bitrot");
        ckpt.save(&dir).unwrap();
        let bias_path = dir.join(ENCODER_BIAS);
        let mut bytes = std::fs::read(&bias_path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] = if bytes[last] == b'1' { b'2' } else { b'1' };
        std::fs::write(&bias_path, bytes).unwrap();
        let err = EncoderCheckpoint::load(&dir).unwrap_err();
        assert!(matches!(err, OrcoError::Corrupt { .. }), "unexpected error: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_leaves_no_temp_files() {
        let ae = trained_ae();
        let ckpt = EncoderCheckpoint::capture(&ae, "atomic");
        let dir = tmpdir("atomic");
        ckpt.save(&dir).unwrap();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(
                !name.to_string_lossy().ends_with(".tmp"),
                "stray temp file {name:?} after save"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_latest_never_hands_back_garbage() {
        // `CheckpointStore::latest` propagates the corruption error
        // instead of returning a checkpoint parsed from a torn file.
        let ae = trained_ae();
        let dir = tmpdir("store-corrupt");
        let mut store = CheckpointStore::new(&dir, 2);
        let ckpt = EncoderCheckpoint::capture(&ae, "good");
        let saved = store.push(&ckpt).unwrap().to_path_buf();
        std::fs::write(saved.join(ENCODER_WEIGHT), "MAT 1 1\n0.0\n").unwrap();
        let err = store.latest().unwrap_err();
        assert!(matches!(err, OrcoError::Corrupt { .. }), "unexpected error: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
