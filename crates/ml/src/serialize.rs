//! Compact binary serialization of trained models (GBDT and MLP).
//!
//! A trained cardinality estimator must survive a process restart — the
//! paper's deployment story (Section 5.5.2) reconstructs models on data
//! drift but reuses them between drifts. The format is a small
//! little-endian layout with a magic header, explicit versioning, and an
//! FNV-1a content checksum; no external serialization crate is needed.
//!
//! GBDT layout (all integers little-endian):
//!
//! ```text
//! magic     "QFEGB002"                   8 bytes
//! checksum  FNV-1a-64 of the payload     8
//! payload:
//!   base   f32                           4
//!   input_dim u32                        4
//!   learning_rate f32                    4
//!   n_trees u32                          4
//!   per tree: n_nodes u32, then per node:
//!     tag u8 (0 = leaf, 1 = split)
//!     leaf:  value f32
//!     split: feature u32, threshold f32, left u32, right u32
//! ```
//!
//! MLP layout shares the frame under the `"QFENN001"` magic:
//!
//! ```text
//! magic     "QFENN001"                   8 bytes
//! checksum  FNV-1a-64 of the payload     8
//! payload:
//!   input_dim u32                        4
//!   learning_rate f32                    4
//!   seed u64                             8
//!   epochs u32, batch_size u32           8
//!   adam_t u32                           4
//!   n_layers u32                         4
//!   per layer: in u32, out u32,
//!     weights in×out f32 (row-major), bias out f32
//! ```
//!
//! The checksum is verified **before** any structural parsing, so a
//! bit-flipped or truncated payload is rejected up front — every
//! single-bit corruption of a serialized model yields a typed
//! [`DecodeError`], never a mis-parsed model: a flip in the magic is
//! [`DecodeError::BadMagic`], a flip in the checksum or payload is
//! [`DecodeError::ChecksumMismatch`]. Structural validation (node tags,
//! child indices, layer chaining, finiteness of every `f32`) still runs
//! afterwards to catch hand-crafted or wrongly-assembled inputs whose
//! checksum is self-consistent.

use crate::gbdt::Gbdt;
use crate::mlp::Mlp;
use crate::train::Regressor;

/// Errors from decoding a serialized model.
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Wrong or truncated header.
    BadMagic,
    /// Input ended before the declared structure was complete.
    Truncated,
    /// The stored FNV-1a checksum does not match the payload — the bytes
    /// were corrupted (bit flip, partial write) after encoding.
    ChecksumMismatch,
    /// A structurally invalid entry (unknown node tag, out-of-range child,
    /// non-finite parameter).
    Corrupt(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a serialized qfe model"),
            DecodeError::Truncated => write!(f, "model bytes truncated"),
            DecodeError::ChecksumMismatch => {
                write!(f, "model bytes corrupted (checksum mismatch)")
            }
            DecodeError::Corrupt(what) => write!(f, "corrupt model: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

pub(crate) const MAGIC: &[u8; 8] = b"QFEGB002";
pub(crate) const MAGIC_MLP: &[u8; 8] = b"QFENN001";

/// FNV-1a 64-bit hash — tiny, dependency-free, and guaranteed to change
/// under any single-bit flip of the input (xor-then-multiply by an odd
/// prime is injective per step).
///
/// Public so other crates framing their own checksummed payloads (the
/// `qfe-store` checkpoint format) reuse the exact same hash instead of
/// growing a second implementation.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Little-endian cursor over a decode payload.
///
/// Shared by the `gbdt`/`mlp` encode/decode impls, and public so
/// downstream crates parsing their own checksummed frames (the
/// learned-estimator snapshot, the `qfe-store` checkpoint manifest) get
/// bounds-checked reads with the same typed [`DecodeError`]s.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Take the next `n` raw bytes, or [`DecodeError::Truncated`].
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Next `u8`.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.bytes(1)?[0])
    }

    /// Next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Next little-endian `f32`.
    pub fn f32(&mut self) -> Result<f32, DecodeError> {
        let b = self.bytes(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Next little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        let b = self.bytes(8)?;
        Ok(f64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// True once every byte has been consumed (decoders reject trailing
    /// garbage by requiring this at the end).
    pub fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Serialize a trained model; see the module docs for the layout.
pub fn gbdt_to_bytes(model: &Gbdt) -> Vec<u8> {
    frame_payload(MAGIC, &model.encode())
}

/// Deserialize a model previously produced by [`gbdt_to_bytes`].
///
/// # Errors
/// Any corruption of the byte stream — truncation at any offset, any
/// single-bit flip, trailing garbage — returns a typed [`DecodeError`];
/// this function never panics and never returns a silently-wrong model.
pub fn gbdt_from_bytes(bytes: &[u8]) -> Result<Gbdt, DecodeError> {
    Gbdt::decode(checked_payload(bytes, MAGIC)?)
}

/// Split a `magic + checksum + payload` frame, verifying the magic and
/// the FNV-1a-64 checksum. Returns the verified payload.
///
/// Public so other crates framing their own checksummed payloads (the
/// learned-estimator snapshot) share this frame instead of re-parsing it.
///
/// # Errors
/// [`DecodeError::BadMagic`] on a wrong or short header,
/// [`DecodeError::Truncated`] when the checksum is cut off, and
/// [`DecodeError::ChecksumMismatch`] when the payload does not match it.
pub fn checked_payload<'a>(bytes: &'a [u8], magic: &[u8; 8]) -> Result<&'a [u8], DecodeError> {
    if bytes.len() < magic.len() || &bytes[..magic.len()] != magic {
        return Err(DecodeError::BadMagic);
    }
    let frame = magic.len() + 8;
    if bytes.len() < frame {
        return Err(DecodeError::Truncated);
    }
    let c = &bytes[magic.len()..frame];
    let stored = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
    let payload = &bytes[frame..];
    if fnv1a64(payload) != stored {
        return Err(DecodeError::ChecksumMismatch);
    }
    Ok(payload)
}

/// Wrap a payload in the standard `magic + FNV-1a-64 checksum` frame
/// that [`checked_payload`] verifies.
pub fn frame_payload(magic: &[u8; 8], payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(magic.len() + 8 + payload.len());
    out.extend_from_slice(magic);
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Serialize a trained MLP under the `QFENN001` frame; see the module
/// docs for the layout.
///
/// # Panics
/// Panics on an untrained network (no layers) — there are no weights to
/// persist, mirroring the `predict before fit` contract. Callers that
/// may hold untrained models should go through
/// [`Regressor::to_bytes`], which
/// returns `None` instead.
pub fn mlp_to_bytes(model: &Mlp) -> Vec<u8> {
    let payload = model.encode();
    assert!(
        !payload.is_empty(),
        "cannot serialize an untrained MLP — it has no weights yet"
    );
    frame_payload(MAGIC_MLP, &payload)
}

/// Deserialize an MLP previously produced by [`mlp_to_bytes`].
///
/// # Errors
/// Any corruption of the byte stream — truncation at any offset, any
/// single-bit flip, trailing garbage — returns a typed [`DecodeError`];
/// this function never panics and never returns a silently-wrong model.
/// Adam optimizer moments are not serialized: the restored model
/// predicts identically, but refitting restarts the optimizer state.
pub fn mlp_from_bytes(bytes: &[u8]) -> Result<Mlp, DecodeError> {
    Mlp::decode(checked_payload(bytes, MAGIC_MLP)?)
}

/// Deserialize any supported model, dispatching on the magic header:
/// `QFEGB002` → [`Gbdt`], `QFENN001` → [`Mlp`]. This is what lets a
/// checkpoint store hold heterogeneous model families behind one opaque
/// byte payload.
///
/// # Errors
/// [`DecodeError::BadMagic`] if the header matches no known family;
/// otherwise whatever the family decoder returns.
pub fn regressor_from_bytes(bytes: &[u8]) -> Result<Box<dyn Regressor + Send + Sync>, DecodeError> {
    if bytes.len() >= MAGIC.len() && &bytes[..MAGIC.len()] == MAGIC {
        return Ok(Box::new(gbdt_from_bytes(bytes)?));
    }
    if bytes.len() >= MAGIC_MLP.len() && &bytes[..MAGIC_MLP.len()] == MAGIC_MLP {
        return Ok(Box::new(mlp_from_bytes(bytes)?));
    }
    Err(DecodeError::BadMagic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gbdt::GbdtConfig;
    use crate::matrix::Matrix;
    use crate::train::Regressor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn trained() -> (Gbdt, Matrix) {
        let mut rng = StdRng::seed_from_u64(8);
        let rows: Vec<Vec<f32>> = (0..400)
            .map(|_| vec![rng.gen::<f32>(), rng.gen::<f32>()])
            .collect();
        let y: Vec<f32> = rows.iter().map(|r| (r[0] * 3.0 + r[1]).sin()).collect();
        let x = Matrix::from_rows(&rows);
        let mut gb = Gbdt::new(GbdtConfig {
            n_trees: 25,
            min_samples_leaf: 3,
            ..GbdtConfig::default()
        });
        gb.fit(&x, &y);
        (gb, x)
    }

    /// Wrap a hand-crafted payload in a valid magic + checksum frame, so
    /// tests can exercise the structural validation behind the checksum.
    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn round_trip_preserves_predictions() {
        let (gb, x) = trained();
        let bytes = gbdt_to_bytes(&gb);
        let restored = gbdt_from_bytes(&bytes).unwrap();
        assert_eq!(gb.predict_batch(&x), restored.predict_batch(&x));
        assert_eq!(gb.tree_count(), restored.tree_count());
    }

    #[test]
    fn format_is_compact() {
        let (gb, _) = trained();
        let bytes = gbdt_to_bytes(&gb);
        // Roughly 13–17 bytes per node; far below the in-memory enum size.
        assert!(
            bytes.len() < gb.memory_bytes(),
            "{} encoded vs {} in memory",
            bytes.len(),
            gb.memory_bytes()
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let (gb, _) = trained();
        let mut bytes = gbdt_to_bytes(&gb);
        bytes[0] = b'X';
        assert_eq!(gbdt_from_bytes(&bytes).unwrap_err(), DecodeError::BadMagic);
    }

    #[test]
    fn truncation_rejected() {
        let (gb, _) = trained();
        let bytes = gbdt_to_bytes(&gb);
        for cut in [4, 9, 15, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                gbdt_from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let (gb, _) = trained();
        let mut bytes = gbdt_to_bytes(&gb);
        bytes.push(0);
        // The appended byte is part of the checksummed region, so the
        // mismatch is caught before parsing.
        assert_eq!(
            gbdt_from_bytes(&bytes).unwrap_err(),
            DecodeError::ChecksumMismatch
        );
    }

    #[test]
    fn payload_bit_flip_is_checksum_mismatch() {
        let (gb, _) = trained();
        let clean = gbdt_to_bytes(&gb);
        // One flip in the checksum field, one early and one late in the
        // payload; the exhaustive sweep lives in the corrupt_model
        // property tests.
        for pos in [8, 16, clean.len() - 1] {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x10;
            assert_eq!(
                gbdt_from_bytes(&bytes).unwrap_err(),
                DecodeError::ChecksumMismatch,
                "flip at byte {pos}"
            );
        }
    }

    #[test]
    fn corrupt_child_index_rejected() {
        // Hand-craft a model with a split pointing past the node table.
        let mut payload = Vec::new();
        payload.extend_from_slice(&0.0f32.to_le_bytes()); // base
        payload.extend_from_slice(&1u32.to_le_bytes()); // input_dim
        payload.extend_from_slice(&0.1f32.to_le_bytes()); // lr
        payload.extend_from_slice(&1u32.to_le_bytes()); // n_trees
        payload.extend_from_slice(&1u32.to_le_bytes()); // n_nodes
        payload.push(1); // split
        payload.extend_from_slice(&0u32.to_le_bytes()); // feature
        payload.extend_from_slice(&0.5f32.to_le_bytes()); // threshold
        payload.extend_from_slice(&7u32.to_le_bytes()); // left (out of range)
        payload.extend_from_slice(&8u32.to_le_bytes()); // right
        assert!(matches!(
            gbdt_from_bytes(&frame(&payload)),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn non_finite_leaf_rejected() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&0.0f32.to_le_bytes()); // base
        payload.extend_from_slice(&1u32.to_le_bytes()); // input_dim
        payload.extend_from_slice(&0.1f32.to_le_bytes()); // lr
        payload.extend_from_slice(&1u32.to_le_bytes()); // n_trees
        payload.extend_from_slice(&1u32.to_le_bytes()); // n_nodes
        payload.push(0); // leaf
        payload.extend_from_slice(&f32::NAN.to_le_bytes());
        assert_eq!(
            gbdt_from_bytes(&frame(&payload)).unwrap_err(),
            DecodeError::Corrupt("non-finite leaf value")
        );
    }

    // ── MLP frame ──────────────────────────────────────────────────────

    use crate::mlp::{Mlp, MlpConfig};

    fn trained_mlp() -> (Mlp, Matrix) {
        let mut rng = StdRng::seed_from_u64(11);
        let rows: Vec<Vec<f32>> = (0..128)
            .map(|_| vec![rng.gen::<f32>(), rng.gen::<f32>(), rng.gen::<f32>()])
            .collect();
        let y: Vec<f32> = rows
            .iter()
            .map(|r| 0.5 * r[0] - 0.2 * r[1] + r[2])
            .collect();
        let x = Matrix::from_rows(&rows);
        let mut mlp = Mlp::new(MlpConfig {
            hidden: vec![8, 4],
            epochs: 6,
            batch_size: 32,
            learning_rate: 2e-3,
            seed: 5,
        });
        mlp.fit(&x, &y);
        (mlp, x)
    }

    fn frame_mlp(payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC_MLP);
        bytes.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn mlp_round_trip_preserves_predictions() {
        let (mlp, x) = trained_mlp();
        let bytes = mlp_to_bytes(&mlp);
        let restored = mlp_from_bytes(&bytes).unwrap();
        assert_eq!(mlp.predict_batch(&x), restored.predict_batch(&x));
        assert_eq!(mlp.memory_bytes(), restored.memory_bytes());
    }

    #[test]
    fn mlp_truncation_rejected_at_every_cut() {
        let (mlp, _) = trained_mlp();
        let bytes = mlp_to_bytes(&mlp);
        for cut in 0..bytes.len() {
            assert!(
                mlp_from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn mlp_bit_flip_rejected_everywhere() {
        let (mlp, _) = trained_mlp();
        let clean = mlp_to_bytes(&mlp);
        // Flip one bit per stride across the whole frame (full sweep is
        // quadratic in model size; stride keeps the test fast while still
        // hitting magic, checksum, header, weights, and biases).
        for pos in (0..clean.len()).step_by(7) {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x04;
            assert!(mlp_from_bytes(&bytes).is_err(), "flip at byte {pos}");
        }
    }

    #[test]
    fn mlp_trailing_garbage_rejected() {
        let (mlp, _) = trained_mlp();
        let mut bytes = mlp_to_bytes(&mlp);
        bytes.push(0);
        assert_eq!(
            mlp_from_bytes(&bytes).unwrap_err(),
            DecodeError::ChecksumMismatch
        );
    }

    #[test]
    fn mlp_unchained_layer_shapes_rejected() {
        // Header: input_dim 2, then two layers whose shapes don't chain
        // (2×3 followed by 4×1).
        let mut payload = Vec::new();
        payload.extend_from_slice(&2u32.to_le_bytes()); // input_dim
        payload.extend_from_slice(&1e-3f32.to_le_bytes()); // lr
        payload.extend_from_slice(&0u64.to_le_bytes()); // seed
        payload.extend_from_slice(&1u32.to_le_bytes()); // epochs
        payload.extend_from_slice(&32u32.to_le_bytes()); // batch_size
        payload.extend_from_slice(&0u32.to_le_bytes()); // adam_t
        payload.extend_from_slice(&2u32.to_le_bytes()); // n_layers
        payload.extend_from_slice(&2u32.to_le_bytes()); // in
        payload.extend_from_slice(&3u32.to_le_bytes()); // out
        payload.extend_from_slice(&[0u8; (2 * 3 + 3) * 4]); // w + b
        payload.extend_from_slice(&4u32.to_le_bytes()); // in (wrong: expect 3)
        payload.extend_from_slice(&1u32.to_le_bytes()); // out
        payload.extend_from_slice(&[0u8; (4 + 1) * 4]);
        assert_eq!(
            mlp_from_bytes(&frame_mlp(&payload)).unwrap_err(),
            DecodeError::Corrupt("layer shapes do not chain")
        );
    }

    #[test]
    fn mlp_non_finite_weight_rejected() {
        let (mlp, _) = trained_mlp();
        let mut bytes = mlp_to_bytes(&mlp);
        // Overwrite the first weight (offset: frame 16 + payload header
        // 32 + layer shape 8) with NaN and re-checksum, so structural
        // validation — not the checksum — must catch it.
        let frame = 16;
        bytes[frame + 40..frame + 44].copy_from_slice(&f32::NAN.to_le_bytes());
        let sum = fnv1a64(&bytes[frame..]);
        bytes[8..16].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            mlp_from_bytes(&bytes).unwrap_err(),
            DecodeError::Corrupt("non-finite weight")
        );
    }

    #[test]
    fn mlp_wrong_magic_is_bad_magic() {
        let (gb, _) = trained();
        assert_eq!(
            mlp_from_bytes(&gbdt_to_bytes(&gb)).unwrap_err(),
            DecodeError::BadMagic
        );
    }

    // ── magic dispatch + Regressor::to_bytes ───────────────────────────

    #[test]
    fn regressor_from_bytes_dispatches_on_magic() {
        let (gb, x) = trained();
        let restored = regressor_from_bytes(&gbdt_to_bytes(&gb)).unwrap();
        assert_eq!(restored.model_name(), "GB");
        assert_eq!(restored.predict_batch(&x), gb.predict_batch(&x));

        let (mlp, mx) = trained_mlp();
        let restored = regressor_from_bytes(&mlp_to_bytes(&mlp)).unwrap();
        assert_eq!(restored.model_name(), "NN");
        assert_eq!(restored.predict_batch(&mx), mlp.predict_batch(&mx));

        for bad in [b"XXXXXXXX????????".as_slice(), &[]] {
            match regressor_from_bytes(bad) {
                Err(DecodeError::BadMagic) => {}
                Err(e) => panic!("expected BadMagic, got {e:?}"),
                Ok(_) => panic!("unknown magic must not decode"),
            }
        }
    }

    #[test]
    fn to_bytes_matches_free_functions_and_guards_untrained() {
        let (gb, _) = trained();
        assert_eq!(gb.to_bytes().unwrap(), gbdt_to_bytes(&gb));
        let (mlp, _) = trained_mlp();
        assert_eq!(mlp.to_bytes().unwrap(), mlp_to_bytes(&mlp));
        // Untrained models have no durable form.
        assert!(Gbdt::new(crate::gbdt::GbdtConfig::default())
            .to_bytes()
            .is_none());
        assert!(Mlp::new(MlpConfig::default()).to_bytes().is_none());
        // Families without a serializer fall back to the default None.
        assert!(crate::linreg::LinearRegression::new(0).to_bytes().is_none());
    }
}
