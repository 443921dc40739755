//! Canonical byte encoding for proofs.
//!
//! Proofs cross trust boundaries, so they get an explicit wire format
//! rather than a derive: field elements as 32-byte little-endian canonical
//! integers, curve points as 65-byte uncompressed affine
//! (`x ‖ y ‖ infinity-flag`), laid out in the order the [`Proof`] struct
//! declares. Decoding validates range (non-canonical field encodings are
//! rejected) and curve membership, and accepts the identity only with
//! zero coordinates, so every point has exactly one encoding.

use unintt_ff::{Bn254Fq, Bn254Fr, Field, PrimeField, U256};
use unintt_msm::{G1Affine, G1Projective};

use crate::Proof;

/// Size of one encoded field element.
const FR_BYTES: usize = 32;
/// Size of one encoded curve point.
const POINT_BYTES: usize = 65;
/// Total encoded proof size: 6 points + 14 scalars + 2 opening points.
pub const PROOF_BYTES: usize = 7 * POINT_BYTES + 14 * FR_BYTES;

/// Errors from [`Proof::from_bytes`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Input has the wrong length.
    Length {
        /// Expected byte count.
        expected: usize,
        /// Received byte count.
        got: usize,
    },
    /// A field element was not in canonical (reduced) form.
    NonCanonicalField,
    /// A point was not on the curve.
    NotOnCurve,
    /// The infinity flag byte was neither 0 nor 1.
    BadInfinityFlag,
    /// The infinity flag was set over nonzero coordinate bytes.
    NonZeroIdentity,
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeError::Length { expected, got } => {
                write!(f, "proof must be {expected} bytes, got {got}")
            }
            DecodeError::NonCanonicalField => f.write_str("field element out of range"),
            DecodeError::NotOnCurve => f.write_str("point not on the curve"),
            DecodeError::BadInfinityFlag => f.write_str("invalid infinity flag"),
            DecodeError::NonZeroIdentity => f.write_str("identity point with nonzero coordinates"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn put_fr(out: &mut Vec<u8>, v: &Bn254Fr) {
    out.extend_from_slice(&v.to_canonical_u256().to_le_bytes());
}

fn put_point(out: &mut Vec<u8>, p: &G1Projective) {
    let affine = p.to_affine();
    out.extend_from_slice(&affine.x.to_canonical_u256().to_le_bytes());
    out.extend_from_slice(&affine.y.to_canonical_u256().to_le_bytes());
    out.push(affine.infinity as u8);
}

fn get_fq(bytes: &[u8]) -> Result<Bn254Fq, DecodeError> {
    let mut buf = [0u8; 32];
    buf.copy_from_slice(bytes);
    let v = U256::from_le_bytes(buf);
    if !v.lt(&Bn254Fq::MODULUS) {
        return Err(DecodeError::NonCanonicalField);
    }
    Ok(Bn254Fq::from_u256(v))
}

fn get_fr(bytes: &[u8]) -> Result<Bn254Fr, DecodeError> {
    let mut buf = [0u8; 32];
    buf.copy_from_slice(bytes);
    let v = U256::from_le_bytes(buf);
    if !v.lt(&Bn254Fr::MODULUS) {
        return Err(DecodeError::NonCanonicalField);
    }
    Ok(Bn254Fr::from_u256(v))
}

fn get_point(bytes: &[u8]) -> Result<G1Projective, DecodeError> {
    let x = get_fq(&bytes[..32])?;
    let y = get_fq(&bytes[32..64])?;
    let affine = match bytes[64] {
        0 => G1Affine {
            x,
            y,
            infinity: false,
        },
        // `put_point` writes the identity as zeros; anything else under
        // the flag would be a second encoding of the same proof.
        1 if x.is_zero() && y.is_zero() => G1Affine::identity(),
        1 => return Err(DecodeError::NonZeroIdentity),
        _ => return Err(DecodeError::BadInfinityFlag),
    };
    if !affine.is_on_curve() {
        return Err(DecodeError::NotOnCurve);
    }
    Ok(affine.to_projective())
}

impl Proof {
    /// Encodes the proof into its canonical byte representation
    /// ([`PROOF_BYTES`] bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(PROOF_BYTES);
        for w in &self.wire_commits {
            put_point(&mut out, w);
        }
        put_point(&mut out, &self.z_commit);
        put_point(&mut out, &self.quotient_commit);
        for e in &self.evals {
            put_fr(&mut out, e);
        }
        put_fr(&mut out, &self.z_omega_eval);
        put_point(&mut out, &self.opening);
        put_point(&mut out, &self.opening_omega);
        debug_assert_eq!(out.len(), PROOF_BYTES);
        out
    }

    /// FNV-1a digest of the canonical encoding — a stable 64-bit
    /// fingerprint for comparing proofs across scheduling paths (the
    /// DAG-pipelined and monolithic provers must produce equal digests).
    pub fn content_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.to_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Decodes a proof, validating field ranges and curve membership.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed input. A successfully decoded
    /// proof is well-formed but not necessarily *valid* — run
    /// [`crate::verify`] for that.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        if bytes.len() != PROOF_BYTES {
            return Err(DecodeError::Length {
                expected: PROOF_BYTES,
                got: bytes.len(),
            });
        }
        let mut off = 0usize;
        let next_point = |bytes: &[u8], off: &mut usize| -> Result<G1Projective, DecodeError> {
            let p = get_point(&bytes[*off..*off + POINT_BYTES])?;
            *off += POINT_BYTES;
            Ok(p)
        };
        let wire_commits = [
            next_point(bytes, &mut off)?,
            next_point(bytes, &mut off)?,
            next_point(bytes, &mut off)?,
        ];
        let z_commit = next_point(bytes, &mut off)?;
        let quotient_commit = next_point(bytes, &mut off)?;
        let mut evals = [Bn254Fr::ZERO; 13];
        for e in evals.iter_mut() {
            *e = get_fr(&bytes[off..off + FR_BYTES])?;
            off += FR_BYTES;
        }
        let z_omega_eval = get_fr(&bytes[off..off + FR_BYTES])?;
        off += FR_BYTES;
        let opening = next_point(bytes, &mut off)?;
        let opening_omega = next_point(bytes, &mut off)?;
        debug_assert_eq!(off, PROOF_BYTES);
        Ok(Proof {
            wire_commits,
            z_commit,
            quotient_commit,
            evals,
            z_omega_eval,
            opening,
            opening_omega,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{prove, random_circuit, setup, verify, Backend};
    use rand::{rngs::StdRng, SeedableRng};

    fn sample_proof() -> (Proof, crate::VerifyingKey) {
        let mut rng = StdRng::seed_from_u64(1);
        let (circuit, witness) = random_circuit(10, &mut rng);
        let (pk, vk) = setup(&circuit, &mut rng);
        (prove(&pk, &witness, &[], &mut Backend::cpu()), vk)
    }

    #[test]
    fn roundtrip_preserves_proof_and_validity() {
        let (proof, vk) = sample_proof();
        let bytes = proof.to_bytes();
        assert_eq!(bytes.len(), PROOF_BYTES);
        let decoded = Proof::from_bytes(&bytes).expect("well-formed");
        assert_eq!(decoded, proof);
        assert!(verify(&vk, &decoded, &[]));
    }

    #[test]
    fn wrong_length_rejected() {
        let (proof, _) = sample_proof();
        let mut bytes = proof.to_bytes();
        bytes.pop();
        assert!(matches!(
            Proof::from_bytes(&bytes),
            Err(DecodeError::Length { .. })
        ));
        assert!(matches!(
            Proof::from_bytes(&[]),
            Err(DecodeError::Length { .. })
        ));
    }

    #[test]
    fn non_canonical_field_rejected() {
        let (proof, _) = sample_proof();
        let mut bytes = proof.to_bytes();
        // Set an eval (offset: after 5 points) to the field modulus.
        let off = 5 * POINT_BYTES;
        bytes[off..off + 32].copy_from_slice(&unintt_ff::Bn254Fr::MODULUS.to_le_bytes());
        assert_eq!(
            Proof::from_bytes(&bytes),
            Err(DecodeError::NonCanonicalField)
        );
    }

    #[test]
    fn off_curve_point_rejected() {
        let (proof, _) = sample_proof();
        let mut bytes = proof.to_bytes();
        // Corrupt the x-coordinate of the first commitment.
        bytes[0] ^= 1;
        let err = Proof::from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                DecodeError::NotOnCurve | DecodeError::NonCanonicalField
            ),
            "{err:?}"
        );
    }

    #[test]
    fn bad_infinity_flag_rejected() {
        let (proof, _) = sample_proof();
        let mut bytes = proof.to_bytes();
        bytes[64] = 7;
        assert_eq!(Proof::from_bytes(&bytes), Err(DecodeError::BadInfinityFlag));
    }

    #[test]
    fn identity_has_one_encoding() {
        let (proof, _) = sample_proof();
        let mut bytes = proof.to_bytes();
        // The second wire commitment's slot, rewritten as the identity.
        let slot = POINT_BYTES..2 * POINT_BYTES;
        let mut identity = Vec::new();
        put_point(&mut identity, &G1Projective::identity());
        bytes[slot.clone()].copy_from_slice(&identity);
        let decoded = Proof::from_bytes(&bytes).expect("the identity's own encoding");
        assert!(decoded.wire_commits[1].is_identity());
        assert_eq!(decoded.to_bytes(), bytes);
        // Bits of x and of y that leave both below the modulus.
        for bit in [0, 7, 100, 253, 256, 256 + 200] {
            let mut flipped = bytes.clone();
            flipped[slot.start + bit / 8] ^= 1 << (bit % 8);
            assert_eq!(
                Proof::from_bytes(&flipped),
                Err(DecodeError::NonZeroIdentity),
                "bit {bit}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        // Each of the encoding's 8·PROOF_BYTES bits, flipped alone: a
        // typed decode error or a failed verification, never a panic.
        let (proof, vk) = sample_proof();
        let bytes = proof.to_bytes();
        let mut decoded_flips = 0;
        for bit in 0..8 * bytes.len() {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Ok(decoded) = Proof::from_bytes(&flipped) {
                assert!(!verify(&vk, &decoded, &[]), "bit {bit} verified");
                decoded_flips += 1;
            }
        }
        // Both outcomes occur, so the verifier is reached, not only the
        // decoder.
        assert!((1..8 * bytes.len()).contains(&decoded_flips));
    }

    #[test]
    fn tampered_bytes_decode_but_fail_verification() {
        let (proof, vk) = sample_proof();
        let mut bytes = proof.to_bytes();
        // Flip one bit inside an evaluation (keeps it canonical whp).
        let off = 5 * POINT_BYTES + 3;
        bytes[off] ^= 1;
        if let Ok(decoded) = Proof::from_bytes(&bytes) {
            assert!(!verify(&vk, &decoded, &[]));
        }
    }
}
