//! Canonical block fingerprints.
//!
//! A fingerprint answers "have we composed this block before?" with a
//! hashable key. Two regimes:
//!
//! * **Two-qubit unitaries** quantize the Makhlin invariant pair
//!   `(G₁, G₂)` — two gates share a fingerprint iff they are locally
//!   equivalent (interchangeable up to single-qubit dressings), which
//!   is exactly the class KAK resynthesis collapses.
//! * **Larger unitaries** (the composer's 8×8 three-qubit blocks)
//!   have no small invariant set, so the fingerprint is a
//!   *phase-fixed canonical-form digest*: the global phase is fixed
//!   by rotating the largest-magnitude entry onto the positive real
//!   axis, every entry is bucketed at the quantization tolerance, and
//!   the bucket grid is FNV-hashed. Equal digests mean equal
//!   unitaries up to global phase and sub-tolerance error — an
//!   exact-replay key, deliberately stricter than local equivalence,
//!   because cached ansatz parameters reproduce the *specific*
//!   unitary they were annealed against.
//!
//! The quantization tolerance ([`FINGERPRINT_TOL`]) sits three orders
//! of magnitude below the composer's ε, so a fingerprint collision
//! can never smuggle an ε-distinct unitary past the re-verification
//! gate — and the gate runs anyway. The coarse variant
//! ([`BlockFingerprint::coarse`], [`COARSE_TOL_FACTOR`]× wider
//! buckets) keys the near-miss index used for annealer warm-starts.

use geyser_num::{CMatrix, Complex};
use geyser_store::fnv1a_bytes;
use geyser_synth::makhlin_invariants;
use serde::{Deserialize, Serialize};

/// Quantization tolerance for exact fingerprints. Three orders of
/// magnitude below the default composition ε (1e-3): bucket-boundary
/// splits are possible (two nearly-equal unitaries missing each
/// other — safe, just a lost hit) but bucket collisions across an ε
/// gap are not.
pub const FINGERPRINT_TOL: f64 = 1e-6;

/// Bucket-width multiplier for the coarse (near-miss) fingerprint.
pub const COARSE_TOL_FACTOR: f64 = 16.0;

/// Snaps a value to its tolerance bucket.
///
/// Non-finite inputs fold into a sentinel bucket so a NaN-poisoned
/// matrix can never alias a real fingerprint.
pub fn quantize(x: f64, tol: f64) -> i64 {
    if !x.is_finite() {
        return i64::MAX;
    }
    let b = (x / tol).round();
    if b >= i64::MAX as f64 {
        i64::MAX - 1
    } else if b <= i64::MIN as f64 {
        i64::MIN + 1
    } else {
        b as i64
    }
}

/// A canonical, hashable block-equivalence key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BlockFingerprint {
    /// Quantized Makhlin invariants `(Re G₁, Im G₁, G₂)` of a 4×4
    /// unitary: equal variants ⇔ locally equivalent gates.
    TwoQubit {
        /// Bucketed `Re G₁`.
        g1_re: i64,
        /// Bucketed `Im G₁`.
        g1_im: i64,
        /// Bucketed `G₂`.
        g2: i64,
    },
    /// Phase-fixed canonical-form digest of a `dim×dim` unitary:
    /// equal variants ⇔ equal unitaries up to global phase (within
    /// the bucket tolerance).
    Canonical {
        /// Matrix dimension (8 for three-qubit blocks).
        dim: u8,
        /// FNV-1a hash of the phase-fixed bucket grid.
        digest: u64,
    },
}

impl BlockFingerprint {
    /// Fingerprints a unitary at the standard tolerance: Makhlin
    /// invariants for 4×4 inputs, canonical digest otherwise.
    ///
    /// Returns `None` for non-square, non-unitary, or non-finite
    /// matrices.
    pub fn of(u: &CMatrix) -> Option<BlockFingerprint> {
        Self::with_tol(u, FINGERPRINT_TOL)
    }

    /// Fingerprints at [`COARSE_TOL_FACTOR`]× wider buckets — the
    /// near-miss key for annealer warm-starts.
    pub fn coarse(u: &CMatrix) -> Option<BlockFingerprint> {
        Self::with_tol(u, FINGERPRINT_TOL * COARSE_TOL_FACTOR)
    }

    /// Fingerprints at an explicit bucket tolerance.
    pub fn with_tol(u: &CMatrix, tol: f64) -> Option<BlockFingerprint> {
        if !u.is_square() || !u.is_finite() {
            return None;
        }
        if u.rows() == 4 {
            let (g1, g2) = makhlin_invariants(u)?;
            return Some(BlockFingerprint::TwoQubit {
                g1_re: quantize(g1.re, tol),
                g1_im: quantize(g1.im, tol),
                g2: quantize(g2, tol),
            });
        }
        let digest = canonical_digest(u, tol)?;
        Some(BlockFingerprint::Canonical {
            dim: u.rows().min(u8::MAX as usize) as u8,
            digest,
        })
    }

    /// Stable label of the fingerprint kind (part of the key digest).
    pub fn kind_label(&self) -> &'static str {
        match self {
            BlockFingerprint::TwoQubit { .. } => "two-qubit",
            BlockFingerprint::Canonical { .. } => "canonical",
        }
    }

    /// The three integer components (part of the key digest).
    pub fn components(&self) -> (i64, i64, i64) {
        match *self {
            BlockFingerprint::TwoQubit { g1_re, g1_im, g2 } => (g1_re, g1_im, g2),
            BlockFingerprint::Canonical { dim, digest } => (dim as i64, digest as i64, 0),
        }
    }
}

/// Phase-fixed, tolerance-bucketed digest of a unitary.
///
/// The global phase is fixed by rotating the first largest-magnitude
/// entry onto the positive real axis; each entry's real and imaginary
/// parts are then bucketed at `tol` and the grid FNV-hashed together
/// with the dimension. Returns `None` for empty or non-finite input.
pub fn canonical_digest(u: &CMatrix, tol: f64) -> Option<u64> {
    if !u.is_finite() || u.rows() == 0 {
        return None;
    }
    let mut pivot = Complex::ZERO;
    let mut pivot_norm = 0.0f64;
    for &x in u.as_slice() {
        let n = x.norm_sqr();
        if n > pivot_norm {
            pivot_norm = n;
            pivot = x;
        }
    }
    if pivot_norm <= 1e-24 {
        return None;
    }
    // Rotate the pivot onto the positive real axis: v = u · e^{-iθ}.
    let rot = Complex::cis(-pivot.arg());
    let mut bytes = Vec::with_capacity(16 + u.as_slice().len() * 16);
    bytes.extend_from_slice(&(u.rows() as u64).to_le_bytes());
    bytes.extend_from_slice(&(u.cols() as u64).to_le_bytes());
    for &x in u.as_slice() {
        let y = x * rot;
        bytes.extend_from_slice(&quantize(y.re, tol).to_le_bytes());
        bytes.extend_from_slice(&quantize(y.im, tol).to_le_bytes());
    }
    Some(fnv1a_bytes(&bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_buckets_and_sentinels() {
        assert_eq!(quantize(0.0, 1e-6), 0);
        assert_eq!(quantize(1.0, 1e-6), 1_000_000);
        assert_eq!(quantize(2.4e-6, 1e-6), 2);
        assert_eq!(quantize(f64::NAN, 1e-6), i64::MAX);
        assert_eq!(quantize(f64::INFINITY, 1e-6), i64::MAX);
        assert_eq!(quantize(1e300, 1e-6), i64::MAX - 1);
        assert_eq!(quantize(-1e300, 1e-6), i64::MIN + 1);
    }

    #[test]
    fn canonical_digest_is_global_phase_invariant() {
        let u = CMatrix::identity(8);
        let v = u.scale(Complex::cis(1.234));
        let a = canonical_digest(&u, FINGERPRINT_TOL).unwrap();
        let b = canonical_digest(&v, FINGERPRINT_TOL).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn canonical_digest_separates_distinct_unitaries() {
        let u = CMatrix::identity(8);
        let mut diag = vec![Complex::ONE; 8];
        diag[7] = Complex::cis(0.5);
        let v = CMatrix::from_diagonal(&diag);
        assert_ne!(
            canonical_digest(&u, FINGERPRINT_TOL).unwrap(),
            canonical_digest(&v, FINGERPRINT_TOL).unwrap()
        );
    }

    #[test]
    fn rejects_garbage_input() {
        let nan = CMatrix::from_fn(8, 8, |_, _| Complex::new(f64::NAN, 0.0));
        assert!(BlockFingerprint::of(&nan).is_none());
        let zero = CMatrix::zeros(8, 8);
        assert!(BlockFingerprint::of(&zero).is_none());
    }
}
