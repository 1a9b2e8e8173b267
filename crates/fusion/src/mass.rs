//! Dempster–Shafer mass functions over small frames of discernment.
//!
//! A frame holds up to 16 hypotheses; subsets are bitmasks ([`Subset`]),
//! so a [`MassFunction`] is a sparse map from focal subsets to masses
//! summing to one. Dempster's rule of combination with conflict
//! normalization ([`MassFunction::combine`]) is the §5.3 operator; the
//! mass left on the full frame Θ is the paper's "belief assigned to
//! unknown possibilities", the feature for which Dempster–Shafer was
//! chosen over Bayes nets ("they require prior estimates ... The data is
//! not yet available for the CBM domain").

use mpros_core::{Durable, Error, Result};
use std::collections::BTreeMap;
use std::fmt;

/// Maximum hypotheses per frame.
pub const MAX_FRAME: usize = 16;

/// Tolerance for mass-sum validation.
const SUM_TOL: f64 = 1e-9;

/// A subset of a frame of discernment, as a bitmask: bit `i` set means
/// hypothesis `i` is in the subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Subset(pub u16);

impl Subset {
    /// The empty set.
    pub const EMPTY: Subset = Subset(0);

    /// The singleton `{i}`.
    pub fn singleton(i: usize) -> Subset {
        debug_assert!(i < MAX_FRAME);
        Subset(1 << i)
    }

    /// The subset containing the given hypothesis indices.
    pub fn of(indices: &[usize]) -> Subset {
        let mut bits = 0u16;
        for &i in indices {
            debug_assert!(i < MAX_FRAME);
            bits |= 1 << i;
        }
        Subset(bits)
    }

    /// The full frame of `n` hypotheses.
    pub fn full(n: usize) -> Subset {
        debug_assert!(n <= MAX_FRAME);
        if n == MAX_FRAME {
            Subset(u16::MAX)
        } else {
            Subset((1u16 << n) - 1)
        }
    }

    /// Set intersection.
    pub fn intersect(self, other: Subset) -> Subset {
        Subset(self.0 & other.0)
    }

    /// Set union.
    pub fn union(self, other: Subset) -> Subset {
        Subset(self.0 | other.0)
    }

    /// True if this is a subset of `other`.
    pub fn is_subset_of(self, other: Subset) -> bool {
        self.0 & !other.0 == 0
    }

    /// True if empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of hypotheses in the subset.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterate the hypothesis indices in the subset.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        (0..MAX_FRAME).filter(move |i| self.0 & (1 << i) != 0)
    }

    /// True if `i` is a member.
    pub fn contains(self, i: usize) -> bool {
        self.0 & (1 << i) != 0
    }
}

impl fmt::Display for Subset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (n, i) in self.iter().enumerate() {
            if n > 0 {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
        }
        write!(f, "}}")
    }
}

/// A basic probability assignment (mass function) over a frame of `n`
/// hypotheses.
///
/// The paper's §5.3 worked example:
///
/// ```
/// use mpros_fusion::{MassFunction, Subset};
///
/// let m1 = MassFunction::simple_support(3, Subset::singleton(0), 0.40).unwrap();
/// let m2 = MassFunction::simple_support(3, Subset::of(&[1, 2]), 0.75).unwrap();
/// let (fused, conflict) = m1.combine(&m2).unwrap();
/// assert!((fused.mass(Subset::singleton(0)) - 1.0 / 7.0).abs() < 1e-12); // A ≈ 14%
/// assert!((fused.mass(Subset::of(&[1, 2])) - 9.0 / 14.0).abs() < 1e-12); // B∪C ≈ 64%
/// assert!((fused.unknown() - 3.0 / 14.0).abs() < 1e-12);                 // Θ ≈ 22%
/// assert!((conflict - 0.30).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MassFunction {
    n: usize,
    /// Focal subsets → mass; deterministic iteration (BTreeMap) keeps
    /// combination results reproducible.
    masses: BTreeMap<Subset, f64>,
}

impl MassFunction {
    /// The vacuous mass function: all mass on Θ ("we know nothing").
    pub fn vacuous(n: usize) -> Result<Self> {
        if n == 0 || n > MAX_FRAME {
            return Err(Error::invalid(format!(
                "frame size must be 1..={MAX_FRAME}, got {n}"
            )));
        }
        let mut masses = BTreeMap::new();
        masses.insert(Subset::full(n), 1.0);
        Ok(MassFunction { n, masses })
    }

    /// A *simple support* function: `belief` on `focus`, remainder on Θ.
    /// This is how a single §7.2 report (condition + belief) enters the
    /// evidence calculus.
    pub fn simple_support(n: usize, focus: Subset, belief: f64) -> Result<Self> {
        let mut m = Self::vacuous(n)?;
        if focus.is_empty() || !focus.is_subset_of(Subset::full(n)) {
            return Err(Error::invalid(
                "support focus must be a nonempty subset of the frame",
            ));
        }
        if !(0.0..=1.0).contains(&belief) || belief.is_nan() {
            return Err(Error::invalid("belief must be in [0,1]"));
        }
        if belief > 0.0 {
            if focus == Subset::full(n) {
                // Support for Θ is vacuous regardless of belief.
                return Ok(m);
            }
            m.masses.insert(focus, belief);
            m.masses.insert(Subset::full(n), 1.0 - belief);
            if belief == 1.0 {
                m.masses.remove(&Subset::full(n));
            }
        }
        Ok(m)
    }

    /// Build from explicit focal masses. Masses must be non-negative and
    /// sum to 1; the empty set may not be focal.
    pub fn from_masses(n: usize, focals: &[(Subset, f64)]) -> Result<Self> {
        if n == 0 || n > MAX_FRAME {
            return Err(Error::invalid("bad frame size"));
        }
        let full = Subset::full(n);
        let mut masses = BTreeMap::new();
        let mut sum = 0.0;
        for &(s, m) in focals {
            if s.is_empty() {
                return Err(Error::invalid("empty set cannot be focal"));
            }
            if !s.is_subset_of(full) {
                return Err(Error::invalid("focal subset outside the frame"));
            }
            if m < 0.0 || m.is_nan() {
                return Err(Error::invalid("masses must be non-negative"));
            }
            if m > 0.0 {
                *masses.entry(s).or_insert(0.0) += m;
            }
            sum += m;
        }
        if (sum - 1.0).abs() > SUM_TOL {
            return Err(Error::invalid(format!("masses sum to {sum}, expected 1")));
        }
        Ok(MassFunction { n, masses })
    }

    /// Frame size.
    pub fn frame_size(&self) -> usize {
        self.n
    }

    /// Mass assigned to exactly `s`.
    pub fn mass(&self, s: Subset) -> f64 {
        self.masses.get(&s).copied().unwrap_or(0.0)
    }

    /// The focal subsets and their masses.
    pub fn focals(&self) -> impl Iterator<Item = (Subset, f64)> + '_ {
        self.masses.iter().map(|(&b, &m)| (b, m))
    }

    /// Belief in `s`: total mass of subsets contained in `s`.
    pub fn belief(&self, s: Subset) -> f64 {
        self.masses
            .iter()
            .filter(|(b, _)| b.is_subset_of(s))
            .map(|(_, &m)| m)
            .sum()
    }

    /// Plausibility of `s`: total mass of subsets intersecting `s`.
    pub fn plausibility(&self, s: Subset) -> f64 {
        self.masses
            .iter()
            .filter(|(b, _)| !b.intersect(s).is_empty())
            .map(|(_, &m)| m)
            .sum()
    }

    /// The paper's "belief assigned to unknown possibilities": the mass
    /// remaining on the full frame Θ.
    pub fn unknown(&self) -> f64 {
        self.mass(Subset::full(self.n))
    }

    /// Dempster's rule of combination with conflict normalization.
    /// Returns the combined mass and the conflict `K` that was
    /// normalized out. The combined masses are divided by their own sum
    /// (`1 − K` for exact inputs), so they sum to one within rounding
    /// however long a chain of combinations runs. Fails on totally
    /// conflicting evidence (`K = 1`) or mismatched frames.
    pub fn combine(&self, other: &MassFunction) -> Result<(MassFunction, f64)> {
        if self.n != other.n {
            return Err(Error::invalid(format!(
                "frame size mismatch: {} vs {}",
                self.n, other.n
            )));
        }
        let mut out: BTreeMap<Subset, f64> = BTreeMap::new();
        let mut conflict = 0.0;
        for (&a, &ma) in &self.masses {
            for (&b, &mb) in &other.masses {
                let c = a.intersect(b);
                let w = ma * mb;
                if c.is_empty() {
                    conflict += w;
                } else {
                    *out.entry(c).or_insert(0.0) += w;
                }
            }
        }
        // Normalise by the non-conflicting mass actually summed. Dividing
        // by 1 − K instead would carry any rounding drift in the inputs'
        // sums forward, amplified by 1/(1 − K) on every conflicting
        // combination.
        let kept: f64 = out.values().sum();
        if kept <= SUM_TOL {
            return Err(Error::invalid(
                "totally conflicting evidence cannot be combined",
            ));
        }
        for m in out.values_mut() {
            *m /= kept;
        }
        // Keep every focal mass > 0, as `from_masses` and the decoder
        // require: long consistent evidence underflows a rival to 0.0.
        out.retain(|_, m| *m > 0.0);
        Ok((
            MassFunction {
                n: self.n,
                masses: out,
            },
            conflict,
        ))
    }
}

/// A subset travels as a `u32` bitmask; bits above the `u16` frame
/// limit are refused.
impl Durable for Subset {
    fn encode(&self, out: &mut Vec<u8>) {
        u32::from(self.0).encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        u16::try_from(u32::decode(input)?)
            .map(Subset)
            .map_err(|_| Error::invalid("durable mass: focal bits exceed u16"))
    }
}

/// Bit-exact wire form: frame size, then the focal map in the keyed
/// encoding (ascending bitmask order, raw `f64` masses). Decoding
/// revalidates every invariant `from_masses` enforces (nonempty focals
/// inside the frame, masses positive and summing to one), so a decoded
/// function is indistinguishable from the one encoded.
impl Durable for MassFunction {
    fn encode(&self, out: &mut Vec<u8>) {
        self.n.encode(out);
        self.masses.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        let n = usize::decode(input)?;
        if n == 0 || n > MAX_FRAME {
            return Err(Error::invalid(format!("durable mass: bad frame size {n}")));
        }
        let full = Subset::full(n);
        let masses = BTreeMap::<Subset, f64>::decode(input)?;
        let mut sum = 0.0;
        for (&s, &m) in &masses {
            if s.is_empty() || !s.is_subset_of(full) {
                return Err(Error::invalid(format!(
                    "durable mass: focal {s} outside the {n}-hypothesis frame"
                )));
            }
            if !m.is_finite() || m <= 0.0 {
                return Err(Error::invalid(format!("durable mass: bad mass {m}")));
            }
            sum += m;
        }
        if (sum - 1.0).abs() > SUM_TOL {
            return Err(Error::invalid(format!(
                "durable mass: masses sum to {sum}, expected 1"
            )));
        }
        Ok(MassFunction { n, masses })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// §5.3 worked example: Bel(A) = 0.40 combined with Bel(B∪C) = 0.75
    /// yields A 14%, B∪C 64%, unknown 22%.
    #[test]
    fn paper_worked_example() {
        let a = Subset::singleton(0);
        let bc = Subset::of(&[1, 2]);
        let m1 = MassFunction::simple_support(3, a, 0.40).unwrap();
        let m2 = MassFunction::simple_support(3, bc, 0.75).unwrap();
        let (fused, conflict) = m1.combine(&m2).unwrap();
        // K = 0.4 · 0.75 = 0.30.
        assert!((conflict - 0.30).abs() < 1e-12);
        assert!((fused.mass(a) - 1.0 / 7.0).abs() < 1e-12, "A = 14%");
        assert!((fused.mass(bc) - 4.5 / 7.0).abs() < 1e-12, "B∪C = 64%");
        assert!((fused.unknown() - 1.5 / 7.0).abs() < 1e-12, "unknown = 22%");
        // Rounded percentages exactly as printed in the paper.
        assert_eq!((fused.mass(a) * 100.0).round() as i32, 14);
        assert_eq!((fused.mass(bc) * 100.0).round() as i32, 64);
        assert_eq!((fused.unknown() * 100.0).round() as i32, 21); // 21.4 — paper says 22 (truncation of 3/14)
    }

    #[test]
    fn subset_algebra() {
        let a = Subset::of(&[0, 2]);
        let b = Subset::of(&[1, 2]);
        assert_eq!(a.intersect(b), Subset::singleton(2));
        assert_eq!(a.union(b), Subset::of(&[0, 1, 2]));
        assert!(Subset::singleton(2).is_subset_of(a));
        assert!(!a.is_subset_of(b));
        assert_eq!(a.len(), 2);
        assert!(Subset::EMPTY.is_empty());
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 2]);
        assert!(a.contains(0) && !a.contains(1));
        assert_eq!(Subset::full(3).0, 0b111);
        assert_eq!(Subset::full(16).0, u16::MAX);
        assert_eq!(a.to_string(), "{0,2}");
    }

    #[test]
    fn vacuous_is_identity_for_combination() {
        let m = MassFunction::simple_support(4, Subset::singleton(1), 0.6).unwrap();
        let v = MassFunction::vacuous(4).unwrap();
        let (fused, k) = m.combine(&v).unwrap();
        assert_eq!(k, 0.0);
        assert!((fused.mass(Subset::singleton(1)) - 0.6).abs() < 1e-12);
        assert!((fused.unknown() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn reinforcing_evidence_increases_belief() {
        let s = Subset::singleton(0);
        let m1 = MassFunction::simple_support(3, s, 0.5).unwrap();
        let m2 = MassFunction::simple_support(3, s, 0.5).unwrap();
        let (fused, k) = m1.combine(&m2).unwrap();
        assert_eq!(k, 0.0);
        assert!((fused.belief(s) - 0.75).abs() < 1e-12, "0.5 ⊕ 0.5 = 0.75");
    }

    #[test]
    fn conflicting_singletons_normalize() {
        let m1 = MassFunction::simple_support(2, Subset::singleton(0), 0.8).unwrap();
        let m2 = MassFunction::simple_support(2, Subset::singleton(1), 0.6).unwrap();
        let (fused, k) = m1.combine(&m2).unwrap();
        assert!((k - 0.48).abs() < 1e-12);
        let total: f64 = fused.focals().map(|(_, m)| m).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(fused.belief(Subset::singleton(0)) > fused.belief(Subset::singleton(1)));
    }

    #[test]
    fn total_conflict_is_an_error() {
        let m1 = MassFunction::simple_support(2, Subset::singleton(0), 1.0).unwrap();
        let m2 = MassFunction::simple_support(2, Subset::singleton(1), 1.0).unwrap();
        assert!(m1.combine(&m2).is_err());
    }

    #[test]
    fn frame_mismatch_is_an_error() {
        let m1 = MassFunction::vacuous(2).unwrap();
        let m2 = MassFunction::vacuous(3).unwrap();
        assert!(m1.combine(&m2).is_err());
    }

    #[test]
    fn construction_validation() {
        assert!(MassFunction::vacuous(0).is_err());
        assert!(MassFunction::vacuous(17).is_err());
        assert!(MassFunction::simple_support(3, Subset::EMPTY, 0.5).is_err());
        assert!(MassFunction::simple_support(3, Subset::singleton(0), 1.5).is_err());
        assert!(MassFunction::simple_support(3, Subset::of(&[5]), 0.5).is_err());
        assert!(MassFunction::from_masses(3, &[(Subset::singleton(0), 0.5)]).is_err());
        assert!(MassFunction::from_masses(
            3,
            &[(Subset::singleton(0), 0.5), (Subset::full(3), 0.5)]
        )
        .is_ok());
        assert!(MassFunction::from_masses(3, &[(Subset::EMPTY, 1.0)]).is_err());
    }

    #[test]
    fn durable_roundtrip_is_bit_exact() {
        let m1 = MassFunction::simple_support(3, Subset::singleton(0), 0.40).unwrap();
        let m2 = MassFunction::simple_support(3, Subset::of(&[1, 2]), 0.75).unwrap();
        let (fused, _) = m1.combine(&m2).unwrap();
        let bytes = fused.to_durable_bytes();
        let back = MassFunction::from_durable_bytes(&bytes).unwrap();
        assert_eq!(back, fused);
        assert_eq!(back.to_durable_bytes(), bytes, "canonical encoding");
    }

    /// Repeating one consistent report drives Θ's mass to exactly 0.0
    /// (after 108 combines at the fusion cap 0.999, 814 at 0.6). The
    /// combined function must still round-trip, so the zero focal set
    /// is dropped rather than kept.
    #[test]
    fn long_consistent_evidence_chains_stay_durable() {
        for (belief, combines) in [(0.999, 108), (0.6, 814)] {
            let evidence = MassFunction::simple_support(3, Subset::singleton(0), belief).unwrap();
            let mut m = MassFunction::vacuous(3).unwrap();
            for _ in 0..combines {
                m = m.combine(&evidence).unwrap().0;
            }
            assert_eq!(m.unknown(), 0.0, "b = {belief}: Θ underflowed");
            assert!(m.focals().all(|(_, w)| w > 0.0), "b = {belief}");
            let bytes = m.to_durable_bytes();
            let back = MassFunction::from_durable_bytes(&bytes)
                .unwrap_or_else(|e| panic!("b = {belief}, {combines} combines: {e}"));
            assert_eq!(back.to_durable_bytes(), bytes, "b = {belief}");
        }
    }

    #[test]
    fn durable_rejects_corrupt_payloads() {
        let m = MassFunction::simple_support(3, Subset::singleton(1), 0.5).unwrap();
        let bytes = m.to_durable_bytes();
        // Truncation is rejected.
        assert!(MassFunction::from_durable_bytes(&bytes[..bytes.len() - 1]).is_err());
        // A flipped mass byte breaks the sum-to-one invariant.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(MassFunction::from_durable_bytes(&bad).is_err());
    }

    #[test]
    fn full_support_of_theta_is_vacuous() {
        let m = MassFunction::simple_support(3, Subset::full(3), 0.9).unwrap();
        assert_eq!(m.unknown(), 1.0);
    }

    #[test]
    fn certain_support_leaves_no_unknown() {
        let m = MassFunction::simple_support(3, Subset::singleton(1), 1.0).unwrap();
        assert_eq!(m.unknown(), 0.0);
        assert_eq!(m.belief(Subset::singleton(1)), 1.0);
    }

    fn arb_mass(n: usize) -> impl Strategy<Value = MassFunction> {
        proptest::collection::vec((1u16..Subset::full(n).0 + 1, 0.01..1.0f64), 1..5).prop_map(
            move |raw| {
                let total: f64 = raw.iter().map(|(_, w)| w).sum();
                let focals: Vec<(Subset, f64)> =
                    raw.iter().map(|&(b, w)| (Subset(b), w / total)).collect();
                MassFunction::from_masses(n, &focals).unwrap()
            },
        )
    }

    proptest! {
        #[test]
        fn combination_is_commutative(a in arb_mass(4), b in arb_mass(4)) {
            match (a.combine(&b), b.combine(&a)) {
                (Ok((ab, ka)), Ok((ba, kb))) => {
                    prop_assert!((ka - kb).abs() < 1e-9);
                    for (s, m) in ab.focals() {
                        prop_assert!((m - ba.mass(s)).abs() < 1e-9);
                    }
                }
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "asymmetric failure"),
            }
        }

        #[test]
        fn combined_masses_sum_to_one(a in arb_mass(4), b in arb_mass(4)) {
            if let Ok((fused, _)) = a.combine(&b) {
                let total: f64 = fused.focals().map(|(_, m)| m).sum();
                prop_assert!((total - 1.0).abs() < 1e-9);
            }
        }

        #[test]
        fn belief_below_plausibility(m in arb_mass(4), bits in 1u16..16) {
            let s = Subset(bits);
            prop_assert!(m.belief(s) <= m.plausibility(s) + 1e-12);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&m.belief(s)));
            prop_assert!((0.0..=1.0 + 1e-12).contains(&m.plausibility(s)));
        }

        #[test]
        fn combining_raises_specificity(a in arb_mass(4), b in arb_mass(4)) {
            // Dempster combination never moves mass to strictly larger
            // subsets: unknown() can only shrink or hold.
            if let Ok((fused, _)) = a.combine(&b) {
                prop_assert!(fused.unknown() <= a.unknown().min(b.unknown()) + 1e-9);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// A long chain of high-conflict combinations, each against a
        /// strong simple support on a random subset, keeps the mass sum
        /// within 1e-12 of one and every mass in [0, 1].
        #[test]
        fn chained_high_conflict_combines_stay_normalised(
            supports in proptest::collection::vec((1u16..16, 0.80..0.99f64), 64..=64)
        ) {
            let mut m = MassFunction::vacuous(4).unwrap();
            for step in 0..10_000 {
                let (bits, belief) = supports[step % supports.len()];
                let evidence = MassFunction::simple_support(4, Subset(bits), belief).unwrap();
                m = m.combine(&evidence).unwrap().0;
                let total: f64 = m.focals().map(|(_, w)| w).sum();
                prop_assert!((total - 1.0).abs() <= 1e-12, "step {step}: sum {total}");
                prop_assert!(m.focals().all(|(_, w)| (0.0..=1.0).contains(&w)));
            }
        }
    }
}
