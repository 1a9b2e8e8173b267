//! The `Durable` serialization trait: the persistence counterpart of the
//! wire codec.
//!
//! The paper's OOSM provides "relational persistence" (§4); anything that
//! must survive a PDME process restart — condition reports, fused beliefs,
//! maintenance histories — needs a byte representation that is *stable*
//! (a snapshot written by one run decodes identically in the next) and
//! *canonical* (the same state always encodes to the same bytes, so
//! crash-restore equivalence can be checked byte-for-byte). JSON via
//! serde gives neither for free (map ordering, float formatting), so
//! durable state uses the same hand-rolled binary discipline as the
//! network codec:
//!
//! * integers are little-endian, fixed width;
//! * `f64` travels as its IEEE-754 bit pattern (`to_bits`), so every
//!   value — including negative zero — round-trips exactly;
//! * strings and sequences are length-prefixed (`u64` count, then
//!   elements);
//! * keyed maps and sets (`BTreeMap`, `HashMap`, `BTreeSet`) are one
//!   rule: the entry count, then the entries in strictly ascending key
//!   order, whatever the container's own iteration order, so a
//!   `HashMap` and a `BTreeMap` holding the same entries encode to the
//!   same bytes; decoding refuses a key not greater than the one before
//!   it, which also rules out duplicates;
//! * enums encode a stable small-integer tag (their catalog index).
//!
//! Decoding is strict: trailing bytes, out-of-range tags and
//! out-of-range numeric values are errors, never silently repaired.

use crate::belief::Belief;
use crate::condition::{FailureGroup, MachineCondition};
use crate::error::{Error, Result};
use crate::id::{DcId, KnowledgeSourceId, MachineId, ObjectId, ReportId, SensorId};
use crate::prognostic::{PrognosticPoint, PrognosticVector};
use crate::report::ConditionReport;
use crate::severity::Severity;
use crate::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{BuildHasher, Hash};

/// A type with a stable, canonical binary form for persistence.
///
/// `encode` appends the representation to `out`; `decode` consumes
/// exactly the bytes `encode` produced from the front of `input`. The
/// contract is `decode(encode(x)) == x` with every byte consumed, and
/// equal values always produce equal bytes (canonical form).
pub trait Durable: Sized {
    /// Append this value's canonical byte form to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Consume this value's byte form from the front of `input`.
    fn decode(input: &mut &[u8]) -> Result<Self>;

    /// The value as a standalone byte vector.
    fn to_durable_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decode a standalone byte vector, rejecting trailing bytes.
    fn from_durable_bytes(bytes: &[u8]) -> Result<Self> {
        let mut input = bytes;
        let value = Self::decode(&mut input)?;
        if !input.is_empty() {
            return Err(Error::invalid(format!(
                "durable decode left {} trailing byte(s)",
                input.len()
            )));
        }
        Ok(value)
    }
}

/// Take `n` bytes off the front of `input` or fail.
pub fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if input.len() < n {
        return Err(Error::invalid(format!(
            "durable decode needs {n} byte(s), only {} left",
            input.len()
        )));
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Ok(head)
}

impl Durable for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        Ok(take(input, 1)?[0])
    }
}

impl Durable for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        let bytes = take(input, 4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }
}

impl Durable for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        let bytes = take(input, 8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }
}

impl Durable for i64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        let bytes = take(input, 8)?;
        Ok(i64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }
}

impl Durable for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        let raw = u64::decode(input)?;
        usize::try_from(raw).map_err(|_| Error::invalid("usize overflow in durable decode"))
    }
}

impl Durable for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        match u8::decode(input)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(Error::invalid(format!("bool tag {other} out of range"))),
        }
    }
}

impl Durable for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        Ok(f64::from_bits(u64::decode(input)?))
    }
}

impl Durable for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        let len = usize::decode(input)?;
        let bytes = take(input, len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| Error::invalid("durable string is not UTF-8"))
    }
}

impl<T: Durable> Durable for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for item in self {
            item.encode(out);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        let len = usize::decode(input)?;
        // Guard against a corrupt length prefix demanding absurd
        // preallocation; elements are at least one byte each.
        if len > input.len() {
            return Err(Error::invalid(format!(
                "durable sequence claims {len} element(s) but only {} byte(s) remain",
                input.len()
            )));
        }
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(T::decode(input)?);
        }
        Ok(items)
    }
}

impl<T: Durable> Durable for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        match u8::decode(input)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(input)?)),
            other => Err(Error::invalid(format!("option tag {other} out of range"))),
        }
    }
}

impl<A: Durable, B: Durable> Durable for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        Ok((A::decode(input)?, B::decode(input)?))
    }
}

impl<A: Durable, B: Durable, C: Durable> Durable for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        Ok((A::decode(input)?, B::decode(input)?, C::decode(input)?))
    }
}

/// A keyed collection's entries: the count, then each entry in key
/// order. Every caller passes its entries ascending by key.
fn encode_entries<'a, K: Durable + 'a, V: Durable + 'a>(
    len: usize,
    entries: impl Iterator<Item = (&'a K, &'a V)>,
    out: &mut Vec<u8>,
) {
    len.encode(out);
    for (key, value) in entries {
        key.encode(out);
        value.encode(out);
    }
}

/// A sequence whose keys must ascend strictly, which also rules out a
/// repeated key: the one order check behind every keyed map and set.
/// The count is guarded as `Vec::decode` guards it.
fn decode_ascending<T: Durable, K: Ord>(
    input: &mut &[u8],
    key: impl Fn(&T) -> &K,
) -> Result<Vec<T>> {
    let items = Vec::<T>::decode(input)?;
    if items.windows(2).any(|w| key(&w[0]) >= key(&w[1])) {
        return Err(Error::invalid(
            "durable keys not in strictly ascending order",
        ));
    }
    Ok(items)
}

impl<K: Durable + Ord, V: Durable> Durable for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_entries(self.len(), self.iter(), out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        Ok(decode_ascending(input, |(k, _): &(K, V)| k)?
            .into_iter()
            .collect())
    }
}

/// Encodes as the `BTreeMap` of the same entries: sorted by key first.
impl<K, V, S> Durable for HashMap<K, V, S>
where
    K: Durable + Ord + Hash,
    V: Durable,
    S: BuildHasher + Default,
{
    fn encode(&self, out: &mut Vec<u8>) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        encode_entries(entries.len(), entries.into_iter(), out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        Ok(decode_ascending(input, |(k, _): &(K, V)| k)?
            .into_iter()
            .collect())
    }
}

impl<T: Durable + Ord> Durable for BTreeSet<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for item in self {
            item.encode(out);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        Ok(decode_ascending(input, |t: &T| t)?.into_iter().collect())
    }
}

macro_rules! durable_id {
    ($($name:ident),* $(,)?) => {
        $(
            impl Durable for $name {
                fn encode(&self, out: &mut Vec<u8>) {
                    self.raw().encode(out);
                }

                fn decode(input: &mut &[u8]) -> Result<Self> {
                    Ok($name::new(u64::decode(input)?))
                }
            }
        )*
    };
}

durable_id!(
    DcId,
    KnowledgeSourceId,
    MachineId,
    SensorId,
    ReportId,
    ObjectId
);

impl Durable for SimTime {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_secs().encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        let secs = f64::decode(input)?;
        if !secs.is_finite() {
            return Err(Error::invalid("durable SimTime is not finite"));
        }
        Ok(SimTime::from_secs(secs))
    }
}

impl Durable for SimDuration {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_secs().encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        let secs = f64::decode(input)?;
        if !secs.is_finite() {
            return Err(Error::invalid("durable SimDuration is not finite"));
        }
        Ok(SimDuration::from_secs(secs))
    }
}

impl Durable for Belief {
    fn encode(&self, out: &mut Vec<u8>) {
        self.value().encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        let v = f64::decode(input)?;
        Belief::try_new(v).ok_or_else(|| Error::invalid(format!("belief {v} out of range")))
    }
}

impl Durable for Severity {
    fn encode(&self, out: &mut Vec<u8>) {
        self.value().encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        let v = f64::decode(input)?;
        if !v.is_finite() || !(0.0..=1.0).contains(&v) {
            return Err(Error::invalid(format!("severity {v} out of range")));
        }
        Ok(Severity::new(v))
    }
}

impl Durable for MachineCondition {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.index() as u8);
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        let tag = u8::decode(input)?;
        MachineCondition::from_index(tag as usize)
            .ok_or_else(|| Error::invalid(format!("condition tag {tag} out of range")))
    }
}

impl Durable for FailureGroup {
    fn encode(&self, out: &mut Vec<u8>) {
        let idx = FailureGroup::ALL
            .iter()
            .position(|g| g == self)
            .expect("group present in catalog");
        out.push(idx as u8);
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        let tag = u8::decode(input)?;
        FailureGroup::ALL
            .get(tag as usize)
            .copied()
            .ok_or_else(|| Error::invalid(format!("failure-group tag {tag} out of range")))
    }
}

impl Durable for PrognosticPoint {
    fn encode(&self, out: &mut Vec<u8>) {
        self.horizon.encode(out);
        self.probability.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        let horizon = SimDuration::decode(input)?;
        let probability = Belief::decode(input)?;
        Ok(PrognosticPoint::new(horizon, probability))
    }
}

impl Durable for PrognosticVector {
    fn encode(&self, out: &mut Vec<u8>) {
        self.points().to_vec().encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        let points = Vec::<PrognosticPoint>::decode(input)?;
        PrognosticVector::new(points)
    }
}

impl Durable for ConditionReport {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.dc.encode(out);
        self.knowledge_source.encode(out);
        self.machine.encode(out);
        self.condition.encode(out);
        self.severity.encode(out);
        self.belief.encode(out);
        self.timestamp.encode(out);
        self.explanation.encode(out);
        self.recommendation.encode(out);
        self.additional_info.encode(out);
        self.prognostic.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        Ok(ConditionReport {
            id: ReportId::decode(input)?,
            dc: DcId::decode(input)?,
            knowledge_source: KnowledgeSourceId::decode(input)?,
            machine: MachineId::decode(input)?,
            condition: MachineCondition::decode(input)?,
            severity: Severity::decode(input)?,
            belief: Belief::decode(input)?,
            timestamp: SimTime::decode(input)?,
            explanation: String::decode(input)?,
            recommendation: String::decode(input)?,
            additional_info: String::decode(input)?,
            prognostic: PrognosticVector::decode(input)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Durable + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = value.to_durable_bytes();
        let back = T::from_durable_bytes(&bytes).expect("decodes");
        assert_eq!(value, back);
        // Canonical: re-encoding the decoded value reproduces the bytes.
        assert_eq!(back.to_durable_bytes(), bytes);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(-0.0f64);
        roundtrip(f64::MAX);
        roundtrip("durable ünïcode".to_string());
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Option::<u64>::None);
        roundtrip(Some("x".to_string()));
        roundtrip((7u64, "y".to_string()));
    }

    #[test]
    fn negative_zero_survives_bit_exactly() {
        let bytes = (-0.0f64).to_durable_bytes();
        let back = f64::from_durable_bytes(&bytes).unwrap();
        assert_eq!(back.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn core_vocabulary_roundtrips() {
        roundtrip(DcId::new(3));
        roundtrip(MachineId::new(u64::MAX));
        roundtrip(SimTime::from_secs(901.75));
        roundtrip(SimDuration::from_millis(12.5));
        roundtrip(Belief::new(0.62));
        roundtrip(Severity::new(0.8));
        for c in MachineCondition::ALL {
            roundtrip(c);
        }
        for g in FailureGroup::ALL {
            roundtrip(g);
        }
        roundtrip(PrognosticVector::from_months(&[(1.0, 0.3), (3.0, 0.8)]).unwrap());
    }

    #[test]
    fn condition_report_roundtrips() {
        let report = ConditionReport::builder(
            MachineId::new(4),
            MachineCondition::GearToothWear,
            Belief::new(0.7),
        )
        .id(ReportId::new(19))
        .dc(DcId::new(2))
        .knowledge_source(KnowledgeSourceId::new(5))
        .severity(Severity::new(0.44))
        .timestamp(SimTime::from_secs(120.5))
        .explanation("gear mesh sidebands")
        .recommendation("inspect gearbox")
        .additional_info("harmonics at 2x")
        .prognostic(PrognosticVector::from_months(&[(2.0, 0.5)]).unwrap())
        .build();
        roundtrip(report);
    }

    #[test]
    fn strict_decoding_rejects_garbage() {
        // Trailing bytes.
        let mut bytes = 7u64.to_durable_bytes();
        bytes.push(0);
        assert!(u64::from_durable_bytes(&bytes).is_err());
        // Truncation.
        assert!(u64::from_durable_bytes(&[1, 2, 3]).is_err());
        // Out-of-range tags and values.
        assert!(bool::from_durable_bytes(&[2]).is_err());
        assert!(MachineCondition::from_durable_bytes(&[12]).is_err());
        assert!(FailureGroup::from_durable_bytes(&[6]).is_err());
        assert!(Belief::from_durable_bytes(&2.0f64.to_durable_bytes()).is_err());
        assert!(Severity::from_durable_bytes(&f64::NAN.to_durable_bytes()).is_err());
        assert!(SimTime::from_durable_bytes(&f64::INFINITY.to_durable_bytes()).is_err());
        // A sequence length prefix larger than the remaining input.
        let mut seq = Vec::new();
        u64::MAX.encode(&mut seq);
        assert!(Vec::<u8>::from_durable_bytes(&seq).is_err());
    }

    #[test]
    fn keyed_collections_roundtrip() {
        let map: BTreeMap<(DcId, u64), String> = [
            ((DcId::new(2), 1), "b".to_string()),
            ((DcId::new(1), 9), "a".to_string()),
            ((DcId::new(2), 0), "c".to_string()),
        ]
        .into_iter()
        .collect();
        roundtrip(map);
        roundtrip(BTreeMap::<u64, f64>::new());
        roundtrip(
            [MachineId::new(7), MachineId::new(3)]
                .into_iter()
                .collect::<BTreeSet<_>>(),
        );
        let hashed: HashMap<MachineId, SimTime> = (0..50)
            .map(|i| (MachineId::new(i * 7919 % 101), SimTime::from_secs(i as f64)))
            .collect();
        roundtrip(hashed);
    }

    #[test]
    fn hash_and_btree_maps_of_the_same_entries_encode_identically() {
        let entries: Vec<(u64, (u64, u64))> = (0..64).map(|i| (i * 37 % 64, (i, 2 * i))).collect();
        let hashed: HashMap<u64, (u64, u64)> = entries.iter().copied().collect();
        let ordered: BTreeMap<u64, (u64, u64)> = entries.into_iter().collect();
        let bytes = ordered.to_durable_bytes();
        assert_eq!(hashed.to_durable_bytes(), bytes);
        // The bytes are the ascending entry list's.
        let listed: Vec<(u64, (u64, u64))> = ordered.into_iter().collect();
        assert_eq!(listed.to_durable_bytes(), bytes);
    }

    #[test]
    fn keyed_collections_refuse_non_canonical_input() {
        let encode = |keys: &[u64]| {
            let entries: Vec<(u64, bool)> = keys.iter().map(|&k| (k, true)).collect();
            entries.to_durable_bytes()
        };
        for bad in [encode(&[1, 1]), encode(&[2, 1]), encode(&[1, 3, 2])] {
            assert!(BTreeMap::<u64, bool>::from_durable_bytes(&bad).is_err());
            assert!(HashMap::<u64, bool>::from_durable_bytes(&bad).is_err());
            let keys: Vec<u64> = Vec::<(u64, bool)>::from_durable_bytes(&bad)
                .unwrap()
                .into_iter()
                .map(|(k, _)| k)
                .collect();
            assert!(BTreeSet::<u64>::from_durable_bytes(&keys.to_durable_bytes()).is_err());
        }
        // A count larger than the remaining input: refused up front,
        // never preallocated.
        let mut huge = Vec::new();
        u64::MAX.encode(&mut huge);
        (1u64, true).encode(&mut huge);
        assert!(BTreeMap::<u64, bool>::from_durable_bytes(&huge).is_err());
        assert!(HashMap::<u64, bool>::from_durable_bytes(&huge).is_err());
        assert!(BTreeSet::<u64>::from_durable_bytes(&huge).is_err());
        // Trailing bytes after a well-formed map.
        let mut trailing = encode(&[1, 2]);
        trailing.push(0);
        assert!(BTreeMap::<u64, bool>::from_durable_bytes(&trailing).is_err());
        assert!(HashMap::<u64, bool>::from_durable_bytes(&trailing).is_err());
        let mut set = [1u64, 2]
            .into_iter()
            .collect::<BTreeSet<_>>()
            .to_durable_bytes();
        set.push(0);
        assert!(BTreeSet::<u64>::from_durable_bytes(&set).is_err());
    }
}
