//! Bayesian-network diagnosis (§5.3/§10.1 future work).
//!
//! The paper chose Dempster–Shafer *because* Bayes nets "require prior
//! estimates of the conditional probability relating two failures. The
//! data is not yet available for the CBM domain", and lists Bayes nets
//! as the future diagnostic approach "when causal relations and a priori
//! relationships can be teased out of historical data."
//!
//! This module provides that future path: a two-layer fault→symptom
//! network with noisy-OR conditional distributions — the standard form
//! for diagnostic BNs — with exact posterior inference by enumeration
//! over fault configurations (the fault layer is small: one logical
//! group at a time, matching the DS engine's frames). The E-BN paper
//! claim (`mpros-bench`'s `paper_claims` test `e_bn_bayes_vs_ds`) feeds
//! both engines identical evidence and shows where priors help and what
//! DS's "unknown" buys when priors are wrong.

use mpros_core::{Error, Result};

/// A two-layer noisy-OR diagnostic network.
///
/// Faults are independent binary causes with prior probabilities;
/// each symptom is a noisy-OR of the faults: it fires spuriously with
/// probability `leak`, and each present fault `i` independently fails
/// to trigger it with probability `1 − link[i]`.
#[derive(Debug, Clone)]
pub struct NoisyOrNetwork {
    fault_names: Vec<String>,
    priors: Vec<f64>,
    /// `links[s][f]` = P(symptom s fires | only fault f present, no leak).
    links: Vec<Vec<f64>>,
    leaks: Vec<f64>,
}

impl NoisyOrNetwork {
    /// Build a network. `links` is indexed `[symptom][fault]`; all
    /// probabilities must be in `[0, 1]`; at most 16 faults (exact
    /// enumeration).
    pub fn new(
        fault_names: Vec<String>,
        priors: Vec<f64>,
        links: Vec<Vec<f64>>,
        leaks: Vec<f64>,
    ) -> Result<Self> {
        let nf = fault_names.len();
        if nf == 0 || nf > 16 {
            return Err(Error::invalid("1..=16 faults required"));
        }
        if priors.len() != nf {
            return Err(Error::invalid("one prior per fault"));
        }
        if links.len() != leaks.len() {
            return Err(Error::invalid("one leak per symptom"));
        }
        let in_unit = |p: &f64| (0.0..=1.0).contains(p) && p.is_finite();
        if !priors.iter().all(in_unit) || !leaks.iter().all(in_unit) {
            return Err(Error::invalid("probabilities must be in [0,1]"));
        }
        for row in &links {
            if row.len() != nf || !row.iter().all(in_unit) {
                return Err(Error::invalid("each symptom needs one link per fault"));
            }
        }
        Ok(NoisyOrNetwork {
            fault_names,
            priors,
            links,
            leaks,
        })
    }

    /// Number of faults.
    pub fn fault_count(&self) -> usize {
        self.fault_names.len()
    }

    /// Fault names.
    pub fn fault_names(&self) -> &[String] {
        &self.fault_names
    }

    /// P(symptom s fires | fault configuration `mask`).
    fn symptom_probability(&self, s: usize, mask: u32) -> f64 {
        let mut miss = 1.0 - self.leaks[s];
        for (f, &link) in self.links[s].iter().enumerate() {
            if mask & (1 << f) != 0 {
                miss *= 1.0 - link;
            }
        }
        1.0 - miss
    }

    /// Exact posterior marginals P(fault | evidence) by enumeration.
    /// `evidence[s] = Some(true/false)` for observed symptoms, `None`
    /// for unobserved. Returns one marginal per fault.
    pub fn posterior(&self, evidence: &[Option<bool>]) -> Result<Vec<f64>> {
        if evidence.len() != self.links.len() {
            return Err(Error::invalid(format!(
                "evidence arity {} != symptom count {}",
                evidence.len(),
                self.links.len()
            )));
        }
        let nf = self.fault_count();
        let mut joint = vec![0.0f64; 1 << nf];
        let mut total = 0.0;
        for (mask, j) in joint.iter_mut().enumerate() {
            let mask = mask as u32;
            // Prior of this fault configuration.
            let mut p = 1.0;
            for (f, &prior) in self.priors.iter().enumerate() {
                p *= if mask & (1 << f) != 0 {
                    prior
                } else {
                    1.0 - prior
                };
            }
            // Likelihood of the evidence.
            for (s, obs) in evidence.iter().enumerate() {
                if let Some(fired) = obs {
                    let ps = self.symptom_probability(s, mask);
                    p *= if *fired { ps } else { 1.0 - ps };
                }
            }
            *j = p;
            total += p;
        }
        if total <= 0.0 {
            return Err(Error::invalid(
                "evidence has zero probability under the model",
            ));
        }
        let mut marginals = vec![0.0; nf];
        for (mask, &p) in joint.iter().enumerate() {
            for (f, m) in marginals.iter_mut().enumerate() {
                if mask & (1 << f) != 0 {
                    *m += p;
                }
            }
        }
        for m in marginals.iter_mut() {
            *m /= total;
        }
        Ok(marginals)
    }

    /// Learn priors and links from complete historical records: each
    /// record is (fault-presence mask, symptom-fired flags). Laplace
    /// smoothing keeps probabilities off 0/1. This is the "teased out of
    /// historical data" step §10.1 anticipates.
    pub fn learn(
        fault_names: Vec<String>,
        symptom_count: usize,
        records: &[(u32, Vec<bool>)],
    ) -> Result<Self> {
        let nf = fault_names.len();
        if records.is_empty() {
            return Err(Error::invalid("no history to learn from"));
        }
        let n = records.len() as f64;
        let priors: Vec<f64> = (0..nf)
            .map(|f| {
                let k = records.iter().filter(|(m, _)| m & (1 << f) != 0).count() as f64;
                (k + 1.0) / (n + 2.0)
            })
            .collect();
        let mut links = vec![vec![0.5; nf]; symptom_count];
        let mut leaks = vec![0.0; symptom_count];
        let clean: Vec<&(u32, Vec<bool>)> = records.iter().filter(|(m, _)| *m == 0).collect();
        for (s, (leak, link_row)) in leaks.iter_mut().zip(links.iter_mut()).enumerate() {
            // Leak: symptom rate with no faults present.
            let fired = clean.iter().filter(|(_, sy)| sy[s]).count() as f64;
            *leak = (fired + 1.0) / (clean.len() as f64 + 2.0);
            for (f, link) in link_row.iter_mut().enumerate() {
                // Link: symptom rate when exactly fault f is present,
                // corrected for leak (noisy-OR: p = leak + link − leak·link).
                let solo: Vec<&(u32, Vec<bool>)> =
                    records.iter().filter(|(m, _)| *m == (1 << f)).collect();
                if solo.is_empty() {
                    continue; // keep the 0.5 ignorance default
                }
                let fired = solo.iter().filter(|(_, sy)| sy[s]).count() as f64;
                let p = (fired + 1.0) / (solo.len() as f64 + 2.0);
                *link = ((p - *leak) / (1.0 - *leak)).clamp(0.0, 1.0);
            }
        }
        Self::new(fault_names, priors, links, leaks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two faults, two symptoms: symptom 0 points at fault 0, symptom 1
    /// at fault 1, weak cross-links.
    fn net() -> NoisyOrNetwork {
        NoisyOrNetwork::new(
            vec!["bearing".into(), "imbalance".into()],
            vec![0.05, 0.05],
            vec![vec![0.9, 0.2], vec![0.15, 0.85]],
            vec![0.02, 0.02],
        )
        .unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(NoisyOrNetwork::new(vec![], vec![], vec![], vec![]).is_err());
        assert!(
            NoisyOrNetwork::new(vec!["a".into()], vec![1.5], vec![vec![0.5]], vec![0.1]).is_err()
        );
        assert!(
            NoisyOrNetwork::new(vec!["a".into()], vec![0.5], vec![vec![0.5, 0.5]], vec![0.1])
                .is_err()
        );
        assert!(NoisyOrNetwork::new(
            vec!["a".into()],
            vec![0.5],
            vec![vec![0.5], vec![0.5]],
            vec![0.1]
        )
        .is_err());
    }

    #[test]
    fn no_evidence_returns_priors() {
        let n = net();
        let post = n.posterior(&[None, None]).unwrap();
        assert!((post[0] - 0.05).abs() < 1e-12);
        assert!((post[1] - 0.05).abs() < 1e-12);
    }

    #[test]
    fn matching_symptom_raises_its_fault() {
        let n = net();
        let post = n.posterior(&[Some(true), None]).unwrap();
        assert!(post[0] > 0.5, "bearing posterior {}", post[0]);
        assert!(post[1] < 0.2, "imbalance stays low: {}", post[1]);
    }

    #[test]
    fn absent_symptom_is_exculpatory() {
        let n = net();
        let post = n.posterior(&[Some(false), None]).unwrap();
        assert!(post[0] < 0.05, "absence of the symptom clears the fault");
    }

    #[test]
    fn both_symptoms_implicate_both_faults() {
        let n = net();
        let post = n.posterior(&[Some(true), Some(true)]).unwrap();
        assert!(post[0] > 0.5 && post[1] > 0.5, "{post:?}");
    }

    #[test]
    fn evidence_arity_checked() {
        assert!(net().posterior(&[Some(true)]).is_err());
    }

    #[test]
    fn learning_recovers_structure() {
        // Synthesize history from the true net deterministically: for
        // each configuration, emit expected symptom frequencies.
        let truth = net();
        let mut records: Vec<(u32, Vec<bool>)> = Vec::new();
        for mask in 0u32..4 {
            // 200 records per config; symptoms fired proportionally.
            for k in 0..200 {
                let symptoms: Vec<bool> = (0..2)
                    .map(|s| {
                        let p = truth.symptom_probability(s, mask);
                        (k as f64 + 0.5) / 200.0 < p
                    })
                    .collect();
                records.push((mask, symptoms));
            }
        }
        let learned =
            NoisyOrNetwork::learn(vec!["bearing".into(), "imbalance".into()], 2, &records).unwrap();
        // Strong diagonal, weak off-diagonal links recovered.
        assert!(learned.links[0][0] > 0.8, "{:?}", learned.links);
        assert!(learned.links[1][1] > 0.7, "{:?}", learned.links);
        assert!(learned.links[0][1] < 0.4);
        assert!(learned.links[1][0] < 0.4);
        // Posterior behaves like the truth.
        let post = learned.posterior(&[Some(true), None]).unwrap();
        assert!(post[0] > 0.4, "{post:?}");
    }

    #[test]
    fn learn_needs_history() {
        assert!(NoisyOrNetwork::learn(vec!["a".into()], 1, &[]).is_err());
    }
}
