//! Iyengar's genetic algorithm (\[11\], §6 of the paper) for the
//! single-dimension full-subtree recoding model.
//!
//! The paper positions this as the pre-Incognito state of the art for the
//! flexible hierarchy model: a stochastic search over recoding functions,
//! guided by an information-loss fitness, with **no minimality guarantee**
//! (the gap §4 cites when noting the genetic algorithm "does not guarantee
//! minimality"). Reproduced here so the model_taxonomy comparison can
//! include it.
//!
//! Encoding: a chromosome assigns each quasi-identifier attribute a valid
//! *cut* through its value-generalization tree, represented as the set of
//! cut nodes (per-ground-value levels maintaining the subtree closure).
//! Crossover swaps whole-attribute cuts between parents; mutation promotes
//! or demotes one random cut node. Fitness is the LM loss plus a large
//! penalty per tuple violating k-anonymity (violators would be suppressed,
//! as \[11\] charges them).

use incognito_hierarchy::LevelNo;
use incognito_table::fxhash::FxHashMap;
use incognito_table::{Table, TableError};

use crate::release::{build_view_from_labels, subtree_sizes, AnonymizedRelease};

/// Tunables for the search.
#[derive(Debug, Clone)]
pub struct GeneticConfig {
    /// Population size.
    pub population: usize,
    /// Generations to evolve.
    pub generations: usize,
    /// Per-offspring mutation probability (per mille, 0–1000).
    pub mutation_per_mille: u32,
    /// RNG seed (the search is deterministic given the seed).
    pub seed: u64,
}

impl Default for GeneticConfig {
    fn default() -> Self {
        GeneticConfig { population: 24, generations: 40, mutation_per_mille: 400, seed: 0xce11 }
    }
}

/// A deterministic xorshift64* generator — enough randomness for a GA
/// without threading a dependency through the crate.
struct XorShift(u64);

impl XorShift {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// One attribute's cut: per-ground-value levels satisfying the subtree
/// closure.
type Cut = Vec<LevelNo>;

/// Run the GA. The best chromosome's violators (classes below k) are
/// suppressed in the release, so the output is always k-anonymous for
/// `|T| ≥ 1`.
pub fn genetic_anonymize(
    table: &Table,
    qi: &[usize],
    k: u64,
    cfg: &GeneticConfig,
) -> Result<AnonymizedRelease, TableError> {
    let schema = table.schema().clone();
    let n_rows = table.num_rows();
    let heights: Vec<LevelNo> = qi.iter().map(|&a| schema.hierarchy(a).height()).collect();
    let sizes: Vec<Vec<Vec<usize>>> =
        qi.iter().map(|&a| subtree_sizes(schema.hierarchy(a))).collect();
    let mut rng = XorShift(cfg.seed ^ 0x9e37_79b9_7f4a_7c15);

    // --- chromosome helpers -------------------------------------------------
    let uniform_cut = |pos: usize, level: LevelNo| -> Cut {
        vec![level.min(heights[pos]); schema.hierarchy(qi[pos]).ground_size()]
    };
    // Promote one random value's node to its parent (whole-sibling closure),
    // or demote one node to its children.
    let mutate_attr = |cut: &mut Cut, pos: usize, rng: &mut XorShift| {
        let h = schema.hierarchy(qi[pos]);
        let v = rng.below(h.ground_size()) as u32;
        let l = cut[v as usize];
        let promote = rng.next_u64() & 1 == 0;
        if promote && l < heights[pos] {
            let anchor = h.generalize(v, l + 1);
            for w in 0..h.ground_size() as u32 {
                if h.generalize(w, l + 1) == anchor {
                    cut[w as usize] = l + 1;
                }
            }
        } else if !promote && l > 0 {
            let anchor = h.generalize(v, l);
            for w in 0..h.ground_size() as u32 {
                if cut[w as usize] == l && h.generalize(w, l) == anchor {
                    cut[w as usize] = l - 1;
                }
            }
        }
    };

    // Fitness: LM cells lost + |T| penalty per violating tuple (lower is
    // better).
    let fitness = |chrom: &[Cut]| -> f64 {
        let mut groups: FxHashMap<Vec<(LevelNo, u32)>, u64> = FxHashMap::default();
        let mut lm = 0.0;
        for row in 0..n_rows {
            let key: Vec<(LevelNo, u32)> = qi
                .iter()
                .enumerate()
                .map(|(pos, &a)| {
                    let h = schema.hierarchy(a);
                    let v = table.column(a)[row];
                    let l = chrom[pos][v as usize];
                    let g = h.generalize(v, l);
                    lm += crate::release::lm_fraction(h, l, sizes[pos][l as usize][g as usize]);
                    (l, g)
                })
                .collect();
            *groups.entry(key).or_insert(0) += 1;
        }
        let violators: u64 = groups.values().filter(|&&c| c < k).sum();
        lm + (violators as f64) * (n_rows as f64)
    };

    // --- initial population --------------------------------------------------
    let mut population: Vec<(f64, Vec<Cut>)> = Vec::with_capacity(cfg.population);
    for p in 0..cfg.population.max(2) {
        let chrom: Vec<Cut> = (0..qi.len())
            .map(|pos| {
                // Mix of uniform levels and random mutations for diversity.
                let base = (p % (heights[pos] as usize + 1)) as LevelNo;
                let mut cut = uniform_cut(pos, base);
                for _ in 0..rng.below(3) {
                    mutate_attr(&mut cut, pos, &mut rng);
                }
                cut
            })
            .collect();
        let f = fitness(&chrom);
        population.push((f, chrom));
    }
    population.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

    // --- evolution ------------------------------------------------------------
    for _gen in 0..cfg.generations {
        let elite = population.len() / 4 + 1;
        let mut next: Vec<(f64, Vec<Cut>)> = population[..elite].to_vec();
        while next.len() < population.len() {
            // Tournament selection of two parents from the top half.
            let half = population.len() / 2 + 1;
            let pa = &population[rng.below(half)].1;
            let pb = &population[rng.below(half)].1;
            // Attribute-wise crossover.
            let mut child: Vec<Cut> = (0..qi.len())
                .map(|pos| if rng.next_u64() & 1 == 0 { pa[pos].clone() } else { pb[pos].clone() })
                .collect();
            if rng.below(1000) < cfg.mutation_per_mille as usize {
                let pos = rng.below(qi.len());
                mutate_attr(&mut child[pos], pos, &mut rng);
            }
            let f = fitness(&child);
            next.push((f, child));
        }
        next.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        population = next;
    }
    let best = population.remove(0).1;

    // --- materialize: suppress residual violators -----------------------------
    let mut groups: FxHashMap<Vec<(LevelNo, u32)>, Vec<usize>> = FxHashMap::default();
    for row in 0..n_rows {
        let key: Vec<(LevelNo, u32)> = qi
            .iter()
            .enumerate()
            .map(|(pos, &a)| {
                let h = schema.hierarchy(a);
                let v = table.column(a)[row];
                let l = best[pos][v as usize];
                (l, h.generalize(v, l))
            })
            .collect();
        groups.entry(key).or_default().push(row);
    }
    let mut dropped = vec![false; n_rows];
    for rows in groups.values() {
        if (rows.len() as u64) < k {
            for &r in rows {
                dropped[r] = true;
            }
        }
    }
    let suppressed = dropped.iter().filter(|&&d| d).count() as u64;
    let kept: Vec<usize> = (0..n_rows).filter(|&r| !dropped[r]).collect();
    let mut precision_loss = suppressed as f64 * qi.len() as f64;
    let mut lm_loss = suppressed as f64 * qi.len() as f64;
    let mut qi_labels: Vec<Vec<String>> = Vec::with_capacity(kept.len());
    for &row in &kept {
        let labels: Vec<String> = qi
            .iter()
            .enumerate()
            .map(|(pos, &a)| {
                let h = schema.hierarchy(a);
                let v = table.column(a)[row];
                let l = best[pos][v as usize];
                let g = h.generalize(v, l);
                precision_loss += crate::release::precision_fraction(h, l);
                lm_loss += crate::release::lm_fraction(h, l, sizes[pos][l as usize][g as usize]);
                h.label(l, g).to_string()
            })
            .collect();
        qi_labels.push(labels);
    }
    let (view, class_sizes) = build_view_from_labels(table, qi, &kept, &qi_labels)?;
    Ok(AnonymizedRelease {
        view,
        qi: qi.to_vec(),
        suppressed,
        kept_rows: kept,
        source_rows: n_rows as u64,
        class_sizes,
        precision_loss,
        lm_loss,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use incognito_data::{adults, patients, AdultsConfig};

    #[test]
    fn ga_output_is_k_anonymous() {
        let t = patients();
        let r = genetic_anonymize(&t, &[0, 1, 2], 2, &GeneticConfig::default()).unwrap();
        assert!(r.is_k_anonymous(2));
        assert_eq!(r.view.num_rows() as u64 + r.suppressed, 6);
    }

    #[test]
    fn ga_is_deterministic_per_seed() {
        let t = adults(&AdultsConfig { rows: 600, seed: 80 });
        let cfg = GeneticConfig { generations: 10, ..GeneticConfig::default() };
        let a = genetic_anonymize(&t, &[1, 3], 10, &cfg).unwrap();
        let b = genetic_anonymize(&t, &[1, 3], 10, &cfg).unwrap();
        assert_eq!(a.class_sizes, b.class_sizes);
        assert_eq!(a.suppressed, b.suppressed);
    }

    #[test]
    fn more_generations_do_not_hurt() {
        // Elitism makes best fitness monotone in generations (same seed).
        let t = adults(&AdultsConfig { rows: 800, seed: 81 });
        let k = 10u64;
        let short = genetic_anonymize(
            &t,
            &[0, 1],
            k,
            &GeneticConfig { generations: 2, ..GeneticConfig::default() },
        )
        .unwrap();
        let long = genetic_anonymize(
            &t,
            &[0, 1],
            k,
            &GeneticConfig { generations: 30, ..GeneticConfig::default() },
        )
        .unwrap();
        assert!(long.is_k_anonymous(k));
        // Compare total charge (LM + suppression-as-full-loss), which is
        // what the fitness optimizes.
        let charge = |r: &AnonymizedRelease| r.lm_loss;
        assert!(
            charge(&long) <= charge(&short) + 1e-9,
            "long {} vs short {}",
            charge(&long),
            charge(&short)
        );
    }

    #[test]
    fn ga_finds_something_better_than_full_suppression() {
        let t = adults(&AdultsConfig { rows: 1_000, seed: 82 });
        let r = genetic_anonymize(&t, &[1, 3], 10, &GeneticConfig::default()).unwrap();
        assert!(r.is_k_anonymous(10));
        let m = r.metrics(10);
        assert!(m.loss < 1.0);
    }
}
