//! Concept discovery (Table III): read communities out of factor columns.
//!
//! §IV-G: after completion, "pick top-k highest valued elements from each
//! factor" — each factor column is a concept, its strongest rows are the
//! concept's members. With planted communities the quality measure is
//! purity: the fraction of a concept's top-k members that share the
//! majority ground-truth community.

use distenc_linalg::Mat;

/// One discovered concept: per-mode member lists.
#[derive(Debug, Clone)]
pub struct Concept {
    /// Factor-column index this concept came from.
    pub component: usize,
    /// For each mode, the `k` entity ids with the largest factor values
    /// in this component, strongest first.
    pub members: Vec<Vec<usize>>,
}

/// Extract `top_k` members of every component from each mode's factor.
///
/// Per mode the list is clamped to `rows / rank` — with `R` concepts over
/// `rows` entities, no concept can own more than that many members, and a
/// longer list necessarily dilutes into other concepts (e.g. Table III's
/// nine venues over three concepts support at most three per concept).
pub fn discover_concepts(factors: &[Mat], top_k: usize) -> Vec<Concept> {
    let rank = factors.first().map_or(0, Mat::cols);
    (0..rank)
        .map(|component| {
            let members = factors
                .iter()
                .map(|f| {
                    let k_mode = top_k.min((f.rows() / rank.max(1)).max(1));
                    top_rows(f, component, k_mode)
                })
                .collect();
            Concept { component, members }
        })
        .collect()
}

/// Indices of the `k` rows with the largest value in `column`, descending.
pub(crate) fn top_rows(factor: &Mat, column: usize, k: usize) -> Vec<usize> {
    let mut rows: Vec<usize> = (0..factor.rows()).collect();
    rows.sort_by(|&a, &b| {
        factor
            .get(b, column)
            .partial_cmp(&factor.get(a, column))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows.truncate(k);
    rows
}

/// Purity of one member list against ground-truth labels: the share of
/// members agreeing with the list's majority label. 1.0 = the concept is
/// a single community.
pub(crate) fn purity(members: &[usize], labels: &[usize]) -> f64 {
    if members.is_empty() {
        return 1.0;
    }
    let mut counts = std::collections::BTreeMap::new();
    for &m in members {
        *counts.entry(labels[m]).or_insert(0usize) += 1;
    }
    let max = counts.values().copied().max().unwrap_or(0);
    max as f64 / members.len() as f64
}

/// Mean purity over every concept and mode that has labels.
pub fn mean_purity(concepts: &[Concept], labels: &[Option<Vec<usize>>]) -> f64 {
    let mut total = 0.0;
    let mut count = 0usize;
    for c in concepts {
        for (mode, members) in c.members.iter().enumerate() {
            if let Some(l) = &labels[mode] {
                total += purity(members, l);
                count += 1;
            }
        }
    }
    if count == 0 {
        1.0
    } else {
        total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_rows_orders_descending() {
        let f = Mat::from_vec(4, 1, vec![0.1, 0.9, 0.5, 0.7]);
        assert_eq!(top_rows(&f, 0, 3), vec![1, 3, 2]);
    }

    #[test]
    fn purity_perfect_and_mixed() {
        let labels = vec![0, 0, 1, 1];
        assert_eq!(purity(&[0, 1], &labels), 1.0);
        assert_eq!(purity(&[0, 2], &labels), 0.5);
        assert_eq!(purity(&[], &labels), 1.0);
    }

    #[test]
    fn discover_concepts_shapes() {
        let a = Mat::random(30, 3, 1);
        let b = Mat::random(8, 3, 2);
        let concepts = discover_concepts(&[a, b], 4);
        assert_eq!(concepts.len(), 3);
        for (i, c) in concepts.iter().enumerate() {
            assert_eq!(c.component, i);
            assert_eq!(c.members.len(), 2);
            // 30 rows / rank 3 = 10 ≥ 4 → full top-k for mode 0 …
            assert_eq!(c.members[0].len(), 4);
            // … but 8 rows / rank 3 = 2 clamps mode 1.
            assert_eq!(c.members[1].len(), 2);
        }
    }

    #[test]
    fn planted_block_factor_yields_pure_concepts() {
        // Two components, rows 0..5 load on component 0, rows 5..10 on 1.
        let mut f = Mat::zeros(10, 2);
        for i in 0..10 {
            f.set(i, if i < 5 { 0 } else { 1 }, 1.0 + i as f64 * 0.01);
        }
        let labels = vec![Some((0..10).map(|i| usize::from(i >= 5)).collect::<Vec<_>>())];
        let concepts = discover_concepts(&[f], 5);
        assert_eq!(mean_purity(&concepts, &labels), 1.0);
    }
}
