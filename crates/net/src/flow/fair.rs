//! Progressive-filling max-min fair bandwidth allocation.
//!
//! Classic water-filling: raise every unfrozen flow's rate in lockstep
//! until some link saturates, freeze the flows crossing that link at the
//! current level, subtract their usage, repeat. The result is the unique
//! max-min fair allocation: no flow's rate can be raised without lowering
//! that of a flow with an equal or smaller rate.
//!
//! The implementation is deliberately order-independent at the bit level:
//! each round's water level is a single float expression evaluated per
//! link, the frozen set is decided by exact equality against that level,
//! and link usage is updated as `count × level` — never by summing
//! per-flow rates in iteration order. Permuting the input flows permutes
//! the output rates identically.

/// Computes the max-min fair rate for each flow.
///
/// `caps[l]` is link `l`'s capacity (bytes/s, must be positive);
/// `flows[i]` is the set of links flow `i` crosses (non-empty, indices
/// into `caps`). Rates are written into `rates` (cleared first). Each
/// call allocates its working vectors; [`FlowSim`](super::FlowSim) keeps
/// them between refills instead, so its refills allocate nothing.
///
/// Runs in `O(rounds × (flows × links_per_flow + links))` with at least
/// one flow frozen per round, i.e. `O(flows × links)` overall.
///
/// # Panics
///
/// Panics if any flow has an empty link set or a link index out of range.
pub fn max_min_rates<L: AsRef<[usize]>>(caps: &[f64], flows: &[L], rates: &mut Vec<f64>) {
    max_min_rates_with(caps, flows, rates, &mut FairScratch::default());
}

/// The working vectors of one progressive filling, kept by a caller that
/// refills often.
#[derive(Debug, Default)]
pub(crate) struct FairScratch {
    used: Vec<f64>,
    unfrozen: Vec<usize>,
    frozen: Vec<bool>,
    newly: Vec<usize>,
}

/// [`max_min_rates`] over caller-owned working vectors (cleared and
/// refilled), so repeated calls allocate nothing once the vectors have
/// grown to the largest flow and link counts seen.
pub(crate) fn max_min_rates_with<L: AsRef<[usize]>>(
    caps: &[f64],
    flows: &[L],
    rates: &mut Vec<f64>,
    scratch: &mut FairScratch,
) {
    rates.clear();
    rates.resize(flows.len(), 0.0);
    if flows.is_empty() {
        return;
    }
    let n_links = caps.len();
    let FairScratch { used, unfrozen, frozen, newly } = scratch;
    used.clear();
    used.resize(n_links, 0.0);
    unfrozen.clear();
    unfrozen.resize(n_links, 0);
    frozen.clear();
    frozen.resize(flows.len(), false);
    newly.resize(n_links, 0);
    for f in flows {
        let links = f.as_ref();
        assert!(!links.is_empty(), "every flow must cross at least one link");
        for &l in links {
            assert!(l < n_links, "flow references link {l} but only {n_links} exist");
            unfrozen[l] += 1;
        }
    }

    let mut remaining = flows.len();
    while remaining > 0 {
        // The water level this round: the smallest equal share any
        // still-contended link can offer.
        let mut level = f64::INFINITY;
        for l in 0..n_links {
            if unfrozen[l] > 0 {
                let link_level = (caps[l] - used[l]).max(0.0) / unfrozen[l] as f64;
                if link_level < level {
                    level = link_level;
                }
            }
        }

        // Freeze every flow crossing a link at the level. Equality is
        // exact: both sides are the same float expression.
        newly.fill(0);
        let mut any = false;
        for (i, f) in flows.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            let binding = f.as_ref().iter().any(|&l| {
                unfrozen[l] > 0 && (caps[l] - used[l]).max(0.0) / unfrozen[l] as f64 == level
            });
            if binding {
                frozen[i] = true;
                rates[i] = level;
                remaining -= 1;
                any = true;
                for &l in f.as_ref() {
                    newly[l] += 1;
                }
            }
        }
        // Usage grows by count × level, an order-free product.
        for l in 0..n_links {
            if newly[l] > 0 {
                used[l] += newly[l] as f64 * level;
                unfrozen[l] -= newly[l];
            }
        }
        assert!(any, "progressive filling must freeze at least one flow per round");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rates_of(caps: &[f64], flows: &[Vec<usize>]) -> Vec<f64> {
        let mut rates = Vec::new();
        max_min_rates(caps, flows, &mut rates);
        rates
    }

    #[test]
    fn solo_flow_gets_the_full_link_exactly() {
        let rates = rates_of(&[12.5e9], &[vec![0]]);
        assert_eq!(rates, vec![12.5e9]);
    }

    #[test]
    fn equal_flows_split_a_link_evenly() {
        let rates = rates_of(&[10.0], &[vec![0], vec![0]]);
        assert_eq!(rates, vec![5.0, 5.0]);
    }

    #[test]
    fn classic_three_flow_two_link_example() {
        // Flow 0 crosses both links, flows 1 and 2 one each. Link 0 has
        // capacity 1, link 1 capacity 2. Max-min: f0 = f1 = 0.5 (link 0
        // saturates first), then f2 fills link 1's slack to 1.5.
        let rates = rates_of(&[1.0, 2.0], &[vec![0, 1], vec![0], vec![1]]);
        assert_eq!(rates, vec![0.5, 0.5, 1.5]);
    }

    #[test]
    fn bottleneck_flow_does_not_drag_down_uncontended_links() {
        let rates = rates_of(&[1.0, 100.0], &[vec![0], vec![1]]);
        assert_eq!(rates, vec![1.0, 100.0]);
    }

    /// Brute-force oracle: simultaneous ε-stepping progressive filling.
    /// Every unfrozen flow grows by `step` if all its links have room,
    /// else freezes. Converges to max-min within O(step).
    fn oracle(caps: &[f64], flows: &[Vec<usize>], step: f64) -> Vec<f64> {
        let mut rates = vec![0.0f64; flows.len()];
        let mut frozen = vec![false; flows.len()];
        loop {
            let mut used = vec![0.0f64; caps.len()];
            for (i, f) in flows.iter().enumerate() {
                for &l in f {
                    used[l] += rates[i];
                }
            }
            let mut grew = false;
            for (i, f) in flows.iter().enumerate() {
                if frozen[i] {
                    continue;
                }
                if f.iter().all(|&l| used[l] + step <= caps[l]) {
                    rates[i] += step;
                    grew = true;
                } else {
                    frozen[i] = true;
                }
            }
            if !grew {
                return rates;
            }
        }
    }

    /// Builds 1–3 links with capacities in [1, 10] and flows each
    /// crossing a random non-empty link subset, from raw generated parts
    /// (raw link indices are folded modulo the link count).
    fn build_case(
        n_links: usize,
        caps_raw: Vec<f64>,
        flows_raw: Vec<Vec<usize>>,
    ) -> (Vec<f64>, Vec<Vec<usize>>) {
        let caps = caps_raw[..n_links].to_vec();
        let flows = flows_raw
            .into_iter()
            .map(|ls| {
                let mut ls: Vec<usize> = ls.into_iter().map(|l| l % n_links).collect();
                ls.sort_unstable();
                ls.dedup();
                ls
            })
            .collect();
        (caps, flows)
    }

    proptest! {
        #[test]
        fn conservation_no_link_over_capacity(
            n_links in 1usize..4,
            caps_raw in proptest::collection::vec(1.0f64..10.0, 3..4),
            flows_raw in proptest::collection::vec(
                proptest::collection::vec(0usize..3, 1..4), 1..7),
        ) {
            let (caps, flows) = build_case(n_links, caps_raw, flows_raw);
            let rates = rates_of(&caps, &flows);
            for (l, &cap) in caps.iter().enumerate() {
                let load: f64 = flows
                    .iter()
                    .zip(&rates)
                    .filter(|(f, _)| f.contains(&l))
                    .map(|(_, &r)| r)
                    .sum();
                prop_assert!(
                    load <= cap * (1.0 + 1e-9),
                    "link {} carries {} over capacity {}", l, load, cap
                );
            }
        }

        #[test]
        fn allocation_matches_water_filling_oracle(
            n_links in 1usize..4,
            caps_raw in proptest::collection::vec(1.0f64..10.0, 3..4),
            flows_raw in proptest::collection::vec(
                proptest::collection::vec(0usize..3, 1..4), 1..7),
        ) {
            let (caps, flows) = build_case(n_links, caps_raw, flows_raw);
            let rates = rates_of(&caps, &flows);
            let expected = oracle(&caps, &flows, 1e-3);
            for (i, (&got, &want)) in rates.iter().zip(&expected).enumerate() {
                prop_assert!(
                    (got - want).abs() <= 1e-2 + 1e-2 * want,
                    "flow {}: progressive filling {} vs oracle {}", i, got, want
                );
            }
        }

        #[test]
        fn allocation_is_insertion_order_independent(
            n_links in 1usize..4,
            caps_raw in proptest::collection::vec(1.0f64..10.0, 3..4),
            flows_raw in proptest::collection::vec(
                proptest::collection::vec(0usize..3, 1..4), 1..7),
            seed in 0usize..24,
        ) {
            let (caps, flows) = build_case(n_links, caps_raw, flows_raw);
            let baseline = rates_of(&caps, &flows);
            // A deterministic permutation derived from the seed.
            let mut order: Vec<usize> = (0..flows.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, (seed + i * 7) % (i + 1));
            }
            let permuted: Vec<Vec<usize>> = order.iter().map(|&i| flows[i].clone()).collect();
            let rates = rates_of(&caps, &permuted);
            for (pos, &orig) in order.iter().enumerate() {
                prop_assert_eq!(rates[pos].to_bits(), baseline[orig].to_bits());
            }
        }
    }
}
