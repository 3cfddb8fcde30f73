//! CHOOSE_REFRESH for SUM (§5.2, §6.2): the knapsack reduction.
//!
//! Selecting the cheapest refresh set is recast as selecting the most
//! valuable set of tuples to *keep cached*: place tuple `tᵢ` in a knapsack
//! with profit `Pᵢ = Cᵢ` (its refresh cost, which keeping it avoids) and
//! weight `Wᵢ` = its effective bound width — `Hᵢ − Lᵢ` for `T+` tuples,
//! zero-extended (§6.2) for `T?` tuples. Capacity is the precision
//! constraint `R`: the kept tuples' residual widths sum to the post-refresh
//! answer width, which must not exceed `R` for any realization. A small
//! rounding allowance (`rounding_allowance`) comes out of the capacity
//! first, so the answer's *computed* width stays within `R` as well.

use std::collections::HashSet;

use trapp_knapsack::{Instance, Item};
use trapp_types::{Interval, TrappError, TupleId};

use crate::agg::sum::sum_weight;
use crate::agg::AggInput;

use super::{run_solver, RefreshPlan, SolverStrategy};

/// The rounding allowance reserved out of a SUM/AVG knapsack capacity,
/// given each item's `(interval, weight)` in canonical order.
///
/// The knapsack packs the kept items' widths up to the capacity, but the
/// served answer's width is computed as `hi − lo` of two floating-point
/// sums over every item's endpoint (or refreshed value). Each sum of `n`
/// terms can round by up to `(n − 1)·u·Σ|term|` (`u = EPSILON / 2`), so a
/// plan packed to exactly `R` can serve a width just above `R`: sums near
/// 6·10⁵ gave 25.000000000116 for `WITHIN 25`. Reserving
/// `EPSILON·(n + 2)·(Σ|endpoint| + capacity)` covers both sums, the
/// rounding of each item's width and of the knapsack's running total, and
/// the final subtraction (and AVG's division by the count).
///
/// Nothing is reserved in two cases. Integer endpoints and capacities
/// below 2⁵³ sum exactly, so exact fits — such as the paper's worked
/// examples — still pack to `R`. And a capacity that holds every item's
/// weight keeps them all, as it always has: the reserve decides which
/// items a tight plan refreshes, never that a plan refreshes at all. (So
/// a cached answer whose widths sum to within rounding of `R` can still
/// compute a hair above it.)
pub(crate) fn rounding_allowance(
    items: impl Iterator<Item = (Interval, f64)>,
    capacity: f64,
) -> f64 {
    let mut n = 0usize;
    let mut total_weight = 0.0;
    let mut magnitude = capacity.abs();
    let mut integral = capacity.fract() == 0.0;
    for (iv, weight) in items {
        n += 1;
        total_weight += weight;
        magnitude += iv.lo().abs() + iv.hi().abs();
        integral &= iv.lo().fract() == 0.0 && iv.hi().fract() == 0.0;
    }
    const EXACT_INTEGERS: f64 = 9_007_199_254_740_992.0; // 2⁵³
    if total_weight <= capacity || (integral && magnitude < EXACT_INTEGERS) {
        return 0.0;
    }
    let allowance = f64::EPSILON * (n + 2) as f64 * magnitude;
    if allowance.is_finite() {
        allowance
    } else {
        0.0
    }
}

/// CHOOSE_REFRESH for SUM with an explicit knapsack capacity.
///
/// AVG reuses this with its own capacity and adjusted weights, so the
/// worker takes `(weights, capacity)` and maps the solution's complement
/// back to tuple ids.
pub(crate) fn solve_keep_set(
    input: &AggInput,
    weights: &[f64],
    capacity: f64,
    strategy: SolverStrategy,
) -> Result<RefreshPlan, TrappError> {
    match solve_keep_set_excluding(input, weights, capacity, strategy, &HashSet::new())? {
        Some(plan) => Ok(plan),
        // Unreachable with no exclusions: the capacity is never reduced.
        None => Err(TrappError::Plan(format!("bad capacity: {capacity}"))),
    }
}

/// [`solve_keep_set`] restricted to *available* tuples: every tuple in
/// `excluded` (e.g. backed by a dark source) is forced into the keep set —
/// its weight is charged against the capacity up front — and the knapsack
/// runs over the remaining items only. `Ok(None)` means the reduced
/// capacity went negative: no refresh set over available tuples can meet
/// the constraint. With `excluded` empty this is bit-identical to
/// [`solve_keep_set`] (same items, same order, same capacity). Either way
/// the [`rounding_allowance`] is reserved first.
pub(crate) fn solve_keep_set_excluding(
    input: &AggInput,
    weights: &[f64],
    capacity: f64,
    strategy: SolverStrategy,
    excluded: &HashSet<TupleId>,
) -> Result<Option<RefreshPlan>, TrappError> {
    debug_assert_eq!(weights.len(), input.items.len());
    let items = input
        .items
        .iter()
        .map(|i| i.interval)
        .zip(weights.iter().copied());
    let allowance = rounding_allowance(items, capacity);
    let mut cap = (capacity - allowance).max(0.0);
    let mut available: Vec<usize> = Vec::with_capacity(input.items.len());
    for (i, item) in input.items.iter().enumerate() {
        if excluded.contains(&item.tid) {
            cap -= weights[i];
        } else {
            available.push(i);
        }
    }
    if cap < 0.0 {
        return Ok(None);
    }
    let items: Result<Vec<Item>, _> = available
        .iter()
        .map(|&i| Item::new(input.items[i].cost, weights[i]))
        .collect();
    let items = items.map_err(|e| TrappError::Plan(format!("bad knapsack item: {e}")))?;
    let instance =
        Instance::new(items, cap).map_err(|e| TrappError::Plan(format!("bad capacity: {e}")))?;
    let solution = run_solver(&instance, strategy)?;
    let refresh: Vec<TupleId> = solution
        .complement(available.len())
        .into_iter()
        .map(|j| input.items[available[j]].tid)
        .collect();
    Ok(Some(RefreshPlan::from_tuples(input, refresh)))
}

/// CHOOSE_REFRESH for SUM (§5.2 without predicate, §6.2 with).
pub fn choose_refresh_sum(
    input: &AggInput,
    r: f64,
    strategy: SolverStrategy,
) -> Result<RefreshPlan, TrappError> {
    let weights: Vec<f64> = input.items.iter().map(sum_weight).collect();
    solve_keep_set(input, &weights, r, strategy)
}

/// The §5.2 uniform-cost special case over a width index: "The optimal
/// answer then can be found by placing objects in the knapsack in order of
/// increasing weight Wᵢ until the knapsack cannot hold any more objects.
/// If an index exists on the bound width Hᵢ − Lᵢ, this algorithm can run
/// in sublinear time."
///
/// Preconditions: no selection predicate (all tuples contribute their plain
/// width) and uniform refresh costs. Returns `None` when the width index is
/// missing or costs are not uniform — callers fall back to
/// [`choose_refresh_sum`].
pub fn choose_refresh_sum_uniform_indexed(
    table: &trapp_storage::Table,
    column: usize,
    r: f64,
) -> Option<RefreshPlan> {
    let width_ix = table.index(trapp_storage::IndexKey::Width { column })?;

    // Uniform-cost check (cheap linear scan of the cost map; the *solve*
    // below is what the index makes sublinear in the kept prefix).
    let mut costs = table.tuple_ids().map(|t| table.cost(t).unwrap_or(0.0));
    let first = costs.next().unwrap_or(0.0);
    if costs.any(|c| c != first) {
        return None;
    }

    // The scan planner's allowance, summed in the same (tuple) order over
    // the same intervals and weights: the unfiltered input is every row,
    // all `T+`, each weighing its width.
    // (A width index implies a numeric column: every row has an interval.)
    let items = table
        .scan()
        .filter_map(|(_, row)| row.interval(column).ok())
        .map(|iv| (iv, iv.width()));
    let r = (r - rounding_allowance(items, r)).max(0.0);

    // Keep lightest-first while the capacity holds; everything after the
    // cut refreshes. The walk visits `(width, tuple)` ascending — the
    // same order the greedy-by-weight knapsack sorts the canonical item
    // vector into, so the kept set (and thus the plan) is identical.
    let mut kept_width = 0.0;
    let mut refresh: Vec<trapp_types::TupleId> = Vec::new();
    let mut keeping = true;
    for (w, tid) in width_ix.ascending() {
        if keeping && kept_width + w.get() <= r {
            kept_width += w.get();
        } else {
            keeping = false;
            refresh.push(tid);
        }
    }
    refresh.sort_unstable();
    // Sum in ascending tuple order — the scan planner's summation order —
    // so the planned cost is bit-equal, not merely mathematically equal.
    let planned_cost = refresh.iter().map(|&t| table.cost(t).unwrap_or(0.0)).sum();
    Some(RefreshPlan {
        tuples: refresh,
        planned_cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::test_fixture::*;
    use crate::agg::AggInput;
    use trapp_expr::{BinaryOp, ColumnRef, Expr};
    use trapp_types::Value;

    fn col(name: &str) -> Expr<usize> {
        Expr::Column(ColumnRef::bare(name)).bind(&schema()).unwrap()
    }

    fn on_path() -> Expr<usize> {
        Expr::binary(
            BinaryOp::Eq,
            Expr::Column(ColumnRef::bare("on_path")),
            Expr::Literal(Value::Bool(true)),
        )
        .bind(&schema())
        .unwrap()
    }

    fn ids(v: &[u64]) -> Vec<trapp_types::TupleId> {
        v.iter().copied().map(trapp_types::TupleId::new).collect()
    }

    /// Q2 (§5.2): SUM latency over {1,2,5,6}, R = 5. Knapsack weights
    /// W = {2,2,3,2}, profits = costs {3,6,4,2}; optimum keeps {2,5},
    /// refreshing {1,6}.
    #[test]
    fn paper_q2_choose_refresh() {
        let t = links_table();
        let input = AggInput::build(&t, Some(&on_path()), Some(&col("latency"))).unwrap();
        let plan = choose_refresh_sum(&input, 5.0, SolverStrategy::Exact).unwrap();
        assert_eq!(plan.tuples, ids(&[1, 6]));
        assert_eq!(plan.planned_cost, 5.0);
    }

    #[test]
    fn residual_width_respects_capacity() {
        let t = links_table();
        let input = AggInput::build(&t, None, Some(&col("traffic"))).unwrap();
        for r in [0.0, 10.0, 25.0, 40.0, 60.0, 95.0, 200.0] {
            for strategy in [
                SolverStrategy::Exact,
                SolverStrategy::Fptas(0.1),
                SolverStrategy::GreedyDensity,
            ] {
                let plan = choose_refresh_sum(&input, r, strategy).unwrap();
                let kept_width: f64 = input
                    .items
                    .iter()
                    .filter(|i| !plan.tuples.contains(&i.tid))
                    .map(|i| i.interval.width())
                    .sum();
                assert!(
                    kept_width <= r + 1e-12,
                    "r={r} {strategy}: kept width {kept_width}"
                );
            }
        }
    }

    #[test]
    fn loose_r_keeps_everything() {
        let t = links_table();
        let input = AggInput::build(&t, None, Some(&col("traffic"))).unwrap();
        // Total width = 95; R = 95 keeps all tuples.
        let plan = choose_refresh_sum(&input, 95.0, SolverStrategy::Exact).unwrap();
        assert!(plan.is_empty());
    }

    #[test]
    fn r_zero_refreshes_every_inexact_tuple() {
        let t = links_table();
        let input = AggInput::build(&t, None, Some(&col("traffic"))).unwrap();
        let plan = choose_refresh_sum(&input, 0.0, SolverStrategy::Exact).unwrap();
        assert_eq!(plan.tuples.len(), 6);
    }

    /// The §5.2 uniform-cost width-index path must match exact knapsack
    /// planning in cost (the chosen sets may differ only among equal-width
    /// ties).
    #[test]
    fn uniform_indexed_matches_exact_cost() {
        let mut t = links_table();
        for tid in t.tuple_ids().collect::<Vec<_>>() {
            t.set_cost(tid, 4.0).unwrap();
        }
        t.create_index(trapp_storage::IndexKey::Width { column: TRAFFIC })
            .unwrap();
        for r in [0.0, 10.0, 24.9, 25.0, 40.0, 60.0, 95.0, 200.0] {
            let input = AggInput::build(&t, None, Some(&col("traffic"))).unwrap();
            let exact = choose_refresh_sum(&input, r, SolverStrategy::Exact).unwrap();
            let indexed = choose_refresh_sum_uniform_indexed(&t, TRAFFIC, r).unwrap();
            assert_eq!(
                exact.planned_cost, indexed.planned_cost,
                "R = {r}: exact {:?} vs indexed {:?}",
                exact.tuples, indexed.tuples
            );
            // The indexed plan must itself satisfy the capacity.
            let kept: f64 = input
                .items
                .iter()
                .filter(|i| !indexed.tuples.contains(&i.tid))
                .map(|i| i.interval.width())
                .sum();
            assert!(kept <= r + 1e-12, "R = {r}");
        }
    }

    #[test]
    fn uniform_indexed_requires_index_and_uniform_costs() {
        let t = links_table(); // non-uniform costs, no index
        assert!(choose_refresh_sum_uniform_indexed(&t, TRAFFIC, 10.0).is_none());
        let mut t = links_table();
        t.create_index(trapp_storage::IndexKey::Width { column: TRAFFIC })
            .unwrap();
        // Index present but costs differ → refuse.
        assert!(choose_refresh_sum_uniform_indexed(&t, TRAFFIC, 10.0).is_none());
    }

    /// A plan packed to exactly `R` over sums near 6·10⁵ must still serve
    /// a computed width `≤ R`: `hi − lo` of the two large sums rounds, so
    /// the planner reserves a rounding allowance out of the capacity. Each
    /// instance holds 100 quarter-wide items (exactly 25 of width, so a
    /// tight fit for `WITHIN 25`) among 8,092 unit-wide ones near 75.
    #[test]
    fn large_sums_keep_computed_width_within_r() {
        use crate::agg::sum::bounded_sum;
        use crate::agg::AggItem;
        use trapp_expr::Band;
        use trapp_types::{Interval, TupleId};

        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut uniform = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let r = 25.0;
        for trial in 0..40 {
            let items: Vec<AggItem> = (0..8192u64)
                .map(|i| {
                    let lo = 70.0 + 10.0 * uniform();
                    let width = if i % 82 == 0 { 0.25 } else { 1.0 };
                    AggItem {
                        tid: TupleId::new(i + 1),
                        band: Band::Plus,
                        interval: Interval::new(lo, lo + width).unwrap(),
                        cost: 1.0,
                    }
                })
                .collect();
            let input = AggInput::new(items, 0, (0, 0));
            for strategy in [
                SolverStrategy::GreedyByWeight,
                SolverStrategy::GreedyDensity,
            ] {
                let plan = choose_refresh_sum(&input, r, strategy).unwrap();
                let refreshed: HashSet<TupleId> = plan.tuples.iter().copied().collect();
                // Refreshed tuples collapse to their master value.
                let after: Vec<AggItem> = input
                    .items
                    .iter()
                    .map(|item| {
                        let mut item = *item;
                        if refreshed.contains(&item.tid) {
                            let v = item.interval.lo() + item.interval.width() * uniform();
                            item.interval = Interval::point(v).unwrap();
                        }
                        item
                    })
                    .collect();
                let answer = bounded_sum(&AggInput::new(after, 0, (0, 0)));
                assert!(
                    answer.width() <= r,
                    "trial {trial} {strategy}: width {} over WITHIN {r}",
                    answer.width()
                );
            }
        }
    }

    /// §6.2: a T? tuple whose aggregation value is exactly known still has
    /// nonzero knapsack weight (it may drop out of the selection).
    #[test]
    fn exact_question_tuples_still_weigh() {
        let mut t = links_table();
        // Pin tuple 1's latency to exactly 3 but leave traffic bounded, so
        // under `traffic > 100` it stays in T? with latency weight |3| = 3.
        t.refresh_cell(trapp_types::TupleId::new(1), LATENCY, 3.0)
            .unwrap();
        let pred = Expr::binary(
            BinaryOp::Gt,
            Expr::Column(ColumnRef::bare("traffic")),
            Expr::Literal(Value::Float(100.0)),
        )
        .bind(&schema())
        .unwrap();
        let input = AggInput::build(&t, Some(&pred), Some(&col("latency"))).unwrap();
        let item = input
            .items
            .iter()
            .find(|i| i.tid == trapp_types::TupleId::new(1))
            .unwrap();
        assert_eq!(item.interval.width(), 0.0);
        assert_eq!(crate::agg::sum::sum_weight(item), 3.0);
    }
}
