//! Leg rows: travel times between stops, read off one-to-many sweeps.
//!
//! Every stage that plans on a [`LegTable`](crate::route::LegTable) asks the
//! oracle the same way — one `travel_times_to_many` per source, over all the
//! targets anyone will read from that source — and reads the answers back
//! while extending tables. A [`LegRow`] is one such sweep, a [`LegRows`] a
//! set of them; Algorithm 1's stop table, a vehicle's start row and the
//! FoodGraph's resolve phase all produce these and read them through
//! [`LegRows::legs`]. A start row is a *gated* sweep ([`LegRow::gated`])
//! for the only legs a table reads from the start, the first ones: to the
//! committed pickups, the food on board and the restaurants of the offers
//! within the first mile (to the customers too, from a start that is a
//! stop), and not the others. They live for one call of the stage that
//! swept them: the engine's memo — `(source, target)` pairs, and the
//! shortest-path tree of every source searched from (`roadnet/src/index.rs`,
//! "Tree rows") — stays the only cache across windows.

use crate::parallel_map;
use crate::route::engine_legs;
use foodmatch_roadnet::{Duration, GatedTargets, NodeId, ShortestPathEngine, TimePoint};
use std::collections::BTreeMap;

/// Fewest graph searches (sweep rows, singleton plans) worth a thread
/// fan-out; below it the spawns cost more than they save. The result is
/// identical either way.
pub(crate) const MIN_FAN_OUT: usize = 16;

/// Travel times from one node to a set of stops, from a single one-to-many
/// sweep: one bounded search for all memo misses, where asking stop by stop
/// would run one search each.
pub(crate) struct LegRow {
    from: NodeId,
    /// Sorted and distinct, so a lookup is a binary search.
    to: Vec<NodeId>,
    /// Seconds, indexed like `to`; `f64::INFINITY` for "unreachable".
    secs: Vec<f64>,
}

impl LegRow {
    /// Sweeps from `from` to `to` (any order, repeats allowed).
    pub(crate) fn sweep(
        from: NodeId,
        mut to: Vec<NodeId>,
        engine: &ShortestPathEngine,
        t: TimePoint,
    ) -> Self {
        to.sort_unstable();
        to.dedup();
        let mut secs = vec![f64::INFINITY; to.len()];
        engine_legs(engine, t)(from, &to, &mut secs);
        LegRow { from, to, secs }
    }

    /// The answered part of a gated sweep of `asked` from `from`, and per
    /// gate whether it opened. A member only closed gates asked for is not
    /// in the row.
    pub(crate) fn gated(
        from: NodeId,
        asked: &GatedTargets,
        engine: &ShortestPathEngine,
        t: TimePoint,
    ) -> (Self, Vec<bool>) {
        let answers = engine.gated_travel_times(from, asked, t);
        let secs =
            answers.travel_times.iter().map(|d| d.map_or(f64::INFINITY, Duration::as_secs_f64));
        (LegRow { from, to: answers.targets, secs: secs.collect() }, answers.opened)
    }

    /// The stops the row holds, sorted and distinct.
    #[cfg(test)]
    pub(crate) fn stops(&self) -> &[NodeId] {
        &self.to
    }

    /// `SP(from, stop, t)` in seconds.
    ///
    /// # Panics
    /// Panics if `stop` was not among the swept targets.
    pub(crate) fn secs_to(&self, stop: NodeId) -> f64 {
        self.secs[self.to.binary_search(&stop).expect("every leg read was swept")]
    }
}

/// One [`LegRow`] per distinct source, sorted by source.
pub(crate) struct LegRows {
    rows: Vec<LegRow>,
}

impl LegRows {
    /// One sweep per entry of `wanted` — source → targets (any order,
    /// repeats allowed) — fanned over `threads` workers when there are
    /// enough of them to pay for the spawns.
    pub(crate) fn sweep(
        wanted: BTreeMap<NodeId, Vec<NodeId>>,
        engine: &ShortestPathEngine,
        t: TimePoint,
        threads: usize,
    ) -> Self {
        let wanted: Vec<(NodeId, Vec<NodeId>)> = wanted.into_iter().collect();
        let threads = if wanted.len() >= MIN_FAN_OUT { threads } else { 1 };
        let rows = parallel_map(&wanted, threads, |_, (from, to)| {
            LegRow::sweep(*from, to.clone(), engine, t)
        });
        LegRows { rows }
    }

    /// Number of rows, i.e. of sweeps run.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// The rows as a [`LegTable::extend`](crate::route::LegTable::extend)
    /// leg source. Legs out of `start`'s node are read from `start` (a
    /// vehicle's own row, which is not part of the shared set), every other
    /// from the row of its source.
    ///
    /// # Panics
    /// The returned closure panics on a leg that no row holds.
    pub(crate) fn legs<'a>(
        &'a self,
        start: Option<&'a LegRow>,
    ) -> impl FnMut(NodeId, &[NodeId], &mut [f64]) + 'a {
        move |from, to, out| {
            let row = match start {
                Some(row) if row.from == from => row,
                _ => {
                    let at = self.rows.binary_search_by_key(&from, |row| row.from);
                    &self.rows[at.expect("every source read was swept")]
                }
            };
            to.iter().zip(out).for_each(|(&stop, secs)| *secs = row.secs_to(stop));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foodmatch_roadnet::generators::GridCityBuilder;

    #[test]
    fn rows_answer_like_point_queries() {
        let b = GridCityBuilder::new(6, 6);
        let engine = ShortestPathEngine::cached(b.build());
        let reference = ShortestPathEngine::cached(b.build());
        let t = TimePoint::from_hms(19, 30, 0);
        let here = b.node_at(2, 2);
        let stops = [b.node_at(0, 5), b.node_at(5, 1), b.node_at(3, 3)];
        // Targets arrive in any order, with repeats.
        let wanted: BTreeMap<NodeId, Vec<NodeId>> = stops
            .iter()
            .map(|&from| (from, vec![stops[2], stops[0], stops[2], stops[1]]))
            .collect();
        let rows = LegRows::sweep(wanted, &engine, t, 4);
        assert_eq!(rows.len(), 3);
        let start = LegRow::sweep(here, stops.to_vec(), &engine, t);

        let mut legs = rows.legs(Some(&start));
        for from in stops.iter().copied().chain([here]) {
            let mut out = [f64::NAN; 3];
            legs(from, &stops, &mut out);
            for (&to, got) in stops.iter().zip(out) {
                let want = reference.travel_time(from, to, t).unwrap().as_secs_f64();
                assert_eq!(got.to_bits(), want.to_bits(), "{from} → {to}");
            }
        }
    }
}
