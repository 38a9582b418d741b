//! Topology sweeps: the graph itself as an enumerable adversary axis.
//!
//! A scenario [`Grid`](crate::Grid) sweeps labels × starts × delays on
//! **one** graph. A [`TopoGrid`] lifts that one level: it takes a list of
//! [`GraphSpec`]s (seeded, serializable graph recipes), builds each graph
//! **once** (an `Arc` shared by all of that spec's scenarios — the
//! topology-level analogue of the executor's schedule cache), instantiates
//! a scenario grid per spec, and exposes the concatenation as one
//! index-stable [`Workload`]:
//!
//! ```text
//! global index = entry offset + local (capped) scenario index
//! ```
//!
//! Because the per-spec grids apply their sampling caps *before*
//! concatenation, the global list is reproducible, and
//! [`Workload::lease_ranges`] cuts it into contiguous ranges exactly
//! like a plain grid's — merging per-range
//! [`SweepReport`](crate::SweepReport)s reproduces the single-process
//! sweep byte for byte, witnesses included.
//!
//! The fold key of every unit is its spec's **graph family** (ring, tree,
//! erdős–rényi, …), so a topology sweep's report groups per family:
//! worst time, worst cost, and worst time/bound ratio, each with its
//! lowest-global-index witness carrying the replayable [`GraphSpec`].

use crate::workload::{WorkPiece, Workload, WorkloadKind, WorkloadMeta};
use crate::{Grid, RunnerError};
use rendezvous_graph::{GraphSpec, PortLabeledGraph};
use std::sync::Arc;

/// One spec's slot in a [`TopoGrid`]: the spec, its graph (built once,
/// shared across all of the spec's scenarios), its scenario grid, and the
/// global index of its first scenario.
#[derive(Debug, Clone)]
pub struct TopoEntry {
    /// Position of this entry in the spec list.
    pub spec_index: usize,
    /// The recipe that built [`TopoEntry::graph`].
    pub spec: GraphSpec,
    /// The spec's graph family ([`GraphSpec::family`], resolved once) —
    /// the fold key of every scenario in this entry.
    pub family: String,
    /// The built graph — one allocation per spec, not per scenario.
    pub graph: Arc<PortLabeledGraph>,
    /// The spec's scenario grid (cap already applied by the configurer).
    pub grid: Grid,
    /// Global index of the entry's first scenario.
    pub offset: usize,
}

/// An enumerable (spec × scenario) sweep space over many graphs.
#[derive(Debug, Clone)]
pub struct TopoGrid {
    entries: Vec<TopoEntry>,
    total: usize,
}

impl TopoGrid {
    /// Builds every spec's graph (once) and scenario grid, assigning
    /// stable global offsets in spec order.
    ///
    /// `configure` turns each (spec, built graph) into that spec's
    /// scenario grid — horizon, label pairs, delays and `sample_cap` are
    /// its choices, typically derived from the spec's exploration bound.
    ///
    /// # Errors
    ///
    /// [`RunnerError`] if any spec fails to build; the error names the
    /// spec so a bad entry in a long sweep list is findable.
    pub fn build(
        specs: Vec<GraphSpec>,
        configure: impl FnMut(&GraphSpec, &Arc<PortLabeledGraph>) -> Grid,
    ) -> Result<TopoGrid, RunnerError> {
        let graphs = specs
            .into_iter()
            .map(|spec| match spec.build() {
                Ok(graph) => Ok((spec, Arc::new(graph))),
                Err(e) => Err(RunnerError::new(format!("building {spec:?}: {e}"))),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(TopoGrid::from_graphs(graphs, configure))
    }

    /// [`TopoGrid::build`] over graphs the caller already built from
    /// their specs (a caller that validates a spec by building it need
    /// not build it twice).
    pub fn from_graphs(
        graphs: Vec<(GraphSpec, Arc<PortLabeledGraph>)>,
        mut configure: impl FnMut(&GraphSpec, &Arc<PortLabeledGraph>) -> Grid,
    ) -> TopoGrid {
        let mut entries = Vec::with_capacity(graphs.len());
        let mut offset = 0usize;
        for (spec_index, (spec, graph)) in graphs.into_iter().enumerate() {
            let grid = configure(&spec, &graph);
            let size = grid.size();
            entries.push(TopoEntry {
                spec_index,
                family: spec.family(),
                spec,
                graph,
                grid,
                offset,
            });
            offset += size;
        }
        TopoGrid {
            entries,
            total: offset,
        }
    }

    /// Total scenarios across all specs (caps applied).
    #[must_use]
    pub fn size(&self) -> usize {
        self.total
    }

    /// The entries, in spec order.
    #[must_use]
    pub fn entries(&self) -> &[TopoEntry] {
        &self.entries
    }

    /// The non-empty intersections of `[lo, hi)` with each entry's
    /// global range, as `(entry, cut_lo, cut_hi)` in spec order — one
    /// per piece.
    fn cuts(&self, lo: usize, hi: usize) -> impl Iterator<Item = (&TopoEntry, usize, usize)> {
        assert!(
            lo <= hi && hi <= self.total,
            "global range {lo}..{hi} out of bounds for a topo grid of {}",
            self.total
        );
        self.entries.iter().filter_map(move |entry| {
            let cut_lo = lo.max(entry.offset);
            let cut_hi = hi.min(entry.offset + entry.grid.size());
            (cut_lo < cut_hi).then_some((entry, cut_lo, cut_hi))
        })
    }
}

/// A [`TopoGrid`] as a [`Workload`]: the concatenated per-spec grids,
/// cut at entry boundaries into one piece per spec a range touches, each
/// piece keyed by the spec's graph family and carrying its [`TopoEntry`]
/// (the built graph) as context. Range boundaries may fall *inside* a
/// spec's scenario list, so ranges stay even when specs have wildly
/// different grid sizes.
impl Workload for TopoGrid {
    fn size(&self) -> usize {
        TopoGrid::size(self)
    }

    fn meta(&self) -> WorkloadMeta {
        // The digest folds each entry's spec identity (the derived Debug
        // form shows every field, seeds included) plus its grid's own
        // content digest — two spec lists that happen to enumerate the
        // same number of scenarios still hash apart.
        let mut h = crate::workload::Fnv1a::new();
        h.write_usize(self.entries.len());
        for entry in &self.entries {
            h.write_bytes(format!("{:?}", entry.spec).as_bytes());
            h.write_u64(entry.grid.digest());
        }
        WorkloadMeta {
            kind: WorkloadKind::Topo,
            digest: h.finish(),
            full_size: self
                .entries
                .iter()
                .fold(0usize, |acc, e| acc.saturating_add(e.grid.full_size())),
            size: self.total,
        }
    }

    fn pieces(&self, lo: usize, hi: usize) -> Vec<WorkPiece<'_>> {
        self.cuts(lo, hi)
            .map(|(entry, cut_lo, cut_hi)| WorkPiece {
                offset: cut_lo,
                key: &entry.family,
                entry: Some(entry),
                scenarios: entry
                    .grid
                    .scenarios_in(cut_lo - entry.offset, cut_hi - entry.offset),
            })
            .collect()
    }

    fn piece_count(&self, lo: usize, hi: usize) -> usize {
        self.cuts(lo, hi).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rendezvous_graph::{RingSpec, SeededSpec};

    #[test]
    fn topo_grid_concatenates_spec_grids_index_stably() {
        let specs = vec![
            GraphSpec::Ring(RingSpec { n: 4 }),
            GraphSpec::Ring(RingSpec { n: 5 }),
            GraphSpec::ScrambledRing(SeededSpec { n: 4, seed: 1 }),
        ];
        let topo = TopoGrid::build(specs, |_, g| {
            Grid::new(20)
                .label_pairs_ordered(&[(1, 2)])
                .all_start_pairs(g)
        })
        .unwrap();
        // 4·3 + 5·4 + 4·3 ordered start pairs.
        assert_eq!(topo.size(), 12 + 20 + 12);
        assert_eq!(topo.entries()[0].offset, 0);
        assert_eq!(topo.entries()[1].offset, 12);
        assert_eq!(topo.entries()[2].offset, 32);
        // The graph is built once per spec and shared, and the family is
        // resolved once at build time.
        assert_eq!(topo.entries()[1].graph.node_count(), 5);
        assert_eq!(topo.entries()[2].family, "scrambled-ring");

        // Pieces partition any range, respecting entry boundaries.
        let pieces = topo.pieces(0, topo.size());
        let shape: Vec<(usize, usize)> = pieces
            .iter()
            .map(|p| (p.offset, p.scenarios.len()))
            .collect();
        assert_eq!(shape, vec![(0, 12), (12, 20), (32, 12)]);
        let middle = topo.pieces(10, 34);
        let shape: Vec<(usize, usize)> = middle
            .iter()
            .map(|p| (p.offset, p.scenarios.len()))
            .collect();
        assert_eq!(shape, vec![(10, 2), (12, 20), (32, 2)]);
        // Every piece carries its entry and is keyed by the family.
        for p in &middle {
            let entry = p.entry.expect("topology pieces carry their entry");
            assert_eq!(p.key, entry.family);
            assert_eq!(
                p.scenarios,
                entry.grid.scenarios_in(
                    p.offset - entry.offset,
                    p.offset - entry.offset + p.scenarios.len()
                )
            );
        }
        assert!(topo.pieces(12, 12).is_empty());
    }

    #[test]
    fn topo_lease_ranges_partition_the_global_space() {
        let specs: Vec<GraphSpec> = (4..9).map(|n| GraphSpec::Ring(RingSpec { n })).collect();
        let topo = TopoGrid::build(specs, |_, g| {
            Grid::new(20)
                .label_pairs_ordered(&[(1, 2)])
                .all_start_pairs(g)
                .sample_cap(7)
        })
        .unwrap();
        assert_eq!(topo.size(), 35);
        for chunk in [1usize, 2, 3, 5, 35, 50] {
            let mut next = 0;
            for (lo, hi) in topo.lease_ranges(chunk) {
                assert_eq!(lo, next, "range must start where the last ended ({chunk})");
                assert!(hi > lo && hi - lo <= chunk);
                next = hi;
            }
            assert_eq!(next, topo.size(), "ranges must cover the space ({chunk})");
        }
        // The meta fingerprints the pre-cap space: 5 rings with 12..56
        // ordered start pairs (4·3, 5·4, 6·5, 7·6, 8·7).
        let meta = topo.meta();
        assert_eq!(meta.kind, WorkloadKind::Topo);
        assert_eq!(meta.size, 35);
        assert_eq!(meta.full_size, 12 + 20 + 30 + 42 + 56);
    }

    #[test]
    fn build_reports_the_failing_spec() {
        let err = TopoGrid::build(vec![GraphSpec::Ring(RingSpec { n: 2 })], |_, g| {
            Grid::new(10).all_start_pairs(g)
        })
        .unwrap_err();
        assert!(err.to_string().contains("Ring"), "unhelpful error: {err}");
    }
}
