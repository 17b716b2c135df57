//! Per-stage statistics and table formatting.
//!
//! Energy and time come straight from the stack: a
//! [`radio_protocols::EnergyView`] snapshot, and `later.diff(&earlier)` for
//! one phase of a run. Beyond those, the experiments need:
//!
//! * **Claim 1 / Claim 2 statistics**: how many stages each vertex joined
//!   the wavefront set `X_i`, and how many Special Updates each cluster
//!   participated in — [`RecursionStats`].
//! * **Figure 3 traces**: the evolution of `[L_i(C), U_i(C)]` for chosen
//!   clusters — also in [`RecursionStats`].

use crate::estimates::EstimateTracePoint;

/// Statistics gathered while running the recursive BFS, backing Claims 1–2
/// and Figure 3.
#[derive(Clone, Debug, Default)]
pub struct RecursionStats {
    /// For every vertex of the top-level network, the number of stages `i`
    /// in which it belonged to the wavefront set `X_i` (Claim 1).
    pub wavefront_memberships: Vec<u64>,
    /// For every top-level cluster, the number of Special Updates it
    /// participated in, i.e. the number of induced subgraphs `G*_i` it
    /// joined (Claim 2).
    pub special_update_memberships: Vec<u64>,
    /// Number of recursive calls made at each depth (`[0]` = calls on the
    /// first cluster graph, etc.).
    pub recursive_calls_by_depth: Vec<u64>,
    /// Number of wavefront stages executed at the top level.
    pub stages: u64,
    /// Estimate traces of the clusters requested via
    /// [`crate::recursive_bfs::recursive_bfs_with_hierarchy`]'s trace set,
    /// keyed in the same order.
    pub estimate_traces: Vec<(usize, Vec<EstimateTracePoint>)>,
}

impl RecursionStats {
    /// Maximum number of `X_i` memberships over vertices (Claim 1 bound).
    pub fn max_wavefront_memberships(&self) -> u64 {
        self.wavefront_memberships
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Maximum number of Special Updates over clusters (Claim 2 bound).
    pub fn max_special_memberships(&self) -> u64 {
        self.special_update_memberships
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Total recursive calls across depths.
    pub fn total_recursive_calls(&self) -> u64 {
        self.recursive_calls_by_depth.iter().sum()
    }
}

/// Formats a simple aligned table (used by the experiments binary and the
/// examples; kept here so every consumer prints consistent output).
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1))));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recursion_stats_maxima() {
        let stats = RecursionStats {
            wavefront_memberships: vec![1, 3, 2],
            special_update_memberships: vec![4, 0],
            recursive_calls_by_depth: vec![5, 2],
            stages: 7,
            estimate_traces: Vec::new(),
        };
        assert_eq!(stats.max_wavefront_memberships(), 3);
        assert_eq!(stats.max_special_memberships(), 4);
        assert_eq!(stats.total_recursive_calls(), 7);
    }

    #[test]
    fn empty_stats_have_zero_maxima() {
        let stats = RecursionStats::default();
        assert_eq!(stats.max_wavefront_memberships(), 0);
        assert_eq!(stats.max_special_memberships(), 0);
        assert_eq!(stats.total_recursive_calls(), 0);
    }

    #[test]
    fn table_pads_every_cell_to_its_column_width() {
        let out = format_table(&["a", "bb"], &[vec!["ccc".into(), "d".into()]]);
        // Columns are 3 and 2 wide, joined by two spaces; the rule spans
        // both columns and the gap.
        assert_eq!(out, "a    bb\n-------\nccc  d \n");
    }

    #[test]
    fn table_formatting_aligns_columns() {
        let out = format_table(
            &["name", "value"],
            &[
                vec!["alpha".into(), "1".into()],
                vec!["b".into(), "12345".into()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("alpha"));
    }
}
