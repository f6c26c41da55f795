//! The answer check: every session's tuples must equal the first tuples
//! of a sorted scan of the filtered table — the paper's exactness
//! property. MD functions sort by score under the source's normalizer
//! (`f64::total_cmp`), 1D functions by the attribute's value in the asked
//! direction; ties break by ascending tuple id.

use qr2_core::{Normalizer, RankingFunction, SortDir};
use qr2_service::{compile_filters, compile_ranking};
use qr2_webdb::{SimulatedWebDb, TopKInterface};

use crate::workload::Spec;

/// Tuple ids in serving order for `spec`, at most `depth` of them.
pub fn expected_ids(
    db: &SimulatedWebDb,
    norm: &Normalizer,
    spec: &Spec,
    depth: usize,
) -> Result<Vec<u32>, String> {
    let schema = db.schema();
    let (filters, ranking) = spec.dtos();
    let filter = compile_filters(schema, &filters).map_err(|e| format!("filter: {e:?}"))?;
    let function = compile_ranking(schema, &ranking).map_err(|e| format!("ranking: {e:?}"))?;
    let table = db.ground_truth();
    let mut keyed: Vec<(f64, u32)> = table
        .matching_rows(&filter)
        .into_iter()
        .map(|row| {
            let key = match &function {
                RankingFunction::OneDim(f) => {
                    let v = table.num(row, f.attr);
                    match f.dir {
                        SortDir::Asc => v,
                        SortDir::Desc => -v,
                    }
                }
                RankingFunction::Linear(f) => f.score(&table.tuple(row), norm),
            };
            (key, row as u32)
        })
        .collect();
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    keyed.truncate(depth);
    Ok(keyed.into_iter().map(|(_, id)| id).collect())
}
