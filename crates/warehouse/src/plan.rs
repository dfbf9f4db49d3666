//! Compiled roll-up plans: the columnar fast path of
//! [`CubeQuery`](crate::query::CubeQuery).
//!
//! The reference executor re-resolves role and level names, clones a
//! `Vec<Value>` group key and hashes it *per fact row*. A
//! [`CompiledRollup`] does all of that once per
//! [`CubeQuery::run`](crate::query::CubeQuery::run) call, which compiles
//! and executes together so a plan never outlives the warehouse contents
//! it was resolved against:
//!
//! * every filter becomes a per-member **pass mask** — the predicate is
//!   evaluated once per dimension member, never per fact row;
//! * every group-by coordinate becomes a surrogate-key →
//!   **group-ordinal** mapping array materialised from the dimension's
//!   level column, plus the ordinal → value table used at
//!   materialisation;
//! * the composed group ordinal (per-coordinate ordinals folded through
//!   strides) indexes a flat `Vec<Accumulator>` — no per-row hashing and
//!   no `Value` clones until the result is materialised.
//!
//! The scan itself then touches only `u32` key slices, `bool` masks and
//! numeric measure slices. When the composed ordinal space is too large
//! to materialise densely the scan degrades to hashing the (cheap,
//! integer) composed ordinal; when it cannot even be composed without
//! overflow the plan asks the caller to fall back to the reference
//! executor. Results are byte-identical to
//! [`CubeQuery::execute_reference`](crate::query::CubeQuery::execute_reference)
//! in every mode (a proptest in `tests/compiled_parity.rs` holds this).

#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]

use crate::column::{Column, NumericSlice};
use crate::dimension::DimensionTable;
use crate::error::{Result, WarehouseError};
use crate::query::{Accumulator, AggFn, CubeQuery, Filter, FilterTarget, ResultSet};
use crate::value::Value;
use crate::warehouse::{Warehouse, WarehouseDelta};
use dwqa_obs::names as obs;
use std::collections::HashMap;

/// Largest composed-ordinal space the scan materialises as a flat
/// accumulator table; beyond it, grouping hashes the composed ordinal
/// instead (still no `Value` work per row).
const DENSE_GROUP_LIMIT: u128 = 1 << 20;

/// One filter, compiled to a per-member verdict.
#[derive(Debug)]
struct CompiledFilter {
    role_idx: usize,
    /// `pass[member_key]` — whether the member satisfies every filter
    /// on this role (filters sharing a role are AND-merged).
    pass: Vec<bool>,
}

/// One group-by coordinate, compiled to an ordinal mapping.
#[derive(Debug)]
struct CompiledGroup {
    role_idx: usize,
    /// Surrogate key → ordinal of the member's level value. Distinct
    /// members sharing a level value (the roll-up) share an ordinal.
    ordinal_of_member: Vec<u32>,
    /// Ordinal → level value, for materialisation only.
    values: Vec<Value>,
}

/// A [`CubeQuery`] resolved and validated against the warehouse's
/// current contents. [`CubeQuery::run`] compiles one and executes it
/// immediately; it is never kept across a mutation.
#[derive(Debug)]
pub(crate) struct CompiledRollup {
    fact: String,
    agg_cols: Vec<usize>,
    agg_fns: Vec<AggFn>,
    filters: Vec<CompiledFilter>,
    groups: Vec<CompiledGroup>,
    /// Stride of each coordinate in the composed ordinal (little-endian:
    /// `strides[0] == 1`).
    strides: Vec<u128>,
    /// Product of coordinate cardinalities — the composed ordinal space.
    total_groups: u128,
    /// Composing ordinals overflowed `u128`; callers must use the
    /// reference executor (results stay correct, just slower).
    overflowed: bool,
    columns: Vec<String>,
    order: Option<(usize, bool)>,
    limit: Option<usize>,
}

impl CompiledRollup {
    /// Whether the composed ordinal space overflowed and execution must
    /// fall back to the reference scan.
    pub(crate) fn needs_reference(&self) -> bool {
        self.overflowed
    }

    /// Resolves and validates `query` against `wh`. Performs exactly the
    /// checks of the reference executor, in the same order, so a failing
    /// query reports the identical error from either path.
    pub(crate) fn compile(query: &CubeQuery, wh: &Warehouse) -> Result<CompiledRollup> {
        let fact = wh.fact(&query.fact)?;

        // Aggregates: measure resolution + additivity legality.
        let mut agg_cols = Vec::with_capacity(query.aggregates.len());
        let mut agg_fns = Vec::with_capacity(query.aggregates.len());
        for a in &query.aggregates {
            let idx = fact.measure_index(&a.measure)?;
            let measure = &fact.model().measures[idx];
            match a.func {
                AggFn::Sum if !measure.additivity.allows_sum() => {
                    return Err(WarehouseError::IllegalAggregate {
                        measure: a.measure.clone(),
                        reason: format!("{} measures cannot be summed", measure.additivity),
                    });
                }
                AggFn::Avg if !measure.additivity.allows_avg() => {
                    return Err(WarehouseError::IllegalAggregate {
                        measure: a.measure.clone(),
                        reason: format!("{} measures cannot be averaged", measure.additivity),
                    });
                }
                _ => {}
            }
            agg_cols.push(idx);
            agg_fns.push(a.func);
        }

        // Filters: resolve the tested column once, evaluate the
        // predicate once per *member*, AND-merge masks sharing a role.
        let mut filters: Vec<CompiledFilter> = Vec::new();
        for f in &query.filters {
            let role_idx = fact.role_index(&f.role)?;
            let dim = wh.dimension_table_for_role(fact, role_idx);
            let column = match &f.target {
                FilterTarget::Level(level) => {
                    let (level_id, _) =
                        dim.model()
                            .level(level)
                            .ok_or_else(|| WarehouseError::UnknownLevel {
                                dimension: dim.model().name.clone(),
                                level: level.clone(),
                            })?;
                    dim.descriptor_column(level_id.index())
                }
                FilterTarget::Attribute(attr) => {
                    dim.attribute_column(attr)
                        .ok_or_else(|| WarehouseError::UnknownAttribute {
                            level: dim.model().name.clone(),
                            attribute: attr.clone(),
                        })?
                }
            };
            let pass: Vec<bool> = (0..dim.len())
                .map(|m| f.predicate.matches(&column.get(m)))
                .collect();
            match filters.iter_mut().find(|c| c.role_idx == role_idx) {
                Some(existing) => {
                    for (e, p) in existing.pass.iter_mut().zip(&pass) {
                        *e = *e && *p;
                    }
                }
                None => filters.push(CompiledFilter { role_idx, pass }),
            }
        }

        // Group-by coordinates: the surrogate-key → ordinal arrays.
        let mut groups = Vec::with_capacity(query.group_by.len());
        for (role, level) in &query.group_by {
            let role_idx = fact.role_index(role)?;
            let dim = wh.dimension_table_for_role(fact, role_idx);
            let (level_id, _) =
                dim.model()
                    .level(level)
                    .ok_or_else(|| WarehouseError::UnknownLevel {
                        dimension: dim.model().name.clone(),
                        level: level.clone(),
                    })?;
            let column = dim.descriptor_column(level_id.index());
            let mut ordinal_of_member = Vec::with_capacity(dim.len());
            let mut values: Vec<Value> = Vec::new();
            let mut seen: HashMap<Value, u32> = HashMap::new();
            for m in 0..dim.len() {
                let v = column.get(m);
                let ordinal = match seen.get(&v) {
                    Some(&o) => o,
                    None => {
                        // A dimension holds at most u32::MAX members, so
                        // distinct level values fit in u32 too.
                        let o = values.len() as u32;
                        seen.insert(v.clone(), o);
                        values.push(v);
                        o
                    }
                };
                ordinal_of_member.push(ordinal);
            }
            groups.push(CompiledGroup {
                role_idx,
                ordinal_of_member,
                values,
            });
        }

        // Strides compose per-coordinate ordinals into one flat ordinal.
        let mut strides = Vec::with_capacity(groups.len());
        let mut total: u128 = 1;
        let mut overflowed = false;
        for g in &groups {
            strides.push(total);
            match total.checked_mul(g.values.len() as u128) {
                Some(t) => total = t,
                None => {
                    overflowed = true;
                    break;
                }
            }
        }

        // Output shape and the (post-scan, in the reference) order-by
        // resolution — nothing between group validation and this check
        // can fail, so validating here reports identical errors.
        let mut columns: Vec<String> = query
            .group_by
            .iter()
            .map(|(role, level)| format!("{role}.{level}"))
            .collect();
        for a in &query.aggregates {
            columns.push(format!("{}({})", a.func.label(), a.measure));
        }
        let order = match &query.order {
            Some((column, desc)) => {
                let idx = columns.iter().position(|c| c == column).ok_or_else(|| {
                    WarehouseError::UnknownMeasure {
                        fact: query.fact.clone(),
                        measure: column.clone(),
                    }
                })?;
                Some((idx, *desc))
            }
            None => None,
        };

        Ok(CompiledRollup {
            fact: query.fact.clone(),
            agg_cols,
            agg_fns,
            filters,
            groups,
            strides,
            total_groups: total,
            overflowed,
            columns,
            order,
            limit: query.limit,
        })
    }

    /// Runs the tight scan against `wh`, which must be the unmutated
    /// warehouse the plan was compiled against.
    pub(crate) fn execute(&self, wh: &Warehouse) -> Result<ResultSet> {
        let fact = wh.fact(&self.fact)?;
        let n_rows = fact.len();
        let n_aggs = self.agg_cols.len();
        dwqa_obs::counter_add(obs::WAREHOUSE_ROWS_SCANNED, n_rows as u64);

        let filters: Vec<(&[u32], &[bool])> = self
            .filters
            .iter()
            .map(|f| (fact.role_key_column(f.role_idx), f.pass.as_slice()))
            .collect();
        let measures: Vec<NumericSlice<'_>> = self
            .agg_cols
            .iter()
            .map(|&mi| fact.measure_column(mi).numeric())
            .collect();

        // Zero-group fast path: one accumulator row, no key work at all.
        if self.groups.is_empty() {
            let mut accs = vec![Accumulator::default(); n_aggs];
            let mut any = false;
            'rows: for row in 0..n_rows {
                for (keys, pass) in &filters {
                    if !pass[keys[row] as usize] {
                        continue 'rows;
                    }
                }
                any = true;
                for (acc, m) in accs.iter_mut().zip(&measures) {
                    if let Some(v) = m.get(row) {
                        acc.push(v);
                    }
                }
            }
            let rows = if any {
                vec![accs
                    .iter()
                    .zip(&self.agg_fns)
                    .map(|(acc, &f)| acc.finish(f))
                    .collect()]
            } else {
                Vec::new()
            };
            return self.finish(rows);
        }

        let group_keys: Vec<(&[u32], &[u32])> = self
            .groups
            .iter()
            .map(|g| {
                (
                    fact.role_key_column(g.role_idx),
                    g.ordinal_of_member.as_slice(),
                )
            })
            .collect();

        let rows = if !self.overflowed && self.total_groups <= DENSE_GROUP_LIMIT {
            // Dense: flat accumulator table indexed by composed ordinal.
            let total = self.total_groups as usize;
            let strides: Vec<usize> = self.strides.iter().map(|&s| s as usize).collect();
            let mut accs = vec![Accumulator::default(); total * n_aggs];
            let mut touched = vec![false; total];
            'rows: for row in 0..n_rows {
                for (keys, pass) in &filters {
                    if !pass[keys[row] as usize] {
                        continue 'rows;
                    }
                }
                let mut flat = 0usize;
                for ((keys, ordinals), &stride) in group_keys.iter().zip(&strides) {
                    flat += ordinals[keys[row] as usize] as usize * stride;
                }
                touched[flat] = true;
                let slot = &mut accs[flat * n_aggs..(flat + 1) * n_aggs];
                for (acc, m) in slot.iter_mut().zip(&measures) {
                    if let Some(v) = m.get(row) {
                        acc.push(v);
                    }
                }
            }
            let mut rows = Vec::new();
            for (flat, hit) in touched.iter().enumerate() {
                if *hit {
                    rows.push(
                        self.materialize(flat as u128, &accs[flat * n_aggs..(flat + 1) * n_aggs]),
                    );
                }
            }
            rows
        } else {
            // Sparse: the ordinal space is too large to materialise, but
            // hashing the composed *integer* ordinal still avoids every
            // per-row `Value` clone of the reference scan.
            let mut table: HashMap<u128, Vec<Accumulator>> = HashMap::new();
            'rows: for row in 0..n_rows {
                for (keys, pass) in &filters {
                    if !pass[keys[row] as usize] {
                        continue 'rows;
                    }
                }
                let mut flat = 0u128;
                for ((keys, ordinals), &stride) in group_keys.iter().zip(&self.strides) {
                    flat += ordinals[keys[row] as usize] as u128 * stride;
                }
                let accs = table
                    .entry(flat)
                    .or_insert_with(|| vec![Accumulator::default(); n_aggs]);
                for (acc, m) in accs.iter_mut().zip(&measures) {
                    if let Some(v) = m.get(row) {
                        acc.push(v);
                    }
                }
            }
            table
                .iter()
                .map(|(&flat, accs)| self.materialize(flat, accs))
                .collect()
        };
        self.finish(rows)
    }

    /// Rebuilds one output row from a composed ordinal + its
    /// accumulators — the only place `Value`s are cloned.
    fn materialize(&self, flat: u128, accs: &[Accumulator]) -> Vec<Value> {
        let mut row = Vec::with_capacity(self.groups.len() + accs.len());
        for (g, &stride) in self.groups.iter().zip(&self.strides) {
            let ordinal = (flat / stride) % g.values.len() as u128;
            row.push(g.values[ordinal as usize].clone());
        }
        for (acc, &f) in accs.iter().zip(&self.agg_fns) {
            row.push(acc.finish(f));
        }
        row
    }

    /// The shared materialisation tail: deterministic base sort, the
    /// optional stable order-by, the limit — exactly the reference path.
    fn finish(&self, rows: Vec<Vec<Value>>) -> Result<ResultSet> {
        Ok(finalize(&self.columns, self.order, self.limit, rows))
    }
}

/// The materialisation tail shared by the compiled executor and the
/// incremental [`MaterializedRollup`]: deterministic base sort, the
/// optional stable order-by, the limit — exactly the reference path.
fn finalize(
    columns: &[String],
    order: Option<(usize, bool)>,
    limit: Option<usize>,
    mut rows: Vec<Vec<Value>>,
) -> ResultSet {
    dwqa_obs::counter_add(obs::WAREHOUSE_GROUPS, rows.len() as u64);
    rows.sort();
    if let Some((idx, desc)) = order {
        rows.sort_by(|a, b| {
            let ord = a[idx].cmp(&b[idx]);
            if desc {
                ord.reverse()
            } else {
                ord
            }
        });
    }
    if let Some(n) = limit {
        rows.truncate(n);
    }
    ResultSet {
        columns: columns.to_vec(),
        rows,
    }
}

/// Maximum group-by coordinates a materialized roll-up can carry: each
/// coordinate's ordinal occupies one 32-bit lane of the `u128` group key.
///
/// Lanes — not the compiled plan's strides — because strides are composed
/// from the coordinates' *current* cardinalities: one new distinct level
/// value would renumber every composed ordinal and invalidate the whole
/// accumulator table. A fixed 32-bit lane per coordinate is stable under
/// cardinality growth, which is exactly what incremental maintenance
/// needs to absorb new dimension members.
const MAX_LANES: usize = 4;

/// Default bound on live groups per materialized entry; past it the
/// entry demotes to recompute-on-next-read (the incremental analogue of
/// the compiled executor's dense→sparse migration).
pub const DEFAULT_MATERIALIZED_GROUP_LIMIT: usize = 1 << 20;

/// One filter role with its live pass mask plus the original query
/// filters needed to extend the mask over new members.
#[derive(Debug, Clone)]
struct MatFilter {
    role_idx: usize,
    dim_idx: usize,
    /// The query's filters on this role (one or more; AND-merged), kept
    /// so a new member's verdict can be computed exactly as compilation
    /// would have.
    specs: Vec<Filter>,
    /// `pass[member_key]`, extended as the dimension gains members.
    pass: Vec<bool>,
}

/// One group-by coordinate with its live ordinal mapping.
#[derive(Debug, Clone)]
struct MatGroup {
    role_idx: usize,
    dim_idx: usize,
    /// Level name, re-resolved against the dimension model when new
    /// members arrive.
    level: String,
    /// Surrogate key → ordinal, extended as the dimension gains members.
    ordinal_of_member: Vec<u32>,
    /// Ordinal → level value, for materialisation.
    values: Vec<Value>,
    /// Level value → ordinal — the compiled plan's first-seen assignment,
    /// retained so extension reuses existing ordinals for known values.
    seen: HashMap<Value, u32>,
}

/// A roll-up result kept **live**: the per-group accumulator state of a
/// [`CubeQuery`] plus everything needed to fold a pure-append
/// [`WarehouseDelta`] into it — new dimension members extend the pass
/// masks and key→ordinal maps, appended fact rows route through the
/// tight scan over just the delta. The maintained [`ResultSet`] is
/// byte-identical to a cold
/// [`execute_reference`](CubeQuery::execute_reference) recompute
/// (proptest-enforced in `tests/incremental_parity.rs`): rows are folded
/// in ascending row order across commits, reproducing the exact
/// accumulation order of a full scan.
///
/// Incremental maintenance is an optimization, never a correctness
/// risk: [`MaterializedRollup::build`] declines queries the scheme
/// cannot carry (reference-executor fallback, more than `MAX_LANES`
/// (4) coordinates), and [`MaterializedRollup::apply_delta`] returns `false`
/// — demote me — whenever a delta doesn't line up with the folded state
/// or the group table outgrows its limit.
#[derive(Debug, Clone)]
pub struct MaterializedRollup {
    query: CubeQuery,
    fact_idx: usize,
    /// Fact rows folded so far; the next delta must start exactly here.
    rows_folded: usize,
    agg_cols: Vec<usize>,
    agg_fns: Vec<AggFn>,
    filters: Vec<MatFilter>,
    groups: Vec<MatGroup>,
    /// Lane-packed group key → accumulators, one per requested aggregate.
    accs: HashMap<u128, Vec<Accumulator>>,
    group_limit: usize,
    columns: Vec<String>,
    order: Option<(usize, bool)>,
    limit: Option<usize>,
    result: ResultSet,
}

/// Resolves the column a filter tests, against the *current* dimension
/// table (columns cannot be stored across mutations).
fn filter_column<'a>(dim: &'a DimensionTable, target: &FilterTarget) -> Option<&'a Column> {
    match target {
        FilterTarget::Level(level) => {
            let (level_id, _) = dim.model().level(level)?;
            Some(dim.descriptor_column(level_id.index()))
        }
        FilterTarget::Attribute(attr) => dim.attribute_column(attr),
    }
}

impl MaterializedRollup {
    /// Builds live accumulator state for `query` over the warehouse's
    /// current contents.
    ///
    /// Returns `Ok(None)` when the query cannot be maintained
    /// incrementally — it needs the reference executor, groups on more
    /// than `MAX_LANES` (4) coordinates, or materialises more than
    /// `group_limit` groups — in which case callers run it per-read as
    /// before. Invalid queries report the identical error a
    /// [`CubeQuery::run`] would, so caching never changes error
    /// behaviour.
    pub fn build(
        query: &CubeQuery,
        wh: &Warehouse,
        group_limit: usize,
    ) -> Result<Option<MaterializedRollup>> {
        // Compile first: validation happens in exactly the reference
        // order, so error parity is inherited rather than re-implemented.
        let plan = CompiledRollup::compile(query, wh)?;
        if plan.needs_reference() || plan.groups.len() > MAX_LANES {
            return Ok(None);
        }
        let fact = wh.fact(&query.fact)?;
        let Some((fact_id, fact_model)) = wh.schema().fact(&query.fact) else {
            return Ok(None); // unreachable: compile resolved the fact
        };
        let filters = plan
            .filters
            .iter()
            .map(|f| MatFilter {
                role_idx: f.role_idx,
                dim_idx: fact_model.roles[f.role_idx].dimension.index(),
                specs: query
                    .filters
                    .iter()
                    .filter(|qf| fact.role_index(&qf.role).ok() == Some(f.role_idx))
                    .cloned()
                    .collect(),
                pass: f.pass.clone(),
            })
            .collect();
        let groups = plan
            .groups
            .iter()
            .zip(&query.group_by)
            .map(|(g, (_, level))| {
                let mut seen = HashMap::with_capacity(g.values.len());
                for (o, v) in g.values.iter().enumerate() {
                    seen.insert(v.clone(), o as u32);
                }
                MatGroup {
                    role_idx: g.role_idx,
                    dim_idx: fact_model.roles[g.role_idx].dimension.index(),
                    level: level.clone(),
                    ordinal_of_member: g.ordinal_of_member.clone(),
                    values: g.values.clone(),
                    seen,
                }
            })
            .collect();
        let mut mat = MaterializedRollup {
            query: query.clone(),
            fact_idx: fact_id.index(),
            rows_folded: 0,
            agg_cols: plan.agg_cols.clone(),
            agg_fns: plan.agg_fns.clone(),
            filters,
            groups,
            accs: HashMap::new(),
            group_limit,
            columns: plan.columns.clone(),
            order: plan.order,
            limit: plan.limit,
            result: ResultSet {
                columns: plan.columns.clone(),
                rows: Vec::new(),
            },
        };
        mat.fold_rows(wh, 0, fact.len())?;
        if mat.accs.len() > group_limit {
            return Ok(None);
        }
        mat.result = mat.materialize_all();
        Ok(Some(mat))
    }

    /// The maintained result — identical to what running the query
    /// against the warehouse at the folded extent would return.
    pub fn result_set(&self) -> &ResultSet {
        &self.result
    }

    /// The query this roll-up materialises.
    pub fn query(&self) -> &CubeQuery {
        &self.query
    }

    /// Fact rows folded into the accumulators so far.
    pub fn rows_folded(&self) -> usize {
        self.rows_folded
    }

    /// Folds a pure-append delta into the live state and refreshes the
    /// maintained result.
    ///
    /// Returns `false` — the caller must demote this entry to
    /// recompute-on-next-read — when the delta cannot be absorbed: its
    /// before-extents don't match the folded state, the warehouse isn't
    /// at the delta's after-extents, a filter/level no longer resolves,
    /// or the group table outgrows the limit. On `false` the entry's
    /// state may be partially extended and must be discarded, never
    /// read.
    pub fn apply_delta(&mut self, wh: &Warehouse, delta: &WarehouseDelta) -> bool {
        let Some(&(fact_before, fact_after)) = delta.fact_rows.get(self.fact_idx) else {
            return false;
        };
        if fact_before != self.rows_folded {
            return false;
        }
        let Ok(fact) = wh.fact(&self.query.fact) else {
            return false;
        };
        if fact.len() != fact_after {
            return false;
        }
        // Extend filter pass masks over new members: each new member's
        // verdict is the AND of every query filter on that role,
        // evaluated exactly as compilation would have.
        for f in &mut self.filters {
            let Some(&(before, after)) = delta.dim_members.get(f.dim_idx) else {
                return false;
            };
            if f.pass.len() != before {
                return false;
            }
            let dim = wh.dimension_table_for_role(fact, f.role_idx);
            if dim.len() != after {
                return false;
            }
            for m in before..after {
                let mut verdict = true;
                for spec in &f.specs {
                    let Some(column) = filter_column(dim, &spec.target) else {
                        return false;
                    };
                    verdict = verdict && spec.predicate.matches(&column.get(m));
                }
                f.pass.push(verdict);
            }
        }
        // Extend key→ordinal maps: known level values reuse their
        // ordinal (the roll-up), new distinct values take fresh lanes-
        // local ordinals. Assignment order differs from a cold recompile
        // but cannot be observed: materialisation sorts rows by value.
        for g in &mut self.groups {
            let Some(&(before, after)) = delta.dim_members.get(g.dim_idx) else {
                return false;
            };
            if g.ordinal_of_member.len() != before {
                return false;
            }
            let dim = wh.dimension_table_for_role(fact, g.role_idx);
            if dim.len() != after {
                return false;
            }
            let Some((level_id, _)) = dim.model().level(&g.level) else {
                return false;
            };
            let column = dim.descriptor_column(level_id.index());
            for m in before..after {
                let v = column.get(m);
                let ordinal = match g.seen.get(&v) {
                    Some(&o) => o,
                    None => {
                        let o = g.values.len() as u32;
                        g.seen.insert(v.clone(), o);
                        g.values.push(v);
                        o
                    }
                };
                g.ordinal_of_member.push(ordinal);
            }
        }
        if self.fold_rows(wh, fact_before, fact_after).is_err() {
            return false;
        }
        if self.accs.len() > self.group_limit {
            return false;
        }
        self.result = self.materialize_all();
        true
    }

    /// The tight scan over rows `from..to`, accumulating into the lane-
    /// packed group table. Folding strictly ascending row ranges across
    /// commits reproduces the accumulation order — and therefore the
    /// float results, bit for bit — of one cold scan over `0..to`.
    fn fold_rows(&mut self, wh: &Warehouse, from: usize, to: usize) -> Result<()> {
        let fact = wh.fact(&self.query.fact)?;
        let n_aggs = self.agg_cols.len();
        dwqa_obs::counter_add(obs::WAREHOUSE_ROWS_SCANNED, (to - from) as u64);
        let filters: Vec<(&[u32], &[bool])> = self
            .filters
            .iter()
            .map(|f| (fact.role_key_column(f.role_idx), f.pass.as_slice()))
            .collect();
        let group_keys: Vec<(&[u32], &[u32])> = self
            .groups
            .iter()
            .map(|g| {
                (
                    fact.role_key_column(g.role_idx),
                    g.ordinal_of_member.as_slice(),
                )
            })
            .collect();
        let measures: Vec<NumericSlice<'_>> = self
            .agg_cols
            .iter()
            .map(|&mi| fact.measure_column(mi).numeric())
            .collect();
        'rows: for row in from..to {
            for (keys, pass) in &filters {
                if !pass[keys[row] as usize] {
                    continue 'rows;
                }
            }
            let mut packed = 0u128;
            for (lane, (keys, ordinals)) in group_keys.iter().enumerate() {
                packed |= (ordinals[keys[row] as usize] as u128) << (32 * lane);
            }
            let accs = self
                .accs
                .entry(packed)
                .or_insert_with(|| vec![Accumulator::default(); n_aggs]);
            for (acc, m) in accs.iter_mut().zip(&measures) {
                if let Some(v) = m.get(row) {
                    acc.push(v);
                }
            }
        }
        self.rows_folded = to;
        Ok(())
    }

    /// Rebuilds the full result from the live accumulators through the
    /// same materialisation tail as both executors.
    fn materialize_all(&self) -> ResultSet {
        let rows: Vec<Vec<Value>> = self
            .accs
            .iter()
            .map(|(&packed, accs)| {
                let mut row = Vec::with_capacity(self.groups.len() + accs.len());
                for (lane, g) in self.groups.iter().enumerate() {
                    let ordinal = ((packed >> (32 * lane)) & 0xFFFF_FFFF) as usize;
                    row.push(g.values[ordinal].clone());
                }
                for (acc, &f) in accs.iter().zip(&self.agg_fns) {
                    row.push(acc.finish(f));
                }
                row
            })
            .collect();
        finalize(&self.columns, self.order, self.limit, rows)
    }
}
