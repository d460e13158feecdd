//! Semantic query fingerprints for sub-plan estimate caching.
//!
//! A join-order optimizer probes a cardinality estimator once per
//! connected table subset — up to 2^20 probes per query — and consecutive
//! queries in a real workload overlap heavily in their sub-plans. Caching
//! those estimates (Hyrise's `CardinalityEstimationCache` pattern) needs a
//! key under which *semantically identical* sub-queries collide even when
//! they are written differently: `a < 5 AND b = 2` must hit the entry
//! filled by `b = 2 AND a < 5`.
//!
//! [`QueryFingerprint`] is that key: a stable 128-bit FNV-1a hash of a
//! *canonical encoding* of the query. Canonicalization applies
//!
//! * **table normalization** — the accessed-table set is sorted and
//!   deduplicated (a [`crate::query::SubSchema`] in the paper's terms);
//! * **join normalization** — each equi-join's sides are ordered so the
//!   smaller `(table, column)` pair comes first (`a = b` ≡ `b = a`), and
//!   the join list is sorted and deduplicated;
//! * **predicate normalization** — compound predicates are grouped per
//!   attribute (several compound predicates on one attribute conjoin,
//!   matching [`crate::featurize`] semantics), and each AND/OR expression
//!   is flattened (nested `And` in `And` splice), its children sorted by
//!   canonical encoding and deduplicated, with singleton `And`/`Or`
//!   wrappers unwrapped.
//!
//! The normalization is sound but deliberately incomplete: equal
//! fingerprints are only produced for queries the rules prove equivalent
//! (commutativity, associativity, idempotence); semantically equal queries
//! written with different *literals* (`a < 5 AND a < 7` vs `a < 7`) hash
//! differently and merely cost a duplicate cache entry, never a wrong
//! estimate. Collisions of the 128-bit hash itself are negligible at any
//! realistic cache size.
//!
//! [`CanonicalQuery`] is the one canonical encoder and the
//! optimizer-facing form. It canonicalizes a query **once**, into one
//! byte arena: every table chunk (the table with its grouped predicates)
//! and every orphan chunk back to back, with chunks kept as ranges and
//! each join as an inline 33-byte chunk. An `And`/`Or` node is encoded in
//! place — children appended to the arena, their ranges sorted and
//! deduplicated on one reusable range stack, the result spliced back over
//! them — so no node allocates.
//!
//! FNV is byte-sequential, so a sub-plan's fingerprint is the hash state
//! after its table chunks (in table order) extended by its join chunks.
//! [`CanonicalQuery::subset_fingerprint`] memoizes the first part per
//! mask in a dense table of `2^n` states (16 B each: 512 B for a
//! five-table JOB-light query, beside the optimizer's own per-mask
//! tables): the state for `mask` extends the state for `mask` minus its
//! highest bit by one table chunk, so a probe hashes one table chunk plus
//! its joins. No sub-`Query` is built to look up the cache.

use crate::predicate::{CmpOp, CompoundPredicate, PredicateExpr, SimplePredicate};
use crate::query::Query;
use crate::schema::TableId;
use crate::value::Value;

/// Version tag of the canonical encoding; bump on any layout change so
/// persisted or cross-process fingerprints can never be confused across
/// incompatible canonicalization rules.
const ENCODING_VERSION: u8 = 1;

/// Chunk/node tags of the canonical encoding. Distinct tags keep the
/// byte stream prefix-free, so chunk concatenation is unambiguous
/// without outer length framing.
const TAG_LEAF: u8 = b'L';
const TAG_AND: u8 = b'A';
const TAG_OR: u8 = b'O';
const TAG_TABLE: u8 = b'T';
const TAG_COLUMN: u8 = b'P';
const TAG_JOIN: u8 = b'J';
const TAG_ORPHAN: u8 = b'X';

/// Byte length of a join chunk: tag plus four `u64` ids.
const JOIN_CHUNK_LEN: usize = 33;

/// Most tables a [`CanonicalQuery`] indexes with a `u32` subset mask.
const MAX_TABLES: usize = 32;

/// Most tables [`CanonicalQuery::subset_fingerprint`] serves: its prefix
/// table holds `2^n` states of 16 B (16 MiB at 20 tables, the
/// optimizer's own limit).
const MAX_SUBSET_TABLES: usize = 20;

/// 128-bit FNV-1a offset basis.
const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// 128-bit FNV-1a prime.
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013B;
/// The FNV state after the encoding-version byte every fingerprint
/// starts with: the prefix state of the empty table subset.
const VERSIONED_BASIS: u128 = (FNV128_OFFSET ^ ENCODING_VERSION as u128).wrapping_mul(FNV128_PRIME);

/// 128-bit FNV-1a of `bytes`: the one implementation behind query
/// fingerprints and the serving layer's shard routing keys. The value of
/// a given byte sequence is stable across builds and machines.
pub fn fnv1a_128(bytes: impl IntoIterator<Item = u8>) -> u128 {
    bytes.into_iter().fold(FNV128_OFFSET, fnv_byte)
}

/// `FNV128_PRIME^k` for `k` in `0..=8`.
const PRIME_POWERS: [u128; 9] = {
    let mut powers = [1u128; 9];
    let mut k = 1;
    while k < 9 {
        powers[k] = powers[k - 1].wrapping_mul(FNV128_PRIME);
        k += 1;
    }
    powers
};

/// One FNV-1a-128 step.
fn fnv_byte(h: u128, b: u8) -> u128 {
    (h ^ u128::from(b)).wrapping_mul(FNV128_PRIME)
}

/// Continue an FNV-1a-128 hash from state `h` over `bytes`.
///
/// A zero byte's step is a bare multiply by the prime, so a run of `k`
/// trailing zero bytes in an 8-byte word is one multiply by
/// `FNV128_PRIME^k` — bit-identical to `k` steps. The canonical encoding
/// is mostly small ids in little-endian `u64`s, so this skips most of
/// its bytes.
fn fnv_extend(mut h: u128, bytes: &[u8]) -> u128 {
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let w = u64::from_le_bytes([
            word[0], word[1], word[2], word[3], word[4], word[5], word[6], word[7],
        ]);
        let used = 8 - (w.leading_zeros() / 8) as usize;
        h = word[..used].iter().fold(h, |h, &b| fnv_byte(h, b));
        if used < 8 {
            h = h.wrapping_mul(PRIME_POWERS[8 - used]);
        }
    }
    words.remainder().iter().fold(h, |h, &b| fnv_byte(h, b))
}

/// A stable 128-bit semantic fingerprint of a [`Query`] (see the module
/// docs for the equivalence it certifies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryFingerprint(pub u128);

impl QueryFingerprint {
    /// Fingerprint of `query`. Equivalent to
    /// `CanonicalQuery::new(query).fingerprint()`; build a
    /// [`CanonicalQuery`] instead when many sub-plan fingerprints of the
    /// same query are needed.
    pub fn of(query: &Query) -> Self {
        CanonicalQuery::new(query).fingerprint()
    }
}

impl std::fmt::Display for QueryFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u32(bytes: &[u8]) -> usize {
    u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize
}

fn encode_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            out.push(b'i');
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(b'f');
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(b's');
            push_u32(out, s.len() as u32);
            out.extend_from_slice(s.as_bytes());
        }
    }
}

fn op_code(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Lt => 1,
        CmpOp::Gt => 2,
        CmpOp::Le => 3,
        CmpOp::Ge => 4,
        CmpOp::Ne => 5,
    }
}

fn encode_leaf(out: &mut Vec<u8>, p: &SimplePredicate) {
    out.push(TAG_LEAF);
    out.push(op_code(p.op));
    encode_value(out, &p.value);
}

/// Byte length of the encoded expression node starting at `bytes[0]`.
fn node_len(bytes: &[u8]) -> usize {
    match bytes[0] {
        // tag + op + value
        TAG_LEAF => {
            2 + match bytes[2] {
                b'i' | b'f' => 9,
                b's' => 5 + read_u32(&bytes[3..]),
                other => unreachable!("bad value tag {other}"),
            }
        }
        TAG_AND | TAG_OR => {
            let mut len = 5;
            for _ in 0..read_u32(&bytes[1..]) {
                len += node_len(&bytes[len..]);
            }
            len
        }
        other => unreachable!("bad node tag {other}"),
    }
}

/// The in-place canonical encoder: appends to one arena, with one range
/// stack shared by every `And`/`Or` node being canonicalized.
struct Encoder {
    arena: Vec<u8>,
    /// Child encodings (arena ranges) of the nodes being canonicalized,
    /// innermost node's on top.
    parts: Vec<(usize, usize)>,
}

impl Encoder {
    /// Append the canonical encoding of `expr`.
    fn expr(&mut self, expr: &PredicateExpr) {
        match expr {
            PredicateExpr::Leaf(p) => encode_leaf(&mut self.arena, p),
            PredicateExpr::And(children) => self.node(TAG_AND, children),
            PredicateExpr::Or(children) => self.node(TAG_OR, children),
        }
    }

    /// Append the canonical encoding of a `tag` node over `children`:
    /// flattened, children sorted by encoding and deduplicated, a
    /// singleton unwrapped. `And([])` (true) and `Or([])` (false) stay
    /// distinct.
    ///
    /// The children are encoded in place after the current end; a child
    /// that canonicalized to the same node type contributes its own
    /// children (associativity), found by re-framing its encoding
    /// `[tag][count u32][children…]`. The sorted, deduplicated result is
    /// written past the children and then moved back over them.
    fn node<'e>(&mut self, tag: u8, children: impl IntoIterator<Item = &'e PredicateExpr>) {
        let start = self.arena.len();
        let base = self.parts.len();
        for child in children {
            let at = self.arena.len();
            self.expr(child);
            if self.arena[at] == tag {
                let mut pos = at + 5;
                for _ in 0..read_u32(&self.arena[at + 1..]) {
                    let end = pos + node_len(&self.arena[pos..]);
                    self.parts.push((pos, end));
                    pos = end;
                }
            } else {
                self.parts.push((at, self.arena.len()));
            }
        }
        let arena = &self.arena;
        let bytes = |&(a, b): &(usize, usize)| &arena[a..b];
        let parts = &mut self.parts[base..];
        parts.sort_unstable_by(|x, y| bytes(x).cmp(bytes(y)));
        let mut kept = 0;
        for i in 0..parts.len() {
            if kept == 0 || bytes(&parts[kept - 1]) != bytes(&parts[i]) {
                parts[kept] = parts[i];
                kept += 1;
            }
        }
        let out = self.arena.len();
        if kept != 1 {
            // And([x]) ≡ Or([x]) ≡ x: only non-singletons keep a header.
            self.arena.push(tag);
            push_u32(&mut self.arena, kept as u32);
        }
        for i in base..base + kept {
            let (a, b) = self.parts[i];
            self.arena.extend_from_within(a..b);
        }
        self.parts.truncate(base);
        self.arena.copy_within(out.., start);
        self.arena.truncate(start + self.arena.len() - out);
    }

    /// Append the column chunk of one attribute's compound predicates
    /// (all on `group[0].column`): several conjoin.
    fn column(&mut self, group: &[&CompoundPredicate]) {
        self.arena.push(TAG_COLUMN);
        push_u64(&mut self.arena, group[0].column.column.0 as u64);
        match group {
            [one] => self.expr(&one.expr),
            _ => self.node(TAG_AND, group.iter().map(|cp| &cp.expr)),
        }
    }
}

/// A query canonicalized once into one byte arena, so that its
/// fingerprint and every table-subset fingerprint are hashes over ranges
/// of that arena (see the module docs).
///
/// The table order is the sorted [`crate::query::SubSchema`] order — the
/// same order [`crate::Query::sub_schema`] reports and the optimizer's
/// subset masks index, so bit `i` of a mask selects `tables()[i]`.
#[derive(Debug, Clone)]
pub struct CanonicalQuery {
    tables: Vec<TableId>,
    /// Table chunks in table order, then the orphan chunks: predicates
    /// on tables the query does not access (only possible on queries
    /// that would fail validation). Orphans are part of the query's
    /// [`fingerprint`](Self::fingerprint) but never of a subset:
    /// table-subset restriction (the optimizer's `subset_query`) drops
    /// them.
    arena: Vec<u8>,
    /// End of each table chunk in `arena`; chunk `i` starts where chunk
    /// `i - 1` ends (chunk 0 at 0), and the orphan chunks start after
    /// the last.
    table_ends: Vec<usize>,
    /// Sorted, deduplicated join chunks.
    joins: Vec<JoinChunk>,
    /// FNV state after the table chunks of each subset mask, `0` where
    /// not yet computed; allocated by the first subset fingerprint.
    prefix: Vec<u128>,
}

#[derive(Debug, Clone)]
struct JoinChunk {
    /// Bits (in table order) of the two sides: the join belongs to a
    /// subset that holds both.
    sides: u32,
    bytes: [u8; JOIN_CHUNK_LEN],
}

impl CanonicalQuery {
    /// Canonicalize `query` (see the module docs for the rules).
    ///
    /// # Panics
    /// If the query accesses more than 32 tables.
    pub fn new(query: &Query) -> Self {
        let tables = query.sub_schema().into_tables();
        assert!(
            tables.len() <= MAX_TABLES,
            "subset masks support at most {MAX_TABLES} tables"
        );
        let bit = |t: TableId| tables.binary_search(&t).ok().map(|i| 1u32 << i);

        // Group predicate expressions per attribute: sorted by column,
        // each run of equal columns is one attribute, and several compound
        // predicates on one attribute conjoin (Definition 3.3 allows one
        // per attribute; featurization already merges repeats the same
        // way).
        let mut preds: Vec<&CompoundPredicate> = query.predicates.iter().collect();
        preds.sort_unstable_by_key(|cp| cp.column);
        let mut enc = Encoder {
            arena: Vec::with_capacity(16 * tables.len() + 48 * preds.len()),
            parts: Vec::new(),
        };
        let mut table_ends = Vec::with_capacity(tables.len());
        for &t in &tables {
            let lo = preds.partition_point(|cp| cp.column.table < t);
            let hi = preds.partition_point(|cp| cp.column.table <= t);
            enc.arena.push(TAG_TABLE);
            push_u64(&mut enc.arena, t.0 as u64);
            let count_at = enc.arena.len();
            push_u32(&mut enc.arena, 0);
            let mut columns = 0u32;
            for group in preds[lo..hi].chunk_by(|a, b| a.column == b.column) {
                enc.column(group);
                columns += 1;
            }
            enc.arena[count_at..count_at + 4].copy_from_slice(&columns.to_le_bytes());
            table_ends.push(enc.arena.len());
        }
        for group in preds.chunk_by(|a, b| a.column == b.column) {
            let table = group[0].column.table;
            if bit(table).is_none() {
                enc.arena.push(TAG_ORPHAN);
                push_u64(&mut enc.arena, table.0 as u64);
                enc.column(group);
            }
        }

        let mut joins: Vec<JoinChunk> = query
            .joins
            .iter()
            .filter_map(|j| {
                // Commutativity: order the sides by (table, column).
                let (a, b) = if (j.left.table, j.left.column) <= (j.right.table, j.right.column) {
                    (j.left, j.right)
                } else {
                    (j.right, j.left)
                };
                let sides = bit(a.table)? | bit(b.table)?;
                let mut bytes = [TAG_JOIN; JOIN_CHUNK_LEN];
                for (i, id) in [a.table.0, a.column.0, b.table.0, b.column.0]
                    .into_iter()
                    .enumerate()
                {
                    bytes[1 + 8 * i..9 + 8 * i].copy_from_slice(&(id as u64).to_le_bytes());
                }
                Some(JoinChunk { sides, bytes })
            })
            .collect();
        joins.sort_unstable_by_key(|j| j.bytes);
        joins.dedup_by(|a, b| a.bytes == b.bytes);

        CanonicalQuery {
            tables,
            arena: enc.arena,
            table_ends,
            joins,
            prefix: Vec::new(),
        }
    }

    /// The canonical (sorted, deduplicated) table order; bit `i` of a
    /// subset mask selects `tables()[i]`.
    pub fn tables(&self) -> &[TableId] {
        &self.tables
    }

    /// Fingerprint of the whole query, including any predicates on
    /// non-accessed tables.
    pub fn fingerprint(&self) -> QueryFingerprint {
        let tables_end = self.table_ends.last().copied().unwrap_or(0);
        let h = fnv_extend(VERSIONED_BASIS, &self.arena[..tables_end]);
        let h = self.joins.iter().fold(h, |h, j| fnv_extend(h, &j.bytes));
        QueryFingerprint(fnv_extend(h, &self.arena[tables_end..]))
    }

    /// Mask selecting every table.
    pub fn full_mask(&self) -> u32 {
        if self.tables.is_empty() {
            0
        } else {
            u32::MAX >> (32 - self.tables.len())
        }
    }

    /// Fingerprint of the query restricted to the tables selected by
    /// `mask`: exactly `QueryFingerprint::of(&subset_query(query, tables,
    /// mask))` for the sorted table order, computed without building the
    /// sub-`Query`. The hash state after the subset's table chunks is
    /// memoized per mask (the first call allocates the `2^n`-entry
    /// table), so a call hashes the highest selected table's chunk and
    /// the subset's joins, and reuses the state of `mask` minus that
    /// table.
    ///
    /// # Panics
    /// If the query accesses more than 20 tables, or
    /// `mask` selects a bit past [`full_mask`](Self::full_mask).
    pub fn subset_fingerprint(&mut self, mask: u32) -> QueryFingerprint {
        if self.prefix.is_empty() {
            assert!(
                self.tables.len() <= MAX_SUBSET_TABLES,
                "subset fingerprints support at most {MAX_SUBSET_TABLES} tables"
            );
            self.prefix = vec![0; 1 << self.tables.len()];
        }
        let h = self.prefix_state(mask);
        let h = self
            .joins
            .iter()
            .filter(|j| mask & j.sides == j.sides)
            .fold(h, |h, j| fnv_extend(h, &j.bytes));
        QueryFingerprint(h)
    }

    /// FNV state after the version byte and the table chunks of `mask`.
    /// A memoized state that happens to be `0` is merely recomputed.
    fn prefix_state(&mut self, mask: u32) -> u128 {
        if mask == 0 {
            return VERSIONED_BASIS;
        }
        let memo = self.prefix[mask as usize];
        if memo != 0 {
            return memo;
        }
        let high = (31 - mask.leading_zeros()) as usize;
        let below = self.prefix_state(mask ^ (1 << high));
        let chunk_start = if high == 0 {
            0
        } else {
            self.table_ends[high - 1]
        };
        let h = fnv_extend(below, &self.arena[chunk_start..self.table_ends[high]]);
        self.prefix[mask as usize] = h;
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{ColumnRef, JoinPredicate};
    use crate::schema::ColumnId;

    fn col(t: usize, c: usize) -> ColumnRef {
        ColumnRef::new(TableId(t), ColumnId(c))
    }

    fn leaf(op: CmpOp, v: i64) -> PredicateExpr {
        PredicateExpr::leaf(op, v)
    }

    fn cp(c: ColumnRef, expr: PredicateExpr) -> CompoundPredicate {
        CompoundPredicate { column: c, expr }
    }

    /// Fingerprint of a one-attribute query over `expr`.
    fn expr_fp(expr: &PredicateExpr) -> QueryFingerprint {
        QueryFingerprint::of(&Query::single_table(
            TableId(0),
            vec![cp(col(0, 0), expr.clone())],
        ))
    }

    #[test]
    fn predicate_order_is_commutative() {
        // a < 5 AND b = 2 ≡ b = 2 AND a < 5 (the issue's motivating pair).
        let a = cp(col(0, 0), leaf(CmpOp::Lt, 5));
        let b = cp(col(0, 1), leaf(CmpOp::Eq, 2));
        let q1 = Query::single_table(TableId(0), vec![a.clone(), b.clone()]);
        let q2 = Query::single_table(TableId(0), vec![b, a]);
        assert_eq!(QueryFingerprint::of(&q1), QueryFingerprint::of(&q2));
    }

    #[test]
    fn and_or_children_are_commutative_and_associative() {
        let e1 = PredicateExpr::And(vec![
            leaf(CmpOp::Ge, 1),
            PredicateExpr::And(vec![leaf(CmpOp::Le, 9), leaf(CmpOp::Ne, 5)]),
        ]);
        let e2 = PredicateExpr::And(vec![
            leaf(CmpOp::Ne, 5),
            leaf(CmpOp::Ge, 1),
            leaf(CmpOp::Le, 9),
        ]);
        assert_eq!(expr_fp(&e1), expr_fp(&e2));
        let o1 = PredicateExpr::Or(vec![leaf(CmpOp::Eq, 1), leaf(CmpOp::Eq, 2)]);
        let o2 = PredicateExpr::Or(vec![leaf(CmpOp::Eq, 2), leaf(CmpOp::Eq, 1)]);
        assert_eq!(expr_fp(&o1), expr_fp(&o2));
        assert_ne!(expr_fp(&e1), expr_fp(&o1));
    }

    #[test]
    fn duplicate_children_and_singleton_wrappers_normalize() {
        let dup = PredicateExpr::Or(vec![leaf(CmpOp::Eq, 3), leaf(CmpOp::Eq, 3)]);
        assert_eq!(expr_fp(&dup), expr_fp(&leaf(CmpOp::Eq, 3)));
        let wrapped = PredicateExpr::And(vec![PredicateExpr::Or(vec![leaf(CmpOp::Lt, 7)])]);
        assert_eq!(expr_fp(&wrapped), expr_fp(&leaf(CmpOp::Lt, 7)));
        // Empty And (true) and empty Or (false) stay distinct.
        assert_ne!(
            expr_fp(&PredicateExpr::And(vec![])),
            expr_fp(&PredicateExpr::Or(vec![]))
        );
    }

    #[test]
    fn semantically_different_queries_differ() {
        let base = Query::single_table(TableId(0), vec![cp(col(0, 0), leaf(CmpOp::Lt, 5))]);
        for other in [
            Query::single_table(TableId(0), vec![cp(col(0, 0), leaf(CmpOp::Le, 5))]),
            Query::single_table(TableId(0), vec![cp(col(0, 0), leaf(CmpOp::Lt, 6))]),
            Query::single_table(TableId(0), vec![cp(col(0, 1), leaf(CmpOp::Lt, 5))]),
            Query::single_table(TableId(1), vec![cp(col(1, 0), leaf(CmpOp::Lt, 5))]),
            Query::single_table(TableId(0), vec![]),
        ] {
            assert_ne!(
                QueryFingerprint::of(&base),
                QueryFingerprint::of(&other),
                "{other:?}"
            );
        }
        // Int and Float literals featurize through different integrality
        // rules, so they must not collide.
        let int5 = Query::single_table(TableId(0), vec![cp(col(0, 0), leaf(CmpOp::Lt, 5))]);
        let float5 = Query::single_table(
            TableId(0),
            vec![cp(col(0, 0), PredicateExpr::leaf(CmpOp::Lt, 5.0))],
        );
        assert_ne!(QueryFingerprint::of(&int5), QueryFingerprint::of(&float5));
    }

    #[test]
    fn join_sides_and_order_normalize() {
        let j = |l: ColumnRef, r: ColumnRef| JoinPredicate { left: l, right: r };
        let q1 = Query {
            tables: vec![TableId(0), TableId(1), TableId(2)],
            joins: vec![j(col(0, 0), col(1, 0)), j(col(1, 1), col(2, 0))],
            predicates: vec![],
        };
        let q2 = Query {
            tables: vec![TableId(2), TableId(0), TableId(1)],
            joins: vec![j(col(2, 0), col(1, 1)), j(col(1, 0), col(0, 0))],
            predicates: vec![],
        };
        assert_eq!(QueryFingerprint::of(&q1), QueryFingerprint::of(&q2));
        // Joining along a different column is a different query.
        let q3 = Query {
            joins: vec![j(col(0, 0), col(1, 1)), j(col(1, 1), col(2, 0))],
            ..q1.clone()
        };
        assert_ne!(QueryFingerprint::of(&q1), QueryFingerprint::of(&q3));
    }

    #[test]
    fn repeated_attribute_predicates_conjoin() {
        // [cp(a, X), cp(a, Y)] ≡ [cp(a, And(X, Y))] — the grouping the
        // featurizers apply.
        let x = leaf(CmpOp::Ge, 1);
        let y = leaf(CmpOp::Le, 9);
        let split = Query::single_table(
            TableId(0),
            vec![cp(col(0, 0), x.clone()), cp(col(0, 0), y.clone())],
        );
        let merged = Query::single_table(
            TableId(0),
            vec![cp(col(0, 0), PredicateExpr::And(vec![x, y]))],
        );
        assert_eq!(QueryFingerprint::of(&split), QueryFingerprint::of(&merged));
    }

    #[test]
    fn subset_fingerprints_match_direct_fingerprints() {
        let q = Query {
            tables: vec![TableId(2), TableId(0), TableId(1)],
            joins: vec![
                JoinPredicate {
                    left: col(0, 0),
                    right: col(1, 0),
                },
                JoinPredicate {
                    left: col(1, 1),
                    right: col(2, 0),
                },
            ],
            predicates: vec![
                cp(col(1, 2), leaf(CmpOp::Gt, 10)),
                cp(col(0, 1), leaf(CmpOp::Eq, 3)),
            ],
        };
        let mut canon = CanonicalQuery::new(&q);
        assert_eq!(canon.tables(), &[TableId(0), TableId(1), TableId(2)]);
        let tables = canon.tables().to_vec();
        for mask in 1u32..=canon.full_mask() {
            // Reference: restrict by hand exactly like the optimizer's
            // subset_query and fingerprint the restricted query directly.
            let selected: Vec<TableId> = tables
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &t)| t)
                .collect();
            let sub = Query {
                joins: q
                    .joins
                    .iter()
                    .filter(|j| {
                        selected.contains(&j.left.table) && selected.contains(&j.right.table)
                    })
                    .cloned()
                    .collect(),
                predicates: q
                    .predicates
                    .iter()
                    .filter(|p| selected.contains(&p.column.table))
                    .cloned()
                    .collect(),
                tables: selected,
            };
            assert_eq!(
                canon.subset_fingerprint(mask),
                QueryFingerprint::of(&sub),
                "mask {mask:b}"
            );
        }
        assert_eq!(
            canon.subset_fingerprint(canon.full_mask()),
            canon.fingerprint()
        );
    }

    #[test]
    fn display_is_stable_hex() {
        let q = Query::single_table(TableId(0), vec![]);
        let fp = QueryFingerprint::of(&q);
        let s = fp.to_string();
        assert_eq!(s.len(), 32);
        assert_eq!(s, QueryFingerprint::of(&q).to_string());
    }
}
