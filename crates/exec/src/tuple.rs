//! Tuples, schemas, and columnar batches for intermediate results.
//!
//! The executor moves data in [`TupleBatch`]es — column-major arrays
//! of [`Entry`] values sharing one [`Schema`] — rather than one
//! heap-allocated row at a time. A query's materialized answer is a
//! [`ResultSet`]: the root operator's batches, kept as emitted and
//! read row by row through borrowed [`Row`] views. Row-major
//! [`Tuple`]s remain the interchange format for join stack entries
//! and test fixtures.

use std::fmt;
use std::ops::Index;
use std::sync::Arc;

use sjos_pattern::PnId;
use sjos_xml::{NodeId, Region};

/// Default number of rows per [`TupleBatch`]: large enough to
/// amortize virtual dispatch and atomic metric updates over ~1K rows,
/// small enough that a batch of a few columns stays cache-resident.
pub const BATCH_ROWS: usize = 1024;

/// One column value: the bound element's identity and region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// The bound element.
    pub node: NodeId,
    /// Its region encoding (kept inline so joins never chase the
    /// document).
    pub region: Region,
}

/// A row of an intermediate result: one [`Entry`] per schema column.
pub type Tuple = Vec<Entry>;

/// Column layout of an intermediate result: which pattern node each
/// column binds.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<PnId>,
}

impl Schema {
    /// Single-column schema.
    pub fn singleton(id: PnId) -> Schema {
        Schema { columns: vec![id] }
    }

    /// Build from explicit columns.
    ///
    /// # Panics
    /// Panics if a pattern node repeats.
    pub fn new(columns: Vec<PnId>) -> Schema {
        let mut sorted = columns.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), columns.len(), "duplicate column in schema");
        Schema { columns }
    }

    /// Concatenation `self ++ other` (as a join produces it).
    pub fn concat(&self, other: &Schema) -> Schema {
        let mut columns = self.columns.clone();
        columns.extend_from_slice(&other.columns);
        Schema::new(columns)
    }

    /// Columns in layout order.
    pub fn columns(&self) -> &[PnId] {
        &self.columns
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Position of the column binding `id`.
    pub fn position(&self, id: PnId) -> Option<usize> {
        self.columns.iter().position(|&c| c == id)
    }

    /// True if the schema binds `id`.
    pub fn binds(&self, id: PnId) -> bool {
        self.position(id).is_some()
    }
}

/// A column-major batch of rows sharing one [`Schema`].
///
/// Invariant: every column vector has the same length (`len()`).
/// Batches produced by operators are never empty — end-of-stream is
/// signalled by `None` from [`crate::ops::Operator::next_batch`], not
/// by an empty batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TupleBatch {
    schema: Arc<Schema>,
    columns: Vec<Vec<Entry>>,
}

impl TupleBatch {
    /// Empty batch for `schema` with no reserved capacity.
    pub fn new(schema: Arc<Schema>) -> TupleBatch {
        TupleBatch::with_capacity(schema, 0)
    }

    /// Empty batch for `schema`, each column pre-reserving `cap` rows.
    pub fn with_capacity(schema: Arc<Schema>, cap: usize) -> TupleBatch {
        let width = schema.width();
        TupleBatch { schema, columns: (0..width).map(|_| Vec::with_capacity(cap)).collect() }
    }

    /// Build a batch from row-major tuples (each must match the
    /// schema width).
    pub fn from_rows<'a, I>(schema: Arc<Schema>, rows: I) -> TupleBatch
    where
        I: IntoIterator<Item = &'a [Entry]>,
    {
        let mut batch = TupleBatch::new(schema);
        for row in rows {
            batch.push_row(row);
        }
        batch
    }

    /// The shared schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of columns (schema width).
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Column `col` as a contiguous slice.
    pub fn column(&self, col: usize) -> &[Entry] {
        &self.columns[col]
    }

    /// Entry at (`col`, `row`).
    pub fn entry(&self, col: usize, row: usize) -> Entry {
        self.columns[col][row]
    }

    /// Row `row` materialized as a row-major [`Tuple`].
    pub fn row(&self, row: usize) -> Tuple {
        self.columns.iter().map(|c| c[row]).collect()
    }

    /// Append a row-major row.
    ///
    /// # Panics
    /// Panics if `row.len()` differs from the schema width.
    pub fn push_row(&mut self, row: &[Entry]) {
        assert_eq!(row.len(), self.columns.len(), "row width mismatch");
        for (col, &e) in self.columns.iter_mut().zip(row) {
            col.push(e);
        }
    }

    /// Append one entry to each column starting at `col_offset`,
    /// copying row `src_row` of `src` column-by-column. Used by joins
    /// to splice a source batch's row into a wider output row.
    pub fn extend_row_from(&mut self, col_offset: usize, src: &TupleBatch, src_row: usize) {
        for (dst, srccol) in self.columns[col_offset..].iter_mut().zip(&src.columns) {
            dst.push(srccol[src_row]);
        }
    }

    /// Append one row formed by concatenating two row fragments (a
    /// join's left and right halves) without materializing the
    /// combined row first.
    ///
    /// # Panics
    /// Panics if the fragments don't add up to the schema width.
    pub fn push_concat(&mut self, a: &[Entry], b: &[Entry]) {
        assert_eq!(a.len() + b.len(), self.columns.len(), "row width mismatch");
        for (col, &e) in self.columns.iter_mut().zip(a.iter().chain(b)) {
            col.push(e);
        }
    }

    /// Bulk-append entries to a single column. The caller must bring
    /// all columns back to equal lengths before the batch is read —
    /// this is the gather/emission primitive for sort and joins.
    pub(crate) fn extend_column<I: IntoIterator<Item = Entry>>(&mut self, col: usize, entries: I) {
        self.columns[col].extend(entries);
    }

    /// Mutable access to one column (same caveat as
    /// [`TupleBatch::extend_column`]).
    pub(crate) fn column_mut(&mut self, col: usize) -> &mut Vec<Entry> {
        &mut self.columns[col]
    }

    /// True if column `col` is non-decreasing in `(region.start,
    /// region.end)` — the document order every operator boundary
    /// promises for its `ordered_col`.
    pub fn is_sorted_by(&self, col: usize) -> bool {
        self.columns[col]
            .windows(2)
            .all(|w| (w[0].region.start, w[0].region.end) <= (w[1].region.start, w[1].region.end))
    }

    /// Drain the batch into row-major tuples.
    #[cfg(test)]
    pub(crate) fn into_rows(self) -> Vec<Tuple> {
        (0..self.len()).map(|r| self.row(r)).collect()
    }

    /// Bytes the column vectors hold allocated (capacity, not length).
    fn allocated_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.capacity() * std::mem::size_of::<Entry>()).sum()
    }
}

/// The materialized rows of one query: the root operator's batches,
/// moved in as they arrive and never copied or concatenated.
///
/// Rows are read through [`Row`] views, so no row is ever allocated on
/// its own. Equality and `Debug` go row by row, so two result sets
/// holding the same rows compare equal however the rows are split
/// into batches (a parallel run's morsels, a different `batch_rows`).
#[derive(Clone, Default)]
pub struct ResultSet {
    batches: Vec<TupleBatch>,
    len: usize,
}

impl ResultSet {
    /// An empty result set.
    pub(crate) fn new() -> ResultSet {
        ResultSet::default()
    }

    /// Append `batch`, taking ownership of its columns. A column whose
    /// capacity exceeds its length by more than a quarter is shrunk
    /// first: join batches overshoot their target size, and that slack
    /// would otherwise be retained for the life of the result.
    pub(crate) fn push(&mut self, mut batch: TupleBatch) {
        for col in &mut batch.columns {
            if col.capacity() * 4 > col.len() * 5 {
                col.shrink_to_fit();
            }
        }
        self.len += batch.len();
        self.batches.push(batch);
    }

    /// Move every batch of `other` onto the end of `self` — how the
    /// parallel executor stitches morsel results in document order.
    pub(crate) fn append(&mut self, mut other: ResultSet) {
        self.len += other.len;
        self.batches.append(&mut other.batches);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Rows in order.
    pub fn iter(&self) -> Rows<'_> {
        Rows { batches: self.batches.iter(), batch: None, row: 0, remaining: self.len }
    }

    /// The batches, in the order the root operator emitted them.
    pub fn batches(&self) -> &[TupleBatch] {
        &self.batches
    }

    /// Give up the batches, in emission order.
    pub(crate) fn into_batches(self) -> Vec<TupleBatch> {
        self.batches
    }

    /// Bytes the retained columns hold allocated.
    pub(crate) fn allocated_bytes(&self) -> usize {
        self.batches.iter().map(TupleBatch::allocated_bytes).sum()
    }
}

impl PartialEq for ResultSet {
    fn eq(&self, other: &ResultSet) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for ResultSet {}

impl fmt::Debug for ResultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a ResultSet {
    type Item = Row<'a>;
    type IntoIter = Rows<'a>;

    fn into_iter(self) -> Rows<'a> {
        self.iter()
    }
}

/// One row of a [`ResultSet`], borrowed in place: `row[i]` is the
/// entry in column `i`.
#[derive(Clone, Copy)]
pub struct Row<'a> {
    batch: &'a TupleBatch,
    row: usize,
}

impl<'a> Row<'a> {
    /// Number of columns.
    pub fn width(&self) -> usize {
        self.batch.width()
    }

    /// The row's entries, in column order.
    fn entries(&self) -> impl Iterator<Item = Entry> + 'a {
        let row = self.row;
        self.batch.columns.iter().map(move |c| c[row])
    }

    /// The row copied out as a row-major [`Tuple`].
    pub fn to_tuple(&self) -> Tuple {
        self.entries().collect()
    }
}

impl Index<usize> for Row<'_> {
    type Output = Entry;

    fn index(&self, col: usize) -> &Entry {
        &self.batch.columns[col][self.row]
    }
}

impl PartialEq for Row<'_> {
    fn eq(&self, other: &Row<'_>) -> bool {
        self.width() == other.width() && self.entries().eq(other.entries())
    }
}

impl Eq for Row<'_> {}

impl fmt::Debug for Row<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.entries()).finish()
    }
}

/// Iterator over the rows of a [`ResultSet`], in order.
#[derive(Clone)]
pub struct Rows<'a> {
    batches: std::slice::Iter<'a, TupleBatch>,
    batch: Option<&'a TupleBatch>,
    row: usize,
    remaining: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = Row<'a>;

    fn next(&mut self) -> Option<Row<'a>> {
        loop {
            if let Some(batch) = self.batch {
                if self.row < batch.len() {
                    let row = Row { batch, row: self.row };
                    self.row += 1;
                    self.remaining -= 1;
                    return Some(row);
                }
            }
            self.batch = Some(self.batches.next()?);
            self.row = 0;
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Rows<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_schema() {
        let s = Schema::singleton(PnId(3));
        assert_eq!(s.width(), 1);
        assert_eq!(s.position(PnId(3)), Some(0));
        assert!(!s.binds(PnId(0)));
    }

    #[test]
    fn concat_preserves_order() {
        let a = Schema::new(vec![PnId(0), PnId(2)]);
        let b = Schema::new(vec![PnId(1)]);
        let c = a.concat(&b);
        assert_eq!(c.columns(), &[PnId(0), PnId(2), PnId(1)]);
        assert_eq!(c.position(PnId(1)), Some(2));
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_columns_rejected() {
        let a = Schema::new(vec![PnId(0)]);
        let _ = a.concat(&Schema::new(vec![PnId(0)]));
    }

    fn e(start: u32, end: u32) -> Entry {
        Entry { node: NodeId(start), region: Region { start, end, level: 1 } }
    }

    #[test]
    fn batch_round_trip() {
        let schema = Arc::new(Schema::new(vec![PnId(0), PnId(1)]));
        let mut b = TupleBatch::with_capacity(schema.clone(), 4);
        assert!(b.is_empty());
        b.push_row(&[e(1, 10), e(2, 3)]);
        b.push_row(&[e(4, 9), e(5, 6)]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.width(), 2);
        assert_eq!(b.entry(1, 0), e(2, 3));
        assert_eq!(b.row(1), vec![e(4, 9), e(5, 6)]);
        assert_eq!(b.column(0), &[e(1, 10), e(4, 9)]);
        assert_eq!(b.clone().into_rows().len(), 2);
    }

    #[test]
    fn batch_extend_row_from() {
        let left = Arc::new(Schema::singleton(PnId(0)));
        let right = Arc::new(Schema::singleton(PnId(1)));
        let out = Arc::new(left.concat(&right));
        let mut rb = TupleBatch::new(right.clone());
        rb.push_row(&[e(2, 3)]);
        let mut ob = TupleBatch::new(out);
        ob.push_row(&[e(1, 10), e(7, 8)]);
        // Splice right row 0 into a new output row after a left entry.
        ob.columns[0].push(e(1, 10));
        ob.extend_row_from(1, &rb, 0);
        assert_eq!(ob.row(1), vec![e(1, 10), e(2, 3)]);
    }

    #[test]
    fn batch_sortedness_check() {
        let schema = Arc::new(Schema::singleton(PnId(0)));
        let mut b = TupleBatch::new(schema);
        b.push_row(&[e(1, 10)]);
        b.push_row(&[e(1, 12)]);
        b.push_row(&[e(4, 9)]);
        assert!(b.is_sorted_by(0));
        b.push_row(&[e(2, 3)]);
        assert!(!b.is_sorted_by(0));
    }

    fn batch_of(rows: &[[Entry; 2]]) -> TupleBatch {
        let schema = Arc::new(Schema::new(vec![PnId(0), PnId(1)]));
        TupleBatch::from_rows(schema, rows.iter().map(|r| &r[..]))
    }

    /// Six two-column rows, split into batches at `cuts`.
    fn split_at(cuts: &[usize]) -> ResultSet {
        let rows: Vec<[Entry; 2]> = (0..6).map(|i| [e(i, 100), e(10 + i, 10 + i)]).collect();
        let mut set = ResultSet::new();
        let mut lo = 0;
        for hi in cuts.iter().copied().chain([rows.len()]) {
            set.push(batch_of(&rows[lo..hi]));
            lo = hi;
        }
        set
    }

    #[test]
    fn result_set_equality_ignores_batch_boundaries() {
        let one = split_at(&[]);
        let three = split_at(&[1, 4]);
        let singles = split_at(&[1, 2, 3, 4, 5]);
        assert_eq!(one.batches().len(), 1);
        assert_eq!(singles.batches().len(), 6);
        assert_eq!(one, three);
        assert_eq!(three, singles);
        assert_eq!(format!("{one:?}"), format!("{singles:?}"));
        let mut longer = split_at(&[2]);
        longer.push(batch_of(&[[e(9, 9), e(9, 9)]]));
        assert_ne!(one, longer);
        let mut reordered = split_at(&[3]).into_batches();
        reordered.swap(0, 1);
        let mut swapped = ResultSet::new();
        for b in reordered {
            swapped.push(b);
        }
        assert_eq!(swapped.len(), one.len());
        assert_ne!(one, swapped, "same rows in another order are a different result");
    }

    #[test]
    fn result_set_rows_index_by_column_in_order() {
        let set = split_at(&[2, 3]);
        let starts: Vec<u32> = set.iter().map(|r| r[0].region.start).collect();
        assert_eq!(starts, vec![0, 1, 2, 3, 4, 5]);
        let row = set.iter().nth(3).unwrap();
        assert_eq!(row.width(), 2);
        assert_eq!(row[0], e(3, 100));
        assert_eq!(row[1], e(13, 13));
        assert_eq!(row.to_tuple(), vec![e(3, 100), e(13, 13)]);
        assert_eq!(set.iter().len(), 6);
        assert_eq!((&set).into_iter().count(), 6);
    }

    #[test]
    fn empty_result_set() {
        let set = ResultSet::new();
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
        assert_eq!(set.iter().next(), None);
        assert_eq!(set.allocated_bytes(), 0);
        assert_eq!(set, ResultSet::default());
        assert_eq!(format!("{set:?}"), "[]");
    }

    #[test]
    fn append_moves_batches_and_sums_lengths() {
        let mut left = split_at(&[2]);
        let right = split_at(&[1, 3]);
        left.append(right);
        assert_eq!(left.len(), 12);
        assert_eq!(left.iter().count(), 12);
        assert_eq!(left.batches().len(), 5);
        let mut empty = ResultSet::new();
        empty.append(ResultSet::new());
        assert!(empty.is_empty());
        empty.append(left.clone());
        assert_eq!(empty, left);
    }

    #[test]
    fn push_trims_column_slack() {
        let schema = Arc::new(Schema::singleton(PnId(0)));
        let mut b = TupleBatch::with_capacity(schema, 64);
        b.push_row(&[e(1, 2)]);
        let mut set = ResultSet::new();
        set.push(b);
        assert!(set.batches()[0].columns[0].capacity() * 4 <= 5);
        assert_eq!(set.allocated_bytes(), std::mem::size_of::<Entry>());
    }
}
