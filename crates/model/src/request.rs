//! Requests and request sequences (`r_i = <s_i, t_i, D_i>`, Section III-A).
//!
//! A [`RequestSeq`] is the fundamental input of every algorithm in this
//! workspace: a time-ordered trajectory of requests, each naming the server
//! it is made at and the subset of data items it accesses. The builder
//! enforces the standing assumptions of the paper: strictly increasing
//! positive times (at most one request per time instance, with `t = 0`
//! reserved for the origin placement on `s_1`), non-empty duplicate-free
//! item sets, and in-range identifiers.

use std::sync::OnceLock;

use crate::error::ModelError;
use crate::ids::{ItemId, ServerId};
use crate::time::TimePoint;

/// One data request `r_i = <s_i, t_i, D_i>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Server the request is made at (`s_i`).
    pub server: ServerId,
    /// Time the request is made (`t_i`), strictly positive.
    pub time: TimePoint,
    /// The accessed item subset (`D_i`), sorted and duplicate-free.
    pub items: Vec<ItemId>,
}

crate::impl_json!(Request {
    server,
    time,
    items
});
crate::impl_to_json!(RequestSeq {
    servers,
    items,
    requests
});

/// Deserialisation runs through [`RequestSeqBuilder`], so a hand-edited or
/// corrupted file cannot smuggle in a sequence violating the standing
/// assumptions (ordered times, in-range ids, …). Violations are reported
/// with the offending request's index via [`ModelError`].
impl crate::json::FromJson for RequestSeq {
    fn from_json(v: &crate::json::Json) -> Result<Self, crate::json::JsonError> {
        use crate::json::JsonError;
        let field = |name: &str| -> Result<_, JsonError> { v.field(name) };
        let servers = u32::from_json(field("servers")?)
            .map_err(|e| JsonError::conv(format!("field `servers`: {}", e.msg)))?;
        let items = u32::from_json(field("items")?)
            .map_err(|e| JsonError::conv(format!("field `items`: {}", e.msg)))?;
        let requests = Vec::<Request>::from_json(field("requests")?)
            .map_err(|e| JsonError::conv(format!("field `requests`: {}", e.msg)))?;
        let mut b = RequestSeqBuilder::new(servers, items);
        for r in requests {
            b = b.push(r.server, r.time, r.items.iter().map(|i| i.0));
        }
        b.build()
            .map_err(|e| JsonError::conv(format!("invalid request sequence: {e}")))
    }
}

impl Request {
    /// True if the request accesses `item`.
    #[inline]
    pub fn contains(&self, item: ItemId) -> bool {
        // Items are sorted by the builder; binary search keeps large D_i fast.
        self.items.binary_search(&item).is_ok()
    }

    /// True if the request accesses both `a` and `b`.
    #[inline]
    pub fn contains_both(&self, a: ItemId, b: ItemId) -> bool {
        self.contains(a) && self.contains(b)
    }
}

/// A validated, time-ordered sequence of requests over `m` servers and
/// `k` items.
///
/// The per-item projections and counts ([`Self::item_trace`],
/// [`Self::pair_view`], [`Self::count_pair`], …) read a posting index that
/// is built once, on the first such call, in `O(Σ|D_i| + k)`. Paths that
/// never project (generation, saving, trace loading, serve admission)
/// never pay for it, and equality, `Debug` and `Clone` ignore it: a clone
/// starts without an index and builds its own on demand.
pub struct RequestSeq {
    servers: u32,
    items: u32,
    requests: Vec<Request>,
    postings: OnceLock<Postings>,
}

impl PartialEq for RequestSeq {
    fn eq(&self, other: &Self) -> bool {
        self.servers == other.servers
            && self.items == other.items
            && self.requests == other.requests
    }
}

impl std::fmt::Debug for RequestSeq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RequestSeq")
            .field("servers", &self.servers)
            .field("items", &self.items)
            .field("requests", &self.requests)
            .finish()
    }
}

impl Clone for RequestSeq {
    fn clone(&self) -> Self {
        RequestSeq::new(self.servers, self.items, self.requests.clone())
    }
}

/// Per-item posting lists in CSR form: the ascending indices of the
/// requests containing item `i` are `requests[offsets[i]..offsets[i + 1]]`.
struct Postings {
    offsets: Vec<usize>,
    requests: Vec<u32>,
}

impl Postings {
    fn build(items: u32, requests: &[Request]) -> Self {
        assert!(
            u32::try_from(requests.len()).is_ok(),
            "request indices fit in u32"
        );
        let k = items as usize;
        // Count every item's accesses, prefix-sum the counts into each
        // list's end offset, then fill the lists back to front: walking
        // the requests in reverse leaves every list ascending and every
        // offset at its list's start.
        let mut offsets = vec![0usize; k + 1];
        for r in requests {
            for item in &r.items {
                offsets[item.index()] += 1;
            }
        }
        let mut end = 0;
        for offset in &mut offsets {
            end += *offset;
            *offset = end;
        }
        let mut postings = vec![0u32; end];
        for (index, r) in requests.iter().enumerate().rev() {
            for item in &r.items {
                let slot = &mut offsets[item.index()];
                *slot -= 1;
                postings[*slot] = index as u32;
            }
        }
        Postings {
            offsets,
            requests: postings,
        }
    }

    /// The posting list of `item`; empty outside the item universe.
    fn of(&self, item: ItemId) -> &[u32] {
        match self.offsets.get(item.index()..item.index() + 2) {
            Some(&[start, end]) => &self.requests[start..end],
            _ => &[],
        }
    }
}

/// Caller-owned scratch for [`RequestSeq::count_row`]: a dense `u32`
/// count per item of the catalog, the items the last walk touched, and a
/// cursor per request. Counts fit in `u32` because request indices do.
///
/// The cursor of request `r` is the position in `D_r` just past the item
/// of the last row that walked `r`. Rows walked in ascending order (each
/// worker of a sharded walk ascends) find their item at or after it, so
/// a request's cursor only moves forward, `|D_r|` steps over a whole
/// walk. A cursor with an item at or above the row's own before it (a
/// row walked out of order, or a scratch last used on another sequence)
/// is ignored, and the item is found by binary search.
#[derive(Debug, Clone, Default)]
pub struct PairRow {
    counts: Vec<u32>,
    /// The first `len` entries are the touched items; the rest is room
    /// for one per item, so the walk appends without a branch.
    touched: Vec<ItemId>,
    len: usize,
    /// Per request, where the next row's search for its item starts.
    cursor: Vec<u32>,
    /// Slots the last walk's partner scan read: the row's width in a
    /// dense row, 0 in a sparse one.
    scanned: usize,
}

impl PairRow {
    /// `|(d_a, d_b)|` for the row `a` last walked: zero for `b ≤ a` and
    /// for every `b` never requested with `a`.
    #[inline]
    pub fn count(&self, b: ItemId) -> u32 {
        self.counts.get(b.index()).copied().unwrap_or(0)
    }

    /// The items with a nonzero count: ascending in a dense row, in the
    /// order the walk met them in a sparse one (see
    /// [`RequestSeq::count_row`]).
    #[inline]
    pub fn touched(&self) -> &[ItemId] {
        &self.touched[..self.len]
    }

    fn clear(&mut self) {
        for b in &self.touched[..self.len] {
            self.counts[b.index()] = 0;
        }
        self.len = 0;
    }
}

/// Walks two ascending posting lists in one merge, calling
/// `f(index, in_a, in_b)` for every request index in either list, in
/// ascending order — e.g. [`RequestSeq::posting_list`] of two items, for
/// every request touching either.
pub fn merge_postings(a: &[u32], b: &[u32], mut f: impl FnMut(usize, bool, bool)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                f(a[i] as usize, true, false);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                f(b[j] as usize, false, true);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                f(a[i] as usize, true, true);
                i += 1;
                j += 1;
            }
        }
    }
    for &index in &a[i..] {
        f(index as usize, true, false);
    }
    for &index in &b[j..] {
        f(index as usize, false, true);
    }
}

impl RequestSeq {
    fn new(servers: u32, items: u32, requests: Vec<Request>) -> Self {
        RequestSeq {
            servers,
            items,
            requests,
            postings: OnceLock::new(),
        }
    }

    /// Number of cache servers `m`.
    #[inline]
    pub fn servers(&self) -> u32 {
        self.servers
    }

    /// Number of distinct data items `k`.
    #[inline]
    pub fn items(&self) -> u32 {
        self.items
    }

    /// Number of requests `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True if the sequence contains no requests.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The requests, in strictly increasing time order.
    #[inline]
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// The request at `index`.
    #[inline]
    pub fn get(&self, index: usize) -> &Request {
        &self.requests[index]
    }

    /// Time of the last request, or `0` for an empty sequence.
    pub fn horizon(&self) -> TimePoint {
        self.requests.last().map_or(0.0, |r| r.time)
    }

    /// Ascending indices of the requests containing `item` — its posting
    /// list, empty for an item outside the universe. The first call on a
    /// sequence builds the posting index of every item.
    pub fn posting_list(&self, item: ItemId) -> &[u32] {
        self.postings
            .get_or_init(|| Postings::build(self.items, &self.requests))
            .of(item)
    }

    /// Number of requests containing `item` — the `|d_i|` of Eq. (5).
    pub fn count_containing(&self, item: ItemId) -> usize {
        self.posting_list(item).len()
    }

    /// Number of requests containing both `a` and `b` — the `|(d_i, d_j)|`
    /// of Eq. (5).
    pub fn count_pair(&self, a: ItemId, b: ItemId) -> usize {
        let mut count = 0;
        merge_postings(
            self.posting_list(a),
            self.posting_list(b),
            |_, in_a, in_b| {
                count += usize::from(in_a && in_b);
            },
        );
        count
    }

    /// Counts row `a` of the pair-count triangle into `row`: for every item
    /// `b > a`, the number of requests containing both, `|(d_a, d_b)|`.
    ///
    /// Two passes over `a`'s posting list. The first finds, in each
    /// request, the tail of items after `a` from the request's cursor
    /// (see [`PairRow`]) and sums the tails' lengths, the row's pair
    /// events. The second counts the tails. A row whose events reach its
    /// width `k − a − 1` is dense: it only increments, then collects its
    /// partners in one ascending scan of `a+1..k`, which costs no more
    /// than its events. A sparser row appends each partner to the touched
    /// list on first touch instead, so no row scans more slots than it
    /// visits events.
    ///
    /// Walking every row visits each co-requested pair once:
    /// `O(Σ|D_r|² + k)` for the whole triangle at any catalog width, with
    /// `O(k + n)` memory in the reused scratch. `row` is cleared first,
    /// in time proportional to what the previous walk touched.
    pub fn count_row(&self, a: ItemId, row: &mut PairRow) {
        row.clear();
        let k = self.items as usize;
        row.counts.resize(k, 0);
        row.touched.resize(k, ItemId(0));
        row.cursor.resize(self.requests.len(), 0);
        let postings = self.posting_list(a);
        let mut events = 0;
        for &index in postings {
            let items = &self.requests[index as usize].items;
            let cursor = &mut row.cursor[index as usize];
            let mut at = *cursor as usize;
            // A cursor past `a` is stale (see `PairRow`): search.
            if at > 0 && items.get(at - 1).is_none_or(|&x| x >= a) {
                at = items.partition_point(|&x| x < a);
            }
            // Item lists are sorted and hold `a`, so the partners `b > a`
            // are the tail after it.
            while items[at] < a {
                at += 1;
            }
            *cursor = at as u32 + 1;
            events += items.len() - at - 1;
        }
        let width = k.saturating_sub(a.index() + 1);
        let tails = postings.iter().map(|&index| {
            let items = &self.requests[index as usize].items;
            &items[row.cursor[index as usize] as usize..]
        });
        if events >= width {
            for tail in tails {
                for &b in tail {
                    row.counts[b.index()] += 1;
                }
            }
            for b in (a.index() + 1..k).map(|b| ItemId(b as u32)) {
                // Always write the slot; keep it only if counted.
                row.touched[row.len] = b;
                row.len += usize::from(row.counts[b.index()] != 0);
            }
            row.scanned = width;
        } else {
            for tail in tails {
                for &b in tail {
                    let count = &mut row.counts[b.index()];
                    // Always write the slot; keep it only on first touch.
                    row.touched[row.len] = b;
                    row.len += usize::from(*count == 0);
                    *count += 1;
                }
            }
            row.scanned = 0;
        }
    }

    /// Total number of *item accesses*, `Σ_i |d_i|` — the denominator of the
    /// paper's `ave_cost` metric (Algorithm 1, line 50).
    pub fn total_item_accesses(&self) -> usize {
        self.requests.iter().map(|r| r.items.len()).sum()
    }

    /// Total number of co-requested item pairs, `Σ_r |D_r|·(|D_r| − 1)/2`
    /// — the pair events a Phase-1 count visits.
    pub fn total_pair_events(&self) -> usize {
        self.requests
            .iter()
            .map(|r| r.items.len() * (r.items.len() - 1) / 2)
            .sum()
    }

    /// The `(time, server)` trace of the requests at `indices`, which must
    /// be ascending — e.g. one list of a [`PairView`].
    pub fn trace_of(&self, indices: &[usize]) -> SingleItemTrace {
        self.trace(indices.iter().map(|&index| self.point(index)).collect())
    }

    fn point(&self, index: usize) -> TracePoint {
        let r = &self.requests[index];
        TracePoint {
            time: r.time,
            server: r.server,
        }
    }

    fn trace(&self, points: Vec<TracePoint>) -> SingleItemTrace {
        SingleItemTrace {
            servers: self.servers,
            points,
        }
    }

    /// Projects the sequence onto a single item: the time-ordered
    /// `(time, server)` trace of every request containing `item`.
    ///
    /// This is the input shape consumed by the single-item off-line
    /// algorithms (the substrate of \[6\]).
    pub fn item_trace(&self, item: ItemId) -> SingleItemTrace {
        let postings = self.posting_list(item);
        self.trace(
            postings
                .iter()
                .map(|&index| self.point(index as usize))
                .collect(),
        )
    }

    /// Projects the sequence onto an item pair, partitioning the requests
    /// that touch either item into *co-requests* (both items, candidates for
    /// package service) and per-item *singleton* requests. For `a == b`
    /// every request containing the item is a co-request.
    pub fn pair_view(&self, a: ItemId, b: ItemId) -> PairView {
        let mut both = Vec::new();
        let mut only_a = Vec::new();
        let mut only_b = Vec::new();
        merge_postings(
            self.posting_list(a),
            self.posting_list(b),
            |index, in_a, in_b| match (in_a, in_b) {
                (true, true) => both.push(index),
                (true, false) => only_a.push(index),
                _ => only_b.push(index),
            },
        );
        PairView {
            a,
            b,
            both,
            only_a,
            only_b,
        }
    }

    /// Ascending indices of the requests holding every item of `items` —
    /// a package's co-requests, which Phase 2 serves with the algorithm of
    /// \[6\] under package rates and whose trace a package schedule
    /// replays on: the shortest posting list, filtered by binary searches
    /// of the others.
    pub fn co_requests(&self, items: &[ItemId]) -> Vec<usize> {
        let mut lists: Vec<&[u32]> = items.iter().map(|&i| self.posting_list(i)).collect();
        lists.sort_by_key(|l| l.len());
        let Some((shortest, rest)) = lists.split_first() else {
            return Vec::new();
        };
        let in_all = |index: &&u32| rest.iter().all(|l| l.binary_search(index).is_ok());
        shortest
            .iter()
            .filter(in_all)
            .map(|&i| i as usize)
            .collect()
    }

    /// The `(time, server)` trace of the co-requests of a pair, at package
    /// granularity: the pair case of [`Self::co_requests`].
    pub fn package_trace(&self, a: ItemId, b: ItemId) -> SingleItemTrace {
        self.trace_of(&self.co_requests(&[a, b]))
    }

    /// The union trace of every request containing `a` or `b` (or both) —
    /// the input of the Package_Served baseline, which always ships the
    /// whole package.
    pub fn union_trace(&self, a: ItemId, b: ItemId) -> SingleItemTrace {
        let mut points = Vec::new();
        merge_postings(self.posting_list(a), self.posting_list(b), |index, _, _| {
            points.push(self.point(index));
        });
        self.trace(points)
    }
}

/// A `(time, server)` point of a single-item (or single-package) trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Request time.
    pub time: TimePoint,
    /// Server the request is made at.
    pub server: ServerId,
}

/// A single-item projection of a request sequence: what the off-line
/// single-item caching algorithms operate on.
///
/// The item is implicitly located at [`ServerId::ORIGIN`] at time `0`.
#[derive(Debug, Clone, PartialEq)]
pub struct SingleItemTrace {
    /// Number of servers `m` in the network.
    pub servers: u32,
    /// Time-ordered request points.
    pub points: Vec<TracePoint>,
}

impl SingleItemTrace {
    /// Builds a trace directly from `(time, server-index)` pairs; intended
    /// for tests and small examples. Panics on unordered input.
    pub fn from_pairs(servers: u32, pairs: &[(f64, u32)]) -> Self {
        let mut last = 0.0_f64;
        let points = pairs
            .iter()
            .map(|&(t, s)| {
                assert!(t > last, "trace times must strictly increase");
                assert!(s < servers, "server index out of range");
                last = t;
                TracePoint {
                    time: t,
                    server: ServerId(s),
                }
            })
            .collect();
        SingleItemTrace { servers, points }
    }

    /// Number of request points `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the trace has no request points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// For each point, the index of the most recent *earlier* point at the
    /// same server — the `r_{p(i)}` of Definition 1 — or `None` when the
    /// previous same-server event is the origin placement (for
    /// [`ServerId::ORIGIN`]) or nothing at all.
    ///
    /// The origin placement at `(s_1, 0)` is encoded as `Some(usize::MAX)`
    /// sentinel-free: instead we return a [`Predecessor`] structure that
    /// distinguishes the three cases explicitly.
    pub fn predecessors(&self) -> Vec<Predecessor> {
        // The last request index at each server, `usize::MAX` before the
        // first. Sized by the largest id present rather than `servers`:
        // `points` is public, so nothing keeps its ids below `servers`.
        let slots = self.points.iter().map(|p| p.server.index() + 1).max();
        let mut last_at = vec![usize::MAX; slots.unwrap_or(0)];
        let mut out = Vec::with_capacity(self.points.len());
        for (i, p) in self.points.iter().enumerate() {
            let last = std::mem::replace(&mut last_at[p.server.index()], i);
            out.push(match last {
                usize::MAX if p.server == ServerId::ORIGIN => Predecessor::Origin,
                usize::MAX => Predecessor::None,
                j => Predecessor::Request(j),
            });
        }
        out
    }
}

/// The most recent same-server event before a trace point (Definition 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Predecessor {
    /// A previous request point at the same server, by index.
    Request(usize),
    /// The origin placement of the item at `(s_1, t = 0)`.
    Origin,
    /// No copy has ever been at this server before.
    None,
}

/// Partition of the requests touching an item pair (see
/// [`RequestSeq::pair_view`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PairView {
    /// First item of the pair.
    pub a: ItemId,
    /// Second item of the pair.
    pub b: ItemId,
    /// Indices (into the full sequence) of requests containing both items.
    pub both: Vec<usize>,
    /// Indices of requests containing `a` but not `b`.
    pub only_a: Vec<usize>,
    /// Indices of requests containing `b` but not `a`.
    pub only_b: Vec<usize>,
}

impl PairView {
    /// `|d_a|` — total requests containing `a`.
    pub fn count_a(&self) -> usize {
        self.both.len() + self.only_a.len()
    }

    /// `|d_b|` — total requests containing `b`.
    pub fn count_b(&self) -> usize {
        self.both.len() + self.only_b.len()
    }

    /// The Jaccard similarity of the pair per Eq. (5), `0` when neither item
    /// is ever requested.
    pub fn jaccard(&self) -> f64 {
        jaccard_from_counts(self.both.len(), self.count_a(), self.count_b())
    }
}

/// Eq. (5) from counts: `both / (count_a + count_b − both)`, where `both`
/// counts the requests containing both items, and `0` for an empty union
/// (two never-requested items), never NaN. Every batch Jaccard value is
/// this one division over the same integers, so every path computing one
/// gets the same bits.
#[inline]
pub fn jaccard_from_counts(both: usize, count_a: usize, count_b: usize) -> f64 {
    let union = count_a + count_b - both;
    if union == 0 {
        0.0
    } else {
        both as f64 / union as f64
    }
}

/// Validating builder for [`RequestSeq`].
#[derive(Debug, Clone)]
pub struct RequestSeqBuilder {
    servers: u32,
    items: u32,
    requests: Vec<Request>,
    error: Option<ModelError>,
}

impl RequestSeqBuilder {
    /// Starts a sequence over `m` servers and `k` items.
    pub fn new(servers: u32, items: u32) -> Self {
        RequestSeqBuilder {
            servers,
            items,
            requests: Vec::new(),
            error: None,
        }
    }

    /// Appends a request; errors are deferred to [`Self::build`] so calls
    /// can be chained.
    pub fn push(
        mut self,
        server: impl Into<ServerId>,
        time: TimePoint,
        items: impl IntoIterator<Item = u32>,
    ) -> Self {
        if self.error.is_some() {
            return self;
        }
        let index = self.requests.len();
        let server = server.into();
        if !time.is_finite() {
            self.error = Some(ModelError::NonFiniteTime { index });
            return self;
        }
        if time <= 0.0 {
            self.error = Some(ModelError::NonPositiveTime { index, time });
            return self;
        }
        if let Some(prev) = self.requests.last() {
            if time <= prev.time {
                self.error = Some(ModelError::NonIncreasingTime {
                    index,
                    prev: prev.time,
                    next: time,
                });
                return self;
            }
        }
        if server.0 >= self.servers {
            self.error = Some(ModelError::ServerOutOfRange {
                index,
                server,
                servers: self.servers,
            });
            return self;
        }
        let mut item_ids: Vec<ItemId> = items.into_iter().map(ItemId).collect();
        item_ids.sort_unstable();
        if item_ids.is_empty() {
            self.error = Some(ModelError::EmptyItemSet { index });
            return self;
        }
        for w in item_ids.windows(2) {
            if w[0] == w[1] {
                self.error = Some(ModelError::DuplicateItem { index, item: w[0] });
                return self;
            }
        }
        if let Some(&max) = item_ids.last() {
            if max.0 >= self.items {
                self.error = Some(ModelError::ItemOutOfRange {
                    index,
                    item: max,
                    items: self.items,
                });
                return self;
            }
        }
        self.requests.push(Request {
            server,
            time,
            items: item_ids,
        });
        self
    }

    /// Finalises the sequence.
    ///
    /// # Errors
    ///
    /// Returns the first validation failure recorded by [`Self::push`].
    pub fn build(self) -> Result<RequestSeq, ModelError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(RequestSeq::new(self.servers, self.items, self.requests)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::approx_eq;

    /// The request sequence of the paper's running example (Fig. 2 / Fig. 8,
    /// Section V-C), reconstructed from the worked arithmetic:
    /// packages (d1+d2) at t = 0.8, 1.4, 4.0; d1 singletons at 0.5, 2.6;
    /// d2 singletons at 1.1, 3.2.
    fn paper_sequence() -> RequestSeq {
        RequestSeqBuilder::new(4, 2)
            .push(1u32, 0.5, [0]) // d1 @ s2
            .push(2u32, 0.8, [0, 1]) // package @ s3
            .push(3u32, 1.1, [1]) // d2 @ s4
            .push(0u32, 1.4, [0, 1]) // package @ s1
            .push(1u32, 2.6, [0]) // d1 @ s2
            .push(1u32, 3.2, [1]) // d2 @ s2
            .push(2u32, 4.0, [0, 1]) // package @ s3
            .build()
            .unwrap()
    }

    /// 2,000 requests of two or three items each over 200,000 items:
    /// nearly every row is sparse, so a scan of every row's width would
    /// read ~2·10¹⁰ slots. No row scans more slots than the pair events
    /// it visits.
    #[test]
    fn sparse_rows_scan_no_more_than_their_events() {
        let k = 200_000;
        let mut rng = crate::rng::Rng::seed_from_u64(0x5CA7);
        let mut b = RequestSeqBuilder::new(4, k);
        for i in 0..2_000 {
            let mut items = vec![rng.gen_range(0..k), rng.gen_range(0..k)];
            if i % 10 == 0 {
                items.push(rng.gen_range(0..k));
            }
            items.sort_unstable();
            items.dedup();
            b = b.push(rng.gen_range(0..4u32), 1.0 + i as f64, items);
        }
        let seq = b.build().unwrap();
        let mut row = PairRow::default();
        let (mut events, mut dense) = (0, 0);
        for a in (0..k).map(ItemId) {
            seq.count_row(a, &mut row);
            let visited: usize = row.touched().iter().map(|&b| row.count(b) as usize).sum();
            assert!(
                row.scanned <= visited,
                "row {a:?} scanned {} slots",
                row.scanned
            );
            events += visited;
            dense += usize::from(row.scanned > 0);
        }
        assert_eq!(events, seq.total_pair_events());
        // Only rows near the end of the catalog are narrow enough to be
        // dense.
        assert!(dense < 10, "{dense} dense rows");
    }

    #[test]
    fn builder_accepts_valid_sequence() {
        let seq = paper_sequence();
        assert_eq!(seq.len(), 7);
        assert_eq!(seq.servers(), 4);
        assert_eq!(seq.items(), 2);
        assert!(approx_eq(seq.horizon(), 4.0));
    }

    #[test]
    fn paper_counts_give_jaccard_three_sevenths() {
        let seq = paper_sequence();
        assert_eq!(seq.count_containing(ItemId(0)), 5);
        assert_eq!(seq.count_containing(ItemId(1)), 5);
        assert_eq!(seq.count_pair(ItemId(0), ItemId(1)), 3);
        let pv = seq.pair_view(ItemId(0), ItemId(1));
        assert!(approx_eq(pv.jaccard(), 3.0 / 7.0));
        assert_eq!(pv.count_a(), 5);
        assert_eq!(pv.count_b(), 5);
        // ave_cost denominator |d1| + |d2| = 10.
        assert_eq!(seq.total_item_accesses(), 10);
    }

    #[test]
    fn pair_view_partitions_correctly() {
        let seq = paper_sequence();
        let pv = seq.pair_view(ItemId(0), ItemId(1));
        assert_eq!(pv.both, vec![1, 3, 6]);
        assert_eq!(pv.only_a, vec![0, 4]);
        assert_eq!(pv.only_b, vec![2, 5]);
    }

    #[test]
    fn traces_project_correctly() {
        let seq = paper_sequence();
        let t1 = seq.item_trace(ItemId(0));
        let times: Vec<f64> = t1.points.iter().map(|p| p.time).collect();
        assert_eq!(times, vec![0.5, 0.8, 1.4, 2.6, 4.0]);
        let pkg = seq.package_trace(ItemId(0), ItemId(1));
        let times: Vec<f64> = pkg.points.iter().map(|p| p.time).collect();
        assert_eq!(times, vec![0.8, 1.4, 4.0]);
        let uni = seq.union_trace(ItemId(0), ItemId(1));
        assert_eq!(uni.len(), 7);
    }

    #[test]
    fn predecessors_follow_definition_1() {
        let seq = paper_sequence();
        let pkg = seq.package_trace(ItemId(0), ItemId(1));
        // Points: 0.8@s3, 1.4@s1, 4.0@s3.
        let preds = pkg.predecessors();
        assert_eq!(preds[0], Predecessor::None); // s3 never visited
        assert_eq!(preds[1], Predecessor::Origin); // s1 holds the origin copy
        assert_eq!(preds[2], Predecessor::Request(0)); // back to 0.8@s3
    }

    #[test]
    fn predecessors_accept_server_ids_past_the_declared_count() {
        let point = |time, server| TracePoint {
            time,
            server: ServerId(server),
        };
        let trace = SingleItemTrace {
            servers: 2,
            points: vec![point(1.0, 7), point(2.0, 0), point(3.0, 7), point(4.0, 3)],
        };
        assert_eq!(
            trace.predecessors(),
            vec![
                Predecessor::None,
                Predecessor::Origin,
                Predecessor::Request(0),
                Predecessor::None,
            ]
        );
        let empty = SingleItemTrace {
            servers: 0,
            points: Vec::new(),
        };
        assert!(empty.predecessors().is_empty());
    }

    #[test]
    fn builder_rejects_bad_input() {
        assert!(matches!(
            RequestSeqBuilder::new(2, 2).push(0u32, 0.0, [0]).build(),
            Err(ModelError::NonPositiveTime { .. })
        ));
        assert!(matches!(
            RequestSeqBuilder::new(2, 2)
                .push(0u32, 1.0, [0])
                .push(0u32, 1.0, [1])
                .build(),
            Err(ModelError::NonIncreasingTime { .. })
        ));
        assert!(matches!(
            RequestSeqBuilder::new(2, 2).push(5u32, 1.0, [0]).build(),
            Err(ModelError::ServerOutOfRange { .. })
        ));
        assert!(matches!(
            RequestSeqBuilder::new(2, 2).push(0u32, 1.0, [7]).build(),
            Err(ModelError::ItemOutOfRange { .. })
        ));
        assert!(matches!(
            RequestSeqBuilder::new(2, 2)
                .push(0u32, 1.0, std::iter::empty::<u32>())
                .build(),
            Err(ModelError::EmptyItemSet { .. })
        ));
        assert!(matches!(
            RequestSeqBuilder::new(2, 2).push(0u32, 1.0, [0, 0]).build(),
            Err(ModelError::DuplicateItem { .. })
        ));
        assert!(matches!(
            RequestSeqBuilder::new(2, 2)
                .push(0u32, f64::NAN, [0])
                .build(),
            Err(ModelError::NonFiniteTime { .. })
        ));
    }

    #[test]
    fn builder_keeps_first_error() {
        let err = RequestSeqBuilder::new(2, 2)
            .push(0u32, -1.0, [0])
            .push(9u32, 2.0, [5])
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::NonPositiveTime { .. }));
    }

    #[test]
    fn request_items_are_sorted_for_binary_search() {
        let seq = RequestSeqBuilder::new(1, 5)
            .push(0u32, 1.0, [4, 0, 2])
            .build()
            .unwrap();
        assert_eq!(seq.get(0).items, vec![ItemId(0), ItemId(2), ItemId(4)]);
        assert!(seq.get(0).contains(ItemId(2)));
        assert!(!seq.get(0).contains(ItemId(1)));
    }

    #[test]
    fn json_round_trip() {
        use crate::json::{parse, FromJson, ToJson};
        let seq = paper_sequence();
        let j = seq.to_json().to_string_pretty();
        let back = RequestSeq::from_json(&parse(&j).unwrap()).unwrap();
        assert_eq!(seq, back);
    }

    #[test]
    fn trace_from_pairs_validates() {
        let t = SingleItemTrace::from_pairs(3, &[(0.5, 1), (0.8, 2)]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn trace_from_pairs_rejects_unordered() {
        let _ = SingleItemTrace::from_pairs(3, &[(0.8, 1), (0.5, 2)]);
    }
}
