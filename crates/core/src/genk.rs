//! GenK — bound-and-certify verification for **general** `k` (beyond the
//! paper's open problem).
//!
//! No polynomial algorithm is known for k-AV with `k ≥ 3`; exact general-k
//! decisions take an exponential-worst-case search. GenK makes general k
//! *practical* the way
//! reductions in the model-checking literature make intractable decision
//! problems practical: certify the common cases cheaply and escalate only
//! on the (empirically rare) hard residue. It sandwiches the answer
//! between two polynomial bounds:
//!
//! * **Lower bound** — [`staleness_lower_bound`]: for each read `r`
//!   dictated by write `w`, every write whose whole interval lies strictly
//!   inside the gap `(w.finish, r.start)` is *forced* between `w` and `r`
//!   by the precedes order (it must follow `w` and precede `r` in every
//!   valid total order). The read's separation is therefore at least
//!   `weight(w)` plus those forced weights in **every** witness — the
//!   general-k form of the forward-zone argument behind FZF (§IV): for
//!   `k = 2` a forced write inside a zone is exactly what dooms a chunk.
//!   If the bound exceeds `k`, the history is `NotKAtomic`, with no search.
//! * **Upper bound** — constructive witness orders. The finish-time order
//!   is always valid; GenK additionally builds a greedy order (reads
//!   placed as early as validity allows, writes only when forced or when
//!   they unblock a waiting read) and then runs a bounded local-swap
//!   improvement pass over the best candidate (dictating writes drift
//!   later, stale reads drift earlier, never past a real-time constraint).
//!   Every candidate is a *checkable* witness: if its maximum weighted
//!   separation is `≤ k`, the verdict is `KAtomic { witness }`.
//!
//! When the bounds disagree (`lower ≤ k < upper`), GenK splits the history
//! at its *free cuts* — points in finish order that no read/dictating-write
//! pair straddles. The history is k-atomic iff every piece is, so a piece
//! whose reads all stay within `k` in its slice of the best candidate
//! order keeps that slice. Only the other (*hot*) pieces get candidate
//! orders of their own and, if those still miss `k`, a node-budgeted
//! [`ConstrainedSearch`] — the constrained-linearization engine with no
//! op-count ceiling — all under the one budget of the history. Any piece
//! NO is a NO; otherwise any piece past the budget makes the verdict
//! [`Verdict::Inconclusive`], and YES carries the piece orders
//! concatenated. GenK therefore **never** returns an unsound YES or NO:
//! YES always carries a witness, NO always follows from a forced
//! separation or an exhausted search. (The [`crate::ExhaustiveSearch`]
//! oracle, with its [`crate::MAX_SEARCH_OPS`] representation limit, is not
//! on this path — it remains as the ≤128-op ground truth in the test
//! suite.)

use crate::{ConstrainedSearch, TotalOrder, Verdict, Verifier};
use kav_history::{History, OpId, RawHistory, Weight};

/// Default node budget for the escalation search on a bound gap: one cap
/// per history (per window when streaming), shared by the pieces it
/// searches. Chosen so a single gap escalation stays in the low
/// milliseconds on commodity hardware; raise it (or pass `None` to
/// [`GenK::with_gap_budget`]) to trade latency for fewer `UNKNOWN`s.
pub const DEFAULT_GAP_BUDGET: u64 = 250_000;

/// Swap budget of the local-improvement pass, as a multiple of history
/// length: the pass performs at most `SWAP_BUDGET_FACTOR * n` adjacent
/// swaps, each `O(log n)` (a Fenwick update), keeping the whole
/// upper-bound construction `O(n log n)`.
const SWAP_BUDGET_FACTOR: usize = 4;

/// Work counters and bound values of one GenK run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GenKReport {
    /// The forced-separation lower bound on the smallest k.
    pub lower_bound: u64,
    /// The best constructive upper bound (max separation of the best
    /// candidate witness order of the whole history); 0 when the lower
    /// bound alone refutes `k` and no candidate order is built.
    pub upper_bound: u64,
    /// True when the bounds straddled `k`, so the history was split at
    /// its free cuts; its hot pieces may still have needed no search.
    pub escalated: bool,
    /// Nodes expanded by the escalation search, summed over the searched
    /// pieces (0 when not escalated or when no piece needed a search).
    pub search_nodes: u64,
}

/// The bound-and-certify general-k verifier.
///
/// Decides k-atomicity for any `k ≥ 1` with polynomial effort in the
/// common case, escalating only bound gaps to a budgeted exact search —
/// and degrading to [`Verdict::Inconclusive`] (never a wrong answer) when
/// the budget runs out.
///
/// # Examples
///
/// ```
/// use kav_core::{GenK, Verifier};
/// use kav_history::HistoryBuilder;
///
/// // Three sequential writes then a read of the first: exactly 3-atomic.
/// let h = HistoryBuilder::new()
///     .write(1, 0, 10)
///     .write(2, 12, 20)
///     .write(3, 22, 30)
///     .read(1, 32, 40)
///     .build()?;
/// assert!(!GenK::new(2).verify(&h).is_k_atomic());
/// assert!(GenK::new(3).verify(&h).is_k_atomic());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GenK {
    k: u64,
    gap_budget: Option<u64>,
}

impl GenK {
    /// A general-k verifier with the default escalation budget
    /// ([`DEFAULT_GAP_BUDGET`] search nodes per history, shared by the
    /// pieces it searches).
    pub fn new(k: u64) -> Self {
        GenK { k, gap_budget: Some(DEFAULT_GAP_BUDGET) }
    }

    /// A general-k verifier with an explicit escalation budget; `None`
    /// escalates with an *unbounded* (potentially exponential) search, so
    /// the verdict is always decisive — on histories of any size.
    pub fn with_gap_budget(k: u64, gap_budget: Option<u64>) -> Self {
        GenK { k, gap_budget }
    }

    /// Runs the sandwich and additionally reports the bounds and search
    /// effort.
    pub fn verify_detailed(&self, history: &History) -> (Verdict, GenKReport) {
        let mut report = GenKReport::default();
        if history.is_empty() {
            report.upper_bound = 1;
            report.lower_bound = 1;
            return (Verdict::KAtomic { witness: TotalOrder::new(vec![]) }, report);
        }

        report.lower_bound = staleness_lower_bound(history);
        if report.lower_bound > self.k {
            // Some read is forced past k in every valid total order.
            return (Verdict::NotKAtomic, report);
        }

        let base = base_candidates(history);
        let (order, upper) = refined_witness(history, &base, self.k);
        report.upper_bound = upper;
        if upper <= self.k {
            debug_assert!(
                crate::check_witness(history, &TotalOrder::new(order.clone()), self.k).is_ok(),
                "constructed witness must certify"
            );
            return (Verdict::KAtomic { witness: TotalOrder::new(order) }, report);
        }

        // The gap: lower ≤ k < upper. Split at the free cuts and search
        // the pieces `order` misses under a budget; an exhausted budget is
        // UNKNOWN, never a guess.
        report.escalated = true;
        let (verdict, nodes) = escalate_gap(history, &order, self.k, self.gap_budget);
        report.search_nodes = nodes;
        (verdict, report)
    }
}

impl Verifier for GenK {
    fn k(&self) -> u64 {
        self.k
    }

    fn name(&self) -> &'static str {
        "genk"
    }

    fn verify(&self, history: &History) -> Verdict {
        self.verify_detailed(history).0
    }
}

/// True when every write has weight 1. GK, FZF and LBT decide only such
/// histories; their `verify` hands any other to [`GenK`].
pub(crate) fn unit_weights(history: &History) -> bool {
    history.writes_by_finish().iter().all(|w| history.op(*w).weight == Weight::UNIT)
}

/// A combinatorial lower bound on the smallest k: the maximum, over all
/// reads, of the weighted separation *forced* by the precedes order.
///
/// For a read `r` dictated by write `w`, any write `x` with
/// `w.finish < x.start` and `x.finish < r.start` must fall strictly
/// between `w` and `r` in every valid total order (it must follow `w` and
/// precede `r` in real time), so `r`'s separation is at least `weight(w)`
/// plus the weights of all such `x` — in **every** witness. The bound is
/// computed in `O(n log n)` with a Fenwick sweep over the normalised time
/// grid. Read-free histories report `1` (the smallest k is always ≥ 1).
///
/// # Examples
///
/// ```
/// use kav_core::staleness_lower_bound;
/// use kav_history::HistoryBuilder;
///
/// let h = HistoryBuilder::new()
///     .write(1, 0, 10)
///     .write(2, 12, 20)
///     .write(3, 22, 30)
///     .read(1, 32, 40) // both later writes are forced between w1 and r
///     .build()?;
/// assert_eq!(staleness_lower_bound(&h), 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn staleness_lower_bound(history: &History) -> u64 {
    if history.num_reads() == 0 {
        return 1;
    }
    // Fenwick tree over write start times (the normalised grid is dense in
    // 0..2n, so positions index directly).
    let slots = 2 * history.len() + 1;
    let mut tree = Fenwick::new(slots);
    let mut total_inserted = 0i64;

    // Insert writes in finish order; visit reads in start order. When read
    // r is visited, exactly the writes with finish < r.start are inserted,
    // and the suffix sum over starts > w.finish is the forced weight.
    let writes = history.writes_by_finish();
    let mut reads: Vec<OpId> = history.reads().to_vec();
    reads.sort_unstable_by_key(|id| history.op(*id).start);

    let mut bound = 1u64;
    let mut next_write = 0usize;
    for &r in &reads {
        let r_start = history.op(r).start;
        while next_write < writes.len() && history.op(writes[next_write]).finish < r_start {
            let w = history.op(writes[next_write]);
            tree.add(w.start.as_u64() as usize, i64::from(w.weight.as_u32()));
            total_inserted += i64::from(w.weight.as_u32());
            next_write += 1;
        }
        let w = history.dictating_write(r).expect("validated read");
        let w_op = history.op(w);
        // Forced writes: inserted (finish < r.start) with start > w.finish.
        let forced = total_inserted - tree.prefix_sum(w_op.finish.as_u64() as usize);
        bound = bound.max(u64::from(w_op.weight.as_u32()) + forced as u64);
    }
    bound
}

/// A plain Fenwick (binary indexed) tree over signed sums (weights only
/// ever total `n · u32::MAX`, far within `i64`).
struct Fenwick {
    tree: Vec<i64>,
}

impl Fenwick {
    fn new(len: usize) -> Self {
        Fenwick { tree: vec![0; len + 1] }
    }

    /// Adds `delta` at position `i` (0-based).
    fn add(&mut self, i: usize, delta: i64) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `0..=i` (0-based, inclusive).
    fn prefix_sum(&self, i: usize) -> i64 {
        let mut i = (i + 1).min(self.tree.len() - 1);
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        sum
    }

    /// Sum of positions `a..=b` (0-based, inclusive; empty when `a > b`).
    fn range_sum(&self, a: usize, b: usize) -> i64 {
        if a > b {
            return 0;
        }
        self.prefix_sum(b) - if a == 0 { 0 } else { self.prefix_sum(a - 1) }
    }
}

/// Maximum weighted separation of any read in `order` (0 when the history
/// has no reads). `order` must be a valid witness permutation — callers
/// construct it that way.
pub(crate) fn max_separation(history: &History, order: &[OpId]) -> u64 {
    let mut position = vec![0usize; history.len()];
    let mut prefix = vec![0u64; order.len() + 1];
    for (i, &id) in order.iter().enumerate() {
        position[id.index()] = i;
        let op = history.op(id);
        prefix[i + 1] =
            prefix[i] + if op.is_write() { u64::from(op.weight.as_u32()) } else { 0 };
    }
    let mut max = 0u64;
    for &r in history.reads() {
        let w = history.dictating_write(r).expect("validated read");
        let (rp, wp) = (position[r.index()], position[w.index()]);
        debug_assert!(wp < rp, "witness orders place writes before their reads");
        max = max.max(prefix[rp] - prefix[wp]);
    }
    max
}

/// The `k`-independent half of the upper bound: the better of the
/// finish-time order and the greedy order, with its maximum separation.
/// Computed once and shared across levels by `smallest_k`.
pub(crate) struct BaseCandidates {
    pub order: Vec<OpId>,
    pub sep: u64,
}

/// Builds the `k`-independent candidate witness orders.
pub(crate) fn base_candidates(history: &History) -> BaseCandidates {
    let finish = crate::smallest_k::finish_order_writes_first(history);
    let finish_sep = max_separation(history, &finish);
    let greedy = greedy_order(history);
    let greedy_sep = max_separation(history, &greedy);
    if greedy_sep < finish_sep {
        BaseCandidates { order: greedy, sep: greedy_sep }
    } else {
        BaseCandidates { order: finish, sep: finish_sep }
    }
}

/// The best witness order for target `k`: the base candidate, refined by
/// the bounded local-swap pass when it misses `k`.
pub(crate) fn refined_witness(
    history: &History,
    base: &BaseCandidates,
    k: u64,
) -> (Vec<OpId>, u64) {
    if base.sep <= k {
        return (base.order.clone(), base.sep);
    }
    let improved = improve_order(history, base.order.clone(), k);
    let improved_sep = max_separation(history, &improved);
    if improved_sep < base.sep {
        (improved, improved_sep)
    } else {
        (base.order.clone(), base.sep)
    }
}

/// The gap escalation: splits `history` at its free cuts
/// ([`free_cut_pieces`]) and decides the pieces one by one. `best` is the
/// history's best candidate order, which missed `k`.
///
/// A piece whose reads all stay within `k` in its slice of `best` keeps
/// that slice. Every other (*hot*) piece becomes a `History` of its own
/// and gets its own candidate orders, then a node-budgeted
/// [`ConstrainedSearch`] if those still miss `k`. `gap_budget` is one cap
/// for the whole history: each search spends its nodes from it. The node
/// budget is the *only* limiter — there is no op-count cliff, so any
/// history resolves to a certified YES/NO given enough budget.
///
/// A piece NO is the history's NO (every piece is a dictation-closed
/// sub-history); otherwise any piece UNKNOWN makes it UNKNOWN, and the YES
/// witness is the piece orders concatenated in finish order. Returns the
/// verdict and the nodes expanded.
pub(crate) fn escalate_gap(
    history: &History,
    best: &[OpId],
    k: u64,
    gap_budget: Option<u64>,
) -> (Verdict, u64) {
    let piece = free_cut_pieces(history);
    // `best` grouped by piece: each piece is one contiguous run holding
    // its slice of `best`, and the pieces follow their finish order.
    let mut witness = best.to_vec();
    witness.sort_by_key(|id| piece[id.index()]);

    // Each write's running slice weight just before it: a read's
    // separation in its slice is the running weight it sees minus that.
    let mut weight_before = vec![0u64; history.len()];
    let mut budget = gap_budget;
    let mut nodes = 0u64;
    let mut unknown = false;
    for slot in witness.chunk_by_mut(|a, b| piece[a.index()] == piece[b.index()]) {
        let (mut total, mut hot) = (0u64, false);
        for &id in slot.iter() {
            let op = history.op(id);
            if op.is_write() {
                weight_before[id.index()] = total;
                total += u64::from(op.weight.as_u32());
            } else {
                let w = history.dictating_write(id).expect("validated read");
                hot |= total - weight_before[w.index()] > k;
            }
        }
        if !hot {
            continue;
        }
        // A hot piece: a dictation-closed subset of a valid history, so it
        // validates as a history of its own, with op `i` = `slot[i]`.
        let members = slot.to_vec();
        let raw: RawHistory = members.iter().map(|id| *history.op(*id)).collect();
        let sub = raw.into_history().expect("a free-cut piece of a valid history is valid");
        let (order, sep) = refined_witness(&sub, &base_candidates(&sub), k);
        let order = if sep <= k {
            order
        } else {
            let search = match budget {
                Some(left) => ConstrainedSearch::with_node_budget(k, left),
                None => ConstrainedSearch::new(k),
            };
            let (verdict, report) = search.verify_detailed(&sub);
            nodes += report.nodes;
            budget = budget.map(|left| left.saturating_sub(report.nodes));
            match verdict {
                Verdict::KAtomic { witness: found } => found.into_inner(),
                Verdict::NotKAtomic => return (Verdict::NotKAtomic, nodes),
                // Keep going: a NO in a later piece outranks this UNKNOWN.
                _ => {
                    unknown = true;
                    continue;
                }
            }
        };
        for (dst, local) in slot.iter_mut().zip(order) {
            *dst = members[local.index()];
        }
    }
    if unknown {
        return (Verdict::Inconclusive, nodes);
    }
    let witness = TotalOrder::new(witness);
    debug_assert!(
        crate::check_witness(history, &witness, k).is_ok(),
        "concatenated piece orders must certify"
    );
    (Verdict::KAtomic { witness }, nodes)
}

/// The piece of every op (indexed by op) when `history` is cut at each
/// *free cut*: a point in finish order that no read/dictating-write pair
/// straddles. Pieces are numbered in finish order.
///
/// Normalisation puts every write before its reads in finish order, so a
/// pair at positions `pos(w) < pos(r)` blocks the cuts just before the
/// positions `pos(w) + 1 ..= pos(r)`; a difference array marks them in
/// `O(n)`. Every piece is dictation-closed, and nothing in a later piece
/// precedes anything in an earlier one, so the history is k-atomic iff
/// every piece is, and piece witnesses concatenate into a witness.
fn free_cut_pieces(history: &History) -> Vec<u32> {
    let by_finish = history.sorted_by_finish();
    let mut pos = vec![0usize; history.len()];
    for (i, id) in by_finish.iter().enumerate() {
        pos[id.index()] = i;
    }
    let mut open = vec![0i32; history.len() + 1];
    for &r in history.reads() {
        let w = history.dictating_write(r).expect("validated read");
        open[pos[w.index()] + 1] += 1;
        open[pos[r.index()] + 1] -= 1;
    }
    let mut piece = vec![0u32; history.len()];
    let (mut current, mut straddling) = (0u32, 0i32);
    for (i, id) in by_finish.iter().enumerate() {
        straddling += open[i];
        if i > 0 && straddling == 0 {
            current += 1;
        }
        piece[id.index()] = current;
    }
    piece
}

/// Greedy witness construction: place reads as early as validity allows
/// (immediately once their dictating write is placed), place a write only
/// when it unblocks a waiting read or when it is the release frontier.
///
/// Availability exploits the interval-order structure of "precedes": an
/// operation is available exactly when it starts before the minimum finish
/// among unplaced operations, so the frontier only ever moves forward.
fn greedy_order(history: &History) -> Vec<OpId> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let n = history.len();
    let mut order: Vec<OpId> = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    let mut released = vec![false; n];

    // Release order: by start time. Frontier: unplaced ops by finish time.
    let by_start = history.sorted_by_start();
    let mut next_release = 0usize;
    let mut frontier: BinaryHeap<Reverse<(u64, usize)>> = history
        .ids()
        .map(|id| Reverse((history.op(id).finish.as_u64(), id.index())))
        .collect();

    // Released-but-unplaced pools, all keyed by finish for determinism.
    let mut ready_reads: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    // Writes that dictate at least one released, unplaced read.
    let mut unblocking_writes: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    // Released reads whose dictating write is not yet placed, per write.
    let mut waiting_readers = vec![0u32; n];

    while order.len() < n {
        // Advance the frontier: the availability threshold is the minimum
        // finish among unplaced operations. Because the threshold only
        // grows, "released" (start < threshold at release time) implies
        // "available" (no unplaced predecessor) for the rest of the run.
        let threshold = loop {
            match frontier.peek() {
                Some(&Reverse((_, i))) if placed[i] => {
                    frontier.pop();
                }
                Some(&Reverse((finish, _))) => break finish,
                None => break u64::MAX,
            }
        };
        while next_release < n {
            let id = by_start[next_release];
            if history.op(id).start.as_u64() >= threshold {
                break;
            }
            released[id.index()] = true;
            next_release += 1;
            if history.op(id).is_read() {
                let w = history.dictating_write(id).expect("validated read");
                if placed[w.index()] {
                    ready_reads.push(Reverse((history.op(id).finish.as_u64(), id.index())));
                } else {
                    waiting_readers[w.index()] += 1;
                    if released[w.index()] {
                        unblocking_writes
                            .push(Reverse((history.op(w).finish.as_u64(), w.index())));
                    }
                }
            } else if waiting_readers[id.index()] > 0 {
                unblocking_writes.push(Reverse((history.op(id).finish.as_u64(), id.index())));
            }
        }

        // 1. Reads whose dictating write is placed go first — placing a
        //    read closes its pending separation and costs nothing.
        if let Some(Reverse((_, i))) = ready_reads.pop() {
            if placed[i] {
                continue; // stale heap entry
            }
            place(history, OpId(i), &mut placed, &released, &mut order, &mut ready_reads);
            continue;
        }
        // 2. A write that unblocks a waiting read: its reads become ready
        //    immediately, so the new separation counter closes fast.
        if let Some(Reverse((_, i))) = unblocking_writes.pop() {
            // Stale entries (already placed, or the waiting readers were
            // satisfied another way) are skipped; the write stays
            // reachable through the frontier fallback.
            if !placed[i] && waiting_readers[i] > 0 {
                waiting_readers[i] = 0;
                place(history, OpId(i), &mut placed, &released, &mut order, &mut ready_reads);
            }
            continue;
        }
        // 3. Otherwise place the frontier operation itself — the only
        //    move that advances the availability threshold. It is always
        //    available (it starts before it finishes), and when it is a
        //    read its dictating write is released too (a read never
        //    precedes its dictating write), so place the write first.
        let Some(&Reverse((_, i))) = frontier.peek() else { break };
        let id = OpId(i);
        if history.op(id).is_read() {
            let w = history.dictating_write(id).expect("validated read");
            debug_assert!(!placed[w.index()], "would have been a ready read");
            debug_assert!(released[w.index()], "a read never precedes its dictating write");
            waiting_readers[w.index()] = 0;
            place(history, w, &mut placed, &released, &mut order, &mut ready_reads);
        } else {
            place(history, id, &mut placed, &released, &mut order, &mut ready_reads);
        }
    }
    debug_assert_eq!(order.len(), n);
    order
}

/// Places `id`, promoting its *released* waiting dictated reads (if it is
/// a write) into the ready pool. Unreleased reads must wait — they may
/// still have unplaced real-time predecessors — and are promoted by the
/// release loop instead.
fn place(
    history: &History,
    id: OpId,
    placed: &mut [bool],
    released: &[bool],
    order: &mut Vec<OpId>,
    ready_reads: &mut std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
) {
    use std::cmp::Reverse;
    debug_assert!(!placed[id.index()]);
    placed[id.index()] = true;
    order.push(id);
    if history.op(id).is_write() {
        for &r in history.dictated_reads(id) {
            if !placed[r.index()] && released[r.index()] {
                ready_reads.push(Reverse((history.op(r).finish.as_u64(), r.index())));
            }
        }
    }
}

/// Bounded local improvement targeting separation `≤ k`: for each read
/// over the bound, drift its dictating write later (past concurrent
/// non-dictated neighbours) and the read itself earlier (toward its
/// dictating write), one adjacent valid swap at a time, with a global
/// budget of [`SWAP_BUDGET_FACTOR`]` * n` swaps. A Fenwick tree over the
/// current positions' write weights makes each separation query and each
/// swap `O(log n)`, so the whole pass is `O(n log n)`. The result is
/// always a valid witness order; whether it actually improved is
/// re-measured by the caller.
fn improve_order(history: &History, mut order: Vec<OpId>, k: u64) -> Vec<OpId> {
    let n = order.len();
    let mut position = vec![0usize; n];
    let mut weights = Fenwick::new(n);
    let weight_of = |id: OpId| -> i64 {
        let op = history.op(id);
        if op.is_write() { i64::from(op.weight.as_u32()) } else { 0 }
    };
    for (i, &id) in order.iter().enumerate() {
        position[id.index()] = i;
        weights.add(i, weight_of(id));
    }
    let mut budget = SWAP_BUDGET_FACTOR * n;

    // Swaps order[i] and order[i+1], keeping positions and the weight
    // tree in sync.
    let swap_adjacent =
        |order: &mut Vec<OpId>, position: &mut Vec<usize>, weights: &mut Fenwick, i: usize| {
            let (a, b) = (order[i], order[i + 1]);
            let delta = weight_of(b) - weight_of(a);
            if delta != 0 {
                weights.add(i, delta);
                weights.add(i + 1, -delta);
            }
            order.swap(i, i + 1);
            position[a.index()] = i + 1;
            position[b.index()] = i;
        };

    let reads: Vec<OpId> = history.reads().to_vec();
    for &r in &reads {
        if budget == 0 {
            break;
        }
        let w = history.dictating_write(r).expect("validated read");
        // Separation = write weights over the span [w, r], w inclusive;
        // tracked incrementally (±weight) across this read's own swaps.
        let mut sep = weights.range_sum(position[w.index()], position[r.index()]) as u64;
        if sep <= k {
            continue;
        }
        // Drift the dictating write later: every concurrent non-dictated
        // write it passes leaves the (w, r) span.
        while sep > k && budget > 0 {
            let wp = position[w.index()];
            if wp + 1 >= n {
                break;
            }
            let next = order[wp + 1];
            if history.precedes(w, next) || history.dictating_write(next) == Some(w) {
                break; // a real-time or dictation constraint pins w here
            }
            swap_adjacent(&mut order, &mut position, &mut weights, wp);
            budget -= 1;
            sep -= weight_of(next) as u64; // `next` left the span
        }
        // Drift the read earlier: every concurrent write it passes leaves
        // the span (reads it passes are neutral but open further moves).
        while sep > k && budget > 0 {
            let rp = position[r.index()];
            if rp == 0 {
                break;
            }
            let prev = order[rp - 1];
            if prev == w || history.precedes(prev, r) {
                break;
            }
            swap_adjacent(&mut order, &mut position, &mut weights, rp - 1);
            budget -= 1;
            sep -= weight_of(prev) as u64; // `prev` left the span
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_witness, smallest_k, ExhaustiveSearch, Staleness};
    use kav_history::HistoryBuilder;

    fn ladder(k: u64) -> History {
        let mut b = HistoryBuilder::new();
        for i in 0..k {
            b = b.write(i + 1, 100 * i, 100 * i + 50);
        }
        b.read(1, 100 * k, 100 * k + 50).build().unwrap()
    }

    fn verify_checked(h: &History, k: u64) -> Verdict {
        let verdict = GenK::with_gap_budget(k, None).verify(h);
        if let Verdict::KAtomic { witness } = &verdict {
            check_witness(h, witness, k).expect("genk witness must certify");
        }
        verdict
    }

    /// Asserts the verdict is decided and (for YES) certified; returns
    /// whether the history is k-atomic.
    fn verify_checked_verdict(h: &History, verdict: Verdict, k: u64) -> bool {
        match verdict {
            Verdict::KAtomic { witness } => {
                check_witness(h, &witness, k).expect("genk witness must certify");
                true
            }
            Verdict::NotKAtomic => false,
            Verdict::Inconclusive => panic!("must be decided at this budget"),
            Verdict::Consistent => panic!("k-atomic YES always carries a witness"),
        }
    }

    #[test]
    fn ladders_decide_exactly_without_search() {
        for height in 1..=6u64 {
            let h = ladder(height);
            for k in 1..=height + 1 {
                let (verdict, report) = GenK::new(k).verify_detailed(&h);
                assert_eq!(verdict.is_k_atomic(), k >= height, "height={height} k={k}");
                assert!(!report.escalated, "ladders are bound-decided: {report:?}");
                if let Verdict::KAtomic { witness } = &verdict {
                    check_witness(&h, witness, k).unwrap();
                }
            }
        }
    }

    #[test]
    fn lower_bound_counts_forced_writes_only() {
        // w2 overlaps w1, so it is not forced between w1 and the read;
        // w3 is fully inside the gap and is.
        let h = HistoryBuilder::new()
            .write(1, 0, 10)
            .write(2, 5, 15) // concurrent with w1: not forced
            .write(3, 20, 30) // strictly inside (10, 40): forced
            .read(1, 40, 50)
            .build()
            .unwrap();
        assert_eq!(staleness_lower_bound(&h), 2);
        // And 2 is also achievable: order w2 w1 w3 r1.
        assert!(verify_checked(&h, 2).is_k_atomic());
        assert!(!verify_checked(&h, 1).is_k_atomic());
    }

    #[test]
    fn lower_bound_weighted() {
        let h = HistoryBuilder::new()
            .weighted_write(1, 0, 10, 3)
            .weighted_write(2, 12, 20, 5)
            .read(1, 22, 30)
            .build()
            .unwrap();
        assert_eq!(staleness_lower_bound(&h), 8);
        assert!(!verify_checked(&h, 7).is_k_atomic());
        assert!(verify_checked(&h, 8).is_k_atomic());
    }

    #[test]
    fn read_free_and_empty_histories() {
        let empty = HistoryBuilder::new().build().unwrap();
        assert_eq!(staleness_lower_bound(&empty), 1);
        assert!(verify_checked(&empty, 1).is_k_atomic());

        let writes_only =
            HistoryBuilder::new().write(1, 0, 10).write(2, 12, 20).build().unwrap();
        assert_eq!(staleness_lower_bound(&writes_only), 1);
        assert!(verify_checked(&writes_only, 1).is_k_atomic());
    }

    #[test]
    fn greedy_orders_are_valid_witnesses() {
        for seed in 0..30u64 {
            let h = kav_workloads::random_k_atomic(kav_workloads::RandomHistoryConfig {
                ops: 40,
                k: 1 + seed % 4,
                seed,
                read_fraction: 0.6,
                ..Default::default()
            });
            let order = greedy_order(&h);
            let sep = max_separation(&h, &order);
            check_witness(&h, &TotalOrder::new(order), sep.max(1))
                .expect("greedy order must always be a valid witness");
        }
    }

    #[test]
    fn free_cut_pieces_split_exactly_at_unstraddled_cuts() {
        let mut boundaries = 0;
        for seed in 0..30u64 {
            let h = kav_workloads::random_k_atomic(kav_workloads::RandomHistoryConfig {
                ops: 60,
                k: 1 + seed % 4,
                seed,
                read_fraction: 0.6,
                ..Default::default()
            });
            let piece = free_cut_pieces(&h);
            let by_finish = h.sorted_by_finish();
            let mut pos = vec![0; h.len()];
            for (i, id) in by_finish.iter().enumerate() {
                pos[id.index()] = i;
            }
            // The cut just before finish position `i` is free when no
            // read/dictating-write pair has one op on each side of it.
            let free = |i: usize| {
                h.reads().iter().all(|&r| {
                    let w = h.dictating_write(r).unwrap();
                    !(pos[w.index()] < i && i <= pos[r.index()])
                })
            };
            for &r in h.reads() {
                let w = h.dictating_write(r).unwrap();
                assert_eq!(piece[r.index()], piece[w.index()], "seed {seed}: dictation-closed");
            }
            assert_eq!(piece[by_finish[0].index()], 0);
            for i in 1..h.len() {
                let (before, at) = (piece[by_finish[i - 1].index()], piece[by_finish[i].index()]);
                if at == before {
                    assert!(!free(i), "seed {seed}: free cut inside a piece at {i}");
                } else {
                    assert_eq!(at, before + 1, "seed {seed}: pieces follow finish order");
                    assert!(free(i), "seed {seed}: boundary at {i} is not a free cut");
                    boundaries += 1;
                }
            }
        }
        assert!(boundaries > 0, "the histories must have free cuts to test");
    }

    #[test]
    fn improved_orders_stay_valid() {
        for seed in 0..20u64 {
            let h = kav_workloads::random_k_atomic(kav_workloads::RandomHistoryConfig {
                ops: 30,
                k: 3,
                seed: 1000 + seed,
                read_fraction: 0.5,
                ..Default::default()
            });
            let base = base_candidates(&h);
            let (order, sep) = refined_witness(&h, &base, 1);
            check_witness(&h, &TotalOrder::new(order), sep.max(1))
                .expect("improved order must stay a valid witness");
        }
    }

    #[test]
    fn agrees_with_oracle_on_small_histories() {
        for seed in 0..40u64 {
            let h = kav_workloads::random_k_atomic(kav_workloads::RandomHistoryConfig {
                ops: 14,
                k: 1 + seed % 4,
                seed,
                read_fraction: 0.6,
                ..Default::default()
            });
            for k in 1..=5u64 {
                let oracle = ExhaustiveSearch::new(k).verify(&h).is_k_atomic();
                let genk = verify_checked(&h, k);
                assert_eq!(
                    genk.is_k_atomic(),
                    oracle,
                    "seed {seed} k {k}: genk {genk} vs oracle"
                );
            }
        }
    }

    #[test]
    fn budget_exhaustion_is_inconclusive_never_a_guess() {
        // Mutually concurrent writes defeat the forced lower bound while
        // the candidate orders over-estimate: a gap, escalated — and a
        // 0-node budget must surface UNKNOWN.
        let mut b = HistoryBuilder::new();
        for i in 0..10u64 {
            b = b.write(i + 1, i, 1000 + i);
        }
        let h = b
            .read(1, 2000, 2100)
            .read(10, 2200, 2300)
            .read(2, 2400, 2500)
            .build()
            .unwrap();
        // Sanity: at k = 1 the bounds straddle on this shape or decide —
        // either way a 0-budget run must never claim YES/NO out of thin
        // air when it escalates.
        let (verdict, report) = GenK::with_gap_budget(1, Some(0)).verify_detailed(&h);
        if report.escalated {
            assert_eq!(verdict, Verdict::Inconclusive);
            assert_eq!(report.search_nodes, 0);
        } else {
            assert_ne!(verdict, Verdict::Inconclusive);
        }
    }

    #[test]
    fn oversized_gaps_now_resolve() {
        // Regression for the hard UNKNOWN cliff: segments past the old
        // oracle's 128-op mask used to return Inconclusive from
        // escalate_gap regardless of budget. The constrained tier has no
        // op-count ceiling, so this gap must now be *decided*.
        let mut b = HistoryBuilder::new();
        let n = crate::MAX_SEARCH_OPS as u64 + 10;
        // Concurrent writes (lower bound 1) ...
        for i in 0..n {
            b = b.write(i + 1, i, 10_000 + i);
        }
        // ... and a read that the candidate orders will not satisfy at
        // k = 1, forcing a gap on an oversized history.
        let h = b.read(1, 20_000, 20_100).build().unwrap();
        let (verdict, _report) = GenK::new(1).verify_detailed(&h);
        // Either the candidates certified or the escalation searched;
        // never an UNKNOWN at the default budget.
        assert!(
            verify_checked_verdict(&h, verdict, 1),
            "this shape is 1-atomic (read's write placed last)"
        );
    }

    #[test]
    fn two_hundred_op_gap_segment_resolves_under_generous_budget() {
        // A straddling gadget (lower bound 2, true k 4) padded with 97
        // serial write/read pairs to 201 ops: the old escalator returned
        // Inconclusive at any budget. The escalation now splits the 201
        // ops at their free cuts, so the search sees only the 7-op gadget
        // piece; it must certify NO at k = 3 and YES (checked witness,
        // the piece orders concatenated) at k = 4. The >128-op engine case
        // is pinned by `constrained::tests::no_op_count_ceiling` and
        // `decides_above_the_oracle_ceiling`, which call
        // `ConstrainedSearch` directly.
        let mut b = HistoryBuilder::new()
            .write(1, 0, 100)
            .write(2, 2, 102)
            .write(3, 4, 104)
            .write(4, 110, 120)
            .read(1, 122, 130)
            .read(3, 132, 140)
            .read(2, 142, 150);
        let mut t = 1000u64;
        for v in 10..107u64 {
            b = b.write(v, t, t + 5).read(v, t + 10, t + 15);
            t += 20;
        }
        let h = b.build().unwrap();
        assert_eq!(h.len(), 201);
        assert!(h.len() > crate::MAX_SEARCH_OPS);

        let generous = GenK::with_gap_budget(3, Some(10_000_000));
        let (verdict, report) = generous.verify_detailed(&h);
        assert!(report.escalated, "bounds must straddle at k = 3");
        assert_eq!(verdict, Verdict::NotKAtomic, "nodes={}", report.search_nodes);

        let (verdict, _) =
            GenK::with_gap_budget(4, Some(10_000_000)).verify_detailed(&h);
        assert!(verify_checked_verdict(&h, verdict, 4));
    }

    #[test]
    fn deep_stale_workloads_decide_at_their_depth() {
        for k in 3..=5u64 {
            let h = kav_workloads::deep_stale(kav_workloads::DeepStaleConfig {
                ops_per_key: 60,
                k,
                seed: k,
                ..Default::default()
            });
            assert_eq!(staleness_lower_bound(&h), k, "k={k}");
            assert!(!verify_checked(&h, k - 1).is_k_atomic(), "k={k}");
            assert!(verify_checked(&h, k).is_k_atomic(), "k={k}");
            assert_eq!(smallest_k(&h, Some(1_000_000)), Staleness::Exact(k));
        }
    }

    #[test]
    fn trait_metadata() {
        let g = GenK::new(4);
        assert_eq!(g.k(), 4);
        assert_eq!(g.name(), "genk");
    }
}
