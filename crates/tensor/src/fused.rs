//! Fused residual-refresh + MTTKRP: one pass over the nonzeros, and the
//! one per-entry body every host sweep runs.
//!
//! Algorithm 1 as written sweeps the entry list `N + 1` times an
//! iteration: one sparse MTTKRP per mode plus a full residual refresh that
//! re-evaluates the Kruskal model at every nonzero (Eq. 14,
//! `O(nnz·N·R)`). But the refresh and every mode's MTTKRP against the
//! *same* model load the exact same factor rows per entry — and Algorithm
//! 1 is Jacobi, so all `N` MTTKRPs of the next iteration read this one
//! model and this one residual. This module therefore computes, in a
//! single traversal:
//!
//! 1. the fresh residual values `E = Ω ∗ (T − [[A⁽¹⁾…A⁽ᴺ⁾]])`,
//! 2. the running train-RMSE statistic `‖E‖²_F`, and
//! 3. the MTTKRP `H⁽ⁿ⁾ = E₍ₙ₎U⁽ⁿ⁾` against those fresh values for the
//!    leading modes the caller banks — the solver banks **every** mode,
//!
//! turning the `N + 1` sweeps into one (see DESIGN.md §11: the solver
//! runs it where the refresh stands, and the next iteration's mode steps
//! read the banked `H⁽ⁿ⁾`).
//!
//! One body (`sweep_entries`) serves every caller, on every executor.
//! What a caller chooses is three types: where the residual values come
//! from (`Values`: refreshed and kept, refreshed and dropped, or read as
//! stored), where banked rows land
//! (`Placement`: whole modes, or row slabs with an origin), and which
//! entries are visited in which order (`Source`: the whole list, a
//! sub-range of it, a list of positions). The solver's host sweep
//! ([`cut_sweep_into`]), which keeps no residual value, walks each block
//! of the observed tensor's [`BlockCut`] —
//! a contiguous sub-range — into whole-mode outputs, and adds the blocks'
//! partials in block order; the all-modes sweep and the plain MTTKRP of
//! stored values (`fused_refresh_modes_into`, [`mttkrp_modes_into`])
//! walk the whole list; a tensor block's share of a cluster sweep
//! ([`block_sweep_into`]) walks its own list into slabs. The per-mode
//! structures the benchmark's layer probes time drive the same body: a
//! threaded part — a COO bucket or a run of tiles, see
//! [`MttkrpWorkspace`] — walks its positions into its slab
//! (`sweep_part`), and a chunk of the threaded residual refresh walks
//! its sub-range banking nothing (`refresh_entries`). The body takes the
//! entries four per step:
//!
//! * **Interleaved eval fold.** `Σᵣ Πₖ A⁽ᵏ⁾(iₖ,r)` is a serial `R`-add
//!   chain per entry; one entry at a time, its latency is the whole
//!   sweep. Four entries per step give four independent chains
//!   (`eval_block4`) — each entry's own chain untouched.
//! * **Shared Hadamard prefix.** Mode `m`'s contribution is
//!   `((e·r₀)…·r_{m−1})·r_{m+1}…·r_{N−1}`; its left part `e·r₀…r_{m−1}`
//!   is also the left part of every later mode's, so it is carried from
//!   mode to mode instead of restarted from `e` (5R multiplies instead of
//!   6R at order 3, 9R instead of 12R at order 4).
//! * **No scratch.** Both folds run over `LANES` rank elements at a
//!   time with every intermediate in locals, so the sweep needs no
//!   workspace and allocates nothing at any rank.
//!
//! **Accumulation-order guarantee.** Every number here is produced by the
//! exact operation sequence of the unfused kernels, so results are
//! *bit*-identical, not approximately equal:
//!
//! * residual values replicate [`KruskalTensor::eval`]'s fold (`rr`
//!   outer and ascending, modes inner and ascending from `1.0`);
//! * each MTTKRP contribution is, per rank element, the left fold
//!   `e · rows k ≠ mode` ascending — the carried prefix *is* that fold's
//!   left part, same association — kept **separate** from the eval fold
//!   (reusing the eval products would change association and hence
//!   bits);
//! * `H` rows are committed entry by entry in the source's order, so an
//!   output row sums its contributions in the sequential
//!   [`crate::mttkrp::mttkrp`] order whenever the source keeps every
//!   row's entries in entry order — which the whole list, an in-order
//!   bucket and a stably sorted tile run all do;
//! * `‖E‖²_F` is the flat left fold `Σ eᵢ²` in entry order, matching
//!   [`CooTensor::frob_norm_sq`].
//!
//! A [`BlockCut`] of more than one block changes the association, and
//! only that: each output row and `‖E‖²` become the sum, in ascending
//! block order, of per-block folds that are each the above. The cut is a
//! function of the data, so every executor computes the same bits; at one
//! block — every tensor below `BLOCK_MIN_NNZ · 2` entries — it is the
//! flat fold itself.
//!
//! How the body is compiled is `sweep`'s to decide and never changes a
//! bit, **by construction**: R ∈ {8, 16} run it with the rank as a
//! literal, everything else with it as a value — one operation sequence —
//! and on a CPU with AVX2 it runs from an instantiation compiled for
//! 256-bit lanes ([`distenc_linalg::isa`]). rustc neither reassociates nor
//! contracts IEEE operations, `fma` is not enabled and `mul_add` appears
//! nowhere, so the wide instantiation performs the same lane-wise
//! multiplies and adds as the 128-bit one, in the order written above.
//! Orders outside the stack row cache (1, and above `MAX_CACHED_ORDER`)
//! take one per-entry fallback (`sweep_uncached`) behind the same three
//! types.

use crate::coo::CooTensor;
use crate::kruskal::KruskalTensor;
use crate::mttkrp::{fold_entry, validate, MttkrpWorkspace};
use crate::{Result, TensorError};
use distenc_dataflow::Executor;
use distenc_linalg::{isa, Mat};

/// Bitwise replica of [`KruskalTensor::eval`]'s fold (`rr`-outer,
/// modes-inner over **all** modes ascending) over bare factors, for
/// [`sweep_uncached`].
fn eval_model(factors: &[Mat], idx: &[usize], r: usize) -> f64 {
    let mut acc = 0.0;
    for rr in 0..r {
        let mut prod = 1.0;
        for (f, &i) in factors.iter().zip(idx) {
            prod *= f.row(i)[rr];
        }
        acc += prod;
    }
    acc
}

/// Tensors up to this order gather their per-entry factor rows once into
/// a stack array, so the folds walk cached slices instead of paying a
/// `Mat::row` bound computation per use. Higher orders take
/// [`sweep_uncached`]; it runs the identical operation sequence, so the
/// choice never changes a bit.
const MAX_CACHED_ORDER: usize = 8;

/// One entry's factor rows in ascending mode order (`[..order]` live),
/// each cut to the rank.
type RowSet<'a> = [&'a [f64]; MAX_CACHED_ORDER];

/// Rank elements handled per step of the per-entry folds: products,
/// prefixes and contributions of one step live in `[f64; LANES]` locals
/// (registers), never in memory scratch. Eight — two 256-bit or four
/// 128-bit registers per local — measured ahead of four on both
/// instantiations of the body (see [`sweep`]) at ranks 8, 16 and 20; a
/// rank's remainder takes at most one [`HALF_LANES`] step, then single
/// elements. Grouping never reorders an element's operations, so the
/// width changes no bit.
const LANES: usize = 8;
const HALF_LANES: usize = LANES / 2;

/// `W` consecutive rank elements of a factor row, starting at `i`.
#[inline(always)]
fn lanes_at<const W: usize>(row: &[f64], i: usize) -> &[f64; W] {
    row[i..i + W].try_into().expect("slice of W elements")
}

/// `p[l] *= row[l]`, lane-wise.
#[inline(always)]
fn mul_lanes<const W: usize>(p: &mut [f64; W], row: &[f64; W]) {
    for (x, &a) in p.iter_mut().zip(row) {
        *x *= a;
    }
}

/// Rank elements `i..i + W` of the eval fold at four entries: per
/// element the factors multiply in ascending mode order from `1.0`, and
/// each entry's sum takes its elements in ascending order.
#[inline(always)]
fn eval_lanes<const W: usize>(rows: &[RowSet<'_>; 4], order: usize, i: usize, acc: &mut [f64; 4]) {
    for (set, a) in rows.iter().zip(acc.iter_mut()) {
        let mut prod = [1.0f64; W];
        for row in &set[..order] {
            mul_lanes(&mut prod, lanes_at(row, i));
        }
        for p in prod {
            *a += p;
        }
    }
}

/// The model at four entries, `Σᵣ Πₖ A⁽ᵏ⁾(iₖ,r)` each, with
/// [`KruskalTensor::eval`]'s exact operation sequence per entry (`r`
/// outer and ascending, modes inner and ascending). The four sums are
/// independent chains, which is the point — the serial add latency of
/// one overlaps the other three.
#[inline(always)]
fn eval_block4(rows: &[RowSet<'_>; 4], order: usize, r: usize) -> [f64; 4] {
    let mut acc = [0.0f64; 4];
    let mut i = 0;
    while i + LANES <= r {
        eval_lanes::<LANES>(rows, order, i, &mut acc);
        i += LANES;
    }
    if i + HALF_LANES <= r {
        eval_lanes::<HALF_LANES>(rows, order, i, &mut acc);
        i += HALF_LANES;
    }
    while i < r {
        eval_lanes::<1>(rows, order, i, &mut acc);
        i += 1;
    }
    acc
}

/// Rank elements `i..i + W` of one entry's MTTKRP contributions to the
/// `outs.len()` modes from `first` on: `outs[m − first] +=
/// ((v·r₀)…·r_{m−1})·r_{m+1}…·r_{N−1}`, the prefix `v·r₀…r_{m−1}` carried
/// from mode to mode (see the module docs).
#[inline(always)]
fn bank_lanes<const W: usize>(
    rows: &RowSet<'_>,
    order: usize,
    v: f64,
    first: usize,
    outs: &mut [&mut [f64]],
    i: usize,
) {
    let last = first + outs.len();
    let mut prefix = [v; W];
    for row in &rows[..first] {
        mul_lanes(&mut prefix, lanes_at(row, i));
    }
    for (m, out) in (first..).zip(outs.iter_mut()) {
        let mut s = prefix;
        for row in &rows[m + 1..order] {
            mul_lanes(&mut s, lanes_at(row, i));
        }
        for (o, x) in out[i..i + W].iter_mut().zip(s) {
            *o += x;
        }
        if m + 1 < last {
            mul_lanes(&mut prefix, lanes_at(rows[m], i));
        }
    }
}

/// Where a sweep's residual values come from, as a type, so that no kind
/// of sweep carries another's branch through its entry loop.
pub(crate) trait Values {
    /// Whether the sweep evaluates the model at its entries.
    const REFRESH: bool;
    /// The residual value of the source's `j`-th entry, which is the
    /// list's entry `pos`; `fresh` is the value the model gives
    /// (meaningless unless [`Self::REFRESH`]).
    fn take(&mut self, j: usize, pos: usize, fresh: f64) -> f64;
}

/// Fresh values, stored nowhere: the solver's sweeps, which need `e` at
/// an entry only for `‖E‖²` and the bank.
pub(crate) struct Fresh;

impl Values for Fresh {
    const REFRESH: bool = true;
    #[inline(always)]
    fn take(&mut self, _j: usize, _pos: usize, fresh: f64) -> f64 {
        fresh
    }
}

/// Fresh values, stored in the order the source visits the entries: slot
/// `j` is the source's `j`-th entry (its position, when the source is the
/// whole list).
pub(crate) struct Refresh<'a>(pub(crate) &'a mut [f64]);

impl Values for Refresh<'_> {
    const REFRESH: bool = true;
    #[inline(always)]
    fn take(&mut self, j: usize, _pos: usize, fresh: f64) -> f64 {
        self.0[j] = fresh;
        fresh
    }
}

/// The list's values as stored, one per entry position.
pub(crate) struct Stored<'a>(pub(crate) &'a [f64]);

impl Values for Stored<'_> {
    const REFRESH: bool = false;
    #[inline(always)]
    fn take(&mut self, _j: usize, pos: usize, _fresh: f64) -> f64 {
        self.0[pos]
    }
}

/// Which of the list's entries a sweep visits, in which order. A type,
/// never a branch in the entry loop: the whole-list sweep is the body it
/// was before there was anything else to visit.
pub(crate) trait Source: Copy {
    /// Entries visited.
    fn len(self) -> usize;
    /// The list position of the `j`-th entry visited.
    fn pos(self, j: usize) -> usize;
}

/// The `len` consecutive entries from position `lo` on.
#[derive(Clone, Copy)]
pub(crate) struct Span {
    pub(crate) lo: usize,
    pub(crate) len: usize,
}

impl Source for Span {
    #[inline(always)]
    fn len(self) -> usize {
        self.len
    }
    #[inline(always)]
    fn pos(self, j: usize) -> usize {
        self.lo + j
    }
}

/// The entries at these positions, in the order listed.
#[derive(Clone, Copy)]
struct Listed<'a>(&'a [usize]);

impl Source for Listed<'_> {
    #[inline(always)]
    fn len(self) -> usize {
        self.0.len()
    }
    #[inline(always)]
    fn pos(self, j: usize) -> usize {
        self.0[j]
    }
}

/// Where a sweep's banked rows land. A type, not a value, so that the
/// whole-mode sweeps compile to the body they had before outputs could be
/// slabs.
trait Placement: Copy {
    /// The first banked mode: output `k` belongs to mode `first() + k`.
    fn first(self) -> usize;
    /// The global row that row 0 of mode `mode`'s output stands for.
    fn origin(self, mode: usize) -> usize;
}

/// Outputs for the leading modes, each spanning its whole mode.
#[derive(Clone, Copy)]
struct WholeModes;

impl Placement for WholeModes {
    #[inline(always)]
    fn first(self) -> usize {
        0
    }
    #[inline(always)]
    fn origin(self, _mode: usize) -> usize {
        0
    }
}

/// Row slabs for the leading modes, slab `m` starting at global row
/// `origin[m]` (`origin` has an entry per mode).
#[derive(Clone, Copy)]
struct Slabs<'a> {
    origin: &'a [usize],
}

impl Placement for Slabs<'_> {
    #[inline(always)]
    fn first(self) -> usize {
        0
    }
    #[inline(always)]
    fn origin(self, mode: usize) -> usize {
        self.origin[mode]
    }
}

/// Row slabs for the modes from `first` on that all start at global row
/// `origin`: one part's slab, or (from row 0) whole modes other than the
/// leading ones ([`mttkrp_modes_into`] for a later mode).
#[derive(Clone, Copy)]
struct SlabsAt {
    first: usize,
    origin: usize,
}

impl Placement for SlabsAt {
    #[inline(always)]
    fn first(self) -> usize {
        self.first
    }
    #[inline(always)]
    fn origin(self, _mode: usize) -> usize {
        self.origin
    }
}

/// One step of [`sweep_entries`]: the source's entries `at..at + live`
/// (`live ≤ 4`; a short tail block pads the eval with copies of its last
/// entry and ignores their sums).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn sweep_block<V: Values, P: Placement, S: Source>(
    observed: &CooTensor,
    factors: &[Mat],
    order: usize,
    r: usize,
    src: S,
    at: usize,
    live: usize,
    vals: &mut V,
    place: P,
    hs: &mut [Mat],
    frob: &mut f64,
) {
    let mut rows: [RowSet<'_>; 4] = [[&[]; MAX_CACHED_ORDER]; 4];
    for (j, set) in rows.iter_mut().enumerate() {
        let idx = observed.index(src.pos(at + j.min(live - 1)));
        for k in 0..order {
            set[k] = &factors[k].as_slice()[idx[k] * r..][..r];
        }
    }
    let model = if V::REFRESH { eval_block4(&rows, order, r) } else { [0.0; 4] };
    let (first, banked) = (place.first(), hs.len());
    for j in 0..live {
        let pos = src.pos(at + j);
        let v = vals.take(at + j, pos, observed.value(pos) - model[j]);
        *frob += v * v;
        // Rows are committed entry by entry, so every output row sums
        // its contributions in the source's order.
        let idx = &observed.index(pos)[first..];
        let mut outs: [&mut [f64]; MAX_CACHED_ORDER] = std::array::from_fn(|_| &mut [][..]);
        for (k, ((out, h), &row)) in outs.iter_mut().zip(hs.iter_mut()).zip(idx).enumerate() {
            *out = &mut h.as_mut_slice()[(row - place.origin(first + k)) * r..][..r];
        }
        let outs = &mut outs[..banked];
        let mut i = 0;
        while i + LANES <= r {
            bank_lanes::<LANES>(&rows[j], order, v, first, outs, i);
            i += LANES;
        }
        if i + HALF_LANES <= r {
            bank_lanes::<HALF_LANES>(&rows[j], order, v, first, outs, i);
            i += HALF_LANES;
        }
        while i < r {
            bank_lanes::<1>(&rows[j], order, v, first, outs, i);
            i += 1;
        }
    }
}

/// The one entry body: visit `src`'s entries of the list `observed` in
/// order, take each one's residual value from `vals` (refreshing it, or as
/// stored), fold `‖E‖²`, and bank `E₍ₘ₎U⁽ᵐ⁾` into `hs` for the `hs.len()`
/// modes `place` says they are — every mode, one, or none, which is the
/// plain residual refresh. `order` must equal `factors.len()` and `r` the
/// rank; they are parameters so callers can pass literals and get the
/// per-mode and per-element loops unrolled. Returns `Σ eᵢ²` over the
/// entries visited.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn sweep_entries<V: Values, P: Placement, S: Source>(
    observed: &CooTensor,
    factors: &[Mat],
    order: usize,
    r: usize,
    mut vals: V,
    src: S,
    place: P,
    hs: &mut [Mat],
) -> f64 {
    for h in hs.iter_mut() {
        h.fill(0.0);
    }
    let n = src.len();
    let mut frob = 0.0;
    let mut at = 0;
    while at + 4 <= n {
        sweep_block(observed, factors, order, r, src, at, 4, &mut vals, place, hs, &mut frob);
        at += 4;
    }
    if at < n {
        sweep_block(observed, factors, order, r, src, at, n - at, &mut vals, place, hs, &mut frob);
    }
    frob
}

/// [`sweep_entries`]' contract for the orders outside the stack row cache
/// (1, and above [`MAX_CACHED_ORDER`] — beyond anything DisTenC's
/// workloads use): one entry at a time through [`eval_model`] and
/// [`fold_entry`], which are the same two folds. Its `R` doubles of fold
/// scratch are this path's one allocation per call.
fn sweep_uncached<V: Values, P: Placement, S: Source>(
    observed: &CooTensor,
    factors: &[Mat],
    mut vals: V,
    src: S,
    place: P,
    hs: &mut [Mat],
) -> f64 {
    for h in hs.iter_mut() {
        h.fill(0.0);
    }
    let r = factors[0].cols();
    let mut scratch = vec![0.0; r];
    let mut frob = 0.0;
    for j in 0..src.len() {
        let pos = src.pos(j);
        let idx = observed.index(pos);
        let fresh =
            if V::REFRESH { observed.value(pos) - eval_model(factors, idx, r) } else { 0.0 };
        let v = vals.take(j, pos, fresh);
        frob += v * v;
        for (m, h) in (place.first()..).zip(hs.iter_mut()) {
            fold_entry(factors, idx, v, m, &mut scratch, h.row_mut(idx[m] - place.origin(m)));
        }
    }
    frob
}

/// Whether an order-`order` tensor's rows fit the stack row cache, with a
/// second mode to share them with (at order 1 the one-mode sweep already
/// is the whole iteration): the orders [`sweep_entries`] takes, and the
/// ones whose sequential sweeps bank every mode
/// ([`fused_refresh_modes_into`]).
pub(crate) fn fuses_entry_order(order: usize) -> bool {
    (2..=MAX_CACHED_ORDER).contains(&order)
}

/// [`sweep_entries`] at rank `r`, with the order and the mode count as
/// literals for the all-modes and the one-mode sweep at orders 3 and 4 —
/// every DisTenC workload (measured: the one-mode sweep through the
/// generic body is 1.5× the one-entry-at-a-time bucket kernel it replaced,
/// through these it is ahead of it).
#[inline(always)]
fn sweep_at_rank<V: Values, P: Placement, S: Source>(
    observed: &CooTensor,
    factors: &[Mat],
    r: usize,
    vals: V,
    src: S,
    place: P,
    hs: &mut [Mat],
) -> f64 {
    match (factors.len(), hs.len()) {
        (3, 3) => sweep_entries(observed, factors, 3, r, vals, src, place, &mut hs[..3]),
        (4, 4) => sweep_entries(observed, factors, 4, r, vals, src, place, &mut hs[..4]),
        (3, 1) => sweep_entries(observed, factors, 3, r, vals, src, place, &mut hs[..1]),
        (4, 1) => sweep_entries(observed, factors, 4, r, vals, src, place, &mut hs[..1]),
        (n, _) => sweep_entries(observed, factors, n, r, vals, src, place, hs),
    }
}

/// Every driver's way into the body, and the two decisions about how it
/// is compiled, side by side: on the widest lanes this CPU has
/// ([`isa::widest`]), with the rank as a literal for R ∈ {8, 16} — or the
/// fallback for the orders the body does not take. Everything from here
/// down to the lane loops is `#[inline(always)]`, which is what puts the
/// body *inside* the wide function (`ci.sh` checks the disassembly).
/// Shapes are the caller's to check; so is the pass-count tick.
#[inline(always)]
fn sweep<V: Values, P: Placement, S: Source>(
    observed: &CooTensor,
    factors: &[Mat],
    vals: V,
    src: S,
    place: P,
    hs: &mut [Mat],
) -> f64 {
    if !fuses_entry_order(factors.len()) {
        return sweep_uncached(observed, factors, vals, src, place, hs);
    }
    isa::widest(
        #[inline(always)]
        || match factors[0].cols() {
            8 => sweep_at_rank(observed, factors, 8, vals, src, place, hs),
            16 => sweep_at_rank(observed, factors, 16, vals, src, place, hs),
            r => sweep_at_rank(observed, factors, r, vals, src, place, hs),
        },
    )
}

fn check_support(observed: &CooTensor, e: &CooTensor) -> Result<()> {
    if e.nnz() != observed.nnz() || e.shape() != observed.shape() {
        return Err(TensorError::ShapeMismatch(
            "fused refresh requires a residual sharing the observed support".into(),
        ));
    }
    Ok(())
}

fn check_output(observed: &CooTensor, h: &Mat, mode: usize, r: usize) -> Result<()> {
    let dim = observed.shape()[mode];
    if h.shape() != (dim, r) {
        return Err(TensorError::ShapeMismatch(format!(
            "fused mttkrp output is {:?}, want ({dim}, {r})",
            h.shape()
        )));
    }
    Ok(())
}

/// The sequential entry-order fused sweep: refreshes `e`'s values in
/// place, overwrites `hs[m]` with `E₍ₘ₎U⁽ᵐ⁾` against the fresh values for
/// the leading `hs.len()` modes (all `N` of them, or just mode 0), and
/// returns `‖E‖²_F` — one entry sweep total, however many modes are
/// banked, and bit-identical to `residual` + one `mttkrp` per mode +
/// `frob_norm_sq` run separately (see the module docs). Allocates
/// nothing.
///
/// Errors for tensors of order 1 or above 8 (outside the stack row
/// cache); those keep the one-mode sweep.
pub(crate) fn fused_refresh_modes_into(
    observed: &CooTensor,
    model: &KruskalTensor,
    e: &mut CooTensor,
    hs: &mut [Mat],
) -> Result<f64> {
    let factors = model.factors();
    validate(observed, factors, 0)?;
    let r = model.rank();
    check_support(observed, e)?;
    let order = observed.order();
    if !fuses_entry_order(order) || hs.len() > order {
        return Err(TensorError::ShapeMismatch(format!(
            "entry-order fused sweep takes orders 2..={MAX_CACHED_ORDER} and at most one output \
             per mode, not order {order} with {} outputs",
            hs.len()
        )));
    }
    for (m, h) in hs.iter().enumerate() {
        check_output(observed, h, m, r)?;
    }
    crate::record_entry_sweep(observed.nnz());
    let all = Span { lo: 0, len: observed.nnz() };
    Ok(sweep(observed, factors, Refresh(e.values_mut()), all, WholeModes, hs))
}

/// The residual refresh `vals[j] = t[p] − [[A…]](idx[p])` for `p` the
/// `j`-th entry of `src` — the sweep with no mode banked, through the
/// interleaved eval block — bit-identical to one [`KruskalTensor::eval`]
/// per entry. Shapes are the caller's to check; so is the pass-count tick.
/// A function of its own: inlined into `residual_refresh_exec` beside the
/// chunk closure's copy, the rank-16 sweep measured 6 % slower.
#[inline(never)]
pub(crate) fn refresh_entries<S: Source>(
    observed: &CooTensor,
    model: &KruskalTensor,
    src: S,
    vals: &mut [f64],
) {
    sweep(observed, model.factors(), Refresh(vals), src, WholeModes, &mut []);
}

/// The sequential entry-order MTTKRP of stored values: overwrites `hs[k]`
/// with `E₍ₘ₎U⁽ᵐ⁾` for the modes `m = first + k` — one of them, or all `N`
/// from `first = 0` — in one sweep over `e`, evaluating nothing and
/// writing no value. It is `sweep_entries` over `Stored` values, so
/// each output is bit-identical to [`crate::mttkrp::mttkrp`] for its mode,
/// and to what `fused_refresh_modes_into` banks beside a refresh that
/// left these values. Allocates nothing.
///
/// Errors for tensors of order 1 or above 8, like the refreshing sweep.
pub fn mttkrp_modes_into(
    e: &CooTensor,
    factors: &[Mat],
    first: usize,
    hs: &mut [Mat],
) -> Result<()> {
    validate(e, factors, first)?;
    let (order, r) = (e.order(), factors[0].cols());
    if !fuses_entry_order(order) || first + hs.len() > order {
        return Err(TensorError::ShapeMismatch(format!(
            "entry-order mttkrp takes orders 2..={MAX_CACHED_ORDER} and modes inside the tensor, \
             not order {order} with {} outputs from mode {first}",
            hs.len()
        )));
    }
    for (m, h) in (first..).zip(hs.iter()) {
        check_output(e, h, m, r)?;
    }
    crate::record_entry_sweep(e.nnz());
    let all = Span { lo: 0, len: e.nnz() };
    if first == 0 {
        // The leading modes take the placement with nothing to look up
        // (as a slab sweep the all-modes pass measured up to 1.4× slower).
        sweep(e, factors, Stored(e.values()), all, WholeModes, hs);
    } else {
        // Whole modes are slabs that start at row 0.
        sweep(e, factors, Stored(e.values()), all, SlabsAt { first, origin: 0 }, hs);
    }
    Ok(())
}

/// One tensor block's share of a solver sweep, for callers that
/// decompose the nonzeros into blocks and combine per-block partial
/// outputs themselves (the cluster backend): `entries` holds the block's
/// nonzeros under their global indices, each entry's residual value
/// `e = t − [[A…]](idx)` is computed against `model` and stored nowhere,
/// and `slabs[m]` receives the block's partial `E₍ₘ₎U⁽ᵐ⁾` for the leading
/// modes `m < slabs.len()` — every mode, or none — as a dense row slab
/// starting at global row `origin[m]` (`origin` has one start per mode).
/// Returns the block's `Σ eᵢ²` in entry order.
///
/// This is `sweep_entries` again — the same folds, so a block's slabs do
/// not depend on how many modes share the pass. Ticks no pass count: a
/// sweep is all of the caller's blocks.
///
/// # Panics
/// If an entry's mode-`m` index lies outside slab `m`'s rows.
pub fn block_sweep_into(
    entries: &CooTensor,
    model: &KruskalTensor,
    origin: &[usize],
    slabs: &mut [Mat],
) -> Result<f64> {
    let factors = model.factors();
    validate(entries, factors, 0)?;
    let (order, r) = (entries.order(), model.rank());
    let fits = slabs.iter().zip(origin.iter().zip(entries.shape())).all(
        |(slab, (&lo, &dim))| slab.cols() == r && lo + slab.rows() <= dim,
    );
    if origin.len() != order || slabs.len() > order || !fits {
        return Err(TensorError::ShapeMismatch(format!(
            "block sweep over {} entries of order {order}: {} origins, {} slabs, each of {r} \
             columns inside its mode",
            entries.nnz(),
            origin.len(),
            slabs.len()
        )));
    }
    let (place, all) = (Slabs { origin }, Span { lo: 0, len: entries.nnz() });
    Ok(sweep(entries, factors, Fresh, all, place, slabs))
}

/// A cut holds at least this many entries per block: a residual of fewer
/// than twice as many is one block, whose sweep is the flat entry-order
/// fold — every golden trace and every small test tensor is. A block this
/// size is a sweep of hundreds of microseconds at rank 16, against a pool
/// hand-off of microseconds.
const BLOCK_MIN_NNZ: usize = 16_384;

/// The most blocks a cut has. On a 2-core host two, four and eight blocks
/// were level with each other on `solve_dense` and `solve_aux` (DESIGN.md
/// §9); four keeps a 4-core host busy at three partial banks. The cut may
/// not know the host it runs on, so this is a constant.
const MAX_BLOCKS: usize = 4;

/// Blocks a sweep can hand its executor without allocating: the task
/// array lives on the stack. Above [`MAX_BLOCKS`] so that tests can cut
/// finer than the rule does.
const MAX_BLOCKS_HELD: usize = 8;

/// The block count of a residual with `nnz` entries over `shape` at rank
/// `rank`: one block per [`BLOCK_MIN_NNZ`] entries, at most
/// [`MAX_BLOCKS`], and no more than keep the `B − 1` partial banks under
/// half a double per nonzero. A function of the data alone — never of the
/// executor or the host — so the bits a cut gives are too.
fn block_count(shape: &[usize], nnz: usize, rank: usize) -> usize {
    let bank = shape.iter().sum::<usize>().saturating_mul(rank).max(1);
    let by_memory = 1 + nnz / bank.saturating_mul(2);
    (nnz / BLOCK_MIN_NNZ).min(by_memory).clamp(1, MAX_BLOCKS)
}

/// The residual's block cut, sized once per solve: its entry list cut into
/// `B` contiguous, equal-count ranges, and the partial banks blocks
/// `1..B` sweep into — whole-mode `Iₙ×R` outputs for every mode, block 0
/// writing straight into the caller's bank. [`cut_sweep_into`] runs it.
pub struct BlockCut {
    blocks: usize,
    order: usize,
    /// Block `k ≥ 1`'s outputs, mode `m` at `partials[(k − 1)·order + m]`.
    partials: Vec<Mat>,
}

impl BlockCut {
    /// The cut `block_count` gives a residual of `nnz` entries over
    /// `shape` at rank `rank`, with its partial banks.
    pub fn new(shape: &[usize], nnz: usize, rank: usize) -> BlockCut {
        BlockCut::with_blocks(shape, rank, block_count(shape, nnz, rank))
    }

    fn with_blocks(shape: &[usize], rank: usize, blocks: usize) -> BlockCut {
        assert!((1..=MAX_BLOCKS_HELD).contains(&blocks), "{blocks} blocks");
        let partials =
            (1..blocks).flat_map(|_| shape.iter().map(|&d| Mat::zeros(d, rank))).collect();
        BlockCut { blocks, order: shape.len(), partials }
    }

    /// `B`, the number of blocks.
    pub fn blocks(&self) -> usize {
        self.blocks
    }
}

/// Block `k` of `blocks` equal-count ranges over `nnz` entries.
fn block_span(k: usize, blocks: usize, nnz: usize) -> Span {
    let lo = k * nnz / blocks;
    Span { lo, len: (k + 1) * nnz / blocks - lo }
}

/// One block's share of a [`cut_sweep_into`]: its entries, where its
/// outputs land, and the `Σ eᵢ²` it folds.
struct BlockTask<'a> {
    span: Span,
    outs: &'a mut [Mat],
    frob: f64,
}

/// The host's one sweep over the observed tensor, on any executor: run `cut`'s
/// blocks of the list `x` on `exec`, each through the one entry body,
/// then add blocks `1..B`'s partial outputs into `bank` in ascending block
/// order and return `Σ eᵢ²` folded per block in the same order.
///
/// Each entry's residual value `e = t − [[A…]](idx)` is computed against
/// `model` and stored nowhere. `bank[m]` is overwritten with `E₍ₘ₎U⁽ᵐ⁾`
/// for the leading modes `m < bank.len()` — every mode, or none (the
/// plain `‖E‖²`).
///
/// Blocks write their own outputs, so the executor changes no bit: the
/// result is a function of the cut alone. At one block it *is* the flat
/// entry-order fold — `fused_refresh_modes_into` bit for bit; at more,
/// each output row and `‖E‖²` are sums of per-block partial sums, equal to
/// the flat fold to rounding. One pass-count tick per call, never per
/// block. Allocates nothing, except the fallback's fold scratch at orders
/// 1 and above 8.
pub fn cut_sweep_into(
    x: &CooTensor,
    model: &KruskalTensor,
    bank: &mut [Mat],
    cut: &mut BlockCut,
    exec: &Executor,
) -> Result<f64> {
    let factors = model.factors();
    validate(x, factors, 0)?;
    let (order, r, nnz) = (x.order(), model.rank(), x.nnz());
    if bank.len() > order || cut.order != order {
        return Err(TensorError::ShapeMismatch(format!(
            "cut sweep over {nnz} entries of order {order}: {} outputs, a cut for order {}",
            bank.len(),
            cut.order
        )));
    }
    let banked = bank.len();
    for (m, h) in bank.iter().enumerate() {
        check_output(x, h, m, r)?;
    }
    for part in cut.partials.chunks(order) {
        for (m, h) in part[..banked].iter().enumerate() {
            check_output(x, h, m, r)?;
        }
    }
    crate::record_entry_sweep(nnz);
    let blocks = cut.blocks;
    let frob = {
        let mut tasks: [BlockTask<'_>; MAX_BLOCKS_HELD] = std::array::from_fn(|k| BlockTask {
            span: block_span(k, blocks, nnz),
            outs: &mut [],
            frob: 0.0,
        });
        let tasks = &mut tasks[..blocks];
        tasks[0].outs = &mut *bank;
        for (task, part) in tasks[1..].iter_mut().zip(cut.partials.chunks_mut(order)) {
            task.outs = &mut part[..banked];
        }
        exec.run_mut(tasks, |_, task| {
            task.frob = sweep(x, factors, Fresh, task.span, WholeModes, task.outs);
        });
        tasks[1..].iter().fold(tasks[0].frob, |sum, task| sum + task.frob)
    };
    for part in cut.partials.chunks(order) {
        for (h, p) in bank.iter_mut().zip(part) {
            for (a, &b) in h.as_mut_slice().iter_mut().zip(p.as_slice()) {
                *a += b;
            }
        }
    }
    Ok(frob)
}

/// One part's share of a threaded one-mode sweep over the list `x`: visit
/// the part's positions in their order, taking values from `vals` —
/// [`Stored`] list values for the plain MTTKRP, [`Refresh`] into the
/// part's carrier (one slot per position listed) for the fused sweep —
/// and bank mode `mode` into the part's row slab.
pub(crate) fn sweep_part<V: Values>(
    x: &CooTensor,
    factors: &[Mat],
    mode: usize,
    vals: V,
    positions: &[usize],
    row_lo: usize,
    slab: &mut Mat,
) {
    let place = SlabsAt { first: mode, origin: row_lo };
    sweep(x, factors, vals, Listed(positions), place, std::slice::from_mut(slab));
}

/// Allocation-free fused refresh + one-mode MTTKRP through a
/// preallocated [`MttkrpWorkspace`] (cut for `ws.mode()`), for executors
/// that run parts concurrently: refreshes `e`'s values in place,
/// overwrites `h` with `E₍ₙ₎U⁽ⁿ⁾` against the fresh values, and returns
/// `‖E‖²_F`. One entry sweep total.
///
/// Per-part row slabs plus per-part value carriers (sized on first use —
/// the only allocation this kernel ever makes, amortized across all later
/// calls) are stitched and scattered back in fixed part order. Each
/// part keeps every row's entries in entry order, so the result is
/// bit-identical to [`fused_refresh_modes_into`] for any cut and any
/// executor (a one-thread caller should prefer that kernel: it banks
/// every mode and carries nothing).
pub(crate) fn fused_mttkrp_refresh_into(
    observed: &CooTensor,
    model: &KruskalTensor,
    ws: &mut MttkrpWorkspace,
    exec: &Executor,
    e: &mut CooTensor,
    h: &mut Mat,
) -> Result<f64> {
    let (mode, factors) = (ws.mode, model.factors());
    validate(observed, factors, mode)?;
    check_support(observed, e)?;
    ws.check(observed, factors, h)?;
    crate::record_entry_sweep(observed.nnz());
    for part in &mut ws.parts {
        if part.vals.len() != part.entries.len() {
            part.vals.resize(part.entries.len(), 0.0);
        }
    }
    let positions = &ws.positions;
    exec.run_mut(&mut ws.parts, |_, part| {
        let (vals, at) = (Refresh(&mut part.vals), &positions[part.entries.clone()]);
        sweep_part(observed, factors, mode, vals, at, part.row_lo, &mut part.slab);
    });
    let vals = e.values_mut();
    for part in &ws.parts {
        for (&pos, &v) in positions[part.entries.clone()].iter().zip(&part.vals) {
            vals[pos] = v;
        }
    }
    ws.stitch_into(h);
    Ok(e.values().iter().map(|v| v * v).sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mttkrp::{mttkrp, mttkrp_blocked_into};
    use crate::residual::residual;
    use distenc_dataflow::{ExecMode, Executor};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_coo(shape: &[usize], nnz: usize, seed: u64) -> CooTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = CooTensor::new(shape.to_vec());
        for _ in 0..nnz {
            let idx: Vec<usize> =
                shape.iter().map(|&d| rng.random_range(0..d)).collect();
            t.push(&idx, rng.random::<f64>() * 2.0 - 1.0).unwrap();
        }
        t.sort_dedup();
        t
    }

    /// The first `n` entries of `x` (entry order kept).
    fn head(x: &CooTensor, n: usize) -> CooTensor {
        let mut t = CooTensor::new(x.shape().to_vec());
        for (idx, v) in x.iter().take(n) {
            t.push(idx, v).unwrap();
        }
        t
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The unfused sequence the fused kernels must match bit-for-bit:
    /// `residual`, one `mttkrp` per mode against it, `frob_norm_sq`.
    fn unfused(observed: &CooTensor, model: &KruskalTensor) -> (CooTensor, Vec<Mat>, f64) {
        let e = residual(observed, model).unwrap();
        let hs = (0..observed.order())
            .map(|mode| mttkrp(&e, model.factors(), mode).unwrap())
            .collect();
        let frob = e.frob_norm_sq();
        (e, hs, frob)
    }

    /// Run the entry-order sweep banking the leading `banked` modes from
    /// a stale residual and dirty outputs, and compare every bit against
    /// `want`.
    fn assert_sweep_matches(
        x: &CooTensor,
        model: &KruskalTensor,
        banked: usize,
        want: &(CooTensor, Vec<Mat>, f64),
        label: &str,
    ) {
        let (we, whs, wf) = want;
        let mut e = x.clone(); // stale values on purpose
        let mut hs: Vec<Mat> = (0..banked)
            .map(|m| Mat::random(x.shape()[m], model.rank(), 9 + m as u64)) // dirty on purpose
            .collect();
        // Twice: a second sweep over its own output must be clean too.
        for _ in 0..2 {
            let f = fused_refresh_modes_into(x, model, &mut e, &mut hs).unwrap();
            assert_eq!(bits(e.values()), bits(we.values()), "{label}: residual");
            assert_eq!(f.to_bits(), wf.to_bits(), "{label}: frob");
            for (m, h) in hs.iter().enumerate() {
                assert_eq!(bits(h.as_slice()), bits(whs[m].as_slice()), "{label}: mode {m}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The sweep banking all modes, any leading few, or none is
        /// `to_bits`-equal to `residual` + per-mode `mttkrp` +
        /// `frob_norm_sq`: specialized and generic ranks, literal (3, 4)
        /// and generic (2, 5) orders, an entry count that leaves a tail
        /// block, and dimensions small enough that neighbours inside one
        /// 4-block keep hitting the same output rows (commit order).
        #[test]
        fn entry_order_sweep_is_bitwise_the_unfused_kernels(
            seed in 0u64..10_000,
            rank_ix in 0usize..6,
            order in 2usize..6,
            tail in 1usize..4,
        ) {
            let rank = [1usize, 3, 8, 16, 17, 20][rank_ix];
            let mut rng = StdRng::seed_from_u64(seed);
            let shape: Vec<usize> = (0..order).map(|_| rng.random_range(1..5)).collect();
            let x = random_coo(&shape, 70, seed ^ 0x5eed);
            let x = head(&x, (x.nnz() / 4 * 4 + tail).min(x.nnz()));
            let model = KruskalTensor::random(&shape, rank, seed.wrapping_add(rank as u64));
            let want = unfused(&x, &model);
            let label = format!("shape {shape:?} nnz {} rank {rank}", x.nnz());
            // `banked = 0` is the plain refresh, as is `refresh_entries` —
            // over the whole list, or over any sub-range of it.
            for banked in 0..=order {
                assert_sweep_matches(&x, &model, banked, &want, &label);
            }
            let mut vals = vec![f64::NAN; x.nnz()];
            refresh_entries(&x, &model, Span { lo: 0, len: x.nnz() }, &mut vals);
            prop_assert_eq!(bits(&vals), bits(want.0.values()));
            let lo = rng.random_range(0..=x.nnz());
            let len = rng.random_range(0..=x.nnz() - lo);
            refresh_entries(&x, &model, Span { lo, len }, &mut vals[..len]);
            prop_assert_eq!(bits(&vals[..len]), bits(&want.0.values()[lo..lo + len]));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The path a host takes never shows: the all-modes sweep, the
        /// plain refresh and a block's slab sweep leave the same bits
        /// through `sweep` — on the widest lanes this CPU has, rank
        /// literals and all — as through the bare body called from this
        /// (baseline) function with the rank as a value.
        #[test]
        fn wide_lanes_are_bitwise_the_baseline_body(
            seed in 0u64..10_000,
            rank_ix in 0usize..6,
            order in 2usize..6,
        ) {
            let rank = [1usize, 3, 8, 16, 17, 20][rank_ix];
            let mut rng = StdRng::seed_from_u64(seed);
            let shape: Vec<usize> = (0..order).map(|_| rng.random_range(2..6)).collect();
            let x = random_coo(&shape, 90, seed ^ 0x15a);
            let model = KruskalTensor::random(&shape, rank, seed.wrapping_add(7));
            let factors = model.factors();
            let dirty = |rows: &[usize]| -> Vec<Mat> {
                rows.iter().map(|&d| Mat::random(d, rank, 5)).collect()
            };
            // Every mode banked beside the refresh, then no mode banked.
            for banked in [order, 0] {
                let (mut wide, mut base) = (vec![f64::NAN; x.nnz()], vec![f64::NAN; x.nnz()]);
                let (mut hw, mut hb) = (dirty(&shape[..banked]), dirty(&shape[..banked]));
                let all = Span { lo: 0, len: x.nnz() };
                let fw = sweep(&x, factors, Refresh(&mut wide), all, WholeModes, &mut hw);
                let fb =
                    sweep_at_rank(&x, factors, rank, Refresh(&mut base), all, WholeModes, &mut hb);
                prop_assert_eq!(fw.to_bits(), fb.to_bits());
                prop_assert_eq!(bits(&wide), bits(&base));
                for (w, b) in hw.iter().zip(&hb) {
                    prop_assert_eq!(bits(w.as_slice()), bits(b.as_slice()));
                }
            }
            // One block into slabs for the leading `banked` modes: its
            // fresh values through the public entry, its stored ones through
            // `sweep`, and both through the body.
            let cut: Vec<usize> = shape.iter().map(|&d| rng.random_range(1..d)).collect();
            let banked = rng.random_range(1..=order);
            for (t, origin, rows) in halves(&x, &cut) {
                let place = Slabs { origin: &origin };
                let all = Span { lo: 0, len: t.nnz() };
                let (mut fresh_w, mut fresh_b) = (dirty(&rows[..banked]), dirty(&rows[..banked]));
                let (mut kept_w, mut kept_b) = (dirty(&rows[..banked]), dirty(&rows[..banked]));
                let pairs = [
                    (
                        block_sweep_into(&t, &model, &origin, &mut fresh_w).unwrap(),
                        sweep_at_rank(&t, factors, rank, Fresh, all, place, &mut fresh_b),
                    ),
                    (
                        sweep(&t, factors, Stored(t.values()), all, place, &mut kept_w),
                        sweep_at_rank(
                            &t, factors, rank, Stored(t.values()), all, place, &mut kept_b,
                        ),
                    ),
                ];
                for (fw, fb) in pairs {
                    prop_assert_eq!(fw.to_bits(), fb.to_bits());
                }
                for (w, b) in fresh_w.iter().zip(&fresh_b).chain(kept_w.iter().zip(&kept_b)) {
                    prop_assert_eq!(bits(w.as_slice()), bits(b.as_slice()));
                }
            }
        }
    }

    #[test]
    fn entry_order_sweep_covers_every_entry_count_around_a_block() {
        // nnz = 1..=9 walks the tail path through every remainder, with
        // and without a full block before it.
        let shape = [3, 2, 2];
        let full = random_coo(&shape, 40, 5);
        assert!(full.nnz() >= 9);
        for &rank in &[8usize, 5] {
            let model = KruskalTensor::random(&shape, rank, 2);
            for n in 1..=9 {
                let x = head(&full, n);
                let want = unfused(&x, &model);
                assert_sweep_matches(&x, &model, 3, &want, &format!("nnz {n} rank {rank}"));
            }
        }
    }

    #[test]
    fn orders_outside_the_row_cache_fall_back() {
        // Order 1 and order > MAX_CACHED_ORDER are not the entry-order
        // kernel's: it refuses them, and the plain refresh and the
        // one-mode sweep over parts (what the layout falls back to, here
        // with an empty part under a pool) take the one per-entry
        // fallback, which still matches the unfused sequence.
        let exec = Executor::new(ExecMode::Threads(4));
        for shape in [vec![7usize], vec![2; MAX_CACHED_ORDER + 1]] {
            let order = shape.len();
            assert!(!fuses_entry_order(order));
            let x = random_coo(&shape, 30, 3);
            let model = KruskalTensor::random(&shape, 3, 4);
            let (we, whs, wf) = unfused(&x, &model);
            let mut e = x.clone();
            let mut hs: Vec<Mat> = shape.iter().map(|&d| Mat::zeros(d, 3)).collect();
            assert!(fused_refresh_modes_into(&x, &model, &mut e, &mut hs).is_err());
            assert_eq!(e, x, "a refused sweep must not touch the residual");
            let mut vals = vec![f64::NAN; x.nnz()];
            refresh_entries(&x, &model, Span { lo: 0, len: x.nnz() }, &mut vals);
            assert_eq!(bits(&vals), bits(we.values()));
            refresh_entries(&x, &model, Span { lo: 2, len: 5 }, &mut vals[..5]);
            assert_eq!(bits(&vals[..5]), bits(&we.values()[2..7]));
            let mut ws = MttkrpWorkspace::new(&x, 0, &[0, 1, shape[0]], 3).unwrap();
            let f = fused_mttkrp_refresh_into(&x, &model, &mut ws, &exec, &mut e, &mut hs[0])
                .unwrap();
            assert_eq!(bits(e.values()), bits(we.values()));
            assert_eq!(bits(hs[0].as_slice()), bits(whs[0].as_slice()));
            assert_eq!(f.to_bits(), wf.to_bits());
        }
    }

    /// `x` cut in two along every mode (at `cut[m]`): each non-empty
    /// block's entries with its per-mode row origins and slab heights.
    fn halves(x: &CooTensor, cut: &[usize]) -> Vec<(CooTensor, Vec<usize>, Vec<usize>)> {
        let order = x.order();
        let mut blocks = Vec::new();
        for id in 0..1usize << order {
            let upper = |m: usize| id >> m & 1 == 1;
            let mut t = CooTensor::new(x.shape().to_vec());
            for (idx, v) in x.iter() {
                if (0..order).all(|m| (idx[m] >= cut[m]) == upper(m)) {
                    t.push(idx, v).unwrap();
                }
            }
            if t.nnz() == 0 {
                continue;
            }
            let origin = (0..order).map(|m| if upper(m) { cut[m] } else { 0 }).collect();
            let rows = (0..order)
                .map(|m| if upper(m) { x.shape()[m] - cut[m] } else { cut[m] })
                .collect();
            blocks.push((t, origin, rows));
        }
        blocks
    }

    /// Run one block sweep into fresh dirty slabs for the leading `count`
    /// modes.
    fn block_sweep(
        block: &(CooTensor, Vec<usize>, Vec<usize>),
        model: &KruskalTensor,
        count: usize,
    ) -> (Vec<Mat>, f64) {
        let (t, origin, rows) = block;
        let mut slabs: Vec<Mat> = (0..count)
            .map(|m| Mat::random(rows[m], model.rank(), 3 + m as u64)) // dirty on purpose
            .collect();
        let frob = block_sweep_into(t, model, origin, &mut slabs).unwrap();
        (slabs, frob)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A block's `Σe²` and partial slabs are the same bits whether one
        /// pass banks every mode, any leading few of them or none; the
        /// slabs of all blocks add up to the whole tensor's MTTKRP; and one
        /// block spanning the tensor *is* the entry-order sweep. Orders 1
        /// and 9 take the per-entry fallback.
        #[test]
        fn block_sweep_is_the_same_fold_for_any_mode_range(
            seed in 0u64..10_000,
            rank_ix in 0usize..5,
            order_ix in 0usize..6,
        ) {
            let rank = [1usize, 3, 8, 16, 20][rank_ix];
            let order = [1usize, 2, 3, 4, 5, 9][order_ix];
            let mut rng = StdRng::seed_from_u64(seed);
            let shape: Vec<usize> = (0..order).map(|_| rng.random_range(2..5)).collect();
            let x = random_coo(&shape, 90, seed ^ 0xb10c);
            let model = KruskalTensor::random(&shape, rank, seed.wrapping_add(1));
            let (_, whs, wf) = unfused(&x, &model);

            let whole = (x.clone(), vec![0; order], shape.clone());
            let (slabs, frob) = block_sweep(&whole, &model, order);
            prop_assert_eq!(frob.to_bits(), wf.to_bits());
            for (slab, wh) in slabs.iter().zip(&whs) {
                prop_assert_eq!(bits(slab.as_slice()), bits(wh.as_slice()));
            }

            let cut: Vec<usize> = shape.iter().map(|&d| rng.random_range(1..d)).collect();
            let mut total: Vec<Mat> = shape.iter().map(|&d| Mat::zeros(d, rank)).collect();
            for block in halves(&x, &cut) {
                let (fused, fused_frob) = block_sweep(&block, &model, order);
                for count in 0..order {
                    let (few, few_frob) = block_sweep(&block, &model, count);
                    prop_assert_eq!(few.len(), count);
                    prop_assert_eq!(few_frob.to_bits(), fused_frob.to_bits());
                    for (slab, want) in few.iter().zip(&fused) {
                        prop_assert_eq!(bits(slab.as_slice()), bits(want.as_slice()));
                    }
                }
                for (m, slab) in fused.iter().enumerate() {
                    for row in 0..slab.rows() {
                        for (t, &p) in total[m].row_mut(block.1[m] + row).iter_mut().zip(slab.row(row)) {
                            *t += p;
                        }
                    }
                }
            }
            for (t, wh) in total.iter().zip(&whs) {
                for (a, b) in t.as_slice().iter().zip(wh.as_slice()) {
                    prop_assert!((a - b).abs() <= 1e-12 * (1.0 + b.abs()), "{a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn block_sweep_rejects_mismatched_io() {
        let shape = [6, 5, 4];
        let x = random_coo(&shape, 30, 2);
        let model = KruskalTensor::random(&shape, 3, 2);
        let mut slabs: Vec<Mat> = shape.iter().map(|&d| Mat::zeros(d, 3)).collect();
        let origin = [0usize; 3];
        let sweep =
            |origin: &[usize], slabs: &mut [Mat]| block_sweep_into(&x, &model, origin, slabs);
        assert!(sweep(&origin, &mut slabs).is_ok());
        // An origin per mode missing; more slabs than modes; a slab past
        // its mode's end; a slab of the wrong rank.
        assert!(sweep(&origin[..2], &mut slabs).is_err());
        let mut extra = slabs.clone();
        extra.push(Mat::zeros(4, 3));
        assert!(sweep(&origin, &mut extra).is_err());
        assert!(sweep(&[1, 0, 0], &mut slabs).is_err());
        slabs[2] = Mat::zeros(4, 2);
        assert!(sweep(&origin, &mut slabs).is_err());
    }

    /// What one [`cut_sweep_into`] over `blocks` blocks leaves on `exec`,
    /// as bits: the outputs of the leading `count` modes (from dirty
    /// buffers) and `Σe²`. Twice through one cut: reuse must be clean.
    fn cut_bits(
        x: &CooTensor,
        model: &KruskalTensor,
        count: usize,
        blocks: usize,
        exec: &Executor,
    ) -> (Vec<Vec<u64>>, u64) {
        let (shape, rank) = (x.shape(), model.rank());
        let mut cut = BlockCut::with_blocks(shape, rank, blocks);
        let mut bank: Vec<Mat> = (0..count)
            .map(|m| Mat::random(shape[m], rank, 5 + m as u64)) // dirty on purpose
            .collect();
        let mut frob = 0.0;
        for _ in 0..2 {
            frob = cut_sweep_into(x, model, &mut bank, &mut cut, exec).unwrap();
        }
        (bank.iter().map(|h| bits(h.as_slice())).collect(), frob.to_bits())
    }

    fn close(a: &[u64], b: &[u64]) -> bool {
        a.iter().zip(b).all(|(&a, &b)| {
            let (a, b) = (f64::from_bits(a), f64::from_bits(b));
            (a - b).abs() <= 1e-12 * (1.0 + b.abs())
        }) && a.len() == b.len()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A cut sweep banking every mode, the leading few or none gives
        /// the same bits on `Sequential` and on 2, 3 and 8 threads; at one
        /// block those bits are the flat entry-order sweep's
        /// ([`fused_refresh_modes_into`]), at more they are within rounding
        /// of it.
        #[test]
        fn a_block_cut_is_one_set_of_bits_on_every_executor(
            seed in 0u64..10_000,
            rank in 1usize..=20,
            order in 3usize..=4,
            blocks_ix in 0usize..4,
        ) {
            let blocks = [1usize, 2, 3, 7][blocks_ix];
            let mut rng = StdRng::seed_from_u64(seed);
            let shape: Vec<usize> = (0..order).map(|_| rng.random_range(2..9)).collect();
            let x = random_coo(&shape, rng.random_range(1..160), seed ^ 0xc07);
            let model = KruskalTensor::random(&shape, rank, seed.wrapping_add(3));

            let mut e = x.clone();
            let mut hs: Vec<Mat> = shape.iter().map(|&d| Mat::zeros(d, rank)).collect();
            let frob = fused_refresh_modes_into(&x, &model, &mut e, &mut hs).unwrap();
            let want: Vec<Vec<u64>> = hs.iter().map(|h| bits(h.as_slice())).collect();

            let few = rng.random_range(1..order);
            let modes = [ExecMode::Sequential, ExecMode::Threads(2), ExecMode::Threads(3), ExecMode::Threads(8)];
            for banked in [order, few, 0] {
                let runs: Vec<_> = modes
                    .iter()
                    .map(|&m| cut_bits(&x, &model, banked, blocks, &Executor::new(m)))
                    .collect();
                for run in &runs[1..] {
                    prop_assert_eq!(run, &runs[0], "modes {:?}", banked);
                }
                let (outs, got) = &runs[0];
                if blocks == 1 {
                    prop_assert_eq!(&outs[..], &want[..banked]);
                    prop_assert_eq!(*got, frob.to_bits());
                } else {
                    for (o, w) in outs.iter().zip(&want) {
                        prop_assert!(close(o, w), "{} blocks", blocks);
                    }
                    prop_assert!(close(&[*got], &[frob.to_bits()]));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The refresh is the model's own evaluation: what a cut sweep or
        /// a block sweep banks and folds is, bit for bit, what the same
        /// blocks give from stored values `value − KruskalTensor::eval` —
        /// at orders 2–5 and ranks 1–20, over one block and several, and
        /// over each block of a blocking.
        #[test]
        fn refreshed_values_are_value_minus_eval(
            seed in 0u64..10_000,
            rank in 1usize..=20,
            order in 2usize..=5,
            blocks_ix in 0usize..3,
        ) {
            let blocks = [1usize, 2, 5][blocks_ix];
            let mut rng = StdRng::seed_from_u64(seed);
            let shape: Vec<usize> = (0..order).map(|_| rng.random_range(2..6)).collect();
            let x = random_coo(&shape, rng.random_range(1..120), seed ^ 0xe7a1);
            let model = KruskalTensor::random(&shape, rank, seed.wrapping_add(11));
            let factors = model.factors();
            let evaluated = |t: &CooTensor| -> CooTensor {
                let mut e = t.clone();
                for (j, v) in e.values_mut().iter_mut().enumerate() {
                    *v -= model.eval(t.index(j));
                }
                e
            };
            let zeros = |rows: &[usize]| -> Vec<Mat> {
                rows.iter().map(|&d| Mat::zeros(d, rank)).collect()
            };

            let e = evaluated(&x);
            let (mut want, mut want_frob) = (zeros(&shape), 0.0);
            for k in 0..blocks {
                let mut part = zeros(&shape);
                let span = block_span(k, blocks, x.nnz());
                let f = sweep(&e, factors, Stored(e.values()), span, WholeModes, &mut part);
                if k == 0 {
                    (want, want_frob) = (part, f);
                } else {
                    want_frob += f;
                    for (w, p) in want.iter_mut().zip(&part) {
                        w.axpy(1.0, p).unwrap();
                    }
                }
            }
            let exec = Executor::new(ExecMode::Threads(2));
            let mut cut = BlockCut::with_blocks(&shape, rank, blocks);
            let mut bank = zeros(&shape);
            let frob = cut_sweep_into(&x, &model, &mut bank, &mut cut, &exec).unwrap();
            prop_assert_eq!(frob.to_bits(), want_frob.to_bits());
            for (h, w) in bank.iter().zip(&want) {
                prop_assert_eq!(bits(h.as_slice()), bits(w.as_slice()));
            }

            let cut: Vec<usize> = shape.iter().map(|&d| rng.random_range(1..d)).collect();
            for (t, origin, rows) in halves(&x, &cut) {
                let e = evaluated(&t);
                let (place, all) = (Slabs { origin: &origin }, Span { lo: 0, len: t.nnz() });
                let (mut got, mut want) = (zeros(&rows), zeros(&rows));
                let frob = block_sweep_into(&t, &model, &origin, &mut got).unwrap();
                let want_frob = sweep(&e, factors, Stored(e.values()), all, place, &mut want);
                prop_assert_eq!(frob.to_bits(), want_frob.to_bits());
                for (g, w) in got.iter().zip(&want) {
                    prop_assert_eq!(bits(g.as_slice()), bits(w.as_slice()));
                }
            }
        }
    }

    #[test]
    fn the_block_count_is_the_datas_alone() {
        let cube = [100usize, 100, 100];
        assert_eq!(block_count(&cube, 0, 16), 1);
        assert_eq!(block_count(&cube, 2 * BLOCK_MIN_NNZ - 1, 16), 1);
        assert_eq!(block_count(&cube, 2 * BLOCK_MIN_NNZ, 16), 2);
        assert_eq!(block_count(&cube, 1 << 30, 16), MAX_BLOCKS);
        // Partial banks stay under half a double per nonzero: long modes
        // at a high rank keep a large tensor in fewer blocks, or in one.
        assert_eq!(block_count(&[1_000_000, 10, 10], 1 << 20, 16), 1);
        for (shape, nnz, rank) in [(&cube[..], 200_000, 16), (&[2000, 300, 20][..], 200_000, 20)] {
            let cut = BlockCut::new(shape, nnz, rank);
            let held: usize = cut.partials.iter().map(|p| p.rows() * p.cols()).sum();
            assert_eq!(cut.partials.len(), (cut.blocks() - 1) * shape.len());
            assert!(cut.blocks() > 1 && 2 * held <= nnz, "{shape:?}: {} blocks", cut.blocks());
        }
        // (The second one is held to three blocks by the cap.)
        assert_eq!(BlockCut::new(&[2000, 300, 20], 200_000, 20).blocks(), 3);
        // Equal-count ranges that cover the list in order.
        for (blocks, nnz) in [(1, 0), (3, 10), (4, 4), (7, 100)] {
            let spans: Vec<Span> = (0..blocks).map(|k| block_span(k, blocks, nnz)).collect();
            assert_eq!(spans.iter().map(|s| s.len).sum::<usize>(), nnz);
            for (a, b) in spans.iter().zip(&spans[1..]) {
                assert_eq!(a.lo + a.len, b.lo);
                assert!(a.len.abs_diff(b.len) <= 1);
            }
        }
    }

    #[test]
    fn cut_sweep_rejects_mismatched_io() {
        let shape = [6, 5, 4];
        let x = random_coo(&shape, 30, 2);
        let model = KruskalTensor::random(&shape, 3, 2);
        let exec = Executor::new(ExecMode::Sequential);
        let mut cut = BlockCut::with_blocks(&shape, 3, 2);
        let mut bank: Vec<Mat> = shape.iter().map(|&d| Mat::zeros(d, 3)).collect();
        let sweep =
            |bank: &mut [Mat], cut: &mut BlockCut| cut_sweep_into(&x, &model, bank, cut, &exec);
        assert!(sweep(&mut bank, &mut cut).is_ok());
        // More outputs than modes; an output of the wrong shape; a cut for
        // another order or another rank.
        let mut extra = bank.clone();
        extra.push(Mat::zeros(6, 3));
        assert!(sweep(&mut extra, &mut cut).is_err());
        bank.swap(0, 1);
        assert!(sweep(&mut bank, &mut cut).is_err());
        bank.swap(0, 1);
        let mut flat = BlockCut::with_blocks(&shape[..2], 3, 2);
        assert!(sweep(&mut bank, &mut flat).is_err());
        let mut wide = BlockCut::with_blocks(&shape, 4, 2);
        assert!(sweep(&mut bank, &mut wide).is_err());
    }

    /// A tensor whose mode-0 row `i` holds exactly `counts[i]` entries.
    fn rows_holding(counts: &[usize]) -> CooTensor {
        let mut t = CooTensor::new(vec![counts.len(), 7, 5]);
        for (i, &n) in counts.iter().enumerate() {
            for c in 0..n {
                t.push(&[i, (c + i) % 7, c / 7], 0.25 * (c + 2 * i) as f64 - 1.0).unwrap();
            }
        }
        t.sort_dedup();
        t
    }

    #[test]
    fn fused_into_matches_reference_across_blockings_and_executors() {
        let seq = Executor::new(ExecMode::Sequential);
        let par = Executor::new(ExecMode::Threads(4));
        // Cut one row per part, the second tensor's mode-0 parts hold 0,
        // 1, 3, 4, 5 and 7 entries: an empty sweep, and a short tail block
        // alone, after one full block, and padded from every remainder.
        let row_counts = [0usize, 1, 3, 4, 5, 7];
        let by_row = rows_holding(&row_counts);
        let per_row: Vec<usize> = (1..=row_counts.len()).collect();
        let ws = MttkrpWorkspace::new(&by_row, 0, &per_row, 1).unwrap();
        let sizes: Vec<usize> = ws.parts.iter().map(|p| p.entries.len()).collect();
        assert_eq!(sizes, row_counts);
        for x in [random_coo(&[13, 7, 5], 150, 4), by_row] {
            let shape = x.shape().to_vec();
            for &rank in &[1usize, 3, 8, 16, 17, 20] {
                let model = KruskalTensor::random(&shape, rank, 40 + rank as u64);
                let (we, whs, wf) = unfused(&x, &model);
                for (mode, &dim) in shape.iter().enumerate() {
                    let cuts: Vec<Vec<usize>> = vec![
                        vec![dim],
                        vec![dim / 2, dim],
                        vec![0, 1, dim / 3, dim / 2, dim, dim],
                        (1..=dim).collect(),
                    ];
                    for boundaries in &cuts {
                        for exec in [&seq, &par] {
                            let mut ws =
                                MttkrpWorkspace::new(&x, mode, boundaries, rank).unwrap();
                            let mut e = x.clone(); // stale values on purpose
                            let mut h = Mat::random(dim, rank, 9); // dirty on purpose
                            // Twice through one workspace: reuse must be clean.
                            for _ in 0..2 {
                                let f = fused_mttkrp_refresh_into(
                                    &x, &model, &mut ws, exec, &mut e, &mut h,
                                )
                                .unwrap();
                                let label = format!("rank {rank} mode {mode} cuts {boundaries:?}");
                                assert_eq!(bits(e.values()), bits(we.values()), "{label}");
                                let wh = whs[mode].as_slice();
                                assert_eq!(bits(h.as_slice()), bits(wh), "{label}");
                                assert_eq!(f.to_bits(), wf.to_bits(), "{label}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fused_h_equals_blocked_mttkrp_against_fresh_residual() {
        // The H the solver banks must be interchangeable with the
        // `mttkrp_blocked_into` it replaces — from either fused kernel.
        let shape = [12, 10, 8];
        let x = random_coo(&shape, 200, 7);
        let model = KruskalTensor::random(&shape, 8, 5);
        let exec = Executor::new(ExecMode::Threads(4));
        let boundaries = vec![3, 7, 12];
        let mut ws = MttkrpWorkspace::new(&x, 0, &boundaries, 8).unwrap();
        let mut e = x.clone();
        let mut h = Mat::zeros(12, 8);
        fused_mttkrp_refresh_into(&x, &model, &mut ws, &exec, &mut e, &mut h).unwrap();
        let mut stale = x.clone();
        let mut hs: Vec<Mat> = shape.iter().map(|&d| Mat::zeros(d, 8)).collect();
        fused_refresh_modes_into(&x, &model, &mut stale, &mut hs).unwrap();
        let mut ws2 = MttkrpWorkspace::new(&x, 0, &boundaries, 8).unwrap();
        let mut h2 = Mat::zeros(12, 8);
        mttkrp_blocked_into(&e, model.factors(), &mut ws2, &exec, &mut h2).unwrap();
        assert_eq!(h.as_slice(), h2.as_slice());
        assert_eq!(hs[0].as_slice(), h2.as_slice());
    }

    #[test]
    fn fused_into_rejects_mismatched_io() {
        let shape = [6, 5, 4];
        let x = random_coo(&shape, 30, 2);
        let model = KruskalTensor::random(&shape, 3, 2);
        let exec = Executor::new(ExecMode::Sequential);
        let mut ws = MttkrpWorkspace::new(&x, 0, &[6], 3).unwrap();
        // Wrong residual support.
        let mut wrong_e = CooTensor::new(vec![6, 5, 4]);
        let mut h = Mat::zeros(6, 3);
        assert!(fused_mttkrp_refresh_into(&x, &model, &mut ws, &exec, &mut wrong_e, &mut h)
            .is_err());
        // Wrong output shape.
        let mut e = x.clone();
        let mut small = Mat::zeros(5, 3);
        assert!(
            fused_mttkrp_refresh_into(&x, &model, &mut ws, &exec, &mut e, &mut small).is_err()
        );
        // Workspace rank mismatch.
        let model4 = KruskalTensor::random(&shape, 4, 2);
        let mut h4 = Mat::zeros(6, 4);
        assert!(
            fused_mttkrp_refresh_into(&x, &model4, &mut ws, &exec, &mut e, &mut h4).is_err()
        );
        // Workspace cut for a support of another size.
        let y = head(&x, x.nnz() - 1);
        let mut ey = y.clone();
        assert!(fused_mttkrp_refresh_into(&y, &model, &mut ws, &exec, &mut ey, &mut h).is_err());
        assert_eq!(ey, y, "a rejected sweep must not touch the residual");
    }

    #[test]
    fn entry_order_sweep_rejects_mismatched_io() {
        let shape = [6, 5, 4];
        let x = random_coo(&shape, 30, 2);
        let model = KruskalTensor::random(&shape, 3, 2);
        let mut hs: Vec<Mat> = shape.iter().map(|&d| Mat::zeros(d, 3)).collect();
        let mut e = x.clone();
        // Wrong residual support.
        let mut wrong_e = CooTensor::new(vec![6, 5, 4]);
        assert!(fused_refresh_modes_into(&x, &model, &mut wrong_e, &mut hs).is_err());
        // More outputs than the tensor has modes.
        hs.push(Mat::zeros(4, 3));
        assert!(fused_refresh_modes_into(&x, &model, &mut e, &mut hs).is_err());
        hs.pop();
        // One output of the wrong shape (mode 1 handed mode 0's).
        hs.swap(0, 1);
        assert!(fused_refresh_modes_into(&x, &model, &mut e, &mut hs).is_err());
        assert_eq!(e, x, "a rejected sweep must not touch the residual");
    }
}
