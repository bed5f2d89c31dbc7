"""Windowed detection statistics for surface-assisted radar returns.

Five window detectors scan every admissible cell pair (n, m), n > 1, m > n,
for the single- and double-bounce echoes while the direct echo sits in
cell 1; two classical single-cell detectors (Kelly's GLRT and the AMF)
serve as baselines.

One route evaluates all seven: `batch_evaluate` whitens each trial by the
Cholesky factor of the training scatter matrix S_S and reduces every
statistic to algebra on the Gram matrix of the K_P + 3 whitened
window/steering vectors (Woodbury identities on small capacitance
matrices).  Every array is laid out trial-last, so each matrix entry is a
contiguous (T,) array over trials, and all work after the factor is
elementwise arithmetic on such arrays or one batched product:

- whitening runs over fixed blocks of trials through buffers allocated
  once (`_whitening`): per block, a batched Cholesky of S_S and forward
  substitution over a trial-last copy of the factor, one broadcast
  downdate per solved row.  A chunk
  that several points test keeps each trial's factor and whitened columns
  (`WhitenedChunk`), and each point forward-substitutes again only the
  columns it changes: the window cells its mean reaches, and the steering
  vectors when its own differ from the chunk's.  Per block, one batched
  product of the point's whitened columns writes the block's columns of
  the (K_P + 3, K_P + 3, T) Gram matrix G;
- the numerator log det (formed only for the det-ratio kinds and their
  bound) and, per cell pair, the 6x6 workspace of
  quadratic forms through S_{n,m} come from one elementwise LDL
  (`_ldl_schur`): of I + G_P, and of the capacitance I + G_ex of the cells
  outside the pair, whose eliminations downdate the workspace's upper
  triangle by rank-1 terms;
- the residual log det of ep-glrt-ka, a-glrt and the start of the cyclic
  ascent comes from an LDL of the 3x3 residual capacitance with three real
  pivots (a-glrt and the ascent share it);
- each coordinate update of the cyclic ascent (c-glrt) needs only three
  entries of the workspace downdated by the other two residual columns,
  from a rank-2 capacitance with an explicit 2x2 inverse, and the
  determinant lemma turns that capacitance and a rank-1 Schur term into
  the log det after the update.  The early-stop ascent and the traced one
  (`c_glrt_gain_trace`) run the same step.

A caller that keeps only each det-ratio kind's top k statistics, or only
whether each exceeds its threshold, passes that as a cut; without one, a
call keeps each trial's maximum and its first-max pair.  With V a basis of
the steering span, U = log det(V† S_{n,m}^-1 V) - log det(V† (S_P +
S_S)^-1 V) bounds the log statistic of ep-glrt-ka, a-glrt and c-glrt at
pair (n, m) whatever the amplitudes: eliminating the basis and the window
cells of one matrix in two orders gives U = ld_num - ld_ex - log det(I_3 +
S), S the Schur complement of the pair's three cells against V through
S_{n,m}, and S is at most the residual form T† H T at any amplitudes.  The
first term reads the steering block of the pair workspace, which the pair
LDL forms with km-2's entries and no other.  One rule in two passes then
picks the (pair, trial) entries to evaluate exactly: each trial's entry of
largest bound, then every other whose bound plus a margin is >= max(the
kind's cut, the trial's first value), so every entry that could tie a
maximum is kept.  Both passes stack their entries, at most T/2 to a stack,
with the operations of pair_state, so every value is the same bit for bit
whichever entries share a stack.  Each window detector fills one
(pairs, T) table, -inf where an entry was left out, and a (T, pairs) table
of c-glrt iterations; each trial's first maximum over the pairs gives its
statistic and pair.

A pivot or capacitance determinant that is not positive and finite raises
NotPositiveDefinite naming the batch positions of the failing trials.  Those
checks decide, so the algebra runs with numpy's overflow, invalid-value and
division warnings off (`_quiet`): an overflowing entry surfaces as one
named failure, not as warnings followed by it.  The test suite checks the
route, statistic by statistic, against the explicit-inverse oracles in
tests/oracles.py.

All det-ratio statistics are computed as exp of log-determinant differences.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .signal_model import NotPositiveDefinite, SteeringSet

# A coordinate update may lower the compressed log-likelihood by at most this
# relative amount before it is treated as a genuine monotonicity violation
# rather than floating-point wobble.  The tolerance is scaled per trial by
# the largest raw cell energy entering the residual algebra: the log-det
# updates cancel terms of that magnitude, so their rounding error grows with
# it while genuine ascent bugs produce decreases on the order of the gains
# themselves.
MONOTONE_SLACK = 1e-8

# The bound of a cut needs a basis of the steering span: a whitened steering
# vector joins it when its residual against the basis so far exceeds
# _SPAN_OUT of its norm, and lies in the span below _SPAN_IN.  In between,
# a basis would be too ill-conditioned for the bound's log-determinants, and
# leaving the vector out would bound nothing, so no entry is pruned.
_SPAN_IN, _SPAN_OUT = 1e-8, 1e-3

# The engine's entry points run their algebra under this: every inf or NaN
# it can make reaches a pivot that _require_positive checks.
_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")

# Trials per block of the whitening front end (_whitening, and a
# WhitenedChunk's points): its block buffers stay a few MB whatever the
# stack length.
_GRAM_BLOCK = 256


class NonMonotonic(RuntimeError):
    """Cyclic likelihood ascent decreased beyond numerical tolerance.

    positions holds the batch positions of the offending trials.
    """

    def __init__(self, message: str, positions: np.ndarray | None = None):
        super().__init__(message)
        self.positions = positions


class DetectorKind(Enum):
    EP_GLRT_KM_1 = "ep-glrt-km-1"
    EP_GLRT_KM_2 = "ep-glrt-km-2"
    EP_GLRT_KA = "ep-glrt-ka"
    C_GLRT = "c-glrt"
    A_GLRT = "a-glrt"
    KELLY = "kelly"
    AMF = "amf"

    @classmethod
    def from_name(cls, name: str) -> "DetectorKind":
        try:
            return cls(name.strip().lower().replace("_", "-"))
        except ValueError:
            raise ValueError(f"unknown detector {name!r}; choose from "
                             f"{[k.value for k in cls]}") from None


PROPOSED_KINDS = (
    DetectorKind.EP_GLRT_KM_1,
    DetectorKind.EP_GLRT_KM_2,
    DetectorKind.EP_GLRT_KA,
    DetectorKind.C_GLRT,
    DetectorKind.A_GLRT,
)
DET_RATIO_KINDS = (
    DetectorKind.EP_GLRT_KA,
    DetectorKind.C_GLRT,
    DetectorKind.A_GLRT,
)
BASELINE_KINDS = (DetectorKind.KELLY, DetectorKind.AMF)


@dataclass(frozen=True)
class CGlrtConfig:
    """Stopping rule of the cyclic detector: relative gain below epsilon."""

    epsilon: float = 1e-5
    h_max: int = 20

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.h_max < 1:
            raise ValueError("h_max must be >= 1")


def candidate_pairs(k_p: int) -> list[tuple[int, int]]:
    """All (n, m) with 1 < n < m <= K_P, lexicographic: (K_P-1)(K_P-2)/2 pairs."""
    return [(n, m) for n in range(2, k_p + 1) for m in range(n + 1, k_p + 1)]


def _warn_if_degenerate_steering(steering: SteeringSet) -> None:
    """Full column rank of [v_R, v_SR, v_S] is assumed by the estimator
    derivations but never needed by the final statistics; flag near-parallel
    signatures so the user can interpret amplitude estimates with care.

    The warning names the caller of batch_evaluate: the frames between are
    this function, batch_evaluate and the wrapper of its _quiet decorator.
    """
    def cos2(a: np.ndarray, b: np.ndarray) -> float:
        # At unit peak first: the Monte Carlo engine passes steering vectors
        # whitened by the covariance factor, whose squares can overflow.
        a, b = a / np.abs(a).max(), b / np.abs(b).max()
        num = abs(np.vdot(a, b)) ** 2
        den = np.vdot(a, a).real * np.vdot(b, b).real
        return num / den

    if cos2(steering.v_sr, steering.v_r) > 1 - 1e-12 or \
       cos2(steering.v_sr, steering.v_s) > 1 - 1e-12:
        warnings.warn("v_SR is numerically parallel to v_R or v_S; amplitude "
                      "estimates for the overlapping paths are not separable",
                      RuntimeWarning, stacklevel=4)


@dataclass
class BatchResult:
    """Per-trial outcomes of one detector over a stack of trials."""

    statistic: np.ndarray
    n_hat: np.ndarray | None = None
    m_hat: np.ndarray | None = None
    iterations: np.ndarray | None = None
    # c-glrt: the iterations of the ascent at each (trial, pair), 0 where
    # none ran; shape (T, pairs).
    ascents: np.ndarray | None = None


def _cholesky(a: np.ndarray, first: int) -> np.ndarray:
    """Lower Cholesky factors of a stack of Hermitian PD matrices, the
    block of a batch that starts at batch position `first`.

    On failure the matrices are factored one by one, so that the error
    names the batch positions of those that are not positive definite.
    """
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        def factors(x):
            try:
                np.linalg.cholesky(x)
            except np.linalg.LinAlgError:
                return False
            return True

        _require_positive("training scatter matrix",
                          np.array([factors(x) for x in a], dtype=float),
                          at=first + np.arange(len(a)))
        raise


def _ldl_schur(g: np.ndarray, ex: list[int], sel: list[int], what: str,
               upper: list[tuple[int, int]] | None = None,
               ) -> tuple[np.ndarray, dict[tuple[int, int], np.ndarray]]:
    """log det(I + G_ex) and the Schur complement
    G_sel - G_sel,ex (I + G_ex)^-1 G_ex,sel of a (K, K, T) Hermitian stack,
    where G_ex = G[ex][:, ex] and so on.

    Elementwise LDL on (T,) arrays over the rows [ex, sel]: each of the
    len(ex) real pivots of the capacitance I + G_ex must pass
    _require_positive, and eliminating it downdates every upper-triangle
    entry after it by a rank-1 term, which forward-substitutes the G_ex,sel
    rows and leaves the Schur complement in the sel block.  The complement
    comes back as its upper entries {(i, j): (T,) array}, i <= j indexing
    sel, the diagonal real; `upper` names the entries to form (default:
    all), and no other entry of the sel block is downdated.  ex may be
    empty.
    """
    rows = [*ex, *sel]
    size, n_ex = len(rows), len(ex)
    if upper is None:
        upper = [(i, j) for i in range(len(sel)) for j in range(i, len(sel))]
    keep = {(n_ex + i, n_ex + j) for i, j in upper}
    used = {n_ex + i for pair in upper for i in pair}
    a = {(i, j): g[rows[i], rows[j]] for i in range(size)
         for j in range(i, size)
         if (i < n_ex and (j < n_ex or j in used)) or (i, j) in keep}
    for i in range(size):
        if (i, i) in a:
            a[i, i] = a[i, i].real + (1.0 if i < n_ex else 0.0)
    ld = np.zeros(g.shape[-1])
    for k in range(n_ex):
        d = a[k, k]
        _require_positive(what, d)
        ld += np.log(d)
        for i in range(k + 1, size):
            if (k, i) not in a:
                continue
            f = np.conj(a[k, i]) / d
            if (i, i) in a:
                a[i, i] = a[i, i] - _abs2(a[k, i]) / d
            for j in range(i + 1, size):
                if (i, j) in a:
                    a[i, j] = a[i, j] - f * a[k, j]
    return ld, {(i - n_ex, j - n_ex): a[i, j] for i, j in keep}


def _hermitian(blocks: dict[tuple[int, int], np.ndarray],
               size: int) -> np.ndarray:
    """The (size, size, T) Hermitian stack whose upper entries are blocks."""
    t = blocks[0, 0].shape[-1]
    h = np.empty((size, size, t), dtype=np.complex128)
    for i in range(size):
        for j in range(i, size):
            h[i, j] = blocks[i, j]
            h[j, i] = np.conj(h[i, j])
    return h


def _logdet(blocks: dict[tuple[int, int], np.ndarray], size: int,
            what: str) -> np.ndarray:
    """log det of the Hermitian matrix whose upper entries are blocks, by
    an elementwise LDL whose pivots must pass _require_positive."""
    a = dict(blocks)
    ld = 0.0
    for k in range(size):
        d = a[k, k].real
        _require_positive(what, d)
        ld = ld + np.log(d)
        for i in range(k + 1, size):
            f = np.conj(a[k, i]) / d
            a[i, i] = a[i, i].real - _abs2(a[k, i]) / d
            for j in range(i + 1, size):
                a[i, j] = a[i, j] - f * a[k, j]
    return ld


def _steering_columns(steering: SteeringSet) -> np.ndarray:
    """[v_R, v_SR, v_S] as the columns of one (N, 3) array."""
    return np.stack([steering.v_r, steering.v_sr, steering.v_s], axis=1)


def _substitute(l: np.ndarray, w: np.ndarray) -> None:
    """Forward substitution L W = X in place on trial-last stacks: l
    (N, N, T) lower factors, w (N, C, T) holding X.

    Once row j is solved, one broadcast product downdates every row below
    it, so row i still takes its terms l[i, j] w[j] in the order j = 0, 1,
    ... before its division.  Each column of each trial is solved on its
    own, so it comes out the same bit for bit whichever columns share the
    call.
    """
    for j in range(len(l)):
        w[j] /= l[j, j].real
        w[j + 1:] -= l[j + 1:, j, None] * w[j]


def _whitening(draw: Callable[[int, int], tuple[np.ndarray, np.ndarray]],
               t: int, steer: np.ndarray):
    """The one whitening loop, over blocks of at most _GRAM_BLOCK trials.

    draw(lo, hi) gives the window cells (T', N, K_P) and training vectors
    (T', N, K_S) of trials lo..hi-1.  Yields, per block, (lo, hi, z_p, r,
    l, w): the block's draws, the trial-last factor l (N, N, T') of each
    S_S = R R† and the whitened columns w = L^-1 [Z_P, V] (T', N, K_P + 3),
    V the (N, 3) steer.  l and w live in buffers allocated once, which the
    next block overwrites.
    """
    for lo in range(0, t, _GRAM_BLOCK):
        hi = min(lo + _GRAM_BLOCK, t)
        z_p, r = draw(lo, hi)
        size, n_dim, k_p = z_p.shape
        if r.shape[:2] != (size, n_dim):
            raise ValueError("Z_P and R must share the trial and array dimensions")
        if r.shape[2] < n_dim:
            raise ValueError(f"need K_S >= N, got K_S={r.shape[2]}, N={n_dim}")
        if k_p < 3:
            raise ValueError("window must hold at least 3 cells")
        if lo == 0:
            rows = min(t, _GRAM_BLOCK)
            s_ss = np.empty((rows, n_dim, n_dim), dtype=np.complex128)
            l_tl = np.empty((n_dim, n_dim, rows), dtype=np.complex128)
            w_tl = np.empty((n_dim, k_p + 3, rows), dtype=np.complex128)
            w_st = np.empty((rows, n_dim, k_p + 3), dtype=np.complex128)
        s_b = np.matmul(r, np.conj(np.swapaxes(r, 1, 2)), out=s_ss[:size])
        l = l_tl[:, :, :size]
        l[...] = _cholesky(s_b, lo).transpose(1, 2, 0)
        w = w_tl[:, :, :size]
        w[:, :k_p] = z_p.transpose(1, 2, 0)
        w[:, k_p:] = steer[:, :, None]
        _substitute(l, w)
        w_b = w_st[:size]
        w_b[...] = w.transpose(2, 0, 1)
        yield lo, hi, z_p, r, l, w_b


class WhitenedChunk:
    """A chunk of trials whitened once for every point that tests them.

    draw(lo, hi) gives the window cells and training vectors of trials
    lo..hi-1 (see _whitening); it is called once per whitening block, and
    each block's draws are dropped once whitened.  The chunk keeps, per
    trial, the factor L of S_S (trial-last, (N, N, T)), the whitened
    columns L^-1 [Z_P, V] at `steering` ((T, N, K_P + 3)), and the drawn
    values of the window cells `cells`, those some point's mean reaches
    ((N, len(cells), T)).  len() is its number of trials.
    """

    def __init__(self, draw: Callable[[int, int], tuple[np.ndarray, np.ndarray]],
                 t: int, steering: SteeringSet, cells: Sequence[int] = ()):
        self.t, self.cells = t, [int(c) for c in cells]
        self.steer = _steering_columns(steering)
        for lo, hi, z_p, r, l, w in _whitening(draw, t, self.steer):
            if lo == 0:
                n_dim, self.k_p = z_p.shape[1:]
                self.k_tot = self.k_p + r.shape[2]
                self.l = np.empty((n_dim, n_dim, t), dtype=np.complex128)
                self.w = np.empty((t, *w.shape[1:]), dtype=np.complex128)
                self.raw = np.empty((n_dim, len(self.cells), t),
                                    dtype=np.complex128)
            self.l[:, :, lo:hi] = l
            self.w[lo:hi] = w
            self.raw[:, :, lo:hi] = z_p[:, :, self.cells].transpose(1, 2, 0)

    def __len__(self) -> int:
        return self.t

    def blocks(self, mean: np.ndarray | None, steering: SteeringSet):
        """The whitened columns at the point (mean, steering), per
        whitening block: (lo, hi, W), W = L^-1 [Z_P, V] (T', N, K_P + 3)
        with mean (N, K_P) added to the drawn cells (None adds zero); a
        mean that reaches another cell is a ValueError.

        Only the columns the point changes are forward-substituted: the
        cells, and the three steering columns when the point's steering
        vectors differ from the chunk's.  Every other column is the
        chunk's, which is the same bit for bit.
        """
        if mean is not None and np.any(np.delete(mean, self.cells, axis=1)):
            raise ValueError("the mean reaches a window cell outside the "
                             f"chunk's cells {self.cells}")
        steer = _steering_columns(steering)
        moved = not np.array_equal(steer, self.steer)
        n_cells, k_p = len(self.cells), self.k_p
        cols = [*self.cells, *(range(k_p, k_p + 3) if moved else ())]
        rows = min(self.t, _GRAM_BLOCK)
        x_tl = np.empty((len(steer), len(cols), rows), dtype=np.complex128)
        w_st = np.empty((rows, *self.w.shape[1:]), dtype=np.complex128)
        for lo in range(0, self.t, _GRAM_BLOCK):
            hi = min(lo + _GRAM_BLOCK, self.t)
            if not cols:
                yield lo, hi, self.w[lo:hi]
                continue
            x = x_tl[:, :, :hi - lo]
            for i, c in enumerate(self.cells):
                np.add(self.raw[:, i, lo:hi],
                       0.0 if mean is None else mean[:, c, None], out=x[:, i])
            if moved:
                x[:, n_cells:] = steer[:, :, None]
            _substitute(self.l[:, :, lo:hi], x)
            w_b = w_st[:hi - lo]
            w_b[...] = self.w[lo:hi]
            w_b[:, :, cols] = x.transpose(2, 0, 1)
            yield lo, hi, w_b


class _GramWorkspace:
    """Per-trial Gram matrix of whitened window and steering vectors.

    Whitening by the factor of S_S turns every quantity the detectors need
    (quadratic forms and determinants through S_S, S_{n,m}, and their
    residual-augmented updates) into algebra on a (K_P + 3)-dim Gram matrix,
    via Woodbury and the determinant lemma.  Columns 0..K_P-1 index the
    window cells; K_P, K_P+1, K_P+2 index v_R, v_SR, v_S.  Every array is
    laid out trial-last, so g[i, j] is a contiguous (T,) array.

    The trials are z_p (T, N, K_P) and r (T, N, K_S), whitened here block
    by block; or z_p is a WhitenedChunk and r the whitened mean of the
    point that tests it (None for zero), whose blocks re-whiten only what
    the point changes.  Either way each block's whitened columns W land in
    the trial-last g through one batched product W† W.  `basis` names the
    steering vectors of the numerator's Schur block (0 v_R, 1 v_SR, 2
    v_S); None forms no numerator, which only the det-ratio statistics and
    their bound read.
    """

    def __init__(self, z_p, r, steering: SteeringSet,
                 basis: tuple[int, ...] | None = ()):
        if isinstance(z_p, WhitenedChunk):
            t, k_p, self.k_tot = z_p.t, z_p.k_p, z_p.k_tot
            blocks = z_p.blocks(r, steering)
        else:
            t, k_p = len(z_p), z_p.shape[2]
            self.k_tot = k_p + r.shape[-1]
            blocks = ((lo, hi, w) for lo, hi, _, _, _, w in _whitening(
                lambda lo, hi: (z_p[lo:hi], r[lo:hi]), t,
                _steering_columns(steering)))
        self.t, self.k_p = t, k_p
        self.pairs = np.array(candidate_pairs(k_p))  # (pairs, 2): (n, m)
        self.iu = (k_p, k_p + 1, k_p + 2)
        g_st = np.empty((min(t, _GRAM_BLOCK), k_p + 3, k_p + 3),
                        dtype=np.complex128)
        self.g = np.empty((k_p + 3, k_p + 3, t), dtype=np.complex128)
        for lo, hi, w_b in blocks:
            self.g[:, :, lo:hi] = np.matmul(
                np.conj(np.swapaxes(w_b, 1, 2)), w_b,
                out=g_st[:hi - lo]).transpose(1, 2, 0)
        # Cell energies and matched-filter terms against S_S (variant-1 /
        # baseline ingredients), indexed [steering vector, cell]:
        # num[v, c] = |u_v† c|^2, den[v] = u_v† u_v.
        gvc = self.g[k_p:, :k_p]
        self.steer_norms = np.real(self.g[self.iu, self.iu])
        den = self.steer_norms[:, None]
        self.km1_terms = np.abs(gvc) ** 2 / den
        self.alpha_ss = gvc / den
        self.cell_energy = np.real(self.g[range(k_p), range(k_p)])
        if basis is None:
            # The numerator's pivots would fail on a NaN or infinite window
            # cell; without them, each cell's own capacitance is checked.
            _require_positive("cell capacitance 1 + z† S_S^-1 z",
                              *(1.0 + self.cell_energy))
            return
        # log det(S_P + S_S) - log det(S_S): numerator of every det ratio;
        # and V† (S_P + S_S)^-1 V, V the steering vectors at the positions
        # `basis`, as upper entries.
        self.ld_num_rel, self.basis_gram = _ldl_schur(
            self.g, list(range(k_p)), [k_p + b for b in basis],
            "numerator capacitance")

    def pair_rows(self, n: int, m: int) -> tuple[list[int], list[int]]:
        """Rows of g outside pair (n, m)'s capacitance, and the six rows
        sel = [z_1, z_n, z_m, v_R, v_SR, v_S] of its workspace."""
        ex = [k for k in range(self.k_p) if k not in (0, n - 1, m - 1)]
        return ex, [0, n - 1, m - 1, *self.iu]

    def pair_state(self, n: int, m: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """Quadratic forms through S_{n,m} for the six working vectors.

        Returns (h, ld_ex, sel) where h[i, j] = x_i† S_{n,m}^-1 x_j over
        sel = [z_1, z_n, z_m, v_R, v_SR, v_S] (whitened), and ld_ex is
        log det(S_{n,m}) - log det(S_S).  h is laid out (6, 6, T), so
        every entry h[i, j] is a contiguous (T,) array.
        """
        ex, sel = self.pair_rows(n, m)
        ld_ex, blocks = _ldl_schur(self.g, ex, sel, "pair capacitance")
        return _hermitian(blocks, len(sel)), ld_ex, sel


# Row indices of the pair workspace h, and the (cell, steering) rows of the
# three residual columns t_k = e_cell - alpha_k e_steer: direct, single
# bounce, double bounce.
_Z1, _ZN, _ZM, _UR, _USR, _US = range(6)
_COLS = ((_Z1, _UR), (_ZN, _USR), (_ZM, _US))


def _require_positive(what: str, *pivots: np.ndarray,
                      at: np.ndarray | None = None) -> None:
    """Raise unless every pivot is positive and finite; NaN fails too.

    The error names the failing trials by batch position: their indices in
    the (T,) pivot arrays, mapped through `at` when the arrays hold a subset
    of the batch.
    """
    for x in pivots:
        bad = ~((x > 0) & (x < np.inf))
        if bad.any():
            pos = np.flatnonzero(bad)
            if at is not None:
                pos = at[pos]
            raise NotPositiveDefinite(
                f"{what} is not positive definite in {pos.size} trial(s), "
                f"first at batch position {pos[0]}", positions=pos)


def _require_steering_norms(through: str, *norms: np.ndarray) -> None:
    """_require_positive on v† M^-1 v for v = v_R, v_SR, v_S in turn, as
    many as are given, with M named by `through`."""
    for name, norm in zip(("v_R", "v_SR", "v_S"), norms):
        _require_positive(f"{name}† {through}^-1 {name}", norm)


def _abs2(x: np.ndarray) -> np.ndarray:
    return x.real * x.real + x.imag * x.imag


def _residual_logdet(h: np.ndarray, alphas,
                     at: np.ndarray | None = None) -> np.ndarray:
    """log det(I_3 + T† H T) for the residual columns at amplitudes alphas.

    Elementwise LDL of the 3x3 Hermitian matrix A = I_3 + T† H T on (T,)
    arrays: three real pivots, each >= 1 in exact arithmetic.  at maps the
    stack's positions to batch positions, as in _require_positive.
    """
    def col(k, row):  # (H t_k)[row]
        cell, steer = _COLS[k]
        return h[row, cell] - alphas[k] * h[row, steer]

    def entry(i, k):  # t_i† H t_k
        cell, steer = _COLS[i]
        return col(k, cell) - np.conj(alphas[i]) * col(k, steer)

    d0 = 1.0 + entry(0, 0).real
    a10, a20 = entry(1, 0), entry(2, 0)
    d1 = 1.0 + entry(1, 1).real - _abs2(a10) / d0
    a21 = entry(2, 1) - a20 * np.conj(a10) / d0
    d2 = 1.0 + entry(2, 2).real - _abs2(a20) / d0 - _abs2(a21) / d1
    _require_positive("residual capacitance", d0, d1, d2, at=at)
    return np.log(d0) + np.log(d1) + np.log(d2)


def _plugin_start(h: np.ndarray, at: np.ndarray | None = None,
                  ) -> tuple[list[np.ndarray], np.ndarray]:
    """Amplitudes h[s, c] / h[s, s] through S_{n,m} and the residual log det
    there: the a-glrt statistic's log det and the cyclic ascent's start."""
    alphas = [h[steer, cell] / h[steer, steer].real for cell, steer in _COLS]
    return alphas, _residual_logdet(h, alphas, at)


def _ascent_step(h: np.ndarray, alphas: list[np.ndarray], k: int,
                 active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One coordinate update: amplitude k maximizes the likelihood with the
    other two residual columns t_j, t_l held fixed.

    With P = H [t_j, t_l] and the 2x2 capacitance C = I_2 + [t_j, t_l]† P,
    Woodbury gives the three entries of Hc = H - P C^-1 P† that the update
    needs; alpha_k = Hc[s, c] / Hc[s, s].  By the determinant lemma the log
    det(I_3 + T† H T) at the new amplitudes is
    log det C + log(1 + Hc[c, c] - |Hc[s, c]|^2 / Hc[s, s]).

    active holds the batch positions of the trials in h.  Returns
    (alpha_k, log det after the update), both (T,).
    """
    j, l = [i for i in range(3) if i != k]
    (cj, sj), (cl, sl), (ck, sk) = _COLS[j], _COLS[l], _COLS[k]
    aj, al = alphas[j], alphas[l]
    pj = {row: h[row, cj] - aj * h[row, sj] for row in (cj, sj, ck, sk)}
    pl = {row: h[row, cl] - al * h[row, sl] for row in (cj, sj, cl, sl, ck, sk)}
    c00 = 1.0 + (pj[cj] - np.conj(aj) * pj[sj]).real
    c11 = 1.0 + (pl[cl] - np.conj(al) * pl[sl]).real
    c01 = pl[cj] - np.conj(aj) * pl[sj]
    det_c = c00 * c11 - _abs2(c01)

    def downdate(row):
        # det C * (C^-1 P†)[:, row], as its two components.
        pj_c, pl_c = np.conj(pj[row]), np.conj(pl[row])
        return (c11 * pj_c - c01 * pl_c, c00 * pl_c - np.conj(c01) * pj_c)

    wc0, wc1 = downdate(ck)
    ws0, ws1 = downdate(sk)
    hc_sc = h[sk, ck] - (pj[sk] * wc0 + pl[sk] * wc1) / det_c
    hc_ss = h[sk, sk].real - (pj[sk] * ws0 + pl[sk] * ws1).real / det_c
    hc_cc = h[ck, ck].real - (pj[ck] * wc0 + pl[ck] * wc1).real / det_c
    alpha = hc_sc / hc_ss
    schur = hc_cc - _abs2(hc_sc) / hc_ss
    _require_positive("ascent capacitance", det_c, 1.0 + schur, at=active)
    return alpha, np.log(det_c) + np.log1p(schur)


def _cyclic_batch(
    h: np.ndarray,
    start: tuple[list[np.ndarray], np.ndarray],
    k_tot: int,
    cfg: CGlrtConfig,
    collect_trace: bool = False,
    at: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Cyclic amplitude ascent for one pair across a stack of trials.

    h is the (6, 6, T) pair workspace and start the amplitudes and log det
    from _plugin_start.  Returns (ld_res, iterations, update_lds).  ld_res
    is log det(S_{n,m} + residual scatter) - log det(S_{n,m}) at the final
    amplitudes.  With collect_trace the loop runs all cfg.h_max iterations
    (no early stop) and also records the log det after every coordinate
    update, which is what the convergence experiment consumes.  at maps
    the stack's positions to the batch positions that errors name.
    """
    alphas, ld_prev = list(start[0]), start[1]
    t_len = ld_prev.shape[0]
    cell_max = np.maximum(np.maximum(h[_Z1, _Z1].real, h[_ZN, _ZN].real),
                          h[_ZM, _ZM].real)
    slack = MONOTONE_SLACK * np.maximum(1.0, cell_max)
    update_lds = None
    if collect_trace:
        update_lds = np.zeros((t_len, 3 * cfg.h_max + 1))
        update_lds[:, 0] = ld_prev

    ld_final = np.empty(t_len)
    iters = np.zeros(t_len, dtype=np.int64)
    active = np.arange(t_len)
    for it in range(1, cfg.h_max + 1):
        where = active if at is None else at[active]
        for k in range(3):
            alphas[k], ld_h = _ascent_step(h, alphas, k, where)
            if collect_trace:
                update_lds[:, 3 * (it - 1) + k + 1] = ld_h
        gain = np.expm1(k_tot * (ld_prev - ld_h))
        if np.any(gain < -slack):
            raise NonMonotonic("likelihood decreased during cyclic ascent",
                               positions=where[gain < -slack])
        # A traced run retires no trial before h_max, so its arrays stay
        # aligned with the trace columns.
        done = np.full(gain.shape, it == cfg.h_max)
        if not collect_trace:
            done |= gain < cfg.epsilon
        ld_final[active[done]] = ld_h[done]
        iters[active[done]] = it
        if done.all():
            break
        if done.any():
            keep = ~done
            active, h, slack = active[keep], h[:, :, keep], slack[keep]
            alphas = [a[keep] for a in alphas]
            ld_h = ld_h[keep]
        ld_prev = ld_h
    return ld_final, iters, update_lds


@_quiet
def c_glrt_gain_trace(
    z_p: np.ndarray | WhitenedChunk,
    r: np.ndarray | None,
    steering: SteeringSet,
    pairs: tuple[int, int] | Sequence[tuple[int, int]],
    cfg: CGlrtConfig = CGlrtConfig(),
) -> tuple[np.ndarray, np.ndarray] | list[tuple[np.ndarray, np.ndarray]]:
    """Per-iteration relative gains of the cyclic ascent at fixed pairs.

    Runs all cfg.h_max iterations (no early stop) over a stack of trials,
    given as z_p and r are to batch_evaluate, at one pair (n, m) or at
    each of a sequence of pairs.  All pairs share
    one whitened Gram workspace, and each is traced from its own pair
    state, so a pair's trace is the same bit for bit whichever pairs share
    the call.

    Returns, for one pair, (gains, update_lds), and for a sequence of
    pairs, a list of them in pair order:
        gains: (T, h_max) relative likelihood gains per iteration.
        update_lds: (T, 3 h_max + 1) log dets after every coordinate update,
            starting from the initialization.

    Raises:
        ValueError: unless 1 < n < m <= K_P for every pair (n, m).
        NotPositiveDefinite, NonMonotonic: a failure in one pair's trace
            names the pair, and keeps the positions of the failing trials.
    """
    one = len(pairs) > 0 and np.ndim(pairs[0]) == 0
    pairs = [(int(n), int(m)) for n, m in ([pairs] if one else pairs)]
    k_p = z_p.k_p if isinstance(z_p, WhitenedChunk) else z_p.shape[2]
    for n, m in pairs:
        if not 1 < n < m <= k_p:
            raise ValueError(f"pair {(n, m)} must satisfy "
                             f"1 < n < m <= K_P = {k_p}")
    ws = _GramWorkspace(z_p, r, steering, None)
    traces = []
    for n, m in pairs:
        try:
            h, _, _ = ws.pair_state(n, m)
            _, _, update_lds = _cyclic_batch(
                h, _plugin_start(h), ws.k_tot, cfg, collect_trace=True)
        except (NotPositiveDefinite, NonMonotonic) as err:
            raise type(err)(f"{err} at pair {(n, m)}",
                            positions=err.positions) from err
        # The gain of each iteration, as the ascent loop computes it.
        gains = np.expm1(
            ws.k_tot * (update_lds[:, :-1:3] - update_lds[:, 3::3]))
        traces.append((gains, update_lds))
    return traces[0] if one else traces


@_quiet
def bounded_cfar_bounds(
    z_p: np.ndarray | WhitenedChunk, r: np.ndarray | None,
    steering: SteeringSet
) -> tuple[np.ndarray, np.ndarray]:
    """Structure-invariant upper bounds on the window statistics, per trial,
    of trials given as z_p and r are to batch_evaluate.

    Returns (det_ratio_bound, km1_bound): the det-ratio detectors never
    exceed max_{n,m} det(S_P + S_S)/det(S_{n,m}); the variant-1 known-M
    detector never exceeds z_1† S_S^-1 z_1 + max pair sum of cell energies.
    """
    ws = _GramWorkspace(z_p, r, steering)
    # log det of each pair capacitance: its pivots read only the rows of
    # the cells outside the pair, so no workspace entry is formed.
    ld_ex = [_ldl_schur(ws.g, ws.pair_rows(n, m)[0], [], "pair capacitance")[0]
             for n, m in ws.pairs]
    n, m = ws.pairs.T
    det_bound = np.exp(ws.ld_num_rel - np.min(ld_ex, axis=0))
    km1_bound = ws.cell_energy[0] + np.max(
        ws.cell_energy[n - 1] + ws.cell_energy[m - 1], axis=0)
    return det_bound, km1_bound


def _steering_basis(steering: SteeringSet) -> tuple[int, ...] | None:
    """Positions (0 v_R, 1 v_SR, 2 v_S) of steering vectors that span the
    set: v_R, then v_S and v_SR each where it leaves the span of those
    before it.

    A vector leaves the span when its residual after projection onto it
    exceeds _SPAN_OUT of its norm and stays inside below _SPAN_IN.  None
    when one lies between the two, or a norm is not positive and finite:
    no bound is then taken.
    """
    vecs = (steering.v_r, steering.v_sr, steering.v_s)
    basis, q = [], []
    for pos in (0, 2, 1):
        v = np.asarray(vecs[pos], dtype=np.complex128)
        peak = np.abs(v).max()
        if not 0.0 < peak < np.inf:
            return None
        res = v / peak
        res = res / np.linalg.norm(res)
        for _ in range(2):  # Gram-Schmidt, repeated once for accuracy
            for b in q:
                res = res - np.vdot(b, res) * b
        size = np.linalg.norm(res)
        if size > _SPAN_OUT:
            basis.append(pos)
            q.append(res / size)
        elif size >= _SPAN_IN:
            return None
    return tuple(sorted(basis))


def _stacked_det_ratio(ws: _GramWorkspace, p: np.ndarray, t: np.ndarray,
                       kinds: list[DetectorKind], cfg: CGlrtConfig,
                       vals: dict[DetectorKind, np.ndarray],
                       ascents: np.ndarray, ceiling: np.ndarray) -> None:
    """ep-glrt-ka, a-glrt and c-glrt, those of them in kinds, at the
    entries (pair p[i], trial t[i]) in one stack, into vals[kind][p, t] and
    the c-glrt iterations into ascents[t, p]; errors name the batch
    positions t.

    Each entry's Gram rows, in its pair's [ex, sel] order, go through one
    LDL that forms every entry's (6, 6) pair workspace h with the
    operations of pair_state, so every value is the same bit for bit
    whichever entries share the stack.  Each statistic is exp(ld_rel -
    ld_res), ld_rel = log det(S_P + S_S) - log det(S_{n,m}) and ld_res the
    residual log det at the kind's amplitudes.  The ascent runs where the
    a-glrt log statistic ld_rel - ld_res(start) is at most `ceiling`;
    elsewhere c-glrt keeps its start, the a-glrt value, with 0 iterations.
    """
    k_g, n_ex = ws.k_p + 3, ws.k_p - 3
    rows = np.array([[*ex, *sel] for ex, sel in
                     (ws.pair_rows(n, m) for n, m in ws.pairs)])[p].T
    # The LDL reads the upper triangle only: one take from g per row.
    base, col = rows * (k_g * ws.t) + t, rows * ws.t
    stack = np.empty((k_g, k_g, p.size), dtype=np.complex128)
    for i in range(k_g):
        np.take(ws.g.ravel(), base[i] + col[i:], out=stack[i, i:])
    ld_ex, blocks = _ldl_schur(stack, list(range(n_ex)),
                               list(range(n_ex, k_g)), "pair capacitance")
    # The gathered rows and the LDL's entries are freed before the ascent,
    # which sets the stack's peak.
    del stack
    h = _hermitian(blocks, 6)
    del blocks
    n, m = ws.pairs[p].T
    ld_rel = ws.ld_num_rel[t] - ld_ex
    if DetectorKind.EP_GLRT_KA in kinds:
        alphas = [ws.alpha_ss[0, 0, t], ws.alpha_ss[1, n - 1, t],
                  ws.alpha_ss[2, m - 1, t]]
        vals[DetectorKind.EP_GLRT_KA][p, t] = np.exp(
            ld_rel - _residual_logdet(h, alphas, t))
    if DetectorKind.A_GLRT in kinds or DetectorKind.C_GLRT in kinds:
        start = _plugin_start(h, t)
    if DetectorKind.A_GLRT in kinds:
        vals[DetectorKind.A_GLRT][p, t] = np.exp(ld_rel - start[1])
    if DetectorKind.C_GLRT in kinds:
        ld_res = start[1].copy()
        iters = np.zeros(ld_res.shape, dtype=np.int64)
        run = np.flatnonzero(ld_rel - start[1] <= ceiling)
        if run.size:
            ld_res[run], iters[run], _ = _cyclic_batch(
                h[:, :, run], ([a[run] for a in start[0]], start[1][run]),
                ws.k_tot, cfg, at=t[run])
        vals[DetectorKind.C_GLRT][p, t] = np.exp(ld_rel - ld_res)
        ascents[t, p] = iters


@_quiet
def batch_evaluate(
    z_p: np.ndarray | WhitenedChunk,
    r: np.ndarray | None,
    steering: SteeringSet,
    kinds: tuple[DetectorKind, ...] | list[DetectorKind],
    cfg: CGlrtConfig = CGlrtConfig(),
    baseline_cell: int = 1,
    cut: int | Mapping[DetectorKind, float] | None = None,
) -> dict[DetectorKind, BatchResult]:
    """Evaluate detectors over stacked trials.

    Args:
        z_p: window cells, shape (T, N, K_P); or a WhitenedChunk, whose
            trials are then tested at the point (r, steering).
        r: training vectors, shape (T, N, K_S); with a WhitenedChunk, the
            whitened mean (N, K_P) added to its cells, or None.
        kinds: detectors to evaluate; window detectors share all per-pair work.
        baseline_cell: 1-based window cell fed to Kelly/AMF (steering v_R).
        cut: what the caller keeps of the det-ratio statistics (ep-glrt-ka,
            a-glrt, c-glrt).  An int k keeps each one's k largest: those
            are exact, and every other value is below the k-th largest.  A
            mapping kind -> eta keeps whether each exceeds its eta, which
            every value tells exactly.  None keeps each trial's maximum
            and its first-max pair exact.

    Returns:
        kind -> BatchResult with (T,) statistic arrays; window detectors also
        carry the maximizing pair, the cyclic detector its iteration counts
        at that pair and at every pair (ascents, 0 where none ran).  Under
        a cut the pair and the counts are those of the pairs evaluated
        exactly.
    """
    _warn_if_degenerate_steering(steering)
    kinds = tuple(kinds)
    ratio_kinds = [k for k in kinds if k in DET_RATIO_KINDS]
    basis = _steering_basis(steering) if ratio_kinds else None
    ws = _GramWorkspace(z_p, r, steering,
                        (basis or ()) if ratio_kinds else None)
    t_len, k_p = ws.t, ws.k_p
    out: dict[DetectorKind, BatchResult] = {}

    if DetectorKind.KELLY in kinds or DetectorKind.AMF in kinds:
        c = baseline_cell - 1
        if not 0 <= c < k_p:
            raise ValueError(f"baseline cell {baseline_cell} outside window")
        den_v = ws.steer_norms[0]
        _require_steering_norms("S_S", den_v)
        num = np.abs(ws.g[ws.iu[0], c]) ** 2
        if DetectorKind.AMF in kinds:
            out[DetectorKind.AMF] = BatchResult(statistic=num / den_v)
        if DetectorKind.KELLY in kinds:
            out[DetectorKind.KELLY] = BatchResult(
                statistic=num / (den_v * (1.0 + ws.cell_energy[c])))

    window_kinds = [k for k in kinds if k in PROPOSED_KINDS]
    if not window_kinds:
        return out

    # Each window detector's statistic at every (pair, trial), -inf where
    # the rule left it unevaluated, and the c-glrt iterations at every
    # (trial, pair), 0 where no ascent ran.
    n_pairs = len(ws.pairs)
    vals = {kind: np.full((n_pairs, t_len), -np.inf) for kind in window_kinds}
    ascents = np.zeros((t_len, n_pairs), dtype=np.int64)
    if DetectorKind.EP_GLRT_KM_1 in window_kinds:
        _require_steering_norms("S_S", *ws.steer_norms)
        n, m = ws.pairs.T
        vals[DetectorKind.EP_GLRT_KM_1] = (ws.km1_terms[0, 0]
                                           + ws.km1_terms[1, n - 1]
                                           + ws.km1_terms[2, m - 1])

    km_2 = DetectorKind.EP_GLRT_KM_2 in window_kinds
    # The bound reads the basis block of each pair workspace, and km-2 its
    # three matched-filter entries and steering norms: the pair LDL forms
    # no other entry.  A steering set with no basis bounds no entry.
    upper, bound = [], np.full((n_pairs, t_len), np.inf)
    if basis is not None:
        rows = [_UR + b for b in basis]
        upper = [(i, j) for a, i in enumerate(rows) for j in rows[a:]]
        ld_basis = _logdet(ws.basis_gram, len(basis),
                           "steering Gram through S_S + S_P")
    if km_2:
        upper += [e for e in ((_Z1, _UR), (_ZN, _USR), (_ZM, _US),
                              (_UR, _UR), (_USR, _USR), (_US, _US))
                  if e not in upper]

    for p, (n, m) in enumerate(ws.pairs if upper else ()):
        _, h = _ldl_schur(ws.g, *ws.pair_rows(n, m), "pair capacitance",
                          upper)
        if basis is not None:
            bound[p] = _logdet(
                {(a, b): h[rows[a], rows[b]] for a in range(len(rows))
                 for b in range(a, len(rows))}, len(rows),
                "steering Gram through S_{n,m}") - ld_basis
        if km_2:
            norms = [h[s, s].real for s in (_UR, _USR, _US)]
            _require_steering_norms("S_{n,m}", *norms)
            vals[DetectorKind.EP_GLRT_KM_2][p] = (
                np.abs(h[_Z1, _UR]) ** 2 / norms[0]
                + np.abs(h[_ZN, _USR]) ** 2 / norms[1]
                + np.abs(h[_ZM, _US]) ** 2 / norms[2])
    if ratio_kinds:
        _evaluate_det_ratio(ws, bound, cut, ratio_kinds, cfg, vals, ascents)

    for kind in window_kinds:
        out[kind] = _first_max(kind, vals[kind], ascents, ws.pairs)
    return out


def _first_max(kind: DetectorKind, vals: np.ndarray, ascents: np.ndarray,
               pairs: np.ndarray) -> BatchResult:
    """A window kind's result from its (pairs, T) statistics: each trial's
    first maximum over the pairs, in candidate_pairs order, and its pair;
    for c-glrt also the iterations there and the (T, pairs) ascents.  A
    trial with no evaluated pair (all -inf) keeps -inf at pair (0, 0)."""
    trials = np.arange(vals.shape[1])
    best = vals.argmax(axis=0)
    stat = vals[best, trials]
    n_hat, m_hat = np.where(stat > -np.inf, pairs[best].T, 0)
    if kind is not DetectorKind.C_GLRT:
        return BatchResult(stat, n_hat, m_hat)
    # An unevaluated entry ran no ascent: its iterations read 0.
    return BatchResult(stat, n_hat, m_hat, ascents[trials, best], ascents)


def _evaluate_det_ratio(ws: _GramWorkspace, bound: np.ndarray,
                        cut: int | Mapping[DetectorKind, float] | None,
                        kinds: list[DetectorKind], cfg: CGlrtConfig,
                        vals: dict[DetectorKind, np.ndarray],
                        ascents: np.ndarray) -> None:
    """Fill vals[kind][p, t] exactly at every (pair, trial) that can reach
    what the caller keeps, and the c-glrt ascents there; every other entry
    stays -inf, or for c-glrt the a-glrt value where that was formed.

    bound[p, t] is pair p's log bound U; U + margin, the entry's floor, is
    above each det-ratio log statistic.  Pass 1 evaluates each trial's
    entry of largest bound: in every trial without a cut, under a top-k cut
    in the 4k trials of largest bound, whose k-th largest values set each
    kind's cut, and under a threshold cut where its floor reaches some eta.
    Pass 2 evaluates every other entry whose floor is >= max(the kind's
    cut, the trial's pass-1 value) for some kind.  A kind whose eta the
    trial exceeds after pass 1 gets the level +inf, which only a floor of
    +inf (a steering set with no basis) reaches.  The ascent runs only
    where c-glrt needs the entry, and under a threshold cut not where
    a-glrt already exceeds eta by the margin.
    """
    margin = ((cfg.h_max + 1) * MONOTONE_SLACK
              * np.maximum(1.0, ws.cell_energy.max(axis=0)))
    floor = bound + margin
    etas = cut if isinstance(cut, Mapping) else None
    top = None if etas is not None else cut
    if top is not None and top < 1:
        raise ValueError(f"a top-k cut needs k >= 1, got {top}")
    log_cut = {kind: math.log(etas[kind]) if etas and etas.get(kind, 0) > 0
               else -np.inf for kind in kinds}
    c_cut = log_cut.get(DetectorKind.C_GLRT, -np.inf)
    above = np.full(ws.t, np.inf) if c_cut == -np.inf else c_cut + margin
    # Stacks of at most half the trials keep the workspaces below a
    # (6, 6, T) pair workspace, however many entries are evaluated: a stack
    # also gathers its Gram rows and copies its workspace for the ascent.
    size = max(1, ws.t // 2)

    def evaluate(p_idx, t_idx, c_level):
        ceiling = np.where(floor[p_idx, t_idx] >= c_level, above[t_idx],
                           -np.inf)
        for s in range(0, p_idx.size, size):
            part = slice(s, s + size)
            _stacked_det_ratio(ws, p_idx[part], t_idx[part], kinds, cfg, vals,
                               ascents, ceiling[part])

    t1 = np.arange(ws.t)
    if top is not None:
        t1 = np.sort(np.argsort(bound.max(axis=0), kind="stable")[-4 * top:])
    p1 = bound[:, t1].argmax(axis=0)
    reach = floor[p1, t1] >= min(log_cut.values())
    p1, t1 = p1[reach], t1[reach]
    evaluate(p1, t1, c_cut)
    # The level each entry's floor must reach, per kind and trial.
    level = {}
    for kind in kinds:
        first = vals[kind][p1, t1]
        if top is not None and ws.t >= top:
            log_cut[kind] = np.log(np.partition(first, -top)[-top])
        level[kind] = np.full(ws.t, log_cut[kind])
        level[kind][t1] = np.maximum(log_cut[kind], np.log(first))
        if etas is not None:
            level[kind][t1[first > etas.get(kind, 0.0)]] = np.inf
    # An evaluated statistic is an exp, never -inf.
    todo = (vals[kinds[0]] == -np.inf) & np.logical_or.reduce(
        [floor >= level[kind] for kind in kinds])
    p2, t2 = np.nonzero(todo)
    evaluate(p2, t2, level.get(DetectorKind.C_GLRT, above)[t2])
