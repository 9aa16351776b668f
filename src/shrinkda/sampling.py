"""Per-member random streams and the draws built on them.

Every member has its own counter-based Philox stream: member i of a
stream is the stream's Philox key with the counter advanced by i * 2**128,
so one bit generator serves all members. ``member_normals`` is the one
place where a stream becomes standard normals, so every draw is
reproducible regardless of evaluation order; the chi-squares of
``wishart_root`` are the only other variates, from a substream's own
Generator. The normals are numpy's
``Generator.standard_normal`` (the ziggurat method of Marsaglia & Tsang,
J. Stat. Softw. 2000); NEP 19 lets numpy change that sequence between
versions, and the golden test in ``tests/test_sampling.py`` would catch
such a change.
Synthetic members from N(xbar, phi * I + delta * S @ S.T) enter the
shrinkage filters only as deviations from the real mean xbar, so the draw
returns those deviations, sqrt(phi) * eps1 + sqrt(delta) * S @ eps2, with
eps1 (length nstate) and eps2 (length nens) from one member's normals; a
caller that wants the members adds its mean. S meets the eps2 of a chunk
of members in one product, and the covariance matrix and its square root
are never formed. A draw can be restricted to some rows of the state:
each member then takes eps1 on those rows only, nrows + nens normals in
all, and can hand its eps2 to the caller. The full-space filter draws
only the observed rows this way, into the synthetic columns of its
column-major anomaly buffer, checking each chunk for non-finite entries
as it is written, and builds the contribution of the unobserved rows in
closed form (``filters.enkf_fs_analysis``).

The reduced-space filter draws no synthetic member. On each group of
rows it draws the coordinates of the block eps1 in an orthonormal basis
of the group's deviations and data (``group_basis``) as one
``normal_block``, the root of the Gram of the rest (``wishart_root``:
Bartlett's factor or a normal block) and a Haar frame off the basis for
its update (``haar_frame``); see ``filters.enkf_rs_analysis``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import Ensemble
from .shrinkage import ShrinkageCovariance

_U64 = (1 << 64) - 1
# Members drawn per chunk: a chunk's normals are (nstate + nens, about this
# many), not (nstate + nens, k), and np.array_split keeps every chunk at
# least half this wide once k exceeds it. On OpenBLAS the chunks' S @ eps2
# columns of a row-major array then carry the bits of one whole-block
# product at the shapes the compares run (k = 400 on qg-33 and qg-65, 200 on l96-40). A one-column
# product (GEMV) rounds differently, and so do the trailing columns of some
# whole-block widths (k = 300 and 401 at nstate 961), so at other shapes a
# chunked draw can differ from a whole-block one in the last bit.
SYNTHETIC_CHUNK = 64
NON_FINITE_SYNTHETIC = "synthetic members contain non-finite entries"
# Normals per member in ``normal_block``: a 64 KiB draw stays in cache and
# on the heap. One draw of a whole 160k-normal block took 29 ns a normal
# against 18 ns in draws of this size (2 vCPU, numpy 2.4.6), and one
# member per column pays a generator reset for each column.
NORMAL_BLOCK_CHUNK = 8192


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream addressed by (seed, stream_id).

    Identical (seed, stream_id) pairs reproduce identical draw sequences
    bit-for-bit. ``child`` derives a collision-resistant substream for a
    purpose or cycle index; ``member_generators`` hands out one independent
    counter-based generator per member index for a run of indices. A single
    generator must not be shared across threads, but distinct streams may
    run concurrently.
    """

    seed: int
    stream_id: int = 0

    def _seed_sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(entropy=self.seed & _U64,
                                      spawn_key=(self.stream_id & _U64,))

    def child(self, *path: int) -> "RngStream":
        """Derive a substream for the given index path."""
        ss = np.random.SeedSequence(entropy=self.seed & _U64,
                                    spawn_key=(self.stream_id & _U64,)
                                    + tuple(p & _U64 for p in path))
        new_id = int(ss.generate_state(1, np.uint64)[0])
        return RngStream(seed=self.seed, stream_id=new_id)

    def member_generators(self, count: int):
        """Independent generators for members 0..count-1: one Philox seeding,
        then jumped copies, so member i's draws do not depend on count."""
        base = np.random.Philox(seed=self._seed_sequence())
        return (np.random.Generator(base.jumped(i)) for i in range(count))


def standard_normal(gen: np.random.Generator, size) -> np.ndarray:
    """Standard normals from numpy's ziggurat sampler,
    ``gen.standard_normal(size)``. The name is the benchmark's wrap point
    for counting normals.

    Two consecutive calls of n1 and n2 give the n1 + n2 normals of one
    call: the synthetic draw takes eps1 and eps2 of a member in one call,
    and the validation suite takes them in two.
    """
    return gen.standard_normal(size)


def member_normals(rng: RngStream, count: int, size: int, first: int = 0) -> np.ndarray:
    """An F-ordered (size, count) block of standard normals whose column i
    is ``standard_normal`` of member generator ``first + i`` of ``rng``.

    One Philox is rewound to the stream's start and advanced j * 2**128
    for member j, which is what ``Philox.jumped(j)`` does without building
    (and entropy-seeding) a new bit generator per member.
    """
    out = np.empty((size, count), order="F")
    bitgen = np.random.Philox(seed=rng._seed_sequence())
    gen = np.random.Generator(bitgen)
    start = bitgen.state
    for i in range(count):
        bitgen.state = start
        bitgen.advance((first + i) << 128)
        out[:, i] = standard_normal(gen, size)
    return out


def normal_block(rng: RngStream, nrows: int, ncols: int) -> np.ndarray:
    """An F-ordered (nrows, ncols) block of standard normals: in column-major
    order, the draws of ``NORMAL_BLOCK_CHUNK`` normals of members 0, 1, ...
    of ``rng`` (``member_normals``), cut to size."""
    size = nrows * ncols
    draws = member_normals(rng, -(-size // NORMAL_BLOCK_CHUNK), NORMAL_BLOCK_CHUNK)
    return draws.ravel(order="F")[:size].reshape((nrows, ncols), order="F")


@dataclass(frozen=True)
class ExtendedEnsemble:
    """Real members plus synthetic draws, nk = nens + k columns in total.

    Deviations are always taken about the mean of the real members; the
    synthetic draws are centered there by construction. The synthetic
    float array is frozen in place (made read-only), not copied.
    """

    real: Ensemble
    synthetic: np.ndarray

    def __post_init__(self):
        syn = np.asarray(self.synthetic, dtype=float)
        if syn.size == 0:
            syn = np.zeros((self.real.nstate, 0))
        if syn.ndim != 2 or syn.shape[0] != self.real.nstate:
            raise ValueError("synthetic members must be (nstate, k)")
        if not np.all(np.isfinite(syn)):
            raise ValueError(NON_FINITE_SYNTHETIC)
        syn.flags.writeable = False
        object.__setattr__(self, "synthetic", syn)

    @property
    def nk(self) -> int:
        return self.real.nens + self.synthetic.shape[1]

    def anomalies(self) -> np.ndarray:
        """Unscaled anomalies about the real-member mean, (nstate, nk), real first."""
        real = self.real.matrix
        mean = real.mean(axis=1)[:, None]
        out = np.empty((self.real.nstate, self.nk))
        np.subtract(real, mean, out=out[:, :self.real.nens])
        np.subtract(self.synthetic, mean, out=out[:, self.real.nens:])
        return out

    def scaled_deviations(self) -> np.ndarray:
        """Anomalies about the real mean scaled by 1/sqrt(nk - 1)."""
        if self.nk < 2:
            raise ValueError("degenerate ensemble")
        return self.anomalies() / np.sqrt(self.nk - 1)


def draw_synthetic_members(cov: ShrinkageCovariance, k: int, rng: RngStream,
                           out: np.ndarray | None = None, *, rows: np.ndarray | None = None,
                           eps2: np.ndarray | None = None) -> np.ndarray:
    """Draw k deviations from N(0, phi*I + delta*S@S.T) as an (nrows, k) array.

    Member i takes column i of ``member_normals(rng, k, nrows + nens)``:
    eps1 then eps2, so the output does not depend on evaluation order.
    ``rows`` (state indices) restricts the draw to those rows of the
    members, with eps1 drawn on them alone; the default is every row,
    nrows = nstate. The members are drawn ``SYNTHETIC_CHUNK`` at a time and
    written into ``out`` (an (nrows, k) array, such as the synthetic
    columns of a larger column-major buffer) when it is given, else into a
    new row-major array; each chunk is checked for non-finite entries
    while it is in cache, and one raises ``ValueError``. BLAS rounds the
    product S @ eps2 differently into row-major and column-major columns,
    so the two layouts agree to rounding, not bit for bit.
    ``eps2``, an (nens, k) array, receives each member's eps2 when given.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    s = cov.deviations.columns if rows is None else cov.deviations.columns[rows]
    nrows, nens = s.shape
    if out is None:
        out = np.empty((nrows, k))
    elif out.shape != (nrows, k):
        raise ValueError("out must be (nrows, k)")
    if eps2 is not None and eps2.shape != (nens, k):
        raise ValueError("eps2 must be (nens, k)")
    chunks = np.array_split(np.arange(k), -(-k // SYNTHETIC_CHUNK)) if k else []
    for chunk in chunks:
        cols = slice(int(chunk[0]), int(chunk[0]) + chunk.size)
        eps = member_normals(rng, chunk.size, nrows + nens, first=cols.start)
        if eps2 is not None:
            eps2[:, cols] = eps[nrows:]
        draws = np.matmul(s, eps[nrows:], out=out[:, cols])
        draws *= np.sqrt(cov.delta)
        part1 = eps[:nrows]
        part1 *= np.sqrt(cov.phi)
        draws += part1
        # min and max are nan or inf when an entry is, and form no boolean
        # temporary: an isfinite mask per chunk raised the peak RSS of a
        # 7-filter qg-33 compare from 50.8 to 52.4 MiB through heap layout
        if not (np.isfinite(draws.min()) and np.isfinite(draws.max())):
            raise ValueError(NON_FINITE_SYNTHETIC)
    return out


def extend_ensemble(real: Ensemble, synthetic) -> ExtendedEnsemble:
    """Concatenate real members and synthetic draws, preserving order.

    A single 1-D draw is taken as one column.
    """
    syn = np.asarray(synthetic, dtype=float)
    return ExtendedEnsemble(real=real, synthetic=syn[:, None] if syn.ndim == 1 else syn)


def group_basis(columns: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the span of ``columns``, an (nrows, rank) array.

    Each column is divided by its largest |entry| (a zero column is left
    zero), so the Gram of the scaled columns is at most nrows entrywise and
    does not depend on the columns' scales. Its eigenvectors with
    eigenvalues above ncols * eps times the largest give the basis, and one
    more pass orthonormalises it by the Cholesky factor of its own Gram,
    which removes the first pass's loss of orthogonality (eps times the
    squared condition number of the kept directions, below 1 / ncols). A
    direction whose scaled singular value is below about sqrt(ncols * eps)
    of the largest is dropped, as rounding; all-zero columns give an
    (nrows, 0) basis. Cheaper than ``np.linalg.qr`` for tall blocks of a
    few dozen columns.
    """
    peak = np.maximum(columns.max(axis=0, initial=0.0), -columns.min(axis=0, initial=0.0))
    scaled = columns / np.where(peak > 0.0, peak, 1.0)
    lam, vec = np.linalg.eigh(scaled.T @ scaled)
    if not lam.size or lam[-1] <= 0.0:
        return np.empty((columns.shape[0], 0))
    keep = lam > columns.shape[1] * np.finfo(float).eps * lam[-1]
    basis = scaled @ (vec[:, keep] / np.sqrt(lam[keep]))
    lower = np.linalg.cholesky(basis.T @ basis)
    return basis @ np.linalg.inv(lower).T


def wishart_root(rng: RngStream, nu: int, k: int) -> np.ndarray:
    """A (min(nu, k), k) matrix R whose Gram R.T @ R is Wishart_k(nu, I).

    nu >= k: Bartlett's upper triangular factor (Smith & Hocking, Appl.
    Stat. 21, 1972), with sqrt(chi^2(nu - i)) on diagonal i and standard
    normals above it: k(k - 1)/2 normals, one :func:`normal_block` column
    filled row by row, and k chi-squares from the Generator of substream
    ``rng.child(1)``. nu < k: the (nu, k) :func:`normal_block` itself.
    """
    if nu < k:
        return normal_block(rng, nu, k)
    root = np.zeros((k, k))
    upper = normal_block(rng, k * (k - 1) // 2, 1)[:, 0]
    start = 0
    for i in range(k - 1):
        root[i, i + 1:] = upper[start:start + k - 1 - i]
        start += k - 1 - i
    chi = np.random.Generator(np.random.Philox(seed=rng.child(1)._seed_sequence()))
    root[np.diag_indices(k)] = np.sqrt(chi.chisquare(nu - np.arange(k)))
    return root


def haar_frame(rng: RngStream, basis: np.ndarray, r: int) -> np.ndarray:
    """r orthonormal columns orthogonal to ``basis`` (orthonormal columns),
    Haar distributed on the complement of its span: the polar factor of an
    (nrows, r) :func:`normal_block` projected off the basis. The complement
    must have dimension r or more.
    """
    block = normal_block(rng, basis.shape[0], r)
    block -= basis @ (basis.T @ block)
    lam, vec = np.linalg.eigh(block.T @ block)
    return block @ ((vec / np.sqrt(lam)) @ vec.T)


def perturb_observations(y: np.ndarray, obs, n: int, rng: RngStream) -> np.ndarray:
    """n perturbed copies of the observation vector, one per column.

    Column i is y + sqrt(R) @ eta_i with eta_i standard normal and R the
    diagonal observation error covariance from ``obs``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    y = np.asarray(y, dtype=float)
    std = np.sqrt(obs.variances)
    if y.shape[0] != std.shape[0]:
        raise ValueError("observation vector length must match the variances")
    return y[:, None] + std[:, None] * member_normals(rng, n, y.shape[0])
