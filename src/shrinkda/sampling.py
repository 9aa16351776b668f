"""Per-member random streams and the draws built on them.

Every member has its own counter-based Philox stream: member i of a
stream is the stream's Philox key with the counter advanced by i * 2**128,
so one bit generator serves all members. ``member_normals`` is the one
place where a stream becomes standard normals, so every draw is
reproducible regardless of evaluation order. The normals are numpy's
``Generator.standard_normal`` (the ziggurat method of Marsaglia & Tsang,
J. Stat. Softw. 2000); NEP 19 lets numpy change that sequence between
versions, and the golden test in ``tests/test_sampling.py`` would catch
such a change.
Synthetic members from N(mean, phi * I + delta * S @ S.T) are
mean + sqrt(phi) * eps1 + sqrt(delta) * S @ eps2, with eps1 (length
nstate) and eps2 (length nens) from one member's normals; S meets the
eps2 of a chunk of members in one product, and the covariance matrix and
its square root are never formed.
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
# columns then carry the bits of one whole-block product at the shapes the
# compares run (k = 400 on qg-33 and qg-65, 200 on l96-40). A one-column
# product (GEMV) rounds differently, and so do the trailing columns of some
# whole-block widths (k = 300 and 401 at nstate 961), so at other shapes a
# chunked draw can differ from a whole-block one in the last bit.
SYNTHETIC_CHUNK = 64


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
            raise ValueError("synthetic members contain non-finite entries")
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


def draw_synthetic_members(mean: np.ndarray, cov: ShrinkageCovariance,
                           k: int, rng: RngStream, out: np.ndarray | None = None) -> np.ndarray:
    """Draw k members from N(mean, phi*I + delta*S@S.T) as an (nstate, k) array.

    Member i takes column i of ``member_normals(rng, k, nstate + nens)``:
    eps1 then eps2, so the output does not depend on evaluation order. The
    members are drawn ``SYNTHETIC_CHUNK`` at a time and written into
    ``out`` (an (nstate, k) array, such as the synthetic columns of a
    larger buffer) when it is given, else into a new array.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    mean = np.asarray(mean, dtype=float)
    s = cov.deviations.columns
    if mean.shape[0] != s.shape[0]:
        raise ValueError("mean length must equal nstate")
    nstate, nens = s.shape
    if out is None:
        out = np.empty((nstate, k))
    elif out.shape != (nstate, k):
        raise ValueError("out must be (nstate, k)")
    chunks = np.array_split(np.arange(k), -(-k // SYNTHETIC_CHUNK)) if k else []
    for chunk in chunks:
        first = int(chunk[0])
        eps = member_normals(rng, chunk.size, nstate + nens, first=first)
        draws = s @ eps[nstate:]
        draws *= np.sqrt(cov.delta)
        part1 = eps[:nstate]
        part1 *= np.sqrt(cov.phi)
        part1 += mean[:, None]
        draws += part1
        out[:, first:first + chunk.size] = draws
    return out


def extend_ensemble(real: Ensemble, synthetic) -> ExtendedEnsemble:
    """Concatenate real members and synthetic draws, preserving order.

    A single 1-D draw is taken as one column.
    """
    syn = np.asarray(synthetic, dtype=float)
    return ExtendedEnsemble(real=real, synthetic=syn[:, None] if syn.ndim == 1 else syn)


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
