"""Sampling densities over rows or blocks of the composite operator.

The adapted density weights each row/block k by
max{ ||B_k D_w B_k*||_2,2 , ||B_k* B_k||_inf,1 } and normalises; for
isolated rows the two terms reduce to a_k D_w a_k* and ||a_k||_inf^2.
Baseline densities (uniform, coherence, polynomial decay) are provided
for comparison experiments.

Coefficients with zero weight can never enter a support, so the
sup-norm term is always evaluated with those columns removed; this is
what makes the identity operator's density uniform on the set of
positive weights.

Every density (adapted, and coherence as the sup term at all-ones
weights) reads its terms from one routine, `block_norm_terms`, which picks
a path from the operator and from each block's indices:

- singletons go to `isolated_terms`.  With energy classes
  (`transforms.energy_classes`: DFT with any wavelet, Hadamard with Haar)
  one forward transform per subband gives every row's terms in
  O(subbands * K log K); other operators take the dense path on the
  singleton blocks, O(K^2);
- on a separable operator A0 = phi (x) phi a whole grid column or row
  takes both terms in closed form from phi;
- every other block takes the dense path, `_dense_terms`: both norms from
  its extracted rows, the one fallback and the oracle of every closed
  form.  B_k* B_k is positive semidefinite, so its largest entry on the
  positive-weight coefficients is its largest diagonal entry there: the
  sup term is the block's largest column energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidPartition, InvalidSpec, InvalidWeights
from .support_model import WeightVector
from .transforms import (
    Direction,
    Measurement,
    OperatorSpec,
    apply,
    energy_classes,
    rows_batch,
    separable_factor,
    signed_frequencies,
)

_MAX_BLOCK_ROWS = 4096


@dataclass
class Density:
    """Probability vector over rows or blocks plus its normaliser L."""

    pi: np.ndarray
    normalizer: float
    kind: str

    def __post_init__(self) -> None:
        self.pi = np.asarray(self.pi, dtype=float)
        if not np.all(np.isfinite(self.pi)):
            raise InvalidSpec("density entries must be finite")
        if np.any(self.pi < -1e-15):
            raise InvalidSpec("density entries must be nonnegative")
        if abs(self.pi.sum() - 1.0) > 1e-9:
            raise InvalidSpec("density must sum to one")

    def __len__(self) -> int:
        return int(self.pi.size)


@dataclass
class BlockPartition:
    """Disjoint cover of {0..K-1} by measurement blocks.

    `blocks` is a list of index arrays, or a 2D array holding one
    equal-sized block per row, which is validated without a per-block loop.
    """

    blocks: list | np.ndarray
    kind: str

    def __post_init__(self) -> None:
        if isinstance(self.blocks, np.ndarray) and self.blocks.ndim == 2:
            self.blocks = self.blocks.astype(np.int64, copy=False)
            total = self.blocks.ravel()
            all_single = self.blocks.shape[1] == 1
        else:
            self.blocks = [np.asarray(b, dtype=np.int64) for b in self.blocks]
            total = np.concatenate(self.blocks) if self.blocks else np.array([], np.int64)
            all_single = all(b.size == 1 for b in self.blocks)
        k = total.size
        seen = np.zeros(k, dtype=bool)
        if k == 0 or total.min() < 0 or total.max() >= k:
            raise InvalidPartition("blocks must cover exactly {0..K-1}")
        seen[total] = True
        # K indices that reach all K values are also pairwise distinct
        if not seen.all():
            raise InvalidPartition("blocks must be disjoint and cover {0..K-1}")
        # isolated-row code indexes block k as row k
        if self.kind == "singletons" and (
            not all_single or not np.array_equal(total, np.arange(k))
        ):
            raise InvalidPartition("singleton blocks must be [0], [1], ..., [K-1]")
        self.dim = k

    @property
    def m(self) -> int:
        return len(self.blocks)

    @classmethod
    def singletons(cls, k: int) -> "BlockPartition":
        return cls(np.arange(k).reshape(k, 1), kind="singletons")

    @classmethod
    def vertical_lines(cls, side: int) -> "BlockPartition":
        """Grid columns: block k holds flat indices k*side .. (k+1)*side - 1.

        With column-major vectorisation these are the rows phi_k (x) phi of
        a separable operator, i.e. vertical lines of the frequency grid.
        """
        return cls(
            [np.arange(k * side, (k + 1) * side) for k in range(side)],
            kind="vertical_lines",
        )

    @classmethod
    def horizontal_lines(cls, side: int) -> "BlockPartition":
        """Grid rows: block k holds flat indices {k, k+side, k+2*side, ...}."""
        return cls(
            [np.arange(side) * side + k for k in range(side)],
            kind="horizontal_lines",
        )

    @classmethod
    def squares(cls, side: int, block_side: int) -> "BlockPartition":
        if side % block_side != 0:
            raise InvalidPartition("block side must divide the grid side")
        n = side // block_side
        blocks = []
        for bc in range(n):
            for br in range(n):
                rows = br * block_side + np.arange(block_side)
                cols = bc * block_side + np.arange(block_side)
                flat = (cols[:, None] * side + rows[None, :]).ravel()
                blocks.append(np.sort(flat))
        return cls(blocks, kind="squares")


# ----------------------------------------------------------------------
# block norms

def _line_closed_form(phi: np.ndarray, w: np.ndarray) -> np.ndarray:
    """terms[axis, term, line] of the line blocks of A0 = phi (x) phi.

    Grid column c (axis 0) holds the rows phi_c (x) phi: B D_w B* =
    phi diag(v) phi* with v_l = sum_i |phi_{c,i}|^2 W[l, i], of norm max_l v_l
    for a unitary phi (term 0), and B* B = (phi_c* phi_c) (x) I, whose largest entry on
    positive weights is max |phi_{c,i}|^2 over the columns i of W holding a
    positive weight (term 1).  Grid row r (axis 1) swaps the axes of W.
    """
    energy = np.abs(phi) ** 2  # (side, side)
    live = w > 0
    return np.array(
        [
            [(energy @ w.T).max(axis=1), energy[:, live.any(axis=0)].max(axis=1)],
            [(energy @ w).max(axis=1), energy[:, live.any(axis=1)].max(axis=1)],
        ]
    )


def _positive(spec: OperatorSpec, omega: np.ndarray) -> np.ndarray:
    """omega > 0, after checking that omega fits `spec` and has a positive entry."""
    if omega.size != spec.dim:
        raise InvalidWeights("weights do not match the operator dimension")
    positive = omega > 0
    if not positive.any():
        raise InvalidWeights("weights need at least one positive entry")
    return positive


def isolated_terms(spec: OperatorSpec, omega: np.ndarray):
    """Per-row arrays a_k D_w a_k* and max_{l: w_l > 0} |a_{k,l}|^2.

    With energy classes, the column A0 e_l of one representative l per
    class c gives E[c, k] = |a_{k,l}|^2, the same for every l in c; the
    Gram term is then sum_c E[c, k] * (weight of c) and the sup term the
    max of E[c, k] over the classes that hold a positive weight.  Without
    classes every row is a singleton block of `_dense_terms`.
    """
    omega = np.asarray(omega, dtype=float)
    positive = _positive(spec, omega)
    labels = energy_classes(spec)
    if labels is None:
        singletons = np.arange(spec.dim)[:, None]
        return _dense_terms(spec, singletons, WeightVector(omega, float(omega.sum())))
    reps = np.unique(labels, return_index=True)[1]
    slab = np.zeros((reps.size, spec.dim))
    slab[np.arange(reps.size), reps] = 1.0
    energy = np.abs(apply(spec, Direction.FORWARD, slab)) ** 2  # (classes, K)
    class_weight = np.bincount(labels, weights=omega)
    live = np.bincount(labels, weights=positive) > 0
    return class_weight @ energy, energy[live].max(axis=0)


def _normalised(numer: np.ndarray, kind: str) -> Density:
    total = float(numer.sum())
    return Density(numer / total, total, kind=kind)


def adapted_isolated(spec: OperatorSpec, weights: WeightVector) -> Density:
    """Adapted density over isolated rows: pi_k ~ max{a_k D_w a_k*, |a_k|_inf^2}.

    The sup-norm term is restricted to the support of the weights, so
    rows with no energy on possibly-active coefficients get probability
    zero (identity-operator special case).
    """
    return _normalised(np.maximum(*isolated_terms(spec, weights.omega)), "adapted_isolated")


def adapted_blocks(spec: OperatorSpec, partition: BlockPartition, weights: WeightVector) -> Density:
    """Adapted density over measurement blocks, from `block_norm_terms`."""
    return _normalised(np.maximum(*block_norm_terms(spec, partition, weights)), "adapted_blocks")


def _grid_line(idx: np.ndarray, side: int) -> tuple[int, int] | None:
    """(0, c) if block idx is all of grid column c, (1, r) for grid row r, else None."""
    if idx.size == side:
        for axis, line in enumerate((idx // side, idx % side)):
            if np.all(line == line[0]):
                return axis, int(line[0])
    return None


def block_norm_terms(spec: OperatorSpec, partition: BlockPartition, weights: WeightVector):
    """Per-block arrays ||B_k D_w B_k*||_2,2 and ||B_k* B_k||_inf,1.

    The sup term runs over the positive-weight coefficients only; the path
    follows the operator and each block's indices (see the module notes).
    """
    omega = weights.omega
    if partition.dim != spec.dim or omega.size != spec.dim:
        raise InvalidPartition("partition/weights do not match the operator")
    _positive(spec, omega)
    if partition.kind == "singletons":
        return isolated_terms(spec, omega)
    phi = separable_factor(spec)
    if phi is None:
        return _dense_terms(spec, partition.blocks, weights)
    closed = _line_closed_form(phi, weights.matrix())
    terms = np.empty((2, partition.m))
    rest = []
    for k, idx in enumerate(partition.blocks):
        line = _grid_line(idx, spec.side)
        if line is None:
            rest.append(k)
        else:
            terms[:, k] = closed[line[0], :, line[1]]
    if rest:
        terms[:, rest] = _dense_terms(spec, [partition.blocks[k] for k in rest], weights)
    return terms[0], terms[1]


def _dense_terms(spec: OperatorSpec, blocks, weights: WeightVector):
    """Both terms of every block from its extracted rows B_k.

    The one fallback of `block_norm_terms` and the oracle of its closed
    forms.  The Gram term is the largest eigenvalue of B_k D_w B_k*.
    B_k* B_k is positive semidefinite, so |(B*B)_{l,l'}| <= max((B*B)_{l,l},
    (B*B)_{l',l'}): the sup term is the block's largest column energy
    sum_{j in B_k} |a_{j,l}|^2 over the l with w_l > 0.  A 2D array of equal
    blocks runs in stacks of about 2^16 row entries, which keeps the passes
    over a stack in cache; a list runs block by block.
    """
    omega = weights.omega
    live = _positive(spec, omega).astype(float)  # a 0/1 factor: energies are >= 0
    if isinstance(blocks, np.ndarray):
        n = max(1, (1 << 16) // (blocks.shape[1] * spec.dim))
        stacks = [blocks[start : start + n] for start in range(0, len(blocks), n)]
    else:
        stacks = [np.asarray(idx)[None] for idx in blocks]
    gram, sup = [], []
    for stack in stacks:
        if stack.shape[1] > _MAX_BLOCK_ROWS:
            raise InvalidPartition(f"block with {stack.shape[1]} rows exceeds the dense limit")
        mat = rows_batch(spec, stack.ravel()).reshape(stack.shape + (spec.dim,))
        conj = mat.conj()
        gram.append(np.linalg.eigvalsh((mat * omega) @ conj.swapaxes(1, 2))[:, -1])
        sup.append(np.einsum("nbk,nbk,k->nk", mat, conj, live).real.max(axis=1))
    return np.concatenate(gram), np.concatenate(sup)


def baseline_density(
    kind: str,
    spec: OperatorSpec,
    partition: BlockPartition | None = None,
    exponent: float = 2.5,
) -> Density:
    """Uniform, coherence-based or polynomial-decay comparison densities."""
    if partition is None:
        partition = BlockPartition.singletons(spec.dim)
    if kind == "uniform":
        m = partition.m
        return Density(np.full(m, 1.0 / m), float(m), kind="uniform")
    if kind == "coherence":
        ones = WeightVector.from_omega(np.ones(spec.dim))
        return _normalised(block_norm_terms(spec, partition, ones)[1], "coherence")
    if kind == "polynomial":
        if not spec.is_2d or spec.measurement not in (
            Measurement.DFT2D,
            Measurement.HADAMARD2D,
        ):
            raise InvalidSpec("polynomial density needs a 2D frequency grid")
        if partition.kind != "singletons":
            raise InvalidPartition("polynomial density is defined on isolated rows")
        side = spec.side
        f = signed_frequencies(side).astype(float)
        rad2 = f[None, :] ** 2 + f[:, None] ** 2  # [row, col] grid
        rad2[0, 0] = 2.0  # DC takes the value of the (1,1) cell
        return _normalised((rad2 ** (-exponent)).T.ravel(), "polynomial")  # column-major
    raise InvalidSpec(f"unknown baseline density kind {kind!r}")
