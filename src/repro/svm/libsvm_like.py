"""LibSVM-like baseline classifier (the paper's Section 3.2 / 3.3.3 foil).

A faithful algorithmic port of the pieces of LibSVM that FCMA's baseline
exercised, including the traits the paper identifies as performance
problems on the coprocessor:

* **Sparse node storage**: samples are stored as (index, value) node
  arrays even when dense, exactly like ``svm_node`` — "it stores data in
  sparse index set instead of dense matrix".
* **Double precision** in all numeric loops — "uses double precision
  values in the computationally intensive loops", with input data
  converted from float32 ("unnecessary data type conversions").
* **On-demand kernel rows through an LRU cache** (LibSVM's kernel cache)
  when training from raw features, or a precomputed kernel matrix (the
  ``-t 4`` mode FCMA's baseline used after its ``ssyrk`` precompute).
* **Second-order working-set selection** (WSS 2) — LibSVM's default.
* **Shrinking** (LibSVM's ``-h 1``, on by default): bounded variables
  are periodically dropped from the working set, with full-set
  re-verification before declaring convergence.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

import numpy as np

from .heuristics import SecondOrderSelector
from .kernels import validate_kernel_matrix
from .model import SVMModel, encode_labels
from .smo import solve_smo

__all__ = ["SparseNodes", "CachedLinearKernel", "LibSVMClassifier"]


class SparseNodes:
    """``svm_node``-style storage: per-sample (index, value) arrays.

    Values are stored in double precision regardless of input dtype,
    mirroring LibSVM's conversion of incoming data.
    """

    def __init__(self, x: np.ndarray, threshold: float = 0.0):
        x = np.asarray(x)
        if x.ndim != 2:
            raise ValueError(f"x must be 2D, got shape {x.shape}")
        self.n_samples, self.n_features = x.shape
        self._rows: list[tuple[np.ndarray, np.ndarray]] = []
        nnz = 0
        for row in x:
            keep = np.nonzero(np.abs(row) > threshold)[0]
            self._rows.append(
                (keep.astype(np.int32), row[keep].astype(np.float64))
            )
            nnz += keep.size
        self.nnz = nnz

    def row_nodes(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(indices, values) node arrays for sample ``i``."""
        return self._rows[i]

    def to_csr(self) -> Any:
        """The samples as a scipy CSR matrix (double precision)."""
        from scipy.sparse import csr_matrix

        indptr = np.zeros(self.n_samples + 1, dtype=np.int64)
        for i, (idx, _) in enumerate(self._rows):
            indptr[i + 1] = indptr[i] + idx.size
        indices = np.concatenate([idx for idx, _ in self._rows]) if self.nnz else np.empty(0, np.int32)
        data = np.concatenate([val for _, val in self._rows]) if self.nnz else np.empty(0, np.float64)
        return csr_matrix(
            (data, indices, indptr), shape=(self.n_samples, self.n_features)
        )

    def dense_row(self, i: int) -> np.ndarray:
        """Sample ``i`` densified to a float64 vector."""
        out = np.zeros(self.n_features, dtype=np.float64)
        idx, val = self._rows[i]
        out[idx] = val
        return out


class CachedLinearKernel:
    """Linear-kernel oracle with LibSVM's LRU row cache.

    Rows are computed as sparse matrix-vector products against the full
    sample set and cached up to ``cache_bytes`` (LibSVM's ``-m``,
    default 100 MB).
    """

    def __init__(self, nodes: SparseNodes, cache_bytes: int = 100 * 1024**2):
        if cache_bytes <= 0:
            raise ValueError("cache_bytes must be positive")
        self._nodes = nodes
        self._csr = nodes.to_csr()
        n = nodes.n_samples
        row_bytes = n * 8
        self._max_rows = max(2, cache_bytes // max(row_bytes, 1))
        self._cache: OrderedDict[int, np.ndarray] = OrderedDict()
        self._diag = np.array(
            [float(val @ val) for _, val in (nodes.row_nodes(i) for i in range(n))],
            dtype=np.float64,
        )
        #: Cache statistics (for the perf model and tests).
        self.hits = 0
        self.misses = 0

    @property
    def shape(self) -> tuple[int, int]:
        n = self._nodes.n_samples
        return (n, n)

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float64)

    def row(self, i: int) -> np.ndarray:
        if i in self._cache:
            self.hits += 1
            self._cache.move_to_end(i)
            return self._cache[i]
        self.misses += 1
        row = self._csr @ self._nodes.dense_row(i)
        if len(self._cache) >= self._max_rows:
            self._cache.popitem(last=False)
        self._cache[i] = row
        return row

    def diagonal(self) -> np.ndarray:
        return self._diag


class LibSVMClassifier:
    """The baseline SVM: LibSVM's algorithm and storage discipline.

    Parameters mirror LibSVM's: ``c`` (``-c``), ``tol`` (``-e``),
    ``cache_bytes`` (``-m``), ``shrinking`` (``-h``).
    ``single_precision=True`` gives the paper's "optimized LibSVM"
    variant of Table 8 — same algorithm and sparse storage, but float32
    numeric loops.
    """

    def __init__(
        self,
        c: float = 1.0,
        tol: float = 1e-3,
        max_iter: int | None = None,
        cache_bytes: int = 100 * 1024**2,
        single_precision: bool = False,
        shrinking: bool = True,
    ):
        if c <= 0:
            raise ValueError("C must be positive")
        if tol <= 0:
            raise ValueError("tol must be positive")
        self.c = c
        self.tol = tol
        self.max_iter = max_iter
        self.cache_bytes = cache_bytes
        self.single_precision = single_precision
        self.shrinking = shrinking
        #: Kernel oracle used by the most recent raw-feature fit.
        self.last_kernel: CachedLinearKernel | None = None

    def _dtype(self) -> type:
        return np.float32 if self.single_precision else np.float64

    def fit(self, x: np.ndarray, labels: np.ndarray) -> SVMModel:
        """Train from raw features via sparse nodes + cached kernel rows."""
        nodes = SparseNodes(x)
        oracle = CachedLinearKernel(nodes, cache_bytes=self.cache_bytes)
        self.last_kernel = oracle
        y, classes = encode_labels(labels)
        result = solve_smo(
            oracle,
            y,
            c=self.c,
            tol=self.tol,
            max_iter=self.max_iter,
            selector=SecondOrderSelector(),
            shrinking=self.shrinking,
        )
        return SVMModel(
            dual_coef=(result.alpha * y).astype(self._dtype()),
            rho=result.rho,
            classes=classes,
            c=self.c,
            iterations=result.iterations,
            converged=result.converged,
            objective=result.objective,
        )

    def fit_kernel(self, kernel: np.ndarray, labels: np.ndarray) -> SVMModel:
        """Train on a precomputed kernel (LibSVM's ``-t 4`` mode).

        This is how FCMA's baseline invoked LibSVM after precomputing
        kernel matrices with ``cblas_ssyrk``.  The kernel is converted to
        the backend's working precision first (float64 unless
        ``single_precision``) — the paper's "unnecessary data type
        conversions".
        """
        kernel = validate_kernel_matrix(kernel)
        kernel = np.ascontiguousarray(kernel, dtype=self._dtype())
        y, classes = encode_labels(labels)
        result = solve_smo(
            kernel,
            y,
            c=self.c,
            tol=self.tol,
            max_iter=self.max_iter,
            selector=SecondOrderSelector(),
            shrinking=self.shrinking,
        )
        return SVMModel(
            dual_coef=(result.alpha * y).astype(self._dtype()),
            rho=result.rho,
            classes=classes,
            c=self.c,
            iterations=result.iterations,
            converged=result.converged,
            objective=result.objective,
        )

    def __repr__(self) -> str:
        precision = "float32" if self.single_precision else "float64"
        return f"LibSVMClassifier(c={self.c}, tol={self.tol}, {precision})"
