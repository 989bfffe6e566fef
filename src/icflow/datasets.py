"""Synthetic dataset generators and on-disk formats.

Formats are deliberately plain: numpy `.npy` files for design matrices
(a 2-D array of real floating values, every one finite; a Matrix Market file
in coordinate or array format is read too), a dense text vector for
responses, the bag-of-words triple format `docID wordID count` (1-based,
three header lines) for corpora, and one integer class id per line for
labels. Every generator writes a ground-truth sidecar next to the data.
scipy is imported only when a Matrix Market file is read, so importing this
module (and the CLI), `icflow gen` and a run on `.npy` data do not pay for it.
"""
from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


# ---------------------------------------------------------------------------
# lasso


@dataclass
class LassoDataset:
    X: np.ndarray
    y: np.ndarray
    true_support: np.ndarray
    true_coef: np.ndarray


def gen_lasso(
    n: int,
    m: int,
    k_true: int,
    seed: int = 0,
    block_size: int = 0,
    block_rho: float = 0.0,
) -> LassoDataset:
    """Planted-sparsity regression instance, with noise of standard
    deviation 0.01 on the response.

    With ``block_size`` > 0, consecutive column blocks share a latent factor
    with correlation ``block_rho``, giving the dependency structure that
    structure-aware scheduling exploits.
    """
    if k_true > m:
        raise ConfigurationError("k_true cannot exceed m")
    rng = np.random.default_rng(seed)
    if block_size > 0:
        if not (0 <= block_rho < 1):
            raise ConfigurationError("block_rho must be in [0, 1)")
        X = np.empty((n, m))
        for start in range(0, m, block_size):
            width = min(block_size, m - start)
            common = rng.normal(size=(n, 1))
            noise_cols = rng.normal(size=(n, width))
            X[:, start : start + width] = (
                np.sqrt(block_rho) * common + np.sqrt(1 - block_rho) * noise_cols
            )
    else:
        X = rng.normal(size=(n, m))
    support = np.sort(rng.choice(m, size=k_true, replace=False))
    coef = np.zeros(m)
    signs = rng.choice([-1.0, 1.0], size=k_true)
    coef[support] = signs * rng.uniform(0.5, 2.0, size=k_true)
    y = X @ coef + 0.01 * rng.normal(size=n)
    return LassoDataset(X=X, y=y, true_support=support, true_coef=coef)


def write_lasso(ds: LassoDataset, out_dir: str, stem: str = "lasso") -> dict:
    """The design matrix as `<stem>_X.npy`, the response as a text vector and
    the planted support with its coefficients as `<stem>_truth.txt`."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "X": os.path.join(out_dir, f"{stem}_X.npy"),
        "y": os.path.join(out_dir, f"{stem}_y.txt"),
        "truth": os.path.join(out_dir, f"{stem}_truth.txt"),
    }
    np.save(paths["X"], ds.X)
    np.savetxt(paths["y"], ds.y, fmt="%.17g")
    with open(paths["truth"], "w") as f:
        for j, c in zip(ds.true_support, ds.true_coef[ds.true_support]):
            f.write(f"{j} {c:.17g}\n")
    return paths


def _check_finite_real(path: str, a: np.ndarray) -> np.ndarray:
    """`a` unchanged if every entry is a finite real number; a complex or
    non-finite entry is a configuration error that names `path`."""
    if np.iscomplexobj(a):
        raise ConfigurationError(f"{path}: complex entries; only real values are read")
    bad = np.argwhere(~np.isfinite(a))
    if len(bad):
        at = ", ".join(str(i + 1) for i in bad[0])
        raise ConfigurationError(
            f"{path}: entry ({at}) is {a[tuple(bad[0])]}, not a finite number")
    return a


def read_lasso(x_path: str, y_path: str) -> tuple[np.ndarray, np.ndarray]:
    """A design matrix and a text vector with one value per row of it.

    The matrix is a `.npy` file, known by its magic bytes and not its name,
    holding a 2-D array of real floating values, or else a real Matrix Market
    file (coordinate or array format). A malformed file, a matrix with no rows
    or no columns, a complex or non-finite entry, or a vector of any other
    shape is a configuration error."""
    with open(x_path, "rb") as f:
        npy = f.read(6) == b"\x93NUMPY"
    if npy:
        try:
            X = np.load(x_path, allow_pickle=False)
        except ValueError as e:
            raise ConfigurationError(f"{x_path}: not a readable .npy array: {e}") from None
        if X.ndim != 2 or X.dtype.kind != "f":
            raise ConfigurationError(f"{x_path}: a {X.ndim}-D {X.dtype} array; "
                                     "expected a 2-D array of real floating values")
        X = np.ascontiguousarray(X, dtype=np.float64)  # as Matrix Market is read
    else:
        import scipy.io
        import scipy.sparse

        try:
            X = scipy.io.mmread(x_path)
        except ValueError as e:
            raise ConfigurationError(
                f"{x_path}: not a readable Matrix Market matrix: {e}") from None
        if scipy.sparse.issparse(X):  # coordinate format; array format is dense
            X = np.asarray(X.todense())
    if 0 in X.shape:
        raise ConfigurationError(
            f"{x_path}: a {X.shape[0]}x{X.shape[1]} design matrix; it needs "
            "at least one row and one column")
    try:
        with warnings.catch_warnings():  # the shape check reports an empty file
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            y = np.loadtxt(y_path, ndmin=1)
    except ValueError as e:
        raise ConfigurationError(f"{y_path}: not a text vector: {e}") from None
    if y.shape != (X.shape[0],):
        raise ConfigurationError(
            f"{y_path}: expected one value per line for the {X.shape[0]} rows "
            f"of {x_path}, got shape {y.shape}")
    return _check_finite_real(x_path, X), _check_finite_real(y_path, y)


# ---------------------------------------------------------------------------
# lda


@dataclass
class LdaCorpus:
    docs: list[list[int]]  # token lists
    V: int
    K: int
    true_topic_words: list[list[int]]  # word ids owned by each generating topic


def gen_lda(
    n_docs: int,
    V: int,
    K: int,
    mean_doc_len: int,
    seed: int = 0,
    zipf_s: float = 1.0,
) -> LdaCorpus:
    """Power-law corpus from a planted topic model.

    Word ranks carry Zipf(s) weight; rank r belongs to generating topic
    r mod K, so an even topic mixture leaves the corpus-wide rank-frequency
    curve on the Zipf slope.
    """
    rng = np.random.default_rng(seed)
    weights = (np.arange(1, V + 1, dtype=float)) ** (-zipf_s)
    topic_words = [list(range(k, V, K)) for k in range(K)]
    topic_dists = []
    for k in range(K):
        w = np.zeros(V)
        w[topic_words[k]] = weights[topic_words[k]]
        if not w.sum() > 0:
            raise ConfigurationError(
                f"topic {k} has no word of nonzero weight: K = {K} exceeds "
                f"V = {V}, or the Zipf exponent {zipf_s} underflows")
        topic_dists.append(w / w.sum())
    docs: list[list[int]] = []
    for _ in range(n_docs):
        length = max(1, int(rng.poisson(mean_doc_len)))
        theta = rng.dirichlet(np.full(K, 1.0))
        topics = rng.choice(K, size=length, p=theta)
        doc = [int(rng.choice(V, p=topic_dists[k])) for k in topics]
        docs.append(doc)
    return LdaCorpus(docs=docs, V=V, K=K, true_topic_words=topic_words)


def write_corpus(corpus: LdaCorpus, out_dir: str, stem: str = "lda") -> dict:
    """Bag-of-words triples: three header lines (D, W, NNZ), then
    `docID wordID count` with 1-based ids."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "docs": os.path.join(out_dir, f"{stem}_docs.txt"),
        "truth": os.path.join(out_dir, f"{stem}_truth.txt"),
    }
    triples = []
    for d, doc in enumerate(corpus.docs):
        counts = np.bincount(doc, minlength=corpus.V)
        for w in np.nonzero(counts)[0]:
            triples.append((d + 1, int(w) + 1, int(counts[w])))
    with open(paths["docs"], "w") as f:
        f.write(f"{len(corpus.docs)}\n{corpus.V}\n{len(triples)}\n")
        for d, w, c in triples:
            f.write(f"{d} {w} {c}\n")
    with open(paths["truth"], "w") as f:
        for k, words in enumerate(corpus.true_topic_words):
            f.write(f"{k} " + " ".join(str(w) for w in words) + "\n")
    return paths


def read_corpus(path: str) -> tuple[list[list[int]], int]:
    """Read bag-of-words triples back into token lists: each document holds
    its words (0-based) in file order, each repeated per its count. The file
    is D, V and the number of triples, then one `docID wordID count` triple
    per line with 1-based ids; a docID outside 1..D, a wordID outside 1..V,
    a negative count or a field that is not an integer is a configuration
    error."""
    try:
        with open(path) as f:
            fields = f.read().split()
        nums = np.array(list(map(int, fields)), dtype=np.int64)
    except (ValueError, OverflowError) as e:
        raise ConfigurationError(f"{path}: not a bag-of-words file: {e}") from None
    if len(nums) < 3 or nums[0] < 1 or nums[1] < 1:
        raise ConfigurationError(f"{path}: header must give D >= 1, V >= 1, nnz")
    D, V, nnz = nums[:3].tolist()
    if len(nums) - 3 != 3 * nnz:
        raise ConfigurationError(
            f"{path}: expected {3 * nnz} triple fields, got {len(nums) - 3}")
    d, w, c = nums[3:].reshape(-1, 3).T
    for name, col, hi in (("docID", d, D), ("wordID", w, V)):
        bad = np.flatnonzero((col < 1) | (col > hi))
        if len(bad):
            raise ConfigurationError(f"{path}: triple {bad[0] + 1}: {name} "
                                     f"{col[bad[0]]} is outside 1..{hi}")
    bad = np.flatnonzero(c < 0)
    if len(bad):
        raise ConfigurationError(
            f"{path}: triple {bad[0] + 1}: negative count {c[bad[0]]}")
    doc = np.repeat(d - 1, c)
    order = np.argsort(doc, kind="stable")
    ends = np.cumsum(np.bincount(doc, minlength=D))[:-1]
    return [t.tolist() for t in np.split(np.repeat(w - 1, c)[order], ends)], V


# ---------------------------------------------------------------------------
# mlr


@dataclass
class MlrDataset:
    U: np.ndarray
    y: np.ndarray
    K: int
    true_centers: np.ndarray


def gen_mlr(n: int, D: int, K: int, seed: int = 0) -> MlrDataset:
    """Linearly separable classes: Gaussian blobs of standard deviation 0.1
    around centers at distance 4 from the origin."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(K, D))
    centers *= 4.0 / np.linalg.norm(centers, axis=1, keepdims=True)
    y = rng.integers(K, size=n)
    U = centers[y] + 0.1 * rng.normal(size=(n, D))
    return MlrDataset(U=U, y=y, K=K, true_centers=centers)


def write_mlr(ds: MlrDataset, out_dir: str, stem: str = "mlr") -> dict:
    """The features as `<stem>_U.npy`, one class id per line and the class
    centers as `<stem>_truth.txt`."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "U": os.path.join(out_dir, f"{stem}_U.npy"),
        "y": os.path.join(out_dir, f"{stem}_y.txt"),
        "truth": os.path.join(out_dir, f"{stem}_truth.txt"),
    }
    np.save(paths["U"], ds.U)
    np.savetxt(paths["y"], ds.y, fmt="%d")
    np.savetxt(paths["truth"], ds.true_centers, fmt="%.17g")
    return paths


def read_mlr(u_path: str, y_path: str) -> tuple[np.ndarray, np.ndarray]:
    """Features and integer class ids, read as `read_lasso` reads its
    matrix and vector; a label that is not an integer is a configuration
    error."""
    U, y = read_lasso(u_path, y_path)
    bad = np.flatnonzero(y != np.floor(y))
    if len(bad):
        raise ConfigurationError(
            f"{y_path}: value {bad[0] + 1}: label {y[bad[0]]} is not a class id")
    return U, y.astype(int)
