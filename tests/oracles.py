"""Independent test oracles.

These deliberately avoid the code paths they check: singular values come
from a one-sided Jacobi iteration rather than the randomized range finder
(and rather than LAPACK), the lasso objective from a dense grid search with
derivative-free refinement rather than coordinate descent, and spanning
trees from exhaustive enumeration rather than Prim's algorithm.

``list_gibbs_lda_weights`` is the library's original collapsed Gibbs
sampler, frozen here unchanged (one ``rng.random()`` call per token, a
Python loop over K) as the bit-identity reference for ``lda_fit``.
``intersect1d_cosine`` is the library's original pair-at-a-time ESA cosine,
frozen the same way as the reference for the CSR relatedness kernel.
``naive_cd_lasso`` is the library's original l1 coordinate descent (one
``gram[j] @ alpha`` per coordinate step), frozen the same way as the
reference for the covariance-update loop in ``sparse_code``.
``widest_path_sim`` enumerates simple paths (exponential), the oracle for
the bottleneck identity. ``kruskal_bottleneck`` is the library's original
``bottleneck_score``, a Kruskal tree with a relabel-dict union, frozen the
same way as the reference for the Prim loop that replaced it.
``counter_build_vocabulary`` and ``counter_build_doc_term_matrix`` are
the library's original two-pass builders (``tokenize`` per document in
each pass, one ``Counter`` per document), frozen the same way as the
reference for the one counting pass of ``build_doc_term_matrix``. ``two_qr_lsa_fit`` is the library's original
``lsa_fit``, whose power steps orthonormalized both the document side and
the word side, frozen the same way as the reference for the one-QR steps.
``tokenize`` is the library's original tokenizer, which only tests called
once the one counting pass inlined its rules; its regex ``TOKEN_PATTERN``
is the reference for the bytes translate and split that replaced it.
``per_task_puzzle_bank`` is the library's original bank: one product
``R[anchors] R^T`` per odd-one-out or choose-related task, the vocabulary
mapped through ``index.row`` for each task, a full budget of draws before
an unreachable band exhausts, and one ``cross_relatedness`` per pair.
``per_set_consistent_sets`` scores each set on its own
``similarity_submatrix``. Both are frozen the same way as the references
for the block rows that ``extract-sets`` and ``generate`` share.
``per_document_dict_learn_fit`` is the library's original
``dict_learn_fit`` loop, ``sparse_code`` then an update for each document,
frozen the same way as the reference for the one ``dl_step`` call per l1
document. With ``blas_update``, the original dictionary update that summed
each ``d @ stat_a[:, j]`` and ``u @ u`` through BLAS, it is the reference
for the left-to-right sums of ``dl_update``.
``scalar_planted_topic_corpus`` is the library's original
``planted_topic_corpus``, two scalar draws per token, frozen the same way
as the reference for the one bulk read of the generator's stream.
``as_scipy`` and ``compressed`` convert between the library's
``CompressedMatrix`` and scipy's matrices, so the oracles and the tests
can use scipy's products and slicing as the reference.
"""

import itertools
import math
import re
import warnings
from collections import Counter

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize

from topicpuzzles import puzzles
from topicpuzzles.consistency import (
    ConsistentSet,
    WeightedGraph,
    bottleneck_score,
)
from topicpuzzles.corpus import (
    DEFAULT_TOKENIZER,
    CompressedMatrix,
    Document,
    DocTermMatrix,
    EmptyVocabularyError,
    Vocabulary,
)
from topicpuzzles.kernels import _dl_update
from topicpuzzles.topic_models import (
    L1,
    MODEL_LSA,
    TopicDictionary,
    _as_matrix,
    _columns,
    contiguous_groups,
    recency_weights,
    sparse_code,
)
from topicpuzzles.synthetic import planted_vocabulary


def jacobi_singular_values(matrix, tol=1e-14, max_sweeps=100):
    """All singular values by one-sided Jacobi rotations, descending.

    Columns of the (tall) working matrix are rotated pairwise until they
    are mutually orthogonal; the singular values are the final column
    norms. Independent of any LAPACK SVD driver.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.shape[0] < a.shape[1]:
        a = a.T
    n_cols = a.shape[1]
    for _ in range(max_sweeps):
        rotated = False
        for p in range(n_cols - 1):
            for q in range(p + 1, n_cols):
                cp, cq = a[:, p], a[:, q]
                app = float(cp @ cp)
                aqq = float(cq @ cq)
                apq = float(cp @ cq)
                if abs(apq) <= tol * np.sqrt(app * aqq) or apq == 0.0:
                    continue
                rotated = True
                tau = (aqq - app) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                new_p = c * cp - s * cq
                new_q = s * cp + c * cq
                a[:, p], a[:, q] = new_p, new_q
        if not rotated:
            break
    return np.sort(np.linalg.norm(a, axis=0))[::-1]


def lasso_objective_value(x, dictionary, kappa, alpha):
    d = np.asarray(dictionary, dtype=np.float64)
    residual = x - d @ alpha
    return 0.5 * float(residual @ residual) + kappa * float(np.sum(np.abs(alpha)))


def grid_search_lasso_objective(x, dictionary, kappa, lo=-2.0, hi=2.0, step=1e-2):
    """Minimum lasso objective for a 3-atom dictionary: dense grid over
    [lo, hi]^3 at the given step, refined by Nelder-Mead from the best
    grid point. Returns the refined objective value."""
    d = np.asarray(dictionary, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    k = d.shape[1]
    assert k == 3, "grid oracle is written for 3 coefficients"
    n_steps = int(round((hi - lo) / step))
    grid = lo + step * np.arange(n_steps + 1)
    gram = d.T @ d
    b = d.T @ x
    xx = float(x @ x)
    a2, a3 = np.meshgrid(grid, grid, indexing="ij")
    # the terms not involving the first coefficient, computed once
    base = 0.5 * (
        xx
        + gram[1, 1] * a2 * a2
        + gram[2, 2] * a3 * a3
        + 2.0 * gram[1, 2] * a2 * a3
        - 2.0 * b[1] * a2
        - 2.0 * b[2] * a3
    ) + kappa * (np.abs(a2) + np.abs(a3))
    cross = gram[0, 1] * a2 + gram[0, 2] * a3
    total = np.empty_like(base)
    best_value = np.inf
    best_point = None
    for a1 in grid:
        np.multiply(cross, a1, out=total)
        total += base
        pos = np.unravel_index(np.argmin(total), total.shape)
        value = float(total[pos]) + (
            0.5 * gram[0, 0] * a1 * a1 - b[0] * a1 + kappa * abs(a1)
        )
        if value < best_value:
            best_value = value
            best_point = np.array([a1, a2[pos], a3[pos]])
    refined = minimize(
        lambda a: lasso_objective_value(x, d, kappa, a),
        best_point,
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000, "maxfev": 20000},
    )
    return min(best_value, float(refined.fun))


def widest_path_sim(graph, node_a, node_b):
    """Exact max-min path value between two nodes, by depth-first
    enumeration of simple paths (exponential; meant for small sets).
    Branches whose running minimum cannot strictly improve the best value
    are pruned, which preserves exactness."""
    if node_a == node_b:
        raise ValueError("widest path requires two distinct nodes")
    start = graph.nodes.index(node_a)
    goal = graph.nodes.index(node_b)
    size = len(graph)
    weights = graph.weights
    best = -np.inf
    visited = [False] * size
    visited[start] = True

    def explore(current, running_min):
        nonlocal best
        for nxt in range(size):
            if visited[nxt]:
                continue
            value = min(running_min, weights[current, nxt])
            if value <= best:
                continue
            if nxt == goal:
                best = value
                continue
            visited[nxt] = True
            explore(nxt, value)
            visited[nxt] = False

    explore(start, np.inf)
    return float(best)


def brute_force_max_spanning_tree(weights):
    """Best spanning tree by enumerating every (n-1)-edge subset of the
    complete graph and keeping the connected acyclic ones. Returns
    (max total weight, min edge weight of a maximizing tree, tree count)."""
    n = weights.shape[0]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    best_total = -np.inf
    best_min_edge = None
    tree_count = 0
    for subset in itertools.combinations(edges, n - 1):
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        acyclic = True
        for i, j in subset:
            ri, rj = find(i), find(j)
            if ri == rj:
                acyclic = False
                break
            parent[rj] = ri
        if not acyclic:
            continue
        tree_count += 1
        total = sum(weights[i, j] for i, j in subset)
        if total > best_total:
            best_total = total
            best_min_edge = min(weights[i, j] for i, j in subset)
    return best_total, best_min_edge, tree_count


def kruskal_bottleneck(weights):
    """Min edge weight of the maximum spanning tree that Kruskal builds on
    descending edge weight, ties preferring the lexicographically smaller
    (node, node) pair; b's component takes the label of a's."""
    size = len(weights)
    if size < 2:
        raise ValueError(f"spanning tree needs at least 2 nodes, got {size}")
    edges = [
        (a, b, float(weights[a, b])) for a in range(size) for b in range(a + 1, size)
    ]
    edges.sort(key=lambda e: (-e[2], e[0], e[1]))
    label = {node: node for node in range(size)}
    chosen = []
    for a, b, w in edges:
        kept, merged = label[a], label[b]
        if kept != merged:
            label = {n: kept if c == merged else c for n, c in label.items()}
            chosen.append(w)
            if len(chosen) == size - 1:
                break
    return float(min(chosen))


def prim_max_spanning_tree_min_edge(weights, start=0):
    """Min edge weight of a maximum spanning tree built by Prim's algorithm
    from any ``start`` node, over index arrays rather than a dict of links."""
    n = weights.shape[0]
    in_tree = [False] * n
    in_tree[start] = True
    best = np.full(n, -np.inf)
    for j in range(n):
        if j != start:
            best[j] = weights[start, j]
    min_edge = np.inf
    for _ in range(n - 1):
        candidate = -1
        for j in range(n):
            if not in_tree[j] and (candidate == -1 or best[j] > best[candidate]):
                candidate = j
        min_edge = min(min_edge, best[candidate])
        in_tree[candidate] = True
        for j in range(n):
            if not in_tree[j] and weights[candidate, j] > best[j]:
                best[j] = weights[candidate, j]
    return float(min_edge)


def as_scipy(matrix):
    """A CompressedMatrix as the scipy matrix of its format over the same
    arrays; anything else as it is."""
    if not isinstance(matrix, CompressedMatrix):
        return matrix
    cls = sp.csc_matrix if matrix.format == "csc" else sp.csr_matrix
    return cls((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape)


def compressed(matrix, format="csc"):
    """A scipy matrix of positive entries as a CompressedMatrix of
    ``format`` ("csc" or "csr")."""
    m = matrix.asformat(format, copy=True)
    m.sum_duplicates()
    return CompressedMatrix(
        m.indptr.astype(np.int64), m.indices.astype(np.int64), m.data, m.shape, format
    )


def list_gibbs_lda_weights(matrix, n_topics, alpha, beta, iterations, seed):
    """LDA topic weights from the original token-by-token Gibbs sampler.

    ``matrix`` is a raw-count word x document sparse matrix. Returns the
    N x K posterior-mean word distributions averaged over the final 20% of
    sweeps, as ``lda_fit`` defines them.
    """
    m = as_scipy(matrix).tocsc()
    m.sort_indices()
    words, docs = [], []
    indptr, indices, data = m.indptr, m.indices, m.data
    for j in range(m.shape[1]):
        for p in range(indptr[j], indptr[j + 1]):
            count = int(round(data[p]))
            words.extend([int(indices[p])] * count)
            docs.extend([j] * count)

    n, n_docs = m.shape
    k = n_topics
    nbeta = n * beta
    n_tokens = len(words)
    rng = np.random.default_rng(seed)
    z = [int(t) for t in rng.integers(0, k, n_tokens)]
    n_wt = [[0] * k for _ in range(n)]
    n_dt = [[0] * k for _ in range(n_docs)]
    n_t = [0] * k
    for idx in range(n_tokens):
        t = z[idx]
        n_wt[words[idx]][t] += 1
        n_dt[docs[idx]][t] += 1
        n_t[t] += 1

    n_avg = max(1, iterations // 5)
    avg_start = iterations - n_avg
    phi_acc = np.zeros((n, k))
    rand = rng.random
    p = [0.0] * k
    topics = range(k)
    for sweep in range(iterations):
        for idx in range(n_tokens):
            w = words[idx]
            d = docs[idx]
            t_old = z[idx]
            nw = n_wt[w]
            nd = n_dt[d]
            nw[t_old] -= 1
            nd[t_old] -= 1
            n_t[t_old] -= 1
            total = 0.0
            for t in topics:
                pt = (nw[t] + beta) * (nd[t] + alpha) / (n_t[t] + nbeta)
                p[t] = pt
                total += pt
            u = rand() * total
            acc = 0.0
            t_new = k - 1
            for t in topics:
                acc += p[t]
                if u < acc:
                    t_new = t
                    break
            z[idx] = t_new
            nw[t_new] += 1
            nd[t_new] += 1
            n_t[t_new] += 1
        if sweep >= avg_start:
            counts = np.array(n_wt, dtype=np.float64)
            totals = np.array(n_t, dtype=np.float64)
            phi_acc += (counts + beta) / (totals + nbeta)
    return phi_acc / n_avg


def intersect1d_cosine(vector_a, vector_b):
    """Cosine of two sparse vectors given as (ascending concept ids,
    weights), as the library computed relatedness before the CSR rewrite:
    dot over the shared ids divided by the product of the Euclidean norms,
    capped at 1."""
    ids_a, w_a = vector_a
    ids_b, w_b = vector_b
    _, ia, ib = np.intersect1d(ids_a, ids_b, assume_unique=True, return_indices=True)
    if ia.size == 0:
        return 0.0
    dot = float(w_a[ia] @ w_b[ib])
    return min(dot / (float(np.linalg.norm(w_a)) * float(np.linalg.norm(w_b))), 1.0)


def naive_cd_lasso(x, dictionary, kappa, tol=1e-8, max_iter=1000):
    """(coefficients, objective) of 0.5*||x - D a||^2 + kappa*||a||_1 by
    the original cyclic coordinate descent: start at a = 0, recompute
    ``gram[j] @ alpha`` at every coordinate step, soft-threshold, and stop
    once a pass improves the objective by less than ``tol``."""
    d = np.asarray(dictionary, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64).ravel()
    k = d.shape[1]
    gram = d.T @ d
    b = d.T @ x
    xx = float(x @ x)
    alpha = np.zeros(k)
    prev = 0.5 * xx

    diag = np.diag(gram)
    for _ in range(max_iter):
        for j in range(k):
            if diag[j] <= 1e-15:
                continue
            r = b[j] - float(gram[j] @ alpha) + diag[j] * alpha[j]
            a = abs(r) - kappa
            alpha[j] = np.sign(r) * a / diag[j] if a > 0 else 0.0
        quad = 0.5 * (xx - 2.0 * float(b @ alpha) + float(alpha @ gram @ alpha))
        cur = quad + kappa * float(np.sum(np.abs(alpha)))
        if abs(prev - cur) < tol:
            prev = cur
            break
        prev = cur
    return alpha, float(prev)


# Tokens are maximal runs of ASCII letters, taken after lowercasing, so
# digits and punctuation split tokens.
TOKEN_PATTERN = re.compile(r"[A-Za-z]+")


def tokenize(text, config=DEFAULT_TOKENIZER):
    """Split raw text into word tokens, preserving order.

    Lowercases, extracts runs of ASCII letters, then drops tokens shorter
    than the minimum length and stopwords. Empty input yields an empty list.
    """
    tokens = TOKEN_PATTERN.findall(text.lower())
    return [
        t
        for t in tokens
        if len(t) >= config.min_token_len and t not in config.stopwords
    ]


def _check_unique_ids(docs):
    seen = set()
    for doc in docs:
        if doc.id in seen:
            raise ValueError(f"duplicate document id: {doc.id!r}")
        seen.add(doc.id)


def counter_build_vocabulary(docs, min_df=1, max_df_ratio=1.0, config=DEFAULT_TOKENIZER):
    """Build the vocabulary of words with document frequency in
    [min_df, max_df_ratio * n_docs].

    Raises EmptyVocabularyError if the filters remove every word.
    """
    if min_df < 1:
        raise ValueError(f"min_df must be >= 1, got {min_df}")
    if not 0.0 < max_df_ratio <= 1.0:
        raise ValueError(f"max_df_ratio must be in (0, 1], got {max_df_ratio}")
    docs = list(docs)
    _check_unique_ids(docs)
    df = Counter()
    for doc in docs:
        df.update(set(tokenize(doc.text, config)))
    max_df = max_df_ratio * len(docs)
    kept = sorted(w for w, c in df.items() if min_df <= c <= max_df)
    if not kept:
        raise EmptyVocabularyError(
            f"no words survive document-frequency filtering "
            f"(min_df={min_df}, max_df_ratio={max_df_ratio}, n_docs={len(docs)})"
        )
    return Vocabulary(words=kept, doc_freq=[df[w] for w in kept], n_docs=len(docs))


def counter_build_doc_term_matrix(docs, vocab, config=DEFAULT_TOKENIZER):
    """Count in-vocabulary word occurrences per document into a sparse matrix.

    Documents with no in-vocabulary tokens are dropped (with a warning)
    rather than kept as zero columns.
    """
    docs = list(docs)
    _check_unique_ids(docs)
    row = {w: i for i, w in enumerate(vocab.words)}
    indptr, indices, data, doc_ids = [0], [], [], []
    for doc in docs:
        counts = Counter(row[t] for t in tokenize(doc.text, config) if t in row)
        if not counts:
            warnings.warn(
                f"document {doc.id!r} has no in-vocabulary tokens and was dropped"
            )
            continue
        doc_ids.append(doc.id)
        indices.extend(sorted(counts))
        data.extend(float(counts[i]) for i in indices[indptr[-1]:])
        indptr.append(len(indices))
    matrix = CompressedMatrix(
        np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.int64),
        np.array(data, dtype=np.float64), (len(vocab), len(doc_ids)),
    )
    return DocTermMatrix(matrix=matrix, vocab=vocab, doc_ids=doc_ids)


def two_qr_lsa_fit(X, n_topics, seed=0):
    """Top-K left singular vectors by seeded randomized subspace iteration
    (8 extra columns, 16 power steps), each step running ``qr(A.T @ q)``
    and then ``qr(A @ w)``; columns sign-normalized so each one's
    largest-magnitude entry is positive. Returns a TopicDictionary with the
    singular values attached."""
    A, vocab = _as_matrix(X)
    A = as_scipy(A)
    n, m = A.shape
    if not 1 <= n_topics <= min(n, m):
        raise ValueError(
            f"n_topics must be in [1, {min(n, m)}] for a {n}x{m} matrix, "
            f"got {n_topics}"
        )
    rng = np.random.default_rng(seed)
    width = min(n_topics + 8, m)
    omega = rng.standard_normal((m, width))
    q, _ = np.linalg.qr(A @ omega)
    for _ in range(16):
        w, _ = np.linalg.qr(A.T @ q)
        q, _ = np.linalg.qr(A @ w)
    b = (A.T @ q).T
    ub, s, _ = np.linalg.svd(b, full_matrices=False)
    tol = s[0] * max(n, m) * np.finfo(np.float64).eps if s.size else 0.0
    effective_rank = int(np.sum(s > tol))
    if effective_rank < n_topics:
        raise ValueError(
            f"requested {n_topics} topics but the matrix has effective "
            f"rank {effective_rank}"
        )
    u = q @ ub[:, :n_topics]
    for j in range(n_topics):
        peak = np.argmax(np.abs(u[:, j]))
        if u[peak, j] < 0:
            u[:, j] = -u[:, j]
    return TopicDictionary(
        weights=u,
        model=MODEL_LSA,
        meta={"n_topics": n_topics, "seed": seed, "n_power_iters": 16, "oversampling": 8},
        vocab=vocab,
        singular_values=s[:n_topics].copy(),
    )


def blas_update(w, x, a, stat_a, stat_b, d):
    """The original dictionary update, in place: ``np.outer`` rank-one
    updates of the statistics, then for each column j with stat_a[j, j] >
    1e-12, ``u = d[:, j] + (stat_b[:, j] - d @ stat_a[:, j]) / stat_a[j, j]``
    projected by ``math.sqrt(u @ u)``, both products through BLAS."""
    stat_a += w * np.outer(a, a)
    stat_b += w * np.outer(x, a)
    for j in range(a.size):
        ajj = stat_a[j, j]
        if ajj <= 1e-12:
            continue
        u = d[:, j] + (stat_b[:, j] - d @ stat_a[:, j]) / ajj
        d[:, j] = u / max(1.0, math.sqrt(u @ u))


def per_document_dict_learn_fit(X, config, update=_dl_update):
    """The weights of online dictionary learning, one ``sparse_code`` and
    then one ``update(w, x, a, stat_a, stat_b, d)`` per document."""
    A, _ = _as_matrix(X)
    n, m = A.shape
    k = config.n_topics
    groups = None if config.regularizer == L1 else contiguous_groups(k, config.n_groups)
    rng = np.random.default_rng(config.seed)
    d = rng.standard_normal((n, k))
    d /= np.linalg.norm(d, axis=0, keepdims=True)
    stat_a = np.zeros((k, k))
    stat_b = np.zeros((n, k))
    w = recency_weights(m, config.rho)
    x = np.empty(n)
    for _ in range(config.epochs):
        for i in _columns(A, x):
            a = sparse_code(x, d, config.kappa, config.regularizer, groups).coeffs
            update(w[i], x, a, stat_a, stat_b, d)
    return d


def max_relatedness(sim, anchors, candidates):
    """For each candidate word, its max relatedness to the anchor words
    (0 for an unindexed candidate), from one product ``R[anchors] R^T``."""
    index = sim.index
    rows = np.array([index.row(w) for w in anchors], dtype=np.int64)
    rows = rows[rows >= 0]
    sigma = np.zeros(len(index) + 1)  # the last slot serves row -1
    if rows.size:
        R = as_scipy(index.R)
        products = (R[rows] @ R.T.tocsr()).toarray()
        sigma[:-1] = np.minimum(products.max(axis=0), 1.0)
        sigma[rows] = 1.0
    return sigma[[index.row(w) for w in candidates]]


def draw_in_band(anchors, exclude, n, sim, band, vocab, rng, max_attempts):
    """Draw until ``n`` distinct words outside ``exclude`` have sigma to
    the anchors strictly inside the band; (words, sigmas), or None after
    ``max_attempts`` draws, however few words the band holds."""
    sigmas = max_relatedness(sim, anchors, vocab).tolist()
    words, drawn_sigmas = [], []
    for _ in range(max_attempts):
        drawn = int(rng.integers(0, len(vocab)))
        word, sigma = vocab[drawn], sigmas[drawn]
        if word in exclude or word in words or not band.contains(sigma):
            continue
        words.append(word)
        drawn_sigmas.append(sigma)
        if len(words) == n:
            return words, drawn_sigmas
    return None


def _odd_one_out(cset, sim, band, vocab, rng, max_attempts, seed):
    sources = (cset.topic_index,)
    drawn = draw_in_band(cset.words, set(cset.words), 1, sim, band, vocab, rng, max_attempts)
    if drawn is None:
        return puzzles.Exhausted(puzzles.ODD_ONE_OUT, sources, max_attempts)
    (word,), (sigma,) = drawn
    canonical = tuple(cset.words) + (word,)
    return puzzles._shuffled_puzzle(
        puzzles.ODD_ONE_OUT, canonical, len(canonical) - 1, band, sigma, sources, seed, rng
    )


def _choose_related(cset, sim, band, n_distractors, vocab, rng, max_attempts, seed):
    sources = (cset.topic_index,)
    if len(cset.words) < 3:
        return puzzles.Rejected(puzzles.CHOOSE_RELATED, sources, "fewer than 3 words")
    held = int(rng.integers(0, len(cset.words)))
    stem = tuple(w for i, w in enumerate(cset.words) if i != held)
    drawn = draw_in_band(
        stem, set(cset.words), n_distractors, sim, band, vocab, rng, max_attempts
    )
    if drawn is None:
        return puzzles.Exhausted(puzzles.CHOOSE_RELATED, sources, max_attempts)
    distractors, sigmas = drawn
    canonical = (cset.words[held],) + tuple(distractors)
    return puzzles._shuffled_puzzle(
        puzzles.CHOOSE_RELATED, canonical, 0, band, max(sigmas), sources, seed, rng, stem
    )


def _separate_topics(cset_a, cset_b, sim, eta2_cross, rng, seed):
    sources = (cset_a.topic_index, cset_b.topic_index)
    if set(cset_a.words) & set(cset_b.words):
        return puzzles.Rejected(puzzles.SEPARATE_TOPICS, sources, "sets share words")
    cross = float(sim.cross_relatedness(cset_a.words, cset_b.words).max())
    if cross >= eta2_cross:
        return puzzles.Rejected(
            puzzles.SEPARATE_TOPICS, sources,
            f"cross relatedness {cross:.6f} >= cap {eta2_cross}",
        )
    canonical = tuple(cset_a.words) + tuple(cset_b.words)
    mask = ((1 << len(cset_b.words)) - 1) << len(cset_a.words)
    band = puzzles.DifficultyBand(0.0, eta2_cross, "cross-cap")
    return puzzles._shuffled_puzzle(
        puzzles.SEPARATE_TOPICS, canonical, mask, band, cross, sources, seed, rng
    )


def per_task_puzzle_bank(
    consistent_sets, sim, vocab, band, kinds=puzzles.KINDS, master_seed=0,
    n_distractors=3, eta2_cross=None, max_attempts=None,
):
    """(puzzles, skipped) of ``generate_puzzle_bank`` for valid settings,
    task by task in kind order, each task with its own products."""
    if max_attempts is None:
        max_attempts = puzzles.default_max_attempts(len(vocab))
    if eta2_cross is None:
        eta2_cross = band.eta2
    singles = [(cset,) for cset in consistent_sets]
    tasks = {
        puzzles.ODD_ONE_OUT: (singles, lambda cset, rng, seed: _odd_one_out(
            cset, sim, band, vocab, rng, max_attempts, seed)),
        puzzles.CHOOSE_RELATED: (singles, lambda cset, rng, seed: _choose_related(
            cset, sim, band, n_distractors, vocab, rng, max_attempts, seed)),
        puzzles.SEPARATE_TOPICS: (
            list(zip(consistent_sets[::2], consistent_sets[1::2])),
            lambda a, b, rng, seed: _separate_topics(a, b, sim, eta2_cross, rng, seed)),
    }
    bank, skipped = [], []
    for kind in kinds:
        groups, generate = tasks[kind]
        for group in groups:
            seed = puzzles.derive_seed(master_seed, ":".join(
                [kind, *(str(cset.topic_index) for cset in group)]))
            result = generate(*group, np.random.default_rng(seed), seed)
            (bank if isinstance(result, puzzles.Puzzle) else skipped).append(result)
    return bank, skipped


def per_set_consistent_sets(sets, sim, delta):
    """``identify_consistent_sets`` scoring each set on its own
    ``similarity_submatrix`` of its vocabulary indices, so ``sim`` needs the
    model's vocabulary attached."""
    kept = []
    for word_set in sets:
        indices = tuple(int(i) for i in word_set.word_indices)
        submatrix = sim.similarity_submatrix(indices)
        score = bottleneck_score(WeightedGraph(nodes=indices, weights=submatrix))
        if score > delta:
            kept.append(ConsistentSet(
                topic_index=word_set.topic_index,
                word_indices=indices,
                words=tuple(sim.vocabulary[i] for i in indices),
                score=score,
                delta=delta,
            ))
    return kept


def scalar_planted_topic_corpus(
    n_topics=8,
    words_per_topic=10,
    n_docs=400,
    tokens_per_doc=50,
    seed=0,
    background_fraction=0.0,
):
    """Documents drawn from a single planted topic each (topics cycle over
    documents). With background_fraction > 0, that fraction of tokens is
    drawn uniformly from the full vocabulary instead, which gives word
    pairs from different topics small but nonzero co-occurrence.

    Returns (documents, per-topic word lists).
    """
    if not 0.0 <= background_fraction < 1.0:
        raise ValueError("background_fraction must be in [0, 1)")
    topics = planted_vocabulary(n_topics, words_per_topic)
    all_words = [w for topic in topics for w in topic]
    rng = np.random.default_rng(seed)
    docs = []
    for j in range(n_docs):
        topic_words = topics[j % n_topics]
        tokens = []
        for _ in range(tokens_per_doc):
            if background_fraction > 0.0 and rng.random() < background_fraction:
                tokens.append(all_words[int(rng.integers(0, len(all_words)))])
            else:
                tokens.append(topic_words[int(rng.integers(0, len(topic_words)))])
        docs.append(Document(id=f"doc{j:04d}", text=" ".join(tokens)))
    return docs, topics
