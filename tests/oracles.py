"""Independent test oracles.

These deliberately avoid the code paths they check: singular values come
from a one-sided Jacobi iteration rather than the randomized range finder
(and rather than LAPACK), the lasso objective from a dense grid search with
derivative-free refinement rather than coordinate descent, and spanning
trees from exhaustive enumeration rather than Kruskal.

``list_gibbs_lda_weights`` is the library's original collapsed Gibbs
sampler, frozen here unchanged (one ``rng.random()`` call per token, a
Python loop over K) as the bit-identity reference for ``lda_fit``.
``intersect1d_cosine`` is the library's original pair-at-a-time ESA cosine,
frozen the same way as the reference for the CSR relatedness kernel.
``naive_cd_lasso`` is the library's original l1 coordinate descent (one
``gram[j] @ alpha`` per coordinate step), frozen the same way as the
reference for the covariance-update loop in ``sparse_code``.
``widest_path_sim`` enumerates simple paths (exponential), the oracle for
the bottleneck identity.
"""

import itertools

import numpy as np
from scipy.optimize import minimize


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
    # terms not involving the first coefficient
    tail = (
        gram[1, 1] * a2 * a2
        + gram[2, 2] * a3 * a3
        + 2.0 * gram[1, 2] * a2 * a3
        - 2.0 * b[1] * a2
        - 2.0 * b[2] * a3
    )
    tail_pen = kappa * (np.abs(a2) + np.abs(a3))
    cross = gram[0, 1] * a2 + gram[0, 2] * a3
    best_value = np.inf
    best_point = None
    for a1 in grid:
        total = (
            0.5 * (xx + tail + gram[0, 0] * a1 * a1 + 2.0 * a1 * cross - 2.0 * b[0] * a1)
            + tail_pen
            + kappa * abs(a1)
        )
        pos = np.unravel_index(np.argmin(total), total.shape)
        if total[pos] < best_value:
            best_value = float(total[pos])
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


def prim_max_spanning_tree_min_edge(weights, start=0):
    """Min edge weight of a maximum spanning tree built by Prim's algorithm
    (a different construction and tie-breaking than Kruskal)."""
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


def list_gibbs_lda_weights(matrix, n_topics, alpha, beta, iterations, seed):
    """LDA topic weights from the original token-by-token Gibbs sampler.

    ``matrix`` is a raw-count word x document sparse matrix. Returns the
    N x K posterior-mean word distributions averaged over the final 20% of
    sweeps, as ``lda_fit`` defines them.
    """
    m = matrix.tocsc()
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
