
#include <math.h>
#include <stdint.h>
void sweep(int64_t n_tokens, int64_t k, const int64_t *words,
           const int64_t *docs, int64_t *z, int64_t *n_wt, int64_t *n_dt,
           int64_t *n_t, double alpha, double beta, double nbeta,
           const double *uniforms, double *p) {
    for (int64_t idx = 0; idx < n_tokens; idx++) {
        int64_t t = z[idx];
        int64_t *nw = n_wt + words[idx] * k, *nd = n_dt + docs[idx] * k;
        nw[t] -= 1, nd[t] -= 1, n_t[t] -= 1;
        double total = 0.0, acc = 0.0;
        for (t = 0; t < k; t++) {
            p[t] = (nw[t] + beta) * (nd[t] + alpha) / (n_t[t] + nbeta);
            total += p[t];
        }
        double u = uniforms[idx] * total;
        for (t = 0; t < k - 1; t++) {  /* t = k - 1 if no break */
            acc += p[t];
            if (u < acc)
                break;
        }
        z[idx] = t;
        nw[t] += 1, nd[t] += 1, n_t[t] += 1;
    }
}

/* alpha and c come in as zeros; returns the last pass objective. */
double cd_solve(int64_t k, const double *gram, const double *b, double xx,
                double kappa, double tol, int64_t max_iter, double *alpha,
                double *c) {
    double prev = 0.5 * xx;
    for (int64_t it = 0; it < max_iter; it++) {
        for (int64_t j = 0; j < k; j++) {
            const double *row = gram + j * k;
            double dj = row[j], old = alpha[j], r, a;
            if (!(dj > 1e-15))
                continue;
            r = b[j] - c[j] + dj * old;
            a = r > kappa ? (r - kappa) / dj : r < -kappa ? (r + kappa) / dj : 0.0;
            if (a != old) {
                double step = a - old;
                alpha[j] = a;
                for (int64_t i = 0; i < k; i++)
                    c[i] += step * row[i];
            }
        }
        for (int64_t i = 0; i < k; i++)  /* c = gram @ alpha, afresh */
            c[i] = 0.0;
        for (int64_t j = 0; j < k; j++)
            if (alpha[j] != 0.0)
                for (int64_t i = 0; i < k; i++)
                    c[i] += gram[i * k + j] * alpha[j];
        double quad = xx, l1 = 0.0;
        for (int64_t j = 0; j < k; j++)
            if (alpha[j] != 0.0) {
                quad += alpha[j] * (c[j] - 2.0 * b[j]);
                l1 += fabs(alpha[j]);
            }
        double cur = 0.5 * quad + kappa * l1, change = fabs(prev - cur);
        prev = cur;
        if (change < tol)
            break;
    }
    return prev;
}

/* d is n x k, stat_a k x k (symmetric), stat_b n x k, all row-major; u is
   scratch of n. A zero a[r] or x[r] adds only zeros to statistics that
   start at +0.0, so skipping it keeps the bits. Four rows of d @ stat_a[:, j]
   are summed at once, each left to right from 0.0 in a chain of its own:
   four adds run at once where one chain would wait on each. */
void dl_update(int64_t n, int64_t k, double w, const double *x,
               const double *a, double *stat_a, double *stat_b, double *d,
               double *u) {
    for (int64_t r = 0; r < k; r++)
        if (a[r] != 0.0)
            for (int64_t c = 0; c < k; c++)
                stat_a[r * k + c] += w * (a[r] * a[c]);
    for (int64_t r = 0; r < n; r++)
        if (x[r] != 0.0)
            for (int64_t c = 0; c < k; c++)
                stat_b[r * k + c] += w * (x[r] * a[c]);
    for (int64_t j = 0; j < k; j++) {
        const double *sa = stat_a + j * k;  /* row j == column j */
        double ajj = sa[j], norm = 0.0;
        if (ajj <= 1e-12)
            continue;
        int64_t r = 0;
        for (; r + 4 <= n; r += 4) {  /* u[r] = (d @ sa)[r], four chains */
            const double *r0 = d + r * k, *r1 = r0 + k, *r2 = r1 + k, *r3 = r2 + k;
            double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
            for (int64_t c = 0; c < k; c++) {
                s0 += r0[c] * sa[c];
                s1 += r1[c] * sa[c];
                s2 += r2[c] * sa[c];
                s3 += r3[c] * sa[c];
            }
            u[r] = s0, u[r + 1] = s1, u[r + 2] = s2, u[r + 3] = s3;
        }
        for (; r < n; r++) {
            double acc = 0.0;
            for (int64_t c = 0; c < k; c++)
                acc += d[r * k + c] * sa[c];
            u[r] = acc;
        }
        for (r = 0; r < n; r++) {
            u[r] = d[r * k + j] + (stat_b[r * k + j] - u[r]) / ajj;
            norm += u[r] * u[r];
        }
        double scale = sqrt(norm);
        if (scale < 1.0)
            scale = 1.0;
        for (int64_t r = 0; r < n; r++)
            d[r * k + j] = u[r] / scale;
    }
}

/* One document of an l1 fit: cd_solve from zeros, then dl_update with its
   coefficients; returns the solve's objective. */
double dl_step(int64_t n, int64_t k, const double *x, const double *gram,
               const double *b, double *alpha, double *c, double *stat_a,
               double *stat_b, double *d, double *u, double kappa, double tol,
               int64_t max_iter, double w, double xx) {
    for (int64_t j = 0; j < k; j++)
        alpha[j] = c[j] = 0.0;
    double objective = cd_solve(k, gram, b, xx, kappa, tol, max_iter, alpha, c);
    dl_update(n, k, w, x, alpha, stat_a, stat_b, d, u);
    return objective;
}

/* y += A x for CSC A of n_col columns and x of n_col rows, y and x
   row-major with w columns: a(i, j) x[j] is added to y[i] column by
   column, as scipy's csc_matvecs does. */
void csc_matvecs(int64_t n_col, int64_t w, const int64_t *ap,
                 const int64_t *ai, const double *ax, const double *x,
                 double *y) {
    for (int64_t j = 0; j < n_col; j++)
        for (int64_t p = ap[j]; p < ap[j + 1]; p++) {
            const double a = ax[p], *xj = x + j * w;
            double *yi = y + ai[p] * w;
#pragma GCC unroll 4
            for (int64_t c = 0; c < w; c++)
                yi[c] += a * xj[c];
        }
}

/* y += A x for CSR A of n_row rows: row i of y gains a(i, j) x[j] over
   the row's entries in order, as scipy's csr_matvecs does. */
void csr_matvecs(int64_t n_row, int64_t w, const int64_t *ap,
                 const int64_t *aj, const double *ax, const double *x,
                 double *y) {
    for (int64_t i = 0; i < n_row; i++) {
        double *yi = y + i * w;
        for (int64_t p = ap[i]; p < ap[i + 1]; p++) {
            const double a = ax[p], *xj = x + aj[p] * w;
#pragma GCC unroll 4
            for (int64_t c = 0; c < w; c++)
                yi[c] += a * xj[c];
        }
    }
}

/* out += A[rows] B for CSR A and CSR B of n_col columns, out row-major
   n x n_col: entry (r, k) sums a(rows[r], j) b(j, k) over the entries j of
   A's row in order, as scipy's csr_matmat does before it drops zeros. */
void csr_matmat(int64_t n, const int64_t *rows, int64_t n_col,
                const int64_t *ap, const int64_t *aj, const double *ax,
                const int64_t *bp, const int64_t *bj, const double *bx,
                double *out) {
    for (int64_t r = 0; r < n; r++) {
        double *o = out + r * n_col;
        for (int64_t p = ap[rows[r]]; p < ap[rows[r] + 1]; p++) {
            const double a = ax[p];
            for (int64_t q = bp[aj[p]]; q < bp[aj[p] + 1]; q++)
                o[bj[q]] += a * bx[q];
        }
    }
}

/* The CSC arrays (bp of n_col + 1 entries) of A[rows] for CSR A: a
   counting sort by column, as scipy's csr_tocsc does, so each column's
   row numbers ascend. */
void csr_tocsc(int64_t n, const int64_t *rows, int64_t n_col,
               const int64_t *ap, const int64_t *aj, const double *ax,
               int64_t *bp, int64_t *bi, double *bx) {
    for (int64_t c = 0; c <= n_col; c++)
        bp[c] = 0;
    for (int64_t r = 0; r < n; r++)
        for (int64_t p = ap[rows[r]]; p < ap[rows[r] + 1]; p++)
            bp[aj[p] + 1]++;
    for (int64_t c = 0; c < n_col; c++)  /* bp[c]: where column c starts */
        bp[c + 1] += bp[c];
    for (int64_t r = 0; r < n; r++)
        for (int64_t p = ap[rows[r]]; p < ap[rows[r] + 1]; p++) {
            int64_t dest = bp[aj[p]]++;
            bi[dest] = r;
            bx[dest] = ax[p];
        }
    for (int64_t c = n_col; c > 0; c--)  /* bp[c - 1] ran to column c's start */
        bp[c] = bp[c - 1];
    bp[0] = 0;
}
