/*
 * Per-problem SMO iteration loop behind repro.svm.smo.solve_smo_batch.
 *
 * Each of the B problems runs to convergence on its own (the paper's
 * PhiSVM runs one voxel problem per thread); there are no lock-step
 * sweeps.  Every float operation mirrors the numpy batch solver
 * (_solve_smo_batch_numpy) in order and in float32, so the iterates are
 * bitwise-identical to it.  That needs IEEE float32 arithmetic without
 * FMA contraction: build with -ffp-contract=off and without -ffast-math.
 *
 * The caller owns every buffer: alpha (zeros) and grad (-1) arrive
 * initialized, and the kernel only writes the per-problem outputs.
 */
#include <math.h>
#include <stdint.h>

#define TAU ((float)1e-12) /* numpy: float32(float64(1e-12)) */

enum { SELECT_FIRST = 0, SELECT_SECOND = 1, SELECT_ADAPTIVE = 2 };
enum { PROBE_FIRST, PROBE_SECOND, COMMIT };

/* Adaptive rule without logarithms: first order wins iff its per-cost
 * rate log(s1/e1)/probe is strictly above log(s2/e2)/(2 probe), i.e. iff
 * (s1/e1)^2 > s2/e2.  A probe whose gap is <= 0 at either end has rate
 * inf, and inf > inf is false. */
static int first_order_wins(float s1, float e1, float s2, float e2)
{
    int inf1 = s1 <= 0.0f || e1 <= 0.0f;
    int inf2 = s2 <= 0.0f || e2 <= 0.0f;
    double r1, rhs;
    if (inf1 || inf2)
        return inf1 && !inf2;
    r1 = (double)s1 / (double)e1;
    rhs = (double)s2 / (double)e2;
    return r1 * r1 > rhs;
}

static void solve_one(int64_t n, const float *k, const float *y,
                      const float *d, float c, double tol, int64_t max_iter,
                      int selection, int64_t probe, int64_t commit,
                      float *a, float *g, int64_t *iterations,
                      uint8_t *converged, double *final_gap)
{
    int phase = PROBE_FIRST, committed_second = 1, have_start = 0;
    int64_t phase_left = probe, it = 0, t;
    float start = 0.0f, s1 = 0.0f, e1 = 0.0f;

    *converged = 0;
    *final_gap = 0.0;
    while (it < max_iter) {
        /* Maximal violating pair: first-occurrence argmax / argmin. */
        float gmax = -INFINITY, gmin = INFINITY, gap;
        int64_t i = 0, j = 0;
        int use_second, has_nan = 0;
        for (t = 0; t < n; t++) {
            float m = -(y[t] * g[t]);
            int pos = y[t] > 0.0f, upper = a[t] >= c, lower = a[t] <= 0.0f;
            if ((pos && !upper) || (!pos && !lower)) {
                if (m != m) has_nan = 1;
                else if (m > gmax) { gmax = m; i = t; }
            }
            if ((pos && !lower) || (!pos && !upper)) {
                if (m != m) has_nan = 1;
                else if (m < gmin) { gmin = m; j = t; }
            }
        }
        /* An empty I_up / I_low (or a NaN) makes the problem optimal. */
        gap = (has_nan || !isfinite(gmax) || !isfinite(gmin))
            ? 0.0f : gmax - gmin;
        *final_gap = gap;

        if (selection == SELECT_ADAPTIVE) {
            use_second = phase == PROBE_FIRST ? 0
                       : phase == PROBE_SECOND ? 1 : committed_second;
            if (!have_start) { start = gap; have_start = 1; }
            if (--phase_left <= 0) {
                if (phase == PROBE_FIRST) {
                    s1 = start; e1 = gap;
                    phase = PROBE_SECOND; phase_left = probe;
                } else if (phase == PROBE_SECOND) {
                    committed_second = !first_order_wins(s1, e1, start, gap);
                    phase = COMMIT; phase_left = commit;
                } else {
                    phase = PROBE_FIRST; phase_left = probe;
                }
                start = gap;
            }
        } else {
            use_second = selection == SELECT_SECOND;
        }
        if (!((double)gap >= tol)) { *converged = 1; break; }
        it++;

        const float *ki = k + i * n;
        if (use_second) {
            /* j maximizes the second-order gain b^2 / a over I_low
             * entries below gmax; NaN gains win, as in np.argmax. */
            float best = -INFINITY;
            for (t = 0; t < n; t++) {
                float m = -(y[t] * g[t]);
                int pos = y[t] > 0.0f;
                int low = (pos && !(a[t] <= 0.0f)) || (!pos && !(a[t] >= c));
                if (low && m < gmax) {
                    float ac = d[i] + d[t] - 2.0f * ki[t];
                    float bc = gmax - m, gain;
                    if (ac <= 0.0f) ac = TAU;
                    gain = (bc * bc) / ac;
                    if (gain != gain) { j = t; break; }
                    if (gain > best) { best = gain; j = t; }
                }
            }
        }

        /* Two-variable analytic update with LibSVM's clipping order. */
        float yi = y[i], yj = y[j], ai = a[i], aj = a[j];
        float qij = yi * yj * ki[j], quad, delta, ni, nj, si, sj;
        int same = yi == yj;
        quad = same ? d[i] + d[j] - 2.0f * qij : d[i] + d[j] + 2.0f * qij;
        if (quad <= 0.0f) quad = TAU;
        delta = (same ? g[i] - g[j] : -g[i] - g[j]) / quad;
        if (same) {
            float total = ai + aj;
            ni = ai - delta; nj = aj + delta;
            if (total > c && ni > c) { ni = c; nj = total - c; }
            if (total <= c && nj < 0.0f) { nj = 0.0f; ni = total; }
            if (total > c && nj > c) { nj = c; ni = total - c; }
            if (total <= c && ni < 0.0f) { ni = 0.0f; nj = total; }
        } else {
            float diff = ai - aj;
            ni = ai + delta; nj = aj + delta;
            if (diff > 0.0f && nj < 0.0f) { nj = 0.0f; ni = diff; }
            if (diff <= 0.0f && ni < 0.0f) { ni = 0.0f; nj = -diff; }
            if (diff > 0.0f && ni > c) { ni = c; nj = c - diff; }
            if (diff <= 0.0f && nj > c) { nj = c; ni = c + diff; }
        }
        si = ni - ai;
        sj = nj - aj;
        a[i] = ni;
        a[j] = nj;
        if (si != 0.0f || sj != 0.0f) {
            const float *kj = k + j * n;
            for (t = 0; t < n; t++)
                g[t] += (yi * (y[t] * ki[t])) * si + (yj * (y[t] * kj[t])) * sj;
        }
    }
    *iterations = it;
}

/* Solve problems [0, b): kernels (b, n, n), y / diag / alpha / grad
 * (b, n), all C-contiguous float32.  ``tol`` is the threshold in the
 * precision numpy compares the float32 gap against it. */
void smo_solve_batch(int64_t b, int64_t n, const float *kernels,
                     const float *y, const float *diag, float c, double tol,
                     int64_t max_iter, int selection, int64_t probe,
                     int64_t commit, float *alpha, float *grad,
                     int64_t *iterations, uint8_t *converged,
                     double *final_gap)
{
    int64_t p;
    for (p = 0; p < b; p++)
        solve_one(n, kernels + p * n * n, y + p * n, diag + p * n, c, tol,
                  max_iter, selection, probe, commit, alpha + p * n,
                  grad + p * n, iterations + p, converged + p, final_gap + p);
}
