"""The traced run: per-layer metrics from spans around public gpsgd calls.

Each stage first runs one unit untraced, as the end-to-end run does. The
traced part then redoes that unit from the public functions of the modules
it is built on, with one span around each call, and checks that it got the
same answer:

* fit: at iteration k, draw the batch with `iteration_rng(seed, k)` and
  `draw_minibatch`, and call `stochastic_gradient` at the recorded theta;
  the result must equal the fit's recorded gradient bit for bit. On every
  fourth replayed iteration the gradient's parts (covariance, derivative
  matrices, Cholesky, two-sided solves) are timed on the same batch. Fits of
  more than 1000 iterations are replayed at a stride that leaves 1000.
* exact: kernel cross-covariance, training covariance, Cholesky, solves.
* cg: one CG solve against the training targets.
* nearest: build the index, then per test point a query and a local exact
  predict.
* diagnose: the curvature experiment and the eigendecay fit as whole calls,
  and eigenvalues of realised batch kernel matrices.

Spans are named `<module>.<function>`; `bench.<stage>` spans group them.
"""

from __future__ import annotations

import time

import numpy as np

import gpsgd as g
from gpsgd.kernels import effective_kernels, kernel_matrix_grad
from gpsgd.linalg import two_sided_solve
from gpsgd.sampling import draw_minibatch
from gpsgd.seeds import component_rng, iteration_rng

from spans import Tracer
from workloads import CG_TOL, N_NEIGHBORS, Session, Tally, iteration_ms

LAYERS = ("data", "seeds", "sampling", "kernels", "linalg", "training", "prediction",
          "diagnostics", "bench")
REPLAYED_ITERATIONS = 1000
PARTS_EVERY = 4
SPECTRA_PER_CELL = 8     # batch spectra timed per (m, scheme) of the diagnose grid


def _p(values, q: float, scale: float) -> float:
    return float(np.percentile(np.asarray(values), q)) * scale


def _stage_stat(tr: Tracer, stage: str, scale: float):
    """Percentile q of the durations of spans `name` inside `stage`, times
    `scale`."""
    return lambda name, q=50: _p(tr.durations(name, stage), q, scale)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.allclose(a, b, rtol=1e-8, atol=1e-12))


def _timed(fn):
    """Run one unit untraced; returns (seconds, output)."""
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _overhead_pct(traced_s: float, untraced_before_s: float, unit) -> float:
    """Traced time against the mean of the untraced unit run before and
    after it, so that a cold first run does not pass for overhead."""
    after_s, _ = _timed(unit)
    return 100.0 * (2.0 * traced_s / (untraced_before_s + after_s) - 1.0)


def trace_fit(s: Session, tr: Tracer, tally: Tally) -> dict:
    trace = s.run_fit()
    cfg = s.fit_config()
    X, y, n = s.fit_train.X, s.fit_train.y, s.fit_train.n
    iter_ms = iteration_ms(trace)
    stride = max(1, trace.iterations // REPLAYED_ITERATIONS)
    mismatches = 0
    traced_iter, untraced_iter, step = [], [], []
    with tr.span("bench.fit"):
        index = (tr.call("sampling.build_index", g.build_index, X)
                 if cfg.scheme == g.SamplingScheme.NEARBY else None)
        for j, k in enumerate(range(1, trace.iterations + 1, stride)):
            theta = g.HyperParams.from_vector(trace.records[k - 1].theta, trace.n_kernels,
                                              trace.has_lengthscales)
            first = len(tr.spans)
            with tr.span("bench.iteration"):
                rng = tr.call("seeds.iteration_rng", iteration_rng, cfg.seed, k)
                batch = tr.call("sampling.draw_minibatch", draw_minibatch, cfg.scheme, n,
                                cfg.m, rng, index)
                grad = tr.call("training.stochastic_gradient", g.stochastic_gradient, theta,
                               s.kernels, batch, X, y, cfg.scaling)
            parts = sum(end - start for _, start, end, _ in tr.spans[first + 1:first + 4])
            traced_iter.append(tr.spans[first][2] - tr.spans[first][1])
            untraced_iter.append(iter_ms[k - 1] / 1e3)
            step.append(iter_ms[k - 1] / 1e3 - parts)
            mismatches += not np.array_equal(grad, trace.records[k].gradient)
            if j % PARTS_EVERY == 0:
                _trace_gradient_parts(tr, s.kernels, theta, X[np.asarray(batch.indices)])
    tally.check("replay.gradients", mismatches == 0,
                f"{mismatches} replayed gradients differ from the fit's records")
    us = _stage_stat(tr, "bench.fit", 1e6)
    return {
        "seeds.iteration_rng_us_p50": us("seeds.iteration_rng"),
        "sampling.draw_us_p50": us("sampling.draw_minibatch"),
        "kernels.covariance_us_p50": us("kernels.marginal_covariance"),
        "kernels.grad_matrices_us_p50": us("kernels.kernel_matrix_grad"),
        "linalg.cholesky_us_p50": us("linalg.cholesky"),
        "linalg.two_sided_solve_us_p50": us("linalg.two_sided_solve"),
        "training.gradient_us_p50": us("training.stochastic_gradient"),
        "training.gradient_us_p99": us("training.stochastic_gradient", 99),
        "training.step_us_p50": _p(step, 50, 1e6),
        "training.iterations": float(trace.iterations),
        "training.iter_ms_p99": _p(iter_ms, 99, 1.0),
        "overhead.fit_pct": 100.0 * (np.median(traced_iter) / np.median(untraced_iter) - 1.0),
    }


def _trace_gradient_parts(tr: Tracer, kernels, theta, Xb: np.ndarray) -> None:
    """The pieces `stochastic_gradient` is built from, on one batch; the
    derivative-matrix and two-sided-solve spans cover every slot."""
    with tr.span("bench.gradient_parts"):
        K = tr.call("kernels.marginal_covariance", g.marginal_covariance, kernels, theta, Xb)
        with tr.span("kernels.kernel_matrix_grad"):
            slots = [kernel_matrix_grad(kernels, theta, Xb, l) for l in range(theta.n_params)]
        factor = tr.call("linalg.cholesky", g.cholesky, K)
        with tr.span("linalg.two_sided_solve"):
            for D in slots:
                two_sided_solve(factor, D)


def trace_predict(s: Session, tr: Tracer, tally: Tally) -> dict:
    theta = s.predict_theta()
    exact_s, exact = _timed(s.run_exact)
    X, y, Xt, _ = s.predict_inputs("exact")
    with tr.span("bench.exact"):
        eff = tr.call("kernels.effective_kernels", effective_kernels, s.kernels, theta)
        with tr.span("kernels.cross_kernel_matrix"):
            k_star = np.zeros((X.shape[0], Xt.shape[0]))
            for variance, spec in zip(theta.signal_variances, eff.components):
                k_star += variance * g.cross_kernel_matrix(spec, X, Xt)
        K = tr.call("kernels.marginal_covariance", g.marginal_covariance, s.kernels, theta, X)
        factor = tr.call("linalg.cholesky", g.cholesky, K)
        with tr.span("linalg.solve"):
            alpha = g.solve(factor, y)
            V = g.solve(factor, k_star)
        mean = k_star.T @ alpha
        variance = np.maximum(sum(theta.signal_variances)
                              - np.einsum("ij,ij->j", k_star, V), 0.0)
    tally.check("replay.exact", _same(mean, exact.mean) and _same(variance, exact.variance),
                "decomposed exact prediction differs from predict()")
    exact_overhead = _overhead_pct(tr.durations("bench.exact")[0], exact_s, s.run_exact)

    with tr.span("bench.cg"):
        res = tr.call("linalg.cg_solve", g.cg_solve, lambda v: K @ v, y, tol=CG_TOL)
    tally.check("replay.cg", res.converged, f"CG stopped at residual {res.residual:.3e}")
    cg_seconds = tr.durations("linalg.cg_solve", "bench.cg")[0]

    nearest_s, nearest = _timed(s.run_nearest)
    X, y, Xt, _ = s.predict_inputs("nearest")
    means = np.empty(Xt.shape[0])
    with tr.span("bench.nearest"):
        index = tr.call("sampling.build_index", g.build_index, X)
        for t in range(Xt.shape[0]):
            nb = tr.call("sampling.query", index.query, Xt[t], N_NEIGHBORS)
            local = tr.call("prediction.predict", g.predict, theta, s.kernels, X[nb], y[nb],
                            Xt[t:t + 1], strategy=g.PredictStrategy.EXACT)
            means[t] = local.mean[0]
    tally.check("replay.nearest", _same(means, nearest.mean),
                "decomposed nearest-neighbour prediction differs from predict_nn()")
    exact_ms = _stage_stat(tr, "bench.exact", 1e3)
    nearest_us = _stage_stat(tr, "bench.nearest", 1e6)
    return {
        "kernels.train_covariance_ms": exact_ms("kernels.marginal_covariance"),
        "kernels.cross_ms": exact_ms("kernels.cross_kernel_matrix"),
        "linalg.cholesky_ms": exact_ms("linalg.cholesky"),
        "linalg.solve_ms": exact_ms("linalg.solve"),
        "linalg.cg_iterations": float(res.iterations),
        "linalg.cg_ms_per_iter": 1e3 * cg_seconds / max(res.iterations, 1),
        "sampling.build_index_ms": nearest_us("sampling.build_index") / 1e3,
        "sampling.query_us_p50": nearest_us("sampling.query"),
        "prediction.nn_local_us_p50": nearest_us("prediction.predict"),
        "overhead.exact_pct": exact_overhead,
        "overhead.nearest_pct": _overhead_pct(tr.durations("bench.nearest")[0], nearest_s,
                                              s.run_nearest),
    }


def trace_diagnose(s: Session, tr: Tracer, tally: Tally) -> dict:
    d, theta, spec, dist = s.diagnose_parts()
    with tr.span("bench.diagnose"):
        reports = tr.call("diagnostics.curvature_experiment", g.curvature_experiment,
                          d["pool"], list(d["m_grid"]), d["replicates"], theta, spec, dist,
                          seed=s.seed + 3)
        with tr.span("bench.eigendecay"):
            X = dist.sample(component_rng(s.seed + 4, "diagnose-eigendecay"), d["pool"], 1)
            K = tr.call("kernels.kernel_matrix", g.kernel_matrix, spec, X)
            spectrum = tr.call("linalg.sym_eigenvalues", g.sym_eigenvalues, K)
            fit = tr.call("diagnostics.eigendecay_fit", g.eigendecay_fit, spectrum, d["pool"],
                          g.DecayFamily.EXPONENTIAL)
    tally.check("replay.diagnose", len(reports) == 2 * len(d["m_grid"]) and np.isfinite(fit.rate),
                "diagnose produced no curvature reports or no decay rate")
    with tr.span("bench.batch_spectra"):
        index = tr.call("sampling.build_index", g.build_index, X)
        for m in d["m_grid"]:
            for scheme in g.SamplingScheme:
                for rep in range(SPECTRA_PER_CELL):
                    rng = component_rng(s.seed + 5, f"spectra-{scheme.value}-{m}", rep)
                    batch = tr.call("sampling.draw_minibatch", draw_minibatch, scheme,
                                    d["pool"], m, rng, index)
                    Kb = tr.call("kernels.kernel_matrix", g.kernel_matrix, spec,
                                 X[np.asarray(batch.indices)])
                    tr.call("linalg.sym_eigenvalues", g.sym_eigenvalues, Kb)
    return {
        "diagnostics.curvature_s": tr.durations("diagnostics.curvature_experiment", "bench.diagnose")[0],
        "diagnostics.eigendecay_s": tr.durations("bench.eigendecay", "bench.diagnose")[0],
        "linalg.eigvalsh_us_p50": _p(tr.durations("linalg.sym_eigenvalues", "bench.batch_spectra"), 50, 1e6),
    }


def traced_run(name: str, seed: int, tally: Tally, spans_path: str) -> dict:
    tr = Tracer()
    with tr.span("bench.setup"):
        session = Session(name, seed, tr)
    metrics = {"data.simulate_s": sum(
        sum(tr.durations(n, "bench.setup")) for n in
        ("data.simulate_gp", "data.simulate_function", "data.train_test_split", "data.normalize"))}
    for stage in (trace_fit, trace_predict, trace_diagnose):
        ok, out = tally.run(stage.__name__, lambda: stage(session, tr, tally))
        if ok:
            metrics.update(out)
    self_time = tr.self_time_by_layer()
    for layer in LAYERS:
        metrics[f"self_s.{layer}"] = self_time.get(layer, 0.0)
    tr.dump(spans_path)
    return metrics
