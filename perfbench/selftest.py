"""Fast self-test of the benchmark harness (a few seconds).

    python3 perfbench/selftest.py

Checks that the tracer wraps every binding of a traced function and restores
each one afterwards, that self times add up to the traced pass, that tracing
leaves results bit-for-bit unchanged, that ``final_state`` reads zero on a
free flow, and that the reference comparison flags values off the reference.
"""

import sys

import run
import workloads
from tracer import FFT_ENTRIES, Tracer, _package_modules


def bindings():
    import numpy.fft
    import scipy.fft

    out = {}
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if callable(value):
                out[(mod.__name__, attr)] = value
    for mod in (numpy.fft, scipy.fft):
        for attr in FFT_ENTRIES:
            out[(mod.__name__, attr)] = getattr(mod, attr)
    field_cls = sys.modules["nnlslab.grid"].SpectralField
    out[("SpectralField", "__post_init__")] = field_cls.__post_init__
    return out


def u0_small(nnlslab):
    import numpy as np

    grid = nnlslab.FrequencyGrid(64, 20.0)
    x = grid.points
    return nnlslab.forward_transform(0.3 * np.exp(-x * x / 2.0).astype(complex), grid)


def small_pass(nnlslab):
    u0 = u0_small(nnlslab)
    traj = nnlslab.solve(u0, 0.02, 0.005, nnlslab.EquationSpec("NdNLS"), sample_every=2,
                         norm_params=[(-1.0, 0.0)])
    _, report = nnlslab.picard_solve(u0, 0.05, nnlslab.EquationSpec("NNLS"), n_nodes=9, n_iter=3)
    v = nnlslab.gauge_forward(u0, -0.5)
    return [complex(d["mass"]) for d in traj.diagnostics] + report.iterates_distances + [
        complex(c) for c in v.coeffs]


def main():
    cli = run.import_package()
    import nnlslab

    before = bindings()
    expected = small_pass(nnlslab)
    tracer = Tracer()
    with tracer:
        during = bindings()
        wrapped = [k for k in before if during[k] is not before[k]]
        evolve_nl = sys.modules["nnlslab.evolve"].nonlinear_term
        assert evolve_nl is sys.modules["nnlslab.equations"].nonlinear_term is nnlslab.nonlinear_term
        assert evolve_nl.__wrapped__ is before[("nnlslab.equations", "nonlinear_term")]
        assert ("nnlslab.evolve", "cumulative_simpson") in wrapped
        assert ("nnlslab.cli", "run_experiment") in wrapped
        got = tracer.span("pass", small_pass)(nnlslab)
    after = bindings()
    restored = [k for k in before if after[k] is not before[k]]
    assert not restored, "bindings not restored: %s" % restored
    assert got == expected, "traced outputs differ from untraced outputs"

    summary = tracer.summary()
    root = [s for s in tracer.spans if s[1] == -1]
    assert len(root) == 1 and root[0][0] == "pass"
    root_s = root[0][3] - root[0][2]
    self_sum = sum(row["self_s"] for row in summary.values())
    assert abs(self_sum - root_s) <= 1e-9 * max(root_s, 1.0), (self_sum, root_s)
    assert all(row["self_s"] >= 0 for row in summary.values())
    assert summary["evolve.step"]["calls"] == 4
    nl = summary["equations.nonlinear_term"]["calls"]
    assert nl == tracer.counts["equations.nonlinear_term.NdNLS.calls"] + \
        tracer.counts["equations.nonlinear_term.NNLS.calls"]
    assert tracer.counts["evolve.picard_solve.iterations"] == 3
    assert tracer.counts["grid.fft.calls"] > 0
    assert tracer.counts["grid.fft.points"] % 2 == 0

    free = nnlslab.solve(u0_small(nnlslab), 0.02, 0.005, nnlslab.EquationSpec("NNLS", alpha=0.0))
    assert workloads.final_state(free)[0] < 1e-14, "free flow departs from itself"

    ref = {"mass_drift": [1e-12], "slope": [2.0]}
    assert workloads.mismatches({"mass_drift": [5e-12], "slope": [2.0]}, ref) == []
    assert workloads.mismatches({"mass_drift": [1e-12], "slope": [2.001]}, ref) == ["slope"]
    assert workloads.mismatches({"mass_drift": [float("nan")], "slope": [2.0]}, ref) == ["mass_drift"]
    assert workloads.mismatches({"slope": [2.0]}, ref) == ["mass_drift"]
    assert cli.run_experiment is before[("nnlslab.cli", "run_experiment")]
    print("selftest ok: %d bindings wrapped and restored, %d spans, self times sum to %.6f s"
          % (len(wrapped), len(tracer.spans), root_s))


if __name__ == "__main__":
    main()
