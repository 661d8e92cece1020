"""Unit tests for the finite-difference gradient audit."""

import math

import numpy as np
import pytest

from blasius_net.gradcheck import (
    AUDIT_BLOCK,
    HIDDEN,
    GradCheckResult,
    fd_param_gradient,
    gradient_discrepancy,
    run_gradient_checks,
)
from blasius_net.network import NetworkJet, NetworkParams, param_gradient
from blasius_net.problem import LossEvaluator

# [r.max_rel_error for r in run_gradient_checks(draws=3, seed=0)], repr-exact;
# any rounding change in the audit's draws, jets, evaluator or differences moves one.
# Both audit pins were recorded on OpenBLAS's SkylakeX kernels (the report header
# names this run's); the Haswell and Zen kernels round differently and fail them
AUDIT_FINGERPRINT = [
    1.147799414386947e-09,
    5.997416780438978e-10,
    3.5140658969892346e-10,
    7.222779956072353e-09,
    1.4687633007366736e-09,
    4.880877920727391e-10,
    3.8245319595313915e-10,
    1.0434788100333371e-09,
    9.378680298428815e-10,
    8.570663447781699e-09,
    2.011025092172656e-09,
    9.76533255801404e-10,
    3.498705907628483e-10,
    3.1814519938809294e-10,
]

# the same at draws=25, seed=0: two full blocks of draws and a remainder,
# recorded before the audit stacked its blocks, on the same SkylakeX kernels
BLOCKS_DRAWS = 25
BLOCKS_FINGERPRINT = [
    1.797718959147428e-09,
    7.242808330062344e-09,
    6.698960469263768e-09,
    7.222779956072353e-09,
    3.363644915946713e-08,
    1.824678137270502e-08,
    1.6301498085645765e-09,
    5.888763132692993e-09,
    1.1144504990936193e-09,
    8.570663447781699e-09,
    2.011025092172656e-09,
    1.9503068239286202e-09,
    5.477980031480317e-08,
    1.1594482911910304e-08,
]


def test_fd_param_gradient_matches_analytic_forward():
    params = NetworkParams([0.4, -0.9], [0.2, 0.1], [1.1, -0.3])
    jet = NetworkJet.bare([1.3])
    (numeric,) = fd_param_gradient(lambda stack: jet.forward(stack)[:, 0, 0],
                                   params.weights[None])
    analytic = param_gradient(params, 1.3, 0)
    assert np.allclose(numeric[0], analytic[0], atol=1e-8)
    assert np.allclose(numeric[1], analytic[1], atol=1e-8)
    assert np.allclose(numeric[2], analytic[2], atol=1e-8)


def test_gradient_discrepancy_metric():
    a = (np.array([1.0, 2.0]),)
    assert gradient_discrepancy(a, (np.array([1.0, 2.0]),)) == 0.0
    near = (np.array([1.0, 2.0 * (1.0 + 1e-6)]),)
    assert gradient_discrepancy(a, near) == pytest.approx(1e-6, rel=1e-3)
    far = (np.array([1.0, 3.0]),)
    assert gradient_discrepancy(a, far) == pytest.approx(1.0 / 3.0, rel=1e-12)
    # the floor keeps tiny vectors from dividing by almost zero
    tiny = (np.array([0.0]),)
    assert gradient_discrepancy(tiny, (np.array([1e-9]),)) == pytest.approx(1e-3, rel=1e-6)


def test_run_gradient_checks_all_pass():
    results = run_gradient_checks(draws=10, seed=1)
    # 4 network orders + 2 modes x 4 trial orders + 2 loss modes
    assert len(results) == 14
    names = [r.name for r in results]
    assert len(set(names)) == 14
    for res in results:
        assert isinstance(res, GradCheckResult)
        assert res.draws == 10
        assert res.passed
        assert res.max_rel_error <= 1e-5


def test_run_gradient_checks_is_deterministic():
    first = run_gradient_checks(draws=5, seed=3)
    second = run_gradient_checks(draws=5, seed=3)
    assert [r.max_rel_error for r in first] == [r.max_rel_error for r in second]


def test_run_gradient_checks_is_bit_exact():
    results = run_gradient_checks(draws=3, seed=0)
    assert [r.max_rel_error for r in results] == AUDIT_FINGERPRINT


@pytest.mark.parametrize("draws", [0, -1])
def test_run_gradient_checks_rejects_no_draws(draws):
    # an audit of no draws would pass every case without checking anything
    with pytest.raises(ValueError, match="draws must be at least 1"):
        run_gradient_checks(draws=draws)


def test_run_gradient_checks_is_bit_exact_across_blocks():
    assert 2 * AUDIT_BLOCK < BLOCKS_DRAWS < 3 * AUDIT_BLOCK
    results = run_gradient_checks(draws=BLOCKS_DRAWS, seed=0)
    assert [r.max_rel_error for r in results] == BLOCKS_FINGERPRINT


@pytest.mark.parametrize("draws", [1, AUDIT_BLOCK, 2 * AUDIT_BLOCK + 3])
def test_no_audit_call_stacks_more_than_one_block(draws, monkeypatch):
    # a block's 2 * 3H perturbations of each weight set, never more, so the
    # audit's memory does not grow with draws
    stacks = []
    for owner, method in ((NetworkJet, "forward"), (LossEvaluator, "evaluate")):
        original = getattr(owner, method)

        def recording(self, theta, *args, _original=original, **kwargs):
            stacks.append(theta.shape[0])
            return _original(self, theta, *args, **kwargs)

        monkeypatch.setattr(owner, method, recording)
    # the jet cases pull back only the block's own draws, not their perturbations
    pulled = []
    original_pull = NetworkJet.pull

    def recording_pull(self):
        if self.xs.ndim == 2:
            pulled.append(self.xs.shape[0])
        return original_pull(self)

    monkeypatch.setattr(NetworkJet, "pull", recording_pull)
    run_gradient_checks(draws=draws)
    block = min(draws, AUDIT_BLOCK)
    assert max(stacks) == block * 2 * 3 * HIDDEN
    assert len(pulled) == 12 * -(-draws // AUDIT_BLOCK)
    assert max(pulled) <= block


@pytest.mark.xfail(strict=True, reason=(
    "known false FAIL: near x = 5.95 the paper offset (~246) sits inside the differenced "
    "y while |dy/dtheta| ~ 1e-3, so rounding of eps * |y| / FD_STEP exceeds REL_TOL; "
    "the analytic gradient is right"))
def test_paper_order_0_audit_passes_at_seed_660():
    # fails today with ["trial_param_gradient paper order 0"]
    failing = [r.name for r in run_gradient_checks(draws=10, seed=660) if not r.passed]
    assert failing == []


def test_gradient_discrepancy_is_infinite_on_non_finite_input():
    finite = (np.array([1.0, 2.0]),)
    for bad in (np.nan, np.inf, -np.inf):
        broken = (np.array([1.0, bad]),)
        assert gradient_discrepancy(broken, finite) == math.inf
        assert gradient_discrepancy(finite, broken) == math.inf
    # stacks of (3, H) gradients reduce the same way
    stack = np.ones((2, 3, 4))
    assert gradient_discrepancy(stack, stack) == 0.0
    holed = stack.copy()
    holed[1, 2, 3] = np.nan
    assert gradient_discrepancy(stack, holed) == math.inf
