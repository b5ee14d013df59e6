"""Acceptance suite: every distributional claim at its stated scale and
tolerance, one pass/fail line per criterion.

Runs the full verification once per session (about a minute) and asserts
each criterion's reports.  Seed 0 is pinned; reruns are bit-identical.
"""

import pytest

from germsim.verify import VerifyConfig, format_report_lines, run_verification


@pytest.fixture(scope="module")
def reports():
    reps = run_verification(VerifyConfig(seed=0, alpha=0.001, scale=1.0))
    print()
    for line in format_report_lines(reps):
        print(line)
    return {r.test_name: r for r in reps}


def _assert_pass(reports, names):
    for name in names:
        rep = reports[name]
        line = (
            f"{'PASS' if rep.passed else 'FAIL'} {rep.test_name}: "
            f"statistic={rep.statistic:.6g} threshold={rep.threshold:.6g} n={rep.n}"
        )
        print(line)
        assert rep.passed, line


def test_criterion_01_fragmentation_law(reports):
    _assert_pass(reports, ["c01_frag_time_ks", "c01_censored_fraction"])


def test_criterion_02_branch_probability(reports):
    _assert_pass(reports, ["c02_branch_frequency"])


def test_criterion_03_output_marginal(reports):
    _assert_pass(reports, ["c03_endpoint_mean", "c03_endpoint_var", "c03_endpoint_ks"])


def test_criterion_04_germ_property(reports):
    _assert_pass(reports, ["c04_germ_prefix", "c04_positive_frag"])


def test_criterion_05_monotone_and_dual(reports):
    _assert_pass(reports, ["c05_monotone", "c05_dual_agreement"])


def test_criterion_06_subordinator_marginal(reports):
    _assert_pass(reports, ["c06_passage_sampler_ks", "c06_frag_passage_duality_ks"])


def test_criterion_07_involution_and_duality(reports):
    _assert_pass(reports, ["c07_involution", "c07_meeting_duality"])


def test_criterion_08_inverted_marginals(reports):
    _assert_pass(reports, ["c08_inverted_marginal_s1", "c08_inverted_marginal_s05"])


def test_criterion_09_determinism(reports):
    _assert_pass(reports, ["c09_report_determinism"])


def test_criterion_10_negative_control(reports):
    _assert_pass(reports, ["c10_negative_control"])


def test_negative_control_runs_its_ks_test(reports):
    # The control must fail a KS test that ran, not fall back to a
    # placeholder when no pair fragments.
    meta = reports["c10_negative_control"].meta
    assert meta["uncensored"] > 0
    assert meta["corrupted_ks"] < 1.0
