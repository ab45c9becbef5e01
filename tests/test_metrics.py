import numpy as np
import pytest

from degfair.graphs import partition_top_bottom
from degfair.metrics import (
    accuracy,
    aggregate_runs,
    build_report,
    delta_deo,
    delta_dsp,
)


def brute_dsp(preds, g0, g1, num_classes):
    """Independent oracle: explicit counting loops."""
    total = 0.0
    for y in range(num_classes):
        p0 = sum(1 for v in g0 if preds[v] == y) / len(g0)
        p1 = sum(1 for v in g1 if preds[v] == y) / len(g1)
        total += abs(p0 - p1)
    return total / num_classes


def brute_deo(preds, labels, g0, g1, num_classes):
    gaps = []
    for y in range(num_classes):
        m0 = [v for v in g0 if labels[v] == y]
        m1 = [v for v in g1 if labels[v] == y]
        if not m0 or not m1:
            continue
        r0 = sum(1 for v in m0 if preds[v] == y) / len(m0)
        r1 = sum(1 for v in m1 if preds[v] == y) / len(m1)
        gaps.append(abs(r0 - r1))
    return sum(gaps) / len(gaps)


# ------------------------------------------------------------------- accuracy


def test_accuracy_extremes():
    labels = np.array([0, 1, 1, 0])
    assert accuracy(labels, labels, np.arange(4)) == 1.0
    assert accuracy(1 - labels, labels, np.arange(4)) == 0.0


def test_accuracy_three_quarters():
    preds = np.array([0, 1, 1, 1])
    labels = np.array([0, 1, 1, 0])
    assert accuracy(preds, labels, np.arange(4)) == 0.75


def test_accuracy_empty_idx():
    with pytest.raises(ValueError):
        accuracy(np.array([0]), np.array([0]), np.array([], dtype=int))


# ------------------------------------------------------------------ delta_dsp


def test_dsp_identical_histograms():
    preds = np.array([0, 1, 0, 1])
    assert delta_dsp(preds, np.array([0, 1]), np.array([2, 3]), 2) == 0.0


def test_dsp_hand_fixture():
    # G0 preds [A,A,B,B], G1 preds [A,A,A,B] -> (|.5-.75| + |.5-.25|)/2 = 0.25
    preds = np.array([0, 0, 1, 1, 0, 0, 0, 1])
    val = delta_dsp(preds, np.arange(4), np.arange(4, 8), 2)
    assert val == pytest.approx(0.25, abs=1e-15)


def test_dsp_maximal_disparity():
    preds = np.array([0, 0, 1, 1])
    assert delta_dsp(preds, np.array([0, 1]), np.array([2, 3]), 2) == 1.0


def test_dsp_empty_group_error():
    with pytest.raises(ValueError):
        delta_dsp(np.array([0, 1]), np.array([], dtype=int), np.array([1]), 2)


# ------------------------------------------------------------------ delta_deo


def test_deo_perfect_classifier():
    labels = np.array([0, 1, 0, 1, 0, 1])
    assert delta_deo(labels, labels, np.arange(3), np.arange(3, 6), 2) == 0.0


def test_deo_hand_fixture():
    # G0: truths [A,A,B,B] preds [A,B,B,B]; G1: truths [A,A,B,B] preds
    # [A,A,B,A] -> (|0.5-1.0| + |1.0-0.5|)/2 = 0.5
    labels = np.array([0, 0, 1, 1, 0, 0, 1, 1])
    preds = np.array([0, 1, 1, 1, 0, 0, 1, 0])
    val = delta_deo(preds, labels, np.arange(4), np.arange(4, 8), 2)
    assert val == pytest.approx(0.5, abs=1e-15)


def test_deo_identical_confusions():
    labels = np.array([0, 0, 1, 1, 0, 0, 1, 1])
    preds = np.array([0, 1, 1, 0, 0, 1, 1, 0])
    assert delta_deo(preds, labels, np.arange(4), np.arange(4, 8), 2) == 0.0


def test_deo_skips_empty_classes():
    # Class 1 has no true members in g0: only class 0 is evaluated.
    labels = np.array([0, 0, 0, 1])
    preds = np.array([0, 1, 0, 1])
    val = delta_deo(preds, labels, np.array([0, 1]), np.array([2, 3]), 2)
    assert val == pytest.approx(abs(0.5 - 1.0))


def test_deo_no_evaluable_class():
    labels = np.array([0, 1])
    preds = np.array([0, 1])
    with pytest.raises(ValueError):
        delta_deo(preds, labels, np.array([0]), np.array([1]), 2)


# ---------------------------------------------------------- oracle and props


def test_metrics_match_brute_force_oracle():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(8, 40))
        num_classes = int(rng.integers(2, 5))
        preds = rng.integers(0, num_classes, size=n)
        labels = rng.integers(0, num_classes, size=n)
        perm = rng.permutation(n)
        k = int(rng.integers(2, n // 2 + 1))
        g0, g1 = np.sort(perm[:k]), np.sort(perm[k : 2 * k])
        expect_dsp = brute_dsp(preds, g0.tolist(), g1.tolist(), num_classes)
        assert abs(delta_dsp(preds, g0, g1, num_classes) - expect_dsp) <= 1e-12
        try:
            expect_deo = brute_deo(preds, labels, g0.tolist(), g1.tolist(),
                                   num_classes)
        except ZeroDivisionError:
            continue
        assert abs(delta_deo(preds, labels, g0, g1, num_classes) - expect_deo) <= 1e-12


def test_metrics_symmetric_under_group_swap():
    rng = np.random.default_rng(3)
    preds = rng.integers(0, 3, size=20)
    labels = rng.integers(0, 3, size=20)
    g0, g1 = np.arange(8), np.arange(8, 16)
    assert delta_dsp(preds, g0, g1, 3) == delta_dsp(preds, g1, g0, 3)
    assert delta_deo(preds, labels, g0, g1, 3) == delta_deo(preds, labels, g1, g0, 3)


def test_dsp_invariant_under_class_relabeling():
    rng = np.random.default_rng(5)
    preds = rng.integers(0, 4, size=30)
    g0, g1 = np.arange(10), np.arange(10, 20)
    base = delta_dsp(preds, g0, g1, 4)
    perm = rng.permutation(4)
    assert delta_dsp(perm[preds], g0, g1, 4) == pytest.approx(base, abs=1e-15)


def test_metrics_bounded():
    rng = np.random.default_rng(8)
    for _ in range(50):
        preds = rng.integers(0, 3, size=30)
        labels = rng.integers(0, 3, size=30)
        g0, g1 = np.arange(10), np.arange(10, 20)
        assert 0.0 <= delta_dsp(preds, g0, g1, 3) <= 1.0
        assert 0.0 <= delta_deo(preds, labels, g0, g1, 3) <= 1.0


# ---------------------------------------------------------------- full report


def test_report_group_sizes():
    rng = np.random.default_rng(1)
    n = 120
    preds = rng.integers(0, 2, size=n)
    labels = rng.integers(0, 2, size=n)
    degrees = rng.random(n) * 10
    test_idx = np.arange(20, 120)
    rep = build_report(preds, labels, test_idx, degrees, fraction=0.2)
    assert rep.group_sizes == (20, 20)
    rep3 = build_report(preds, labels, test_idx, degrees, fraction=0.3)
    assert rep3.group_sizes == (30, 30)


def test_report_accuracy_independent_of_grouping():
    rng = np.random.default_rng(2)
    n = 60
    preds = rng.integers(0, 2, size=n)
    labels = rng.integers(0, 2, size=n)
    deg1 = rng.random(n)
    deg2 = rng.random(n)
    test_idx = np.arange(n)
    a = build_report(preds, labels, test_idx, deg1, 0.2, r_eval=1)
    b = build_report(preds, labels, test_idx, deg2, 0.2, r_eval=2)
    assert a.accuracy == b.accuracy


def test_report_per_class_frequencies_sum_to_one():
    rng = np.random.default_rng(9)
    preds = rng.integers(0, 3, size=50)
    labels = rng.integers(0, 3, size=50)
    rep = build_report(preds, labels, np.arange(50), rng.random(50), 0.3,
                       num_classes=3)
    assert rep.per_class[:, 0].sum() == pytest.approx(1.0, abs=1e-12)
    assert rep.per_class[:, 1].sum() == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------- node id arguments

PREDS6 = np.array([0, 1, 0, 1, 0, 1])
LABELS6 = np.array([0, 1, 1, 1, 0, 0])
DEGREES6 = np.arange(1.0, 7.0)

BAD_NODE_IDS = [
    pytest.param(lambda: accuracy(PREDS6, LABELS6, [-1, 0]), r"^idx must lie in \[0, 6\)",
                 id="accuracy-negative"),
    pytest.param(lambda: accuracy(PREDS6, LABELS6, [6]), r"^idx must lie in \[0, 6\)",
                 id="accuracy-past-end"),
    pytest.param(lambda: accuracy(PREDS6, LABELS6, [0.9, 1.2]), "^idx must be integers",
                 id="accuracy-float"),
    pytest.param(lambda: accuracy(PREDS6, LABELS6, [True, False]), "^idx must be integers",
                 id="accuracy-bool"),
    pytest.param(lambda: delta_dsp(PREDS6, [0.9, 1.5], [2.2, 3.7], 2), "^g0 must be integers",
                 id="dsp-float"),
    pytest.param(lambda: delta_dsp(PREDS6, [0, 1], [2, -1], 2), r"^g1 must lie in \[0, 6\)",
                 id="dsp-negative"),
    pytest.param(lambda: delta_deo(PREDS6, LABELS6, [0, 9], [2, 3], 2),
                 r"^g0 must lie in \[0, 6\)", id="deo-past-end"),
    pytest.param(lambda: delta_deo(PREDS6, LABELS6, [0, 1], [2.0, 3.0], 2),
                 "^g1 must be integers", id="deo-float"),
    pytest.param(lambda: delta_deo(PREDS6, LABELS6, [0, 1], [], 2),
                 "^both degree groups must be nonempty", id="deo-empty-group"),
    pytest.param(lambda: build_report(PREDS6, LABELS6, [-1, 0, 1, 2], DEGREES6, 0.5),
                 r"^test_idx must lie in \[0, 6\)", id="report-negative"),
    pytest.param(lambda: build_report(PREDS6, LABELS6, [0.0, 1.0, 2.0], DEGREES6, 0.5),
                 "^test_idx must be integers", id="report-float"),
    pytest.param(lambda: partition_top_bottom(DEGREES6, 0.5, node_universe=[0, 0, 1, 2]),
                 "^node_universe lists a node more than once", id="top-bottom-duplicate"),
    pytest.param(lambda: partition_top_bottom(DEGREES6, 0.5, node_universe=[-1, 0, 1, 2]),
                 r"^node_universe must lie in \[0, 6\)", id="top-bottom-negative"),
    pytest.param(lambda: partition_top_bottom(DEGREES6, 0.5, node_universe=[0.5, 1.5]),
                 "^node_universe must be integers", id="top-bottom-float"),
]


@pytest.mark.parametrize("call,message", BAD_NODE_IDS)
def test_bad_node_ids_are_rejected(call, message):
    # Cast first, -1 read the last node, 0.9 node 0, and a duplicate
    # universe entry counted one node twice.
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("call", [
    pytest.param(lambda: accuracy([0, 1, 0], [0, 1], [2]), id="accuracy"),
    pytest.param(lambda: delta_deo([0, 1, 0], [0, 1], [0], [2], 2), id="delta_deo"),
    pytest.param(lambda: build_report([0, 1, 0], [0, 1], [0, 1, 2], np.array([1.0, 2.0, 3.0]), 0.5),
                 id="build_report"),
])
def test_labels_shorter_than_preds_are_rejected(call):
    # Node 2 has a prediction but no label: numpy's IndexError before the check.
    with pytest.raises(ValueError, match="^labels has 2 entries, preds has 3$"):
        call()


# ------------------------------------------------------------------ aggregate


def fake_report(acc, dsp, deo):
    from degfair.metrics import FairnessReport

    return FairnessReport(accuracy=acc, delta_dsp=dsp, delta_deo=deo,
                          per_class=np.zeros((2, 4)), group_sizes=(5, 5),
                          r_eval=1, fraction=0.2)


def test_aggregate_single_run():
    agg = aggregate_runs([fake_report(0.8, 0.1, 0.2)])
    assert agg.k == 1
    assert agg.accuracy_std == 0.0
    assert agg.accuracy_mean == 0.8


def test_aggregate_hand_value():
    agg = aggregate_runs([fake_report(1.0, 1.0, 1.0), fake_report(3.0, 3.0, 3.0)])
    assert agg.accuracy_mean == 2.0
    assert agg.accuracy_std == pytest.approx(np.sqrt(2.0))


def test_aggregate_identical_runs():
    agg = aggregate_runs([fake_report(0.5, 0.5, 0.5)] * 4)
    assert agg.delta_dsp_std == 0.0


def test_aggregate_empty_error():
    with pytest.raises(ValueError):
        aggregate_runs([])
