"""op_tail_ms reads one fixed percentile, whatever the number of ops in a run."""

import pytest

import run


@pytest.mark.parametrize("n", [50, 75, 700])
def test_tail_is_the_same_percentile_at_any_op_count(n):
    samples = [float(i) for i in reversed(range(n))]
    assert run._tail(samples) == pytest.approx(run.TAIL_PCT / 100 * (n - 1))
    assert sum(x > run._tail(samples) for x in samples) >= run.TAIL_BEYOND


def test_tail_fails_with_too_few_samples_beyond_it():
    with pytest.raises(SystemExit, match="too few"):
        run._tail([float(i) for i in range(49)])
