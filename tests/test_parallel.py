import os
import time

import pytest

from anovabf import _parallel
from anovabf._parallel import map_parts, part_count

PARTS = [(2, 3), (3, 2), (5, 1), (7, 0)]
RESULTS = [[2, 8], [3, 9], [5, 5], [7, 1]]


def power(base, exponent):
    """A marshallable result that names its part."""
    return [base, base**exponent]


class TestMapParts:
    def test_list_in_part_order(self, forks, no_children):
        results = map_parts(power, PARTS)
        assert type(results) is list
        assert results == RESULTS
        assert len(forks) == len(PARTS) - 1
        no_children()

    def test_part_of_a_child_that_exits_nonzero_is_computed_here(self, forks, no_children):
        parent = os.getpid()

        def dies(base, exponent):
            if os.getpid() != parent:
                os._exit(1)
            return power(base, exponent)

        assert map_parts(dies, PARTS) == RESULTS
        assert len(forks) == len(PARTS) - 1
        no_children()

    def test_parts_computed_here_when_fork_fails(self, no_children, monkeypatch):
        def fails():
            raise BlockingIOError("fork: resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fails)
        assert map_parts(power, PARTS) == RESULTS
        no_children()

    def test_error_in_the_first_part_reaps_every_child(self, forks, no_children):
        parent = os.getpid()

        def raises_here(base, exponent):
            if os.getpid() == parent:
                raise ValueError(f"part {base} failed")
            time.sleep(60)  # a child still running is killed
            return power(base, exponent)

        started = time.monotonic()
        with pytest.raises(ValueError, match="part 2 failed"):
            map_parts(raises_here, PARTS)
        assert time.monotonic() - started < 30
        assert len(forks) == len(PARTS) - 1
        no_children()

    def test_one_part_forks_nothing(self, forks, no_children):
        assert map_parts(power, PARTS[:1]) == RESULTS[:1]
        assert forks == []
        no_children()


class TestPartCount:
    @pytest.fixture(params=[1, 2, 7])
    def cpus(self, request, monkeypatch):
        monkeypatch.setattr(_parallel, "cpus", lambda: request.param)
        return request.param

    def test_work_below_the_minimum_is_one_part(self, cpus):
        assert part_count(0, 100) == 1
        assert part_count(99, 100) == 1

    def test_work_of_many_minimums_is_one_part_per_cpu(self, cpus):
        assert part_count(100 * 8, 100) == cpus
        assert part_count(10**9, 100) == cpus

    def test_work_between_is_one_part_per_minimum(self, cpus):
        for work in range(100, 100 * cpus + 1):
            assert part_count(work, 100) == work // 100
