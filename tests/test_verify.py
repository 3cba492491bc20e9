import pytest

from qharm import QLattice, QParams
from qharm.verify import run_suite


@pytest.mark.parametrize("q, n_min, n_max", [(0.95, -40, 320), (0.97, -50, 550)])
def test_suite_passes_near_q_one(q, n_min, n_max):
    # with the kernel series summed near m = 0 these windows failed 3 and 11
    # of the 20 statements
    result = run_suite(QParams(q, 0.0), QLattice(q, n_min, n_max))
    assert [e.statement_id for e in result.entries if e.status != "pass"] == []
    assert len(result.entries) == 20
