import pytest

from agt.errors import UsageError
from agt.limits import Limits


@pytest.mark.parametrize(
    "field, value",
    [("max_passes", 0), ("stability_window", -1), ("max_rules", True)],
)
def test_out_of_range_limit_is_a_usage_error(field, value):
    with pytest.raises(UsageError, match=f"^{field} must be "):
        Limits(**{field: value})


def test_in_range_limits_are_kept():
    limits = Limits(max_passes=1, state_cap=2)
    assert (limits.max_passes, limits.state_cap) == (1, 2)
