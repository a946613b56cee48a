"""The ``engine`` fixture of the chaos suite.

Every chaos scenario runs on the one public engine, the reference
interpreter. The fixture has a single value and exists only so the test
ids keep their ``[reference-…]`` prefix; the tests do not pass it on.
"""

from __future__ import annotations

import pytest


@pytest.fixture(params=("reference",))
def engine(request) -> str:
    return request.param
