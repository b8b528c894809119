"""The walkthrough demos run to completion and print what golden.json
freezes: each runs in a fresh interpreter on this checkout's src/, its
recovery wall time masked."""

import pytest

import golden


@pytest.mark.parametrize("demo", golden.DEMOS)
def test_demo_output_is_unchanged(demo):
    golden.assert_pinned(f"demo/{demo}")
