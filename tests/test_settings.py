"""The test settings in ``pyproject.toml`` themselves."""

import pathlib

pytest_plugins = ["pytester"]

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_hypothesis_test_prints_its_falsifying_example(pytester):
    # on a failure hypothesis imports libcst, which warns about a deprecated
    # mypy_extensions.TypedDict; the settings turn DeprecationWarning into an
    # error, and without an ignore for that message the session aborted with
    # INTERNALERROR before it printed the example
    test = pytester.makepyfile("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_negative(x):
            assert x < 0
    """)
    result = pytester.runpytest_subprocess("-c", str(PYPROJECT), test)
    assert "Falsifying example" in result.stdout.str()
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    assert result.ret == 1
