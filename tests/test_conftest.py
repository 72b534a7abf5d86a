"""The test setup itself: a failing property is reported, not fatal."""

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_property_fails(x):
    assert x < 10


def test_runs_after_the_failure():
    pass
"""


def test_failing_property_reports_its_example_and_the_run_goes_on(pytester):
    # the same "warnings are errors" rule as the project's pytest settings
    pytester.makeini("[pytest]\nfilterwarnings = error\n")
    pytester.makepyfile(test_property=FAILING_PROPERTY)
    result = pytester.runpytest("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.fnmatch_lines(["*Falsifying example: test_property_fails(*", "*x=10,*"])
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
