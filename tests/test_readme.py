"""Every ```python block of README.md runs as written, and its list of the
classifier's exclusion rules is the rule table's."""

import re
from fractions import Fraction
from pathlib import Path

from mpsmat import classify

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_python_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    for source in blocks:
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def test_the_listed_exclusion_rules_are_the_tables_in_order():
    listed = re.search(r"`impossible` \(with the deciding rule: (.*?)\)",
                       README.read_text(encoding="utf-8"), re.DOTALL)
    assert re.findall(r"`([a-z-]+)`", listed.group(1)) == [
        rule for rule, status, _ in classify._TABLE if status == classify.IMPOSSIBLE_STATUS]


def test_every_verdict_cites_a_rule_of_the_table():
    # The sweep pairs, one pair past the range-of-r edge and two 2 x 2 pairs
    # without an exact member: each row of the table decides some pair.
    pairs = [(n, Fraction(j, 2)) for n in range(2, 201) for j in range(n - 1)]
    pairs += [(6, Fraction(5, 2)), (2, Fraction(1, 3)), (2, 10**10)]
    rules = {classify.necessary_conditions(n, d).rule for n, d in pairs}
    assert rules == {rule for rule, _, _ in classify._TABLE}
