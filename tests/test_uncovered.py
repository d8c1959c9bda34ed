"""The statement finder and the diff of `tools/uncovered.py` on a small
source string."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "tools"))
import uncovered  # noqa: E402

SOURCE = '''"""Module docstring."""
import os


class Box:
    """Class docstring."""

    size = 2

    def grow(self, by):
        """Method docstring."""
        if by < 0:
            raise ValueError(
                "negative")
        self.size += by
        return self.size


def main():
    "A docstring in plain quotes."
    x = Box()
    x.grow(1)
'''


def test_statements_skip_docstrings_and_name_their_holders():
    assert uncovered.statements(SOURCE) == {
        2: ("", "import os"),
        5: ("", "class Box:"),
        8: ("Box", "size = 2"),
        10: ("Box", "def grow(self, by):"),
        12: ("Box.grow", "if by < 0:"),
        13: ("Box.grow", "raise ValueError("),
        15: ("Box.grow", "self.size += by"),
        16: ("Box.grow", "return self.size"),
        19: ("", "def main():"),
        21: ("main", "x = Box()"),
        22: ("main", "x.grow(1)"),
    }


def test_missed_lists_statements_whose_first_line_never_ran():
    found = uncovered.statements(SOURCE)
    # an import and a call of `main`: the raise never runs, and a line
    # inside a statement (14) does not count for it
    ran = {2, 5, 8, 10, 12, 14, 15, 16, 19, 21, 22}
    assert uncovered.missed(found, ran) == [
        (13, "Box.grow", 'raise ValueError(')]
    assert [line for line, _, _ in uncovered.missed(found, set())] == sorted(
        found)
