"""The README's library example runs, and its commented values hold.

A line of the example whose comment starts with a value, such as
``# 'COND_A'`` or ``# 8211 certified pairs``, must evaluate to that value.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# A comment's leading value: a quoted string, a parenthesized tuple or an int,
# followed by a colon, a space or the end of the comment.
VALUE = re.compile(r"#\s*('[^']*'|\([^)]*\)|\d+)(?=[:\s]|$)")


def python_example():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_example_runs_and_its_values_hold():
    example = python_example()
    namespace = {}
    exec(compile(example, str(README), "exec"), namespace)
    checked = 0
    for line in example.splitlines():
        code, _, comment = line.partition("#")
        match = VALUE.match("#" + comment)
        if match:
            assert eval(code, namespace) == ast.literal_eval(match.group(1)), line
            checked += 1
    assert checked == 4
