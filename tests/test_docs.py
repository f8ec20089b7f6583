"""The Python examples of the README run as written."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_python_blocks_run():
    with open(README) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(),
                            flags=re.M | re.S)
    assert blocks
    for i, source in enumerate(blocks):
        exec(compile(source, f"README.md python block {i}", "exec"),
             {"__name__": "readme"})
