"""README's library example runs as documented.

The documented API is part of what the package promises, so the example
that shows it is run here: each ```python block of README.md executes in
a fresh namespace, and each line marked ``# True`` evaluates to True.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        namespace = {}
        exec(compile(block, str(README), "exec"), namespace)
        claims = [line.split("#")[0] for line in block.splitlines()
                  if line.rstrip().endswith("# True")]
        for claim in claims:
            assert eval(claim, namespace) is True, claim
