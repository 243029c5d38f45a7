"""The library snippets in README.md run and show what their comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def test_certificate_snippet():
    ns = {}
    exec(python_blocks()[0], ns)
    cert = ns["cert"]
    assert cert.tuple_str == "[(5,1,1;3,dz>=3/dx>=2)]_5"
    assert (cert.logical, cert.gamma, cert.mu_star) == (1, 3, 1)


def test_layers_snippet():
    ns = {}
    exec(python_blocks()[1], ns)
    g, h = ns["g"], ns["h"]
    assert g.max_degree == 1  # constant block, delay block
    assert (g.reverse() @ h.T).is_zero()  # pairs to zero under D -> 1/D
