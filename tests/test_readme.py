"""The library snippets in README.md run and show what their comments say,
and its console example prints what it shows."""

import contextlib
import io
import re
from pathlib import Path

from aqcc.cli import main

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


def test_distance_console_example(tmp_path):
    # the encoder.txt shown, then the three lines aqcc distance prints for it
    encoder, shown = re.search(
        r"```\n\$ cat encoder.txt\n(.*?)\$ aqcc distance encoder.txt\n(.*?)```",
        README.read_text(), re.S,
    ).groups()
    assert encoder == "q=2\n(1) (0,1)\n" and len(shown.splitlines()) == 3
    path = tmp_path / "encoder.txt"
    path.write_text(encoder)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["distance", str(path)]) == 0
    assert out.getvalue() == shown


def test_construction_i_console_example():
    # the command shown prints a certificate with the tuple shown
    argv, tuple_line = re.search(
        r"```\n\$ aqcc (certify --family I .*?)\n.*?\n(  \"tuple\": .*?)\n}\n```",
        README.read_text(), re.S,
    ).groups()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv.split()) == 0
    assert tuple_line in out.getvalue().splitlines()
