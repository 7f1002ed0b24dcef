"""README's library tour runs and prints what its comments say.

Each `print(...)` line of the tour's python block that ends in a comment
`# text` must print exactly `text`, or, when `text` ends in `...`, a line
that starts with what comes before the dots. Prints without a comment
must still print one line each.
"""

import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour() -> str:
    text = README.read_text(encoding="utf-8")
    return re.search(r"## Library tour\n\n```python\n(.*?)```", text, re.S).group(1)


def test_readme_tour_prints_its_comments(capsys):
    source = _tour()
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    prints = [i for i, line in enumerate(source.splitlines(), 1) if line.startswith("print(")]
    exec(compile(source, str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert len(out) == len(prints)
    checked = 0
    for line, got in zip(prints, out):
        want = comments.get(line)
        if want is None:
            continue
        if want.endswith("..."):
            assert got.startswith(want[:-3]), (line, got, want)
        else:
            assert got == want, (line, got, want)
        checked += 1
    assert checked == 5
