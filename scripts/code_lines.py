"""Print the size of the package source, from the repository root:

    python3 scripts/code_lines.py

Two numbers over src/kappahopf/*.py: code lines, the lines left after blank
lines, comment lines and docstrings are dropped (docstrings found by an `ast`
walk), and all lines as `wc -l` counts them.  Then the code lines of
tests/*.py by the same count, so code moved from the package into the tests
shows on both sides.  Last, the code lines of each package module, one
`module: count` line each, so a change's delta shows per module.  It prints
and gates nothing.
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "kappahopf"
TESTS = ROOT / "tests"


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, kinds) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines holding a token other than a comment, outside every docstring."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main():
    paths = sorted(SRC.glob("*.py"))
    sources = [path.read_text() for path in paths]
    counts = [code_lines(s) for s in sources]
    print(f"code lines: {sum(counts)}")
    print(f"wc -l: {sum(s.count(chr(10)) for s in sources)}")
    tests = [path.read_text() for path in sorted(TESTS.glob("*.py"))]
    print(f"tests code lines: {sum(code_lines(s) for s in tests)}")
    for path, count in zip(paths, counts):
        print(f"  {path.stem}: {count}")


if __name__ == "__main__":
    main()
