"""Code lines of each module of a src/stochcuts tree, and their total.

    python tools/code_lines.py [SRC] [--against OTHER_SRC]

SRC and OTHER_SRC are src directories (default: this checkout's src).  A
code line is a line that holds part of a Python token other than a
comment: blank lines, comment lines and docstrings (the string that opens
a module, class or function body) do not count, and a statement or string
that spans lines counts every line it covers.  It prints one line per
module, `name lines`, then `total lines`; with --against, `name before
after` per module of either tree (0 where a tree lacks it), OTHER_SRC's
count first.  pytest does not collect this file.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers that the module's, classes' and functions'
    docstrings cover."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    """The number of code lines of one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def count(src):
    """{module file name: code lines} for the package under src."""
    return {path.name: code_lines(path.read_text())
            for path in sorted((Path(src) / "stochcuts").glob("*.py"))}


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("src", nargs="?", default=str(ROOT / "src"))
    ap.add_argument("--against", help="the src directory to compare with")
    args = ap.parse_args(argv)
    after = count(args.src)
    if args.against is None:
        for name, lines in after.items():
            print(name, lines)
        print("total", sum(after.values()))
        return
    before = count(args.against)
    for name in sorted(before.keys() | after.keys()):
        print(name, before.get(name, 0), after.get(name, 0))
    print("total", sum(before.values()), sum(after.values()))


if __name__ == "__main__":
    main()
