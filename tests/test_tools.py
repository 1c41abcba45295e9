"""The scripts in tools/ run end to end.

tools/ab_time.py and tools/peak_rss.py load the package from a src
directory by path and are not collected by pytest, so a change to the
package's internals could break them without a failing test.  Each runs
here on sslp-2-3-4 with this checkout's src as both sides, in about a
second.  tools/code_lines.py counts this checkout's src.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool(name, *options):
    src = str(ROOT / "src")
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / name), src, src,
         "--sslp", "2", "3", "4", *options],
        capture_output=True, text=True, timeout=120)


def test_ab_time_times_both_sides():
    out = _tool("ab_time.py", "--pairs", "2")
    assert out.returncode == 0, out.stderr + out.stdout
    z_lb, header, a, b, ratio, drift = out.stdout.splitlines()
    assert z_lb.startswith("z_lb A ")
    assert z_lb.split()[2] == z_lb.split()[4]
    assert header.startswith("benders sslp-2-3-4-s0 order 0, 2 pairs")
    assert a.startswith("A  median ") and b.startswith("B  median ")
    assert ratio.startswith("B/A medians ") and ratio.endswith("/2")
    assert drift.startswith("A drift ")
    assert drift.endswith(("B/A is unresolved", "B/A is further from 1"))


def test_peak_rss_measures_both_sides():
    out = _tool("peak_rss.py", "--runs", "1")
    assert out.returncode == 0, out.stderr + out.stdout
    header, *runs, peaks = out.stdout.splitlines()
    assert header.startswith("benders sslp-2-3-4-s0, PYTHONHASHSEED=0")
    assert sorted(line.split()[0] for line in runs) == ["A", "B"]
    assert all("converged" in line for line in runs)
    assert peaks.startswith("largest peak A ")


@pytest.mark.parametrize("name, options", [
    ("ab_time.py", ("--pairs", "1")),    # quartiles need two times a side
    ("peak_rss.py", ("--runs", "0")),    # a peak needs one run
])
def test_too_few_runs_are_a_usage_error(name, options):
    out = _tool(name, *options)
    assert out.returncode == 2
    assert f"error: {options[0]} must be at least" in out.stderr
    assert not out.stdout


def test_code_lines_totals_the_modules(tmp_path):
    src = str(ROOT / "src")
    script = str(ROOT / "tools" / "code_lines.py")
    # docstrings, comments and blank lines do not count; a statement that
    # spans lines counts each of them
    (tmp_path / "stochcuts").mkdir()
    (tmp_path / "stochcuts" / "a.py").write_text(
        '"""Module.\n\nMore."""\n\n# a comment\n'
        'def f(x):\n    """One line."""\n    return (x +\n            1)\n')
    out = subprocess.run([sys.executable, script, str(tmp_path)],
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.splitlines() == ["a.py 3", "total 3"]
    out = subprocess.run([sys.executable, script, src], capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr + out.stdout
    *modules, total = [line.split() for line in out.stdout.splitlines()]
    names = [name for name, _ in modules]
    assert names == sorted(p.name for p in (ROOT / "src" / "stochcuts")
                           .glob("*.py"))
    assert "lp.py" in names and all(int(lines) > 0 for _, lines in modules)
    assert total[0] == "total"
    assert int(total[1]) == sum(int(lines) for _, lines in modules)
    out = subprocess.run([sys.executable, script, src, "--against", src],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr + out.stdout
    assert out.stdout.splitlines()[-1] == f"total {total[1]} {total[1]}"
