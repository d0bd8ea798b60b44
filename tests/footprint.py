"""Print the footprint tables as Markdown, for CI's summary page and for
a change that cites a footprint figure; no figure is a gate.

    python tests/footprint.py

Children get this checkout's ``src`` on PYTHONPATH: no install needed.
Tier-1 never runs it; ``tests/test_footprint.py`` checks its counters.

- Source size: each module's ``wc -l`` and code lines, the ROADMAP's
  simplicity measure, found from its tokens and an ast walk without
  blank lines, comments or docstrings, since deleting those shortens no
  code; then the settable values: config keys and each command's flags.
- Peak memory: each command in its own child interpreter, which reports
  after ``cli.main`` its own largest resident set and minor page faults
  (RUSAGE_SELF) and its forked workers' largest (RUSAGE_CHILDREN).
- Import time: what the benchmark's set-up pays to import, the median
  over three fresh interpreters of the cumulative import time of numpy
  and of each vlcfair module (``-X importtime``); a set-up reading that
  moves is read against this table.
- Derive and pairs-stats time: the median wall time of three runs of
  that child pinned to one CPU (``taskset -c 0``) and of three on every
  CPU, of the benchmark-sized derive and of pairs-stats on the full
  paper set; the columns show what the fork helper saves each process.
"""

import argparse
import ast
import io
import os
import re
import statistics
import subprocess
import sys
import tempfile
import timeit
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CONFIG = str(ROOT / "configs" / "paper.cfg")
# one command through cli.main, then its own peak RSS and minor faults, its workers' peak RSS
CHILD = """
import resource, sys
from vlcfair.cli import main
rc = main(sys.argv[1:])
own, workers = (resource.getrusage(w) for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
print(own.ru_maxrss, own.ru_minflt, workers.ru_maxrss)
sys.exit(rc)
"""
# label of a peak-memory row -> label of its wall-time row
TIMED = {"derive --h1 2h0 --subsample 8": "`derive --h1 2h0 --subsample 8`",
         "pairs-stats, full set": "`pairs-stats`, full set, reference model"}
# "import time: self | cumulative | module" of numpy and each vlcfair module
IMPORTED = re.compile(r"^import time:.*\|\s*(\d+) \|\s*(numpy|vlcfair(?:\.\w+)*)$", re.M)
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
        tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def child(*args, pin=False) -> subprocess.CompletedProcess:
    """A child interpreter on this checkout's src, pinned to CPU 0 if pin."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([*(["taskset", "-c", "0"] if pin else []), sys.executable, *args],
                          env={**os.environ, "PYTHONPATH": path},
                          check=True, capture_output=True, text=True)


def code_lines(text: str) -> int:
    """Lines of Python source that hold a token of code and lie in no
    module, class or function docstring."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            code -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(code)


def source_size() -> list:
    modules = [str(p.relative_to(ROOT)) for p in sorted(SRC.glob("vlcfair/*.py"))]
    wc = subprocess.check_output(["wc", "-l", *modules], cwd=ROOT, text=True).splitlines()
    counts = [code_lines((ROOT / m).read_text()) for m in modules]
    return ["### `wc -l src/vlcfair/*.py`", "```", *wc, "```",
            "### Code lines, without blank lines, comments or docstrings", "```",
            *(f"{n:6d} {m}" for n, m in zip(counts, modules)),
            f"{sum(counts):6d} total", "```"]


def options() -> list:
    from vlcfair import cli, config

    lines = ["### Options: config keys and flags per command", "```",
             f"{len(config._KEYS):6d} config keys, walk.point.<label> aside"]
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, command in commands.choices.items():
        flags = [a for a in command._actions
                 if a.option_strings and not isinstance(a, argparse._HelpAction)]
        lines.append(f"{len(flags):6d} flags of {name}")
    return lines + ["```"]


def peak_memory(runs: dict) -> list:
    lines = ["### Peak memory per command",
             "| command | own max RSS (MB) | own minor page faults | its workers' max RSS (MB) |",
             "|---|---|---|---|"]
    for label, argv in runs.items():
        done = child("-c", CHILD, *map(str, argv))
        own_kb, minflt, workers_kb = map(int, done.stdout.splitlines()[-1].split())
        lines.append(f"| `{label}` | {own_kb / 1024:.1f} | {minflt} | {workers_kb / 1024:.1f} |")
    return lines


def import_time() -> list:
    importtime = ("-X", "importtime", "-c", "import vlcfair.cli")
    runs = [{name: int(us) for us, name in IMPORTED.findall(child(*importtime).stderr)}
            for _ in range(3)]  # per interpreter: module -> cumulative µs, in import order
    return ["### Import time of `import vlcfair.cli`: median of 3 interpreters",
            "| module | cumulative (µs) |", "|---|---|",
            *(f"| `{name}` | {statistics.median(run[name] for run in runs):.0f} |"
              for name in runs[0])]


def wall_time(runs: dict) -> list:
    def median(label, pin):
        argv = ["-c", CHILD, *map(str, runs[label])]
        return statistics.median(timeit.repeat(lambda: child(*argv, pin=pin), repeat=3, number=1))

    return ["### Derive and pairs-stats time",
            "| command | one CPU (`taskset -c 0`): median of 3 runs (s) | all CPUs (s) |",
            "|---|---|---|", *(f"| {row} | {median(label, True):.3f} | {median(label, False):.3f} |"
                               for label, row in TIMED.items())]


def main() -> int:
    with tempfile.TemporaryDirectory() as name:
        out = Path(name)
        model, channels = out / "ref_model.txt", out / "channels.csv"
        inputs = ["--config", CONFIG, "--model", model]
        runs = {  # in the order they run: the first two write the files the rest read
            "reference-model": ["reference-model", "--out", model],
            "channels": ["channels", "--config", CONFIG, "--out", channels],
            "derive --h1 2h0 --subsample 8":
                ["derive", "--config", CONFIG, "--h1", "2h0", "--subsample", "8",
                 "--out-model", out / "model.txt", "--out-dataset", out / "dataset.csv"],
            "allocate --method efopa":
                ["allocate", *inputs, "--method", "efopa", "--h1", "1e-4", "--h2", "1e-5"],
            "sweep": ["sweep", *inputs, "--out", out / "sweep.csv"],
            "walk": ["walk", *inputs, "--out", out / "walk.csv"],
            "pairs-stats, full set":
                ["pairs-stats", *inputs, "--channels", channels, "--out", out / "stats.txt"],
        }
        # Linux carries a process's peak resident set across exec, so a
        # child's reading starts at this process's: take them before it
        # imports numpy and vlcfair for the options block (~30 MB)
        memory = peak_memory(runs)
        sys.path.insert(0, str(SRC))
        blocks = (source_size(), options(), memory, import_time(), wall_time(runs))
    print(*(line for block in blocks for line in block), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
