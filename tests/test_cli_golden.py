"""Byte-identical CLI reports for a fixed set of invocations.

Each case runs ``cordial.cli.run`` in process and compares its stdout,
stderr and exit code with the values recorded below, so a refactor that
changes any report, witness or error message fails here.  The values of
``timing_seconds`` and ``wall_time_seconds`` are masked.  ``verify-paper``
is left out: its details carry timings.  ``qcheck`` reads the Z3 table of
``z3_minus_instance`` from ``z3.txt`` in a temporary working directory.
"""

import io
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest

from cordial.cli import run

Z3_MINUS_TABLE = "3\n0 1 2\n2 0 1\n1 2 0\n"
TIMING = re.compile(r'((?:timing_seconds|wall_time_seconds)"?: )[-0-9.e]+')

# (argv, stdin, exit code, stdout with timings masked, stderr)
CASES = [
    (
        ['check-digraph', 'alternating_path:10'],
        None,
        1,
        (
            'command: check-digraph\n'
            'input.source: alternating_path:10\n'
            'input.vertices: 10\n'
            'input.arcs: 9\n'
            'cordial: false\n'
            'detail: no cordial labeling\n'
            'timing_seconds: <t>\n'
        ),
        '',
    ),
    (
        ['check-digraph', 'alternating_path:12', '--json'],
        None,
        0,
        (
            '{\n'
            '  "command": "check-digraph",\n'
            '  "inputs": {\n'
            '    "source": "alternating_path:12",\n'
            '    "vertices": 12,\n'
            '    "arcs": 11\n'
            '  },\n'
            '  "verdicts": {\n'
            '    "cordial": true,\n'
            '    "labeling": "011010110100",\n'
            '    "gamma": [\n'
            '      4,\n'
            '      4,\n'
            '      3\n'
            '    ]\n'
            '  },\n'
            '  "timing_seconds": <t>\n'
            '}\n'
        ),
        '',
    ),
    (
        ['check-digraph', '-'],
        '2 1\n0 > 1\n',
        0,
        (
            'command: check-digraph\n'
            'input.source: -\n'
            'input.vertices: 2\n'
            'input.arcs: 1\n'
            'cordial: true\n'
            'labeling: 01\n'
            'gamma: 1 0 0\n'
            'timing_seconds: <t>\n'
        ),
        '',
    ),
    (
        ['check-digraph', 'path:1'],
        None,
        0,
        (
            'command: check-digraph\n'
            'input.source: path:1\n'
            'input.vertices: 1\n'
            'input.arcs: 0\n'
            'cordial: true\n'
            'labeling: 0\n'
            'gamma: 0 0 0\n'
            'timing_seconds: <t>\n'
        ),
        '',
    ),
    (
        ['check-graph', 'petersen'],
        None,
        1,
        (
            'command: check-graph\n'
            'input.source: petersen\n'
            'input.vertices: 10\n'
            'input.edges: 15\n'
            'orientable: false\n'
            'detail: no orientation is cordial\n'
            'timing_seconds: <t>\n'
        ),
        '',
    ),
    (
        ['check-graph', 'path:6', '--json'],
        None,
        0,
        (
            '{\n'
            '  "command": "check-graph",\n'
            '  "inputs": {\n'
            '    "source": "path:6",\n'
            '    "vertices": 6,\n'
            '    "edges": 5\n'
            '  },\n'
            '  "verdicts": {\n'
            '    "orientable": true,\n'
            '    "labeling": "011010",\n'
            '    "orientation": "00110",\n'
            '    "gamma": [\n'
            '      2,\n'
            '      2,\n'
            '      1\n'
            '    ]\n'
            '  },\n'
            '  "timing_seconds": <t>\n'
            '}\n'
        ),
        '',
    ),
    (
        ['check-graph', 'path:x'],
        None,
        2,
        '',
        "error: bad vertex count in 'path:x'\n",
    ),
    (
        ['check-graph', 'alternating_path:4'],
        None,
        2,
        '',
        "error: expected undirected edges ('u v' lines), found arcs\n",
    ),
    (
        ['search', 'path:4'],
        None,
        1,
        (
            'command: search\n'
            'input.source: path:4\n'
            'input.symmetry: none\n'
            'orientations_scanned: 8\n'
            'noncordial_count: 4\n'
            'noncordial: 100 110 001 011\n'
            'wall_time_seconds: <t>\n'
            'timing_seconds: <t>\n'
        ),
        '',
    ),
    (
        ['search', 'path:6', '--json', '--fix-first-arc'],
        None,
        0,
        (
            '{\n'
            '  "command": "search",\n'
            '  "inputs": {\n'
            '    "source": "path:6",\n'
            '    "symmetry": "fix_first_arc"\n'
            '  },\n'
            '  "verdicts": {\n'
            '    "orientations_scanned": 16,\n'
            '    "noncordial_count": 0,\n'
            '    "noncordial": [],\n'
            '    "wall_time_seconds": <t>\n'
            '  },\n'
            '  "timing_seconds": <t>\n'
            '}\n'
        ),
        '',
    ),
    (
        # Failures 170 and 341 lie in the third and sixth blocks of 64.
        ['search', 'path:10'],
        None,
        1,
        (
            'command: search\n'
            'input.source: path:10\n'
            'input.symmetry: none\n'
            'orientations_scanned: 512\n'
            'noncordial_count: 2\n'
            'noncordial: 010101010 101010101\n'
            'wall_time_seconds: <t>\n'
            'timing_seconds: <t>\n'
        ),
        '',
    ),
    (
        ['search', 'path:40'],
        None,
        2,
        '',
        'error: 549755813888 orientations to scan, over the 4194304 cap\n',
    ),
    (
        ['gen', 'path', '4'],
        None,
        0,
        (
            '4 3\n'
            '0 1\n'
            '1 2\n'
            '2 3\n'
        ),
        '',
    ),
    (
        ['gen', 'alternating_path', '6'],
        None,
        0,
        (
            '6 5\n'
            '0 > 1\n'
            '2 > 1\n'
            '2 > 3\n'
            '4 > 3\n'
            '4 > 5\n'
        ),
        '',
    ),
    (
        ['gen', 'alternating_path', '7'],
        None,
        2,
        '',
        'error: alternating path needs an even vertex count >= 2\n',
    ),
    (
        ['scan-alternating', '24'],
        None,
        1,
        (
            'command: scan-alternating\n'
            'input.nmax: 24\n'
            'noncordial_n: 10 22\n'
            'timing_seconds: <t>\n'
        ),
        '',
    ),
    (
        ['scan-alternating', '24', '--json'],
        None,
        1,
        (
            '{\n'
            '  "command": "scan-alternating",\n'
            '  "inputs": {\n'
            '    "nmax": 24\n'
            '  },\n'
            '  "verdicts": {\n'
            '    "noncordial_n": [\n'
            '      10,\n'
            '      22\n'
            '    ]\n'
            '  },\n'
            '  "timing_seconds": <t>\n'
            '}\n'
        ),
        '',
    ),
    (
        ['scan-alternating', '7'],
        None,
        2,
        '',
        'error: n_max must be an even integer >= 2\n',
    ),
    (
        ['tournaments', '4'],
        None,
        1,
        (
            'command: tournaments\n'
            'input.n: 4\n'
            'total: 64\n'
            'noncordial_count: 16\n'
            'timing_seconds: <t>\n'
        ),
        '',
    ),
    (
        # K6 has no window triple: every block of 64 is counted whole.
        ['tournaments', '6', '--json'],
        None,
        1,
        (
            '{\n'
            '  "command": "tournaments",\n'
            '  "inputs": {\n'
            '    "n": 6\n'
            '  },\n'
            '  "verdicts": {\n'
            '    "total": 32768,\n'
            '    "noncordial_count": 32768\n'
            '  },\n'
            '  "timing_seconds": <t>\n'
            '}\n'
        ),
        '',
    ),
    (
        ['tournaments', '3', '--json'],
        None,
        0,
        (
            '{\n'
            '  "command": "tournaments",\n'
            '  "inputs": {\n'
            '    "n": 3\n'
            '  },\n'
            '  "verdicts": {\n'
            '    "total": 8,\n'
            '    "noncordial_count": 0\n'
            '  },\n'
            '  "timing_seconds": <t>\n'
            '}\n'
        ),
        '',
    ),
    (
        ['bounds', '6'],
        None,
        0,
        (
            'command: bounds\n'
            'input.n: 6\n'
            'z: 6\n'
            'bichromatic_capacity: 9\n'
            'e_max: 14\n'
            'in_stated_range: true\n'
            'timing_seconds: <t>\n'
        ),
        '',
    ),
    (
        ['bounds', '7', '--json'],
        None,
        0,
        (
            '{\n'
            '  "command": "bounds",\n'
            '  "inputs": {\n'
            '    "n": 7\n'
            '  },\n'
            '  "verdicts": {\n'
            '    "z": 9,\n'
            '    "bichromatic_capacity": 12,\n'
            '    "e_max": 19,\n'
            '    "in_stated_range": true\n'
            '  },\n'
            '  "timing_seconds": <t>\n'
            '}\n'
        ),
        '',
    ),
    (
        ['verify-bound', '6'],
        None,
        0,
        (
            'command: verify-bound\n'
            'input.n: 6\n'
            'graphs_checked: 1\n'
            'violations: 0\n'
            'tight_witness_found: true\n'
            'tight_edges: 14\n'
            'tight_labeling: 011100\n'
            'tight_orientation: 00000001100000\n'
            'timing_seconds: <t>\n'
        ),
        '',
    ),
    (
        ['verify-bound', '7', '--json'],
        None,
        0,
        (
            '{\n'
            '  "command": "verify-bound",\n'
            '  "inputs": {\n'
            '    "n": 7\n'
            '  },\n'
            '  "verdicts": {\n'
            '    "graphs_checked": 22,\n'
            '    "violations": 0,\n'
            '    "tight_witness_found": true,\n'
            '    "tight_edges": 19,\n'
            '    "tight_labeling": "0111000",\n'
            '    "tight_orientation": "0000000011100000000"\n'
            '  },\n'
            '  "timing_seconds": <t>\n'
            '}\n'
        ),
        '',
    ),
    (
        ['verify-bound', '5'],
        None,
        0,
        (
            'command: verify-bound\n'
            'input.n: 5\n'
            'graphs_checked: 0\n'
            'violations: 0\n'
            'tight_witness_found: true\n'
            'tight_edges: 10\n'
            'tight_labeling: 01100\n'
            'tight_orientation: 0000010000\n'
            'timing_seconds: <t>\n'
        ),
        '',
    ),
    (
        ['qcheck', 'alternating_path:6', '--table', 'z3.txt', '--subset', '0,1'],
        None,
        0,
        (
            'command: qcheck\n'
            'input.source: alternating_path:6\n'
            'input.table: z3.txt\n'
            'input.subset: 0 1\n'
            'cordial: true\n'
            'labels: 0 0 1 1 0 1\n'
            'display: 0 0 1 1 0 1\n'
            'timing_seconds: <t>\n'
        ),
        '',
    ),
    (
        ['qcheck', 'alternating_path:10', '--table', 'z3.txt', '--subset', '0,1', '--json'],
        None,
        1,
        (
            '{\n'
            '  "command": "qcheck",\n'
            '  "inputs": {\n'
            '    "source": "alternating_path:10",\n'
            '    "table": "z3.txt",\n'
            '    "subset": [\n'
            '      0,\n'
            '      1\n'
            '    ]\n'
            '  },\n'
            '  "verdicts": {\n'
            '    "cordial": false,\n'
            '    "detail": "no cordial labeling"\n'
            '  },\n'
            '  "timing_seconds": <t>\n'
            '}\n'
        ),
        '',
    ),
    (
        ['qcheck', 'alternating_path:4', '--table', 'z3.txt', '--subset', '0,x'],
        None,
        2,
        '',
        "error: bad label subset '0,x'\n",
    ),
]


@pytest.mark.parametrize(
    "argv, stdin, code, stdout, stderr", CASES, ids=[" ".join(c[0]) for c in CASES]
)
def test_report_is_byte_identical(argv, stdin, code, stdout, stderr, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "z3.txt").write_text(Z3_MINUS_TABLE)
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        got = run(argv)
    assert (got, TIMING.sub(r"\1<t>", out.getvalue()), err.getvalue()) == (
        code,
        stdout,
        stderr,
    )
