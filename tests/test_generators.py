"""Every name of the generator registry, through ``named`` and ``cordial gen``."""

import io
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest

from cordial import Digraph, named, parse_text
from cordial.cli import run
from cordial.graphs import _GENERATORS

SIZED = [name for name, (_, sized) in _GENERATORS.items() if sized]
FIXED = [name for name, (_, sized) in _GENERATORS.items() if not sized]


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_registry_splits_into_sized_and_fixed_names():
    assert SIZED == ["path", "complete", "alternating_path", "tight_bound"]
    assert FIXED == ["petersen", "counterexample_tree"]


@pytest.mark.parametrize("name", SIZED)
def test_sized_name_needs_a_vertex_count(name):
    code, out, _ = invoke(["gen", name, "4"])
    assert code == 0
    assert parse_text(out) == named(name, 4) == _GENERATORS[name][0](4)
    with pytest.raises(ValueError, match=f"^{name} requires a vertex count$"):
        named(name)
    code, out, err = invoke(["gen", name])
    assert (code, out) == (2, "")
    assert err == f"error: {name} requires a vertex count\n"


@pytest.mark.parametrize("name", FIXED)
def test_fixed_size_name_rejects_a_vertex_count(name):
    code, out, _ = invoke(["gen", name])
    assert code == 0
    assert parse_text(out) == named(name) == _GENERATORS[name][0]()
    with pytest.raises(ValueError, match=f"^{name} does not take a vertex count$"):
        named(name, 4)
    code, out, err = invoke(["gen", name, "4"])
    assert (code, out) == (2, "")
    assert err == f"error: {name} does not take a vertex count\n"


@pytest.mark.parametrize("name", SIZED)
def test_sized_name_knows_its_edge_count(name):
    # A caller sizes the graph from this count before it is built.
    maker, edges = _GENERATORS[name]
    for n in range(3, 13):
        if name != "alternating_path" or n % 2 == 0:
            obj = maker(n)
            assert edges(n) == (obj.arc_count if isinstance(obj, Digraph) else obj.edge_count)


def test_unknown_name_is_rejected():
    with pytest.raises(ValueError, match="^unknown graph name 'nosuch'$"):
        named("nosuch", 4)
    code, out, err = invoke(["gen", "nosuch", "4"])
    assert (code, out) == (2, "")
    assert "invalid choice: 'nosuch'" in err


def test_gen_help_lists_the_registry_in_order():
    code, out, _ = invoke(["gen", "--help"])
    assert code == 0
    listed = set(re.findall(r"\{[^}]*\}", out))
    assert listed == {"{" + ",".join(_GENERATORS) + "}"}
