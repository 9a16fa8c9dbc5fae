"""The package's on-line, analysis and generator names load their submodule
on first use. Each test runs in a new interpreter: in this one every
submodule is already loaded, so the order of first use cannot show."""

from conftest import fresh_python

LAZY_MODULES = ("online", "analysis", "generators")


def test_lazy_names_resolve_to_their_definitions():
    probe = f"""
import sys
import abelianperiods as ap
lazy = {LAZY_MODULES!r}
before = [m for m in lazy if f"abelianperiods.{{m}}" in sys.modules]
missing = [name for name in [*ap.__all__, "Sink", *lazy] if not hasattr(ap, name)]
online, analysis, generators = (sys.modules[f"abelianperiods.{{m}}"] for m in lazy)
same = [
    ap.online is online, ap.analysis is analysis, ap.generators is generators,
    ap.Sink is online.Sink, ap.online_heap is online.online_heap,
    ap.filter_nondeducible is analysis.filter_nondeducible,
    ap.random_word is generators.random_word,
]
print(before, missing, all(same))
"""
    assert fresh_python(probe) == "[] [] True\n"


def test_each_lazy_name_loads_only_its_own_module():
    probe = f"""
import sys
import abelianperiods as ap
ap.random_word, ap.filter_nontrivial
print(sorted(m for m in {LAZY_MODULES!r} if f"abelianperiods.{{m}}" in sys.modules))
"""
    assert fresh_python(probe) == "['analysis', 'generators']\n"


def test_star_import_binds_all_names():
    probe = """
from abelianperiods import *
import abelianperiods
print([n for n in abelianperiods.__all__ if globals().get(n) is not getattr(abelianperiods, n)])
"""
    assert fresh_python(probe) == "[]\n"


def test_dir_lists_the_lazy_names_without_loading_them():
    probe = f"""
import sys
import abelianperiods as ap
names = dir(ap)
wanted = {{*ap.__all__, "Sink", *{LAZY_MODULES!r}}}
print(sorted(wanted - set(names)), names == sorted(names), "abelianperiods.online" in sys.modules)
"""
    assert fresh_python(probe) == "[] True False\n"


def test_unknown_name_raises_attribute_error_naming_the_module():
    probe = """
import abelianperiods as ap
try:
    ap.no_such_name
except AttributeError as exc:
    print(exc)
try:
    from abelianperiods import no_such_name
except ImportError as exc:
    print(type(exc).__name__)
"""
    assert fresh_python(probe) == "module 'abelianperiods' has no attribute 'no_such_name'\nImportError\n"


def test_patch_before_load_reaches_the_dispatch():
    # a replacement set before anything loads .online is what the dispatch
    # calls, and loading .online later does not overwrite it
    probe = """
import sys
import abelianperiods as ap
calls = []
def fake(table, sink=None):
    calls.append(table.n)
    return {(0, table.n)}
ap.online_heap = fake
print("abelianperiods.online" in sys.modules)
print(ap.abelian_periods("abaababa", "online-heap"), calls, ap.online_heap is fake)
"""
    assert fresh_python(probe) == "False\n[(0, 8)] [8] True\n"


def test_first_use_binds_a_module_global():
    # later lookups, patches and wrappers then see a plain global
    probe = """
import abelianperiods as ap
before = "online_heap" in vars(ap)
value = ap.online_heap
print(before, vars(ap)["online_heap"] is value)
"""
    assert fresh_python(probe) == "False True\n"
