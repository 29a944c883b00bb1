"""The test-only scan flags library code that only tests reach."""

import importlib.util
import sys
import textwrap
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "check_test_only",
    Path(__file__).parent.parent / "scripts" / "check_test_only.py",
)
check_test_only = importlib.util.module_from_spec(_SPEC)
sys.modules["check_test_only"] = check_test_only
_SPEC.loader.exec_module(check_test_only)

LIBRARY = '''
def used():
    return helper()

def helper():
    return 1

def tested():
    return inner()

def inner():
    return 2

class Box:
    def opened(self):
        return True

    def sealed(self):
        return False
'''

CALLER = '''
from pkg.mod import Box, used

print(used(), Box().opened())
'''

TEST = '''
from pkg.mod import Box, tested

def test_it():
    assert tested() == 2
    assert not Box().sealed()
'''


def make_tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return root


def tree(root, **extra):
    files = {"src/pkg/__init__.py": "", "src/pkg/mod.py": LIBRARY,
             "examples/demo.py": CALLER, "tests/test_mod.py": TEST}
    files.update(extra)
    return make_tree(root, files)


class TestCommittedTree:
    def test_committed_tree_is_clean(self):
        assert check_test_only.check() == []

    def test_main_exits_zero(self, capsys):
        assert check_test_only.main() == 0
        assert "OK" in capsys.readouterr().out

    def test_allowlist_uses_the_four_reasons(self):
        reasons = {check_test_only.DOCUMENTED, check_test_only.ORACLE,
                   check_test_only.FRAMEWORK, check_test_only.PINNED}
        assert set(check_test_only.ALLOWLIST.values()) <= reasons


class TestScan:
    def test_test_only_def_is_flagged(self, tmp_path):
        problems = check_test_only.check(tree(tmp_path), allowlist={})
        flagged = sorted(line.split(" ")[0] for line in problems)
        # inner is reached only through tested, which only a test calls.
        assert flagged == ["pkg.mod.Box.sealed", "pkg.mod.inner",
                           "pkg.mod.tested"]
        assert any("pkg.mod.tested" in line and "only tests reach it" in line
                   for line in problems)

    def test_unreferenced_def_is_flagged(self, tmp_path):
        root = tree(tmp_path, **{"src/pkg/extra.py": "def orphan():\n    pass\n"})
        problems = check_test_only.check(root, allowlist={})
        assert any(line.startswith("pkg.extra.orphan") and
                   "nothing references it" in line for line in problems)

    def test_all_reexport_is_not_a_caller(self, tmp_path):
        root = tree(tmp_path, **{"src/pkg/__init__.py": '''
            from pkg.mod import tested
            __all__ = ["tested"]
        '''})
        problems = check_test_only.check(root, allowlist={})
        assert any(line.startswith("pkg.mod.tested ") for line in problems)

    def test_allowlisted_def_passes(self, tmp_path):
        allowlist = {"pkg.mod.tested": check_test_only.ORACLE,
                     "pkg.mod.Box.sealed": check_test_only.ORACLE}
        assert check_test_only.check(tree(tmp_path), allowlist) == []


class TestStaleAllowlist:
    def test_entry_with_a_real_caller_fails(self, tmp_path):
        root = tree(tmp_path, **{"scripts/run.py": '''
            from pkg.mod import Box, tested
            tested()
            Box().sealed()
        '''})
        allowlist = {"pkg.mod.tested": check_test_only.ORACLE}
        problems = check_test_only.check(root, allowlist)
        assert problems == [
            "pkg.mod.tested: allowlisted but real code now reaches it"]

    def test_entry_no_longer_defined_fails(self, tmp_path):
        allowlist = {"pkg.mod.tested": check_test_only.ORACLE,
                     "pkg.mod.Box.sealed": check_test_only.ORACLE,
                     "pkg.mod.gone": check_test_only.DOCUMENTED}
        problems = check_test_only.check(tree(tmp_path), allowlist)
        assert problems == ["pkg.mod.gone: allowlisted but no longer defined"]


class TestModuleAssignments:
    CONSTANTS = '''
        from pkg.mod import helper, inner

        LIMIT = 3
        TABLE = {"inner": inner}
        USED, SPARE = helper(), 0
        __version__ = "1"
    '''

    def test_assignment_only_tests_read_is_flagged(self, tmp_path):
        root = tree(tmp_path, **{
            "src/pkg/consts.py": self.CONSTANTS,
            "scripts/run.py": "from pkg.consts import LIMIT, USED\n"
                              "print(LIMIT, USED)\n",
            "tests/test_consts.py": "from pkg.consts import TABLE\n"
                                    "assert TABLE\n"})
        problems = check_test_only.check(root, allowlist={})
        flagged = {line.split(" ")[0]: line for line in problems}
        assert "only tests reach it" in flagged["pkg.consts.TABLE"]
        assert "nothing references it" in flagged["pkg.consts.SPARE"]
        for kept in ("pkg.consts.LIMIT", "pkg.consts.USED",
                     "pkg.consts.__version__"):
            assert kept not in flagged
        # A test-only table keeps nothing alive: inner stays test-only.
        assert "pkg.mod.inner" in flagged

    def test_reexport_is_not_a_read(self, tmp_path):
        root = tree(tmp_path, **{
            "src/pkg/consts.py": "LIMIT = 3\n",
            "src/pkg/__init__.py": '''
                from pkg.consts import LIMIT
                __all__ = ["LIMIT"]
            ''',
            "tests/test_consts.py": "from pkg import LIMIT\n"})
        problems = check_test_only.check(root, allowlist={})
        assert any(line.startswith("pkg.consts.LIMIT ") for line in problems)


class TestUnusedImports:
    def test_import_never_read_is_flagged(self, tmp_path):
        root = tree(tmp_path, **{"src/pkg/user.py": '''
            from __future__ import annotations

            import os.path
            from typing import List, Optional
            from pkg.mod import helper as assist, used

            def run(values: "Optional[int]") -> int:
                import json
                return used() + len(os.path.sep)
        '''})
        problems = check_test_only.check(root, allowlist={})
        unused = sorted(line.split("imports ")[1].split(" ")[0]
                        for line in problems if "imports" in line)
        assert unused == ["List", "assist", "json"]
        assert all(line.startswith("src/pkg/user.py: ")
                   for line in problems if "imports" in line)

    def test_package_init_imports_are_reexports(self, tmp_path):
        root = tree(tmp_path, **{"src/pkg/__init__.py":
                                 "from pkg.mod import used, Box\n"})
        assert not [line for line in check_test_only.check(root, {})
                    if "imports" in line]
