"""The package's modules form layers: each imports only from lower ranks."""

import ast
from pathlib import Path

import pumplimit

PACKAGE = Path(pumplimit.__file__).parent

#: rank of each module; modules of equal rank do not know each other
RANKS = {
    "errors": 0,
    "linalg": 1,
    "polarization": 2,
    "twoqubit": 2,
    "channels": 2,
    "scheme": 3,
    "serialize": 4,
    "sweep": 4,
    "__init__": 5,  # re-exports the public names of the layers below
    "cli": 6,
    "__main__": 7,
}


def _package_imports(path: Path) -> set[str]:
    """Package modules named by a file's ``from .x import`` and ``from . import x`` lines.

    ``from . import name`` of a name that is not a module reads the package
    itself, ``__init__``.
    """
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(a.name if a.name in RANKS else "__init__" for a in node.names)
    return found


def test_every_module_has_a_rank():
    assert {path.stem for path in PACKAGE.glob("*.py")} == set(RANKS)


def test_modules_import_only_from_lower_ranks():
    upward = [
        f"{path.stem} imports {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in sorted(_package_imports(path))
        if RANKS[name] >= RANKS[path.stem]
    ]
    assert upward == []


#: numpy's Hermitian eigensolvers and their gufuncs, which only ``linalg.check_states`` may call
EIGENSOLVERS = {"eigh", "eigvalsh", "eigh_lo", "eigvalsh_lo"}


def _owners(path: Path, names: set[str]) -> set[str]:
    """``module.function`` for each function of a file that names one of ``names``.

    A name counts as an attribute (``np.linalg.eigh``), an imported name
    (``from numpy.linalg import eigh``) or a plain name; a method counts as
    ``module.Class.method`` and module-level uses as ``module.<module>``.
    """
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name if owner == "<module>" else f"{owner}.{node.name}"
        elif isinstance(node, ast.ClassDef):
            owner = node.name
        if isinstance(node, ast.Attribute):
            named = {node.attr}
        elif isinstance(node, ast.Name):
            named = {node.id}
        elif isinstance(node, ast.ImportFrom):
            named = {a.name for a in node.names}
        else:
            named = set()
        if named & names:
            found.add(f"{path.stem}.{owner}")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def test_only_check_states_calls_the_eigensolvers():
    owners = set().union(*(_owners(path, EIGENSOLVERS) for path in PACKAGE.glob("*.py")))
    assert owners == {"linalg.check_states"}


#: the stack concurrence kernel's separability skip, which only ``twoqubit`` may name
SKIP_NAMES = {"_ppt_det_stack", "_wootters_stack", "_PPT_ABOVE"}


def _names(path: Path) -> set[str]:
    """Every identifier, attribute and imported name in a file."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names)
    return found


def test_only_twoqubit_names_the_separability_skip():
    namers = {path.stem for path in PACKAGE.glob("*.py") if _names(path) & SKIP_NAMES}
    assert namers == {"twoqubit"}


def test_only_linalg_names_the_lapack_gufuncs():
    assert {path.stem for path in PACKAGE.glob("*.py") if "_umath_linalg" in _names(path)} == {"linalg"}


def test_only_scheme_and_linalg_name_the_factor_gates_rule():
    """The factor gate's budget and trace rule stay out of the sweep."""
    assert {path.stem for path in PACKAGE.glob("*.py") if "BUILT_TRACE_TOL" in _names(path)} == {"scheme"}
    assert {path.stem for path in PACKAGE.glob("*.py") if "_trace_rule" in _names(path)} == {"linalg", "scheme"}


def test_only_sweep_names_loadtxt():
    """The sweep CSV reader's ``_table`` is the package's one text-table parser, so the reader has one grammar."""
    owners = set().union(*(_owners(path, {"loadtxt"}) for path in PACKAGE.glob("*.py")))
    assert owners == {"sweep._table"}


def test_only_sweep_records_applies_the_row_rule():
    """A sweep row's values have one gate, whether the row came as a CSV line, arrays or a plain record.

    ``_evaluate`` also calls validate_spectrum, as the gate of the spectra
    it computes; the grammar error of a line and of a plain record is one constant.
    """
    sweep = PACKAGE / "sweep.py"
    assert _owners(sweep, {"_UNIT_INDEX"}) == {"sweep.<module>", "sweep.SweepRecords.__init__"}
    assert _owners(sweep, {"validate_spectrum"}) == {"sweep.<module>", "sweep.SweepRecords.__init__", "sweep._evaluate"}
    assert _owners(sweep, {"_NOT_ROW"}) == {"sweep.<module>", "sweep._first_bad_line", "sweep._record_values"}
    assert {path.stem for path in PACKAGE.glob("*.py") if "_UNIT_INDEX" in _names(path)} == {"sweep"}


def test_cli_names_no_private_package_name():
    """The command line is a client of the public API: it imports or reads no ``_``-prefixed package name."""
    nodes = list(ast.walk(ast.parse((PACKAGE / "cli.py").read_text())))
    imported = {a.name for node in nodes if isinstance(node, ast.ImportFrom) and node.level == 1 for a in node.names}
    read = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    assert {name for name in imported | read if name.startswith("_") and not name.startswith("__")} == set()


def _strings(path: Path) -> set[str]:
    """Every string constant in a file."""
    nodes = ast.walk(ast.parse(path.read_text()))
    return {node.value for node in nodes if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_one_module_owns_each_settings_rule():
    """The bool rule for numbers lives in ``linalg``; the sweep's modes live in ``sweep`` (``cli`` reads ``MODES``)."""
    assert {path.stem for path in PACKAGE.glob("*.py") if "_is_bool" in _names(path)} == {"linalg"}
    assert {path.stem for path in PACKAGE.glob("*.py") if "two_d" in _strings(path)} == {"sweep"}


def test_public_names_match_the_imports():
    public = pumplimit.__all__
    assert len(public) == len(set(public))
    assert [name for name in public if not hasattr(pumplimit, name)] == []
    imported = {
        alias.asname or alias.name
        for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert sorted(imported - set(public)) == []
