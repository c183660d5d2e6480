"""Static hygiene of the package sources: every import and definition is used."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "tubecomp").glob("*.py"))
# the code that may read a definition: the package, its tests and its demos
READERS = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; names in __all__ count as read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted(set(imported) - used)


def test_detector_flags_only_unread_names():
    source = ("from __future__ import annotations\nimport numpy as np\n"
              "import os.path\nfrom math import pi, tau\n"
              "from .models import first_zero\n__all__ = ['first_zero']\n"
              "x = np.zeros(1) * pi\n")
    assert unused_imports(source) == ["os", "tau"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_all_entries_resolve_once(path):
    # the unused-import scan counts __all__ names as read, so a stale entry
    # would pass it silently while ``import *`` fails
    name = "tubecomp" if path.stem == "__init__" else f"tubecomp.{path.stem}"
    module = importlib.import_module(name)
    entries = list(module.__all__)
    assert len(entries) == len(set(entries))
    assert [e for e in entries if not hasattr(module, e)] == []


def names_read(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names and attribute names a tree reads, outside the subtree ``skip``.

    Strings do not count, so a name listed only in ``__all__`` is not read.
    """
    skipped = {id(node) for node in ast.walk(skip)} if skip is not None else set()
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in skipped}


def unreferenced_definitions(source: str, read_elsewhere: set[str]) -> list[str]:
    """Module-level functions and classes that neither other code nor the
    module itself (outside the definition) reads."""
    tree = ast.parse(source)
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in read_elsewhere
            and node.name not in names_read(tree, skip=node)]


def test_definition_detector_flags_only_unread_names():
    source = ("__all__ = ['called', 'exported', 'recursive', 'Local']\n"
              "def called(): pass\n"
              "def exported(): pass\n"
              "def recursive(n): return recursive(n - 1)\n"
              "def by_attribute(): pass\n"
              "class Local: pass\n"
              "LOCAL = Local()\n")
    readers = ["from pkg import called\ncalled()\n", "import pkg\npkg.by_attribute()\n"]
    read = set().union(*(names_read(ast.parse(r)) for r in readers))
    assert unreferenced_definitions(source, read) == ["exported", "recursive"]


def test_every_definition_is_referenced():
    read = {path: names_read(ast.parse(path.read_text())) for path in READERS}
    unread = []
    for path in SOURCES:
        elsewhere = set().union(*(names for p, names in read.items() if p != path))
        unread += [f"{path.name}:{name}"
                   for name in unreferenced_definitions(path.read_text(), elsewhere)]
    assert unread == []


def attributes_read(tree: ast.AST) -> set[str]:
    """Attribute names a tree loads (``x.name`` read, not assigned)."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_fields(source: str, read: set[str]) -> list[str]:
    """Annotated class fields (``Class.field``) whose name no reader loads."""
    return [f"{cls.name}.{node.target.id}"
            for cls in ast.parse(source).body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
            and node.target.id not in read]


def test_field_detector_flags_only_unread_fields():
    source = ("class Spec:\n"
              "    used: int = 1\n"
              "    unread: float = 0.0\n"
              "    written: int = 0\n"
              "    LIMIT = 3\n"
              "def touch(spec):\n"
              "    spec.written = spec.used + spec.LIMIT\n")
    readers = ["Spec(unread=2.0)\n", "def f(s): return s.used\n"]
    read = set().union(*(attributes_read(ast.parse(r)) for r in [source] + readers))
    assert unread_fields(source, read) == ["Spec.unread", "Spec.written"]


def test_every_field_is_read():
    read = set().union(*(attributes_read(ast.parse(p.read_text())) for p in READERS))
    unread = [f"{path.name}:{name}" for path in SOURCES
              for name in unread_fields(path.read_text(), read)]
    assert unread == []


def test_every_setting_is_used_or_retired():
    # a config key that nothing reads must be listed as retired, so a dead
    # setting cannot come back unnoticed
    import dataclasses

    from tubecomp import cli
    from tubecomp.tubes import QuadratureSpec

    assert cli._RETIRED <= {(section, key) for section in ("quadrature", "declared")
                            for key in cli._SCHEMA[section]}
    fields = {f.name for f in dataclasses.fields(QuadratureSpec)}
    assert [key for key in cli._SCHEMA["quadrature"]
            if key not in fields and ("quadrature", key) not in cli._RETIRED] == []
    tree = next(node for node in ast.parse((ROOT / "src" / "tubecomp" / "cli.py").read_text()).body
                if isinstance(node, ast.FunctionDef) and node.name == "_apply_settings")
    strings = {node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert [key for key in cli._SCHEMA["declared"]
            if key not in strings and ("declared", key) not in cli._RETIRED] == []
    # and a retired key is ignored: _apply_settings names none of them
    assert sorted(key for _, key in cli._RETIRED if key in strings) == []


def test_conformal_charts_share_one_jet_helper():
    # a chart whose metric is phi * I is built by manifolds._conformal, so no
    # builder hand-rolls its own metric, gradient and Hessian triple again
    import numpy as np

    from tubecomp import manifolds

    args = {"product": (manifolds.sphere(2), manifolds.hyperbolic(2)),
            "warped_product": (2, np.cosh, np.sinh, np.cosh)}
    rng = np.random.default_rng(0)
    conformal, other = [], []
    for name, build in manifolds.MANIFOLD_BUILDERS.items():
        M = build(*args.get(name, (3,)))
        lo, hi = M.domain.lo, M.domain.hi
        g = M.metric_at(lo + rng.uniform(0.1, 0.9, (5, M.dim)) * (hi - lo))
        multiple_of_eye = np.allclose(g, g[:, :1, :1] * np.eye(M.dim), rtol=0.0, atol=1e-14)
        (conformal if multiple_of_eye else other).append(name)
        if multiple_of_eye:
            assert M.metric.__qualname__.startswith("_conformal."), name
        assert (M.conformal_jet is not None) == multiple_of_eye, name
    assert {"bump_torus", "euclidean", "flat_torus", "hyperbolic", "sphere"} <= set(conformal)
    assert sorted(other) == ["product", "sphere_colatitude", "warped_product"]


JET_CALLBACKS = ("metric_grad", "metric_hess", "jacobian", "hessian")


def derivative_fallbacks(source: str) -> list[str]:
    """Finite-difference names and ``is None`` tests of a jet callback in ``source``."""
    found = re.findall(r"\bfd_gradient\b|\bfd_hessian\b|\bFD_STEP\w*", source)
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Compare)
                and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)):
            text = ast.unparse(node)
            found += [text for name in JET_CALLBACKS if re.search(rf"\b{name}\b", text)]
    return found


def test_derivative_fallback_detector():
    source = ("from .geometry import fd_gradient\nh = FD_STEP_SECOND\n"
              "if M.metric_hess is None: pass\nif sigma.jacobian is not None: pass\n"
              "if sigma.normal_frame_fn is not None: pass\nhessian = M.metric_hess(x)\n")
    assert derivative_fallbacks(source) == [
        "fd_gradient", "FD_STEP_SECOND", "M.metric_hess is None", "sigma.jacobian is not None"]


def test_one_derivative_path():
    # every chart and submanifold gives its exact jet: src/ holds no
    # finite-difference stencil and no fallback for a missing callback
    import dataclasses

    from tubecomp.geometry import ChartManifold
    from tubecomp.submanifolds import EmbeddedSubmanifold

    assert {path.name: derivative_fallbacks(path.read_text()) for path in SOURCES} == {
        path.name: [] for path in SOURCES}
    required = {f.name for cls in (ChartManifold, EmbeddedSubmanifold)
                for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING}
    assert set(JET_CALLBACKS) <= required


# a parameter hypothesis of a bound, as code would spell it: k's ceiling, p
# against n - k, the codimension range, and the sign of H
HYPOTHESIS_SPELLINGS = (r"\bmin\(m, n - m - 1\)", r"\bp [<>]=? n - k\b",
                        r"\bm < n - 1\b", r"\bH [<>]=? 0")
# attribute reads that name n, m, k, p or H, so that spelling counts too
DIMENSION_READS = ((r"\b[\w.]*sigma\.dim\b", "m"), (r"\b[\w.]*(manifold|\bM)\.dim\b", "n"),
                   (r"\b\w+\.(k|p|H)\b", r"\1"))


def hypothesis_spellings(source: str) -> list[str]:
    """Comparisons and calls of ``source`` that spell a bound's hypothesis."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Compare, ast.Call)):
            text = ast.unparse(node)
            for pattern, name in DIMENSION_READS:
                text = re.sub(pattern, name, text)
            found += [text for pattern in HYPOTHESIS_SPELLINGS if re.search(pattern, text)]
    return found


def test_hypotheses_are_stated_once_in_models():
    # the checks and the tube-volume table read models.HYPOTHESES, so neither
    # may decide a bound's parameter hypothesis of its own again
    src = ROOT / "src" / "tubecomp"
    assert len(set(hypothesis_spellings((src / "models.py").read_text()))) >= 4
    for name in ("verification.py", "cli.py"):
        assert hypothesis_spellings((src / name).read_text()) == [], name


def _transposed(node: ast.AST) -> str | None:
    """Source of A when ``node`` transposes it (A.T, A.mT, swapaxes, transpose, moveaxis)."""
    if isinstance(node, ast.Attribute) and node.attr in ("T", "mT"):
        return ast.unparse(node.value)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in ("swapaxes", "transpose", "moveaxis"):
            # np.swapaxes(A, ...) or A.swapaxes(...)
            if ast.unparse(node.func.value) in ("np", "numpy"):
                return ast.unparse(node.args[0]) if node.args else None
            return ast.unparse(node.func.value)
    return None


def curvature_sources(source: str) -> list[str]:
    """Reads of ``_curvature_batch`` and frame products E w E^T formed in ``source``.

    A frame product is ``E @ w @ T(E)`` with T a transpose, or a
    three-operand einsum whose outer operands are the same array and whose
    result keeps both of their row indices (a partial trace, which sums the
    rows together, is not one).
    """
    tree = ast.parse(source)
    found = [a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for a in node.names if a.name == "_curvature_batch"]
    for node in ast.walk(tree):
        if ((isinstance(node, ast.Name) and node.id == "_curvature_batch")
                or (isinstance(node, ast.Attribute) and node.attr == "_curvature_batch")):
            found.append(ast.unparse(node))
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
              and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.MatMult)
              and _transposed(node.right) == ast.unparse(node.left.left)):
            found.append(ast.unparse(node))
        elif (isinstance(node, ast.Call) and ast.unparse(node.func).endswith("einsum")
              and len(node.args) == 4 and isinstance(node.args[0], ast.Constant)
              and ast.unparse(node.args[1]) == ast.unparse(node.args[3])):
            inputs, _, output = node.args[0].value.partition("->")
            first, _, third = inputs.split(",")
            rows = {first[-2], third[-2]}
            if len(rows) == 2 and rows <= set(output):
                found.append(ast.unparse(node))
    return found


def test_curvature_source_detector():
    source = ("from .geometry import _curvature_batch, frame_matrix\n"
              "rm = geometry._curvature_batch(M, x)[1]\n"
              "mat = E @ w @ np.swapaxes(E, -1, -2)\n"
              "mat = E @ w @ E.T\n"
              "mat = np.einsum('...ai,...ij,...bj->...ab', E, w, E)\n"
              "tr = np.einsum('...fai,...ij,...faj->...f', W, S, W)\n"
              "q = xi @ g @ xi\n"
              "gram = J.T @ g @ J\n"
              "mat = frame_matrix(w, E)\n")
    assert sorted(curvature_sources(source)) == sorted([
        "_curvature_batch", "geometry._curvature_batch",
        "E @ w @ np.swapaxes(E, -1, -2)", "E @ w @ E.T",
        "np.einsum('...ai,...ij,...bj->...ab', E, w, E)"])


def test_one_curvature_source_along_rays():
    # the ray ODE and the checks read curvature only through
    # geometry._jacobi_batch, the parallel-frame curvature matrix is
    # formed only in geometry (frame_matrix), and only geometry reads a
    # chart's phi-jet (manifolds hands it over as a keyword)
    src = ROOT / "src" / "tubecomp"
    for name in ("transport.py", "verification.py"):
        text = (src / name).read_text()
        assert curvature_sources(text) == [], name
        assert "_jacobi_batch" in text and "frame_matrix" in text, name
    assert {path.name: curvature_sources(path.read_text()) for path in SOURCES
            if path.name != "geometry.py"} == {
        path.name: [] for path in SOURCES if path.name != "geometry.py"}
    assert len(curvature_sources((src / "geometry.py").read_text())) >= 1
    assert [path.name for path in SOURCES
            if "conformal_jet" in attributes_read(ast.parse(path.read_text()))] == ["geometry.py"]


def det_reads(source: str) -> list[str]:
    """The function (``<module>`` at top level) around each read of numpy's det.

    A read is an attribute ``det`` of anything named ``linalg``
    (``np.linalg.det``, ``numpy.linalg.det``, ``linalg.det``) or a name
    imported as ``det`` from ``numpy.linalg``; called or not, it counts.
    """
    tree = ast.parse(source)
    aliases = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
               for a in node.names if a.name == "det"}
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if ((isinstance(child, ast.Attribute) and child.attr == "det"
                 and ast.unparse(child.value).split(".")[-1] == "linalg")
                    or (isinstance(child, ast.Name) and child.id in aliases)):
                found.append(owner)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else owner)
    visit(tree, "<module>")
    return found


def test_det_read_detector():
    source = ("import numpy as np\nimport numpy\nfrom numpy import linalg\n"
              "from numpy.linalg import det as lu_det, inv\n"
              "d0 = np.linalg.det(g)\n"
              "def f(J):\n    return numpy.linalg.det(J) + linalg.det(J)\n"
              "class A:\n    def g(self, J):\n        return lu_det(J), inv(J)\n"
              "def h(J):\n    det = np.prod(J)\n    return J.det + det + np.linalg.slogdet(J)\n"
              "reader = np.linalg.det\n")
    assert det_reads(source) == ["<module>", "f", "f", "g", "<module>"]


def test_one_det_of_the_jacobi_matrix():
    # det J is formed only by transport.jacobi_det; np.linalg.det is its
    # r >= 5 and overflow fallback, read nowhere else along the rays
    src = ROOT / "src" / "tubecomp"
    assert {name: det_reads((src / name).read_text())
            for name in ("transport.py", "tubes.py", "verification.py")} == {
        "transport.py": ["jacobi_det"], "tubes.py": [], "verification.py": []}


def jet_callers(source: str) -> list[str]:
    """Module-level functions of ``source`` that call a chart's ``conformal_jet``
    (a test such as ``M.conformal_jet is None`` is not a call)."""
    return [node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)
            and any(isinstance(c, ast.Call) and isinstance(c.func, ast.Attribute)
                    and c.func.attr == "conformal_jet" for c in ast.walk(node))]


def reaches(source: str, start: str, target: str) -> bool:
    """Whether module-level function ``start`` reads ``target``, directly or
    through the module-level functions it reads."""
    graph = {node.name: names_read(node) for node in ast.parse(source).body
             if isinstance(node, ast.FunctionDef)}
    seen, todo = set(), [start]
    while todo:
        name = todo.pop()
        if name == target:
            return True
        if name in graph and name not in seen:
            seen.add(name)
            todo += graph[name]
    return False


def test_jet_caller_detector():
    source = ("def form(M, x):\n    return M.conformal_jet(x)\n"
              "def route(M, x):\n    return form(M, x) if M.conformal_jet is not None else 0\n"
              "def top(M, x):\n    pick = {'a': route}.get('a')\n    return pick(M, x)\n"
              "def other(M, x):\n    return M.metric(x)\n")
    assert jet_callers(source) == ["form"]
    assert reaches(source, "top", "form") and not reaches(source, "other", "form")


def test_one_conformal_curvature_form():
    # the conformal curvature form A needs the phi-jet, which one function
    # reads; the ray kernel and rho_k both take A from it
    source = (ROOT / "src" / "tubecomp" / "geometry.py").read_text()
    assert jet_callers(source) == ["_conformal_form"]
    for reader in ("_jacobi_batch", "rho_k"):
        assert reaches(source, reader, "_conformal_form"), reader
