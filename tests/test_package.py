from __future__ import annotations

import ast
import glob
import importlib.util
import os
import subprocess
import sys

import msga


def test_package_imports_no_scipy() -> None:
    code = ("import sys, msga, msga.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(msga.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_no_pow_with_integer_literal_exponent_in_src() -> None:
    # numpy sends `a**2` to square but any other literal exponent to libm pow,
    # element by element; cube with products instead
    src = os.path.dirname(msga.__file__)
    found = []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)):
                continue
            exp = node.right
            if isinstance(exp, ast.UnaryOp) and isinstance(exp.op, (ast.USub, ast.UAdd)):
                exp = exp.operand
            if (isinstance(exp, ast.Constant) and type(exp.value) is int
                    and ast.literal_eval(node.right) != 2):
                found.append(f"{os.path.basename(path)}:{node.lineno}")
    assert found == []


def test_every_name_the_benchmark_tracer_wraps_resolves_and_is_restored() -> None:
    # perfbench/tracer.py wraps program functions where they are looked up, by
    # name; a name that goes missing must fail here, not in a traced benchmark
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(root, "perfbench", "tracer.py"))
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.patch_program(tracer)
        patched = list(tracer._patched)
        wrapped = [getattr(owner, attr).__wrapped__ is original
                   for owner, attr, original in patched]
    finally:
        tracer.unpatch()
    assert patched and all(wrapped)
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)


def module_boundary_breaches(src: str) -> list[str]:
    """`module:line: what` for each breach of the modules' public surfaces in `src`:
    the package root imports anything; a module imports a `_` name from another msga
    module or reads a `_` attribute (dunders aside) off anything but self or cls; or
    a `from msga.X import Y` names a Y that is not a top-level def, class or
    assignment of msga.X, so Y has a second home."""
    trees = {}
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            trees[os.path.basename(path)[:-3]] = ast.parse(fh.read(), path)
    defined = {}
    for module, tree in trees.items():
        names = defined[module] = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            where = f"{module}:{getattr(node, 'lineno', 0)}"
            if module == "__init__" and isinstance(node, (ast.Import, ast.ImportFrom)):
                found.append(f"{where}: the package root imports")
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("msga."):
                owner = node.module.split(".", 1)[1]
                for alias in node.names:
                    if alias.name.startswith("_"):
                        found.append(f"{where}: imports private {alias.name} from {node.module}")
                    elif alias.name not in defined.get(owner, ()):
                        found.append(f"{where}: {node.module} does not define {alias.name}")
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and not (node.attr.startswith("__") and node.attr.endswith("__"))
                    and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))):
                found.append(f"{where}: reads private .{node.attr}")
    return found


def test_every_name_has_one_public_home() -> None:
    assert module_boundary_breaches(os.path.dirname(msga.__file__)) == []
