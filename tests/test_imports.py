import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sparsefrac"


def test_no_private_names_imported_across_modules():
    # a module's underscore names are its own; dunders such as __version__ are public
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").startswith("sparsefrac")):
                found += [f"{path.name}: {node.module}.{alias.name}" for alias in node.names
                          if alias.name.startswith("_")
                          and not (alias.name.startswith("__") and alias.name.endswith("__"))]
    assert found == []


# each module may import only the modules before it
LAYERS = ("grid", "orlicz", "weights", "operators", "sparse", "verify", "config", "cli")


def package_imports(path: Path) -> set[str]:
    """The package modules a module imports, with "" for the package itself."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found |= {alias.name.partition(".")[2].partition(".")[0] for alias in node.names
                      if alias.name.partition(".")[0] == "sparsefrac"}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.partition(".")[0] != "sparsefrac":
                    continue
                module = module.partition(".")[2]
            module = module.partition(".")[0]
            if module:
                found.add(module)
            else:  # from the package: submodules or the package's own names
                found |= {alias.name if alias.name in LAYERS else "" for alias in node.names}
    return found


def test_modules_import_only_earlier_layers():
    assert {path.stem for path in PACKAGE.glob("*.py")} == {*LAYERS, "__init__"}
    found = []
    for i, name in enumerate(LAYERS):
        allowed = set(LAYERS[:i]) | ({""} if name == "cli" else set())  # cli reads __version__
        found += [f"{name} imports {module or 'the package'}"
                  for module in sorted(package_imports(PACKAGE / f"{name}.py") - allowed)]
    assert found == []


# numpy names whose float64 calls may run a BLAS or LAPACK kernel, which the host's
# CPU picks: the products, and the fits and moments that reach them outside np.linalg
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "vecdot", "matvec", "vecmat",
              "polyfit", "cov", "corrcoef"}
# today's BLAS sites in value paths, by enclosing top-level function; a site
# leaves this list when its value stops depending on the BLAS kernel
BLAS_SITES = {
    "verify.verify_summation_lemma": ["np.dot"],
    "weights._power_cell_average_2d": ["@"],
}


def blas_sites(path: Path) -> dict[str, list[str]]:
    """Each top-level function's (or method's) BLAS-capable calls: the names
    above, any np.linalg function, and the @ operator."""
    found: dict[str, list[str]] = {}

    def visit(node, owner):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.setdefault(owner, []).append("@")
        elif isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            if name.rpartition(".")[2] in BLAS_NAMES or "linalg" in name.split("."):
                found.setdefault(owner, []).append(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for top in ast.parse(path.read_text(), str(path)).body:
        defs = top.body if isinstance(top, ast.ClassDef) else [top]
        for node in defs:
            within = [top.name] if node is not top else []
            visit(node, ".".join([path.stem, *within, getattr(node, "name", "<module>")]))
    return found


def test_blas_calls_only_at_the_known_sites():
    # a new BLAS call in a value path makes reported bits depend on the CPU
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        found |= blas_sites(path)
    assert found == BLAS_SITES


# the run-file writers: each format has one, so a fix to a format (such as
# CSV quoting) lands in one place
WRITE_SITES = {"verify.write_json", "verify.write_csv", "grid.write_gridfunction"}


def write_sites(path: Path) -> set[str]:
    """The top-level functions (or methods) of a module that call open( in a
    mode that writes: a mode holding w, a, x or +, or one not written out."""
    found = set()
    for top in ast.parse(path.read_text(), str(path)).body:
        for node in top.body if isinstance(top, ast.ClassDef) else [top]:
            for call in ast.walk(node):
                if not (isinstance(call, ast.Call) and ast.unparse(call.func) == "open"):
                    continue
                mode = (call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
                        or [ast.Constant("r")])[0]
                if not (isinstance(mode, ast.Constant) and not set(mode.value) & set("wax+")):
                    within = [top.name] if node is not top else []
                    found.add(".".join([path.stem, *within, getattr(node, "name", "<module>")]))
    return found


def test_run_files_written_only_by_the_writers():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= write_sites(path)
    assert found == WRITE_SITES


def exported(module: str) -> set[str]:
    """The names in a package module's __all__."""
    for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]:
            return set(ast.literal_eval(node.value))
    return set()


def test_names_imported_across_modules_are_exported():
    # what one module imports from another is that module's public
    # interface, so its __all__ lists it (the package's own names, such
    # as __version__, are read from __init__, which has no __all__)
    exports = {path.stem: exported(path.stem) for path in PACKAGE.glob("*.py")}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0:
                if module.partition(".")[0] != "sparsefrac":
                    continue
                module = module.partition(".")[2]
            if module:
                found += [f"{path.name}: {module}.{alias.name}" for alias in node.names
                          if alias.name not in exports[module]]
    assert found == []
