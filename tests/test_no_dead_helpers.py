"""Every helper in `src/fujita` is read by something, and every import is
read by the module that makes it.

The helper audit lists every non-dunder function, class, method and
module-level constant defined in `src/fujita/*.py`, and counts its uses: a
name must occur as a code token at least twice in `src/fujita` (its
definition and one use), so a docstring or a comment that mentions it is
no use, or at least once in `bench/`, which drives the program from
outside: as an attribute read (`delpezzo.surface_b`) or as a word of a
string that is no docstring (the tracer's targets).  A bare name in
`bench/` is no use, as `bench/` defines helpers of its own (its `dot`).  A
name that only tests read belongs in the tests.

The import audit lists every name a module imports and requires the
module's code to read it, with names resolved by scope (stdlib
`symtable`): a module's import is read where some scope reads the name as
a global or an annotation names it, so a local variable of the same name
does not count.  `__future__` imports, the re-exports of `__init__.py` and
imports marked `# noqa: F401` are exempt.

The slot audit lists every name in the `__slots__` of a class in
`src/fujita` and requires it to be read as an attribute (`x.name` in a
load, not an assignment) somewhere in `src/fujita` or in `bench/`: a slot
that is only written holds state nothing uses.
"""

import ast
import re
import symtable
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fujita"
BENCH = ROOT / "bench"


def defined_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def name_counts(paths) -> Counter:
    counts = Counter()
    for path in paths:
        with path.open("rb") as fh:
            counts.update(t.string for t in tokenize.tokenize(fh.readline) if t.type == tokenize.NAME)
    return counts


def bench_reads(paths) -> Counter:
    """The attribute reads and the words of the strings, docstrings aside,
    in the given files."""
    counts = Counter()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        docs = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, documented) and ast.get_docstring(node, clean=False) is not None
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                counts[node.attr] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
                counts.update(re.findall(r"\w+", node.value))
    return counts


def unread_names(src: Path = SRC, bench: Path = BENCH) -> list[str]:
    sources = sorted(src.glob("*.py"))
    names = set()
    for path in sources:
        names |= defined_names(ast.parse(path.read_text(encoding="utf-8")))
    in_src = name_counts(sources)
    in_bench = bench_reads(sorted(bench.glob("*.py")))
    return sorted(n for n in names if in_src[n] < 2 and in_bench[n] < 1)


def attribute_reads(paths) -> Counter:
    """The attribute names read, not assigned or deleted, in the given files."""
    counts = Counter()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                counts[node.attr] += 1
    return counts


def unread_slots(src: Path = SRC, bench: Path = BENCH) -> list[str]:
    sources = sorted(src.glob("*.py"))
    slots = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.Assign) and [getattr(t, "id", None) for t in stmt.targets] == ["__slots__"]:
                        slots += [(node.name, name) for name in ast.literal_eval(stmt.value)]
    reads = attribute_reads(sources + sorted(bench.glob("*.py")))
    return [f"{cls}.{name}" for cls, name in slots if not reads[name]]


def imports_by_scope(node: ast.AST, scope: tuple[str, int] | None = None):
    """Every import statement under node, with the (name, line) of the
    innermost function or class around it, None at module level."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child, scope
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = child.name, child.lineno
        yield from imports_by_scope(child, inner)


def reads_binding(table: symtable.SymbolTable, name: str) -> bool:
    """Whether some scope reads the binding of `name` that `table` makes:
    table itself, or a scope nested in it that resolves the name to that
    binding, as a global when table is the module and as a free variable
    when it is a function.  A scope that binds the name itself hides it
    from the scopes inside it."""
    if table.lookup(name).is_referenced():
        return True
    resolves = symtable.Symbol.is_global if table.get_type() == "module" else symtable.Symbol.is_free
    stack = list(table.get_children())
    while stack:
        inner = stack.pop()
        if name in inner.get_identifiers():
            sym = inner.lookup(name)
            if not resolves(sym):
                continue
            if sym.is_referenced():
                return True
        stack.extend(inner.get_children())
    return False


def unused_imports(src: Path = SRC) -> list[str]:
    out = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        with path.open("rb") as fh:
            tokens = list(tokenize.tokenize(fh.readline))
        # the lines of the comments that exempt an import
        exempt = {t.start[0] for t in tokens if t.type == tokenize.COMMENT and "noqa: F401" in t.string}
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        module = symtable.symtable(source, path.name, "exec")
        tables = {None: module}
        stack = [module]
        while stack:
            table = stack.pop()
            tables[table.get_name(), table.get_lineno()] = table
            stack.extend(table.get_children())
        # `from __future__ import annotations` leaves annotations out of the
        # symbol tables; they are read in the module's globals
        annotations = [node.annotation for node in ast.walk(tree) if isinstance(node, (ast.arg, ast.AnnAssign))]
        annotations += [node.returns for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        annotated = {n.id for a in annotations if a for n in ast.walk(a) if isinstance(n, ast.Name)}
        for node, scope in imports_by_scope(tree):
            if getattr(node, "module", None) == "__future__":
                continue
            if exempt & set(range(node.lineno, node.end_lineno + 1)):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if reads_binding(tables[scope], name) or (scope is None and name in annotated):
                    continue
                out.append(f"{path.name}: {name}")
    return out


def test_every_helper_is_read():
    assert unread_names() == []


def test_every_import_is_read():
    assert unused_imports() == []


def test_every_slot_is_read():
    assert unread_slots() == []


def test_audit_sees_a_helper_nothing_reads(tmp_path):
    # a copy of the package with a planted function, a constant, and a
    # function that only a docstring and a comment mention: the audit names
    # all three
    src = tmp_path / "src" / "fujita"
    src.mkdir(parents=True)
    for path in SRC.glob("*.py"):
        (src / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    with (src / "modelio.py").open("a", encoding="utf-8") as fh:
        fh.write(
            "\n\ndef vector_to_json(v):\n    return list(v)\n\nUNREAD_VERSION = '1'\n"
            "\n\ndef mentioned_only(v):\n"
            '    """Unlike `mentioned_only`, nothing calls this."""\n'
            "    return v  # mentioned_only\n"
        )
    assert unread_names(src) == ["UNREAD_VERSION", "mentioned_only", "vector_to_json"]


def test_audit_counts_no_bare_name_in_bench(tmp_path):
    # a copy of the package with four planted helpers, and a copy of
    # `bench/` with a planted module that defines and calls its own `dot`,
    # mentions one helper in a docstring, names one in a tracer target
    # string and reads one as an attribute: the audit names the first two
    src = tmp_path / "src" / "fujita"
    src.mkdir(parents=True)
    for path in SRC.glob("*.py"):
        (src / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    with (src / "modelio.py").open("a", encoding="utf-8") as fh:
        for name in ("dot", "documented", "traced", "read_by_attribute"):
            fh.write(f"\n\ndef {name}(v):\n    return v\n")
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in BENCH.glob("*.py"):
        (bench / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    (bench / "planted.py").write_text(
        '"""Drives `documented`."""\n'
        "from fujita import modelio\n"
        'TARGETS = {"modelio": ("traced",)}\n'
        "\n\ndef dot(u, v):\n    return sum(a * b for a, b in zip(u, v))\n"
        "\n\nprint(dot([1], [1]), modelio.read_by_attribute)\n",
        encoding="utf-8",
    )
    assert unread_names(src, bench) == ["documented", "dot"]


def test_audit_sees_an_import_nothing_reads(tmp_path):
    # a copy of the package with a planted unused import in a module, one
    # whose name only a local variable of `ConeQ.__init__` reads, one in a
    # function and one that only a comment mentions: the audit names them
    # all, and the same imports in `__init__.py` or marked `# noqa: F401`
    # pass
    src = tmp_path / "src" / "fujita"
    src.mkdir(parents=True)
    for path in SRC.glob("*.py"):
        (src / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    assert unused_imports(src) == []
    with (src / "__init__.py").open("a", encoding="utf-8") as fh:
        fh.write("\nimport heapq\n")
    with (src / "toric.py").open("a", encoding="utf-8") as fh:
        fh.write("\nfrom bisect import insort  # noqa: F401\n")
    with (src / "cones.py").open("a", encoding="utf-8") as fh:
        fh.write(
            "\nimport os.path\nfrom .qlinalg import scaled_ints as ints, VecQ\n"
            "\n\ndef planted():\n    import heapq  # heapq\n    return VecQ\n"
        )
    assert unused_imports(src) == ["cones.py: os", "cones.py: ints", "cones.py: heapq"]


def test_audit_sees_a_slot_nothing_reads(tmp_path):
    # a copy of the package with a planted class of two slots, both
    # assigned and one read: the audit names the other
    src = tmp_path / "src" / "fujita"
    src.mkdir(parents=True)
    for path in SRC.glob("*.py"):
        (src / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    assert unread_slots(src) == []
    with (src / "qlinalg.py").open("a", encoding="utf-8") as fh:
        fh.write(
            "\n\nclass Planted:\n    __slots__ = (\"planted_read\", \"planted_unread\")\n"
            "\n    def __init__(self):\n        self.planted_read = self.planted_unread = 0\n"
            "\n    def value(self):\n        return self.planted_read\n"
        )
    assert unread_slots(src) == ["Planted.planted_unread"]
