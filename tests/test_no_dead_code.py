"""Every module-level function and class, and every method, under src/icflow
is reached, and every optional parameter of one is passed by some call.

A module-level definition counts as reached when some code in src/ names it
(as a bare name or an attribute) outside its own body, or when the acceptance
suite imports it. A method other than a dunder counts as reached when its
name appears as an attribute in src/ outside its own body, or anywhere in the
acceptance suite. Strings, docstrings included, do not count, and neither
does an import that nothing then uses. Every module-level name that src/
assigns is read by its own module, by another module that imports it from
there or reads it as that module's attribute, or by the acceptance suite's
imports; every attribute that src/ assigns on self outside exception classes
is read somewhere. No definition is bound to a second name at module or
class level, but for one alias the benchmark probe needs.
"""
import ast
import pathlib
import symtable
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "icflow"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def _references(node, attributes_only=False) -> Counter:
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not attributes_only:
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_definition_is_reached():
    trees = {p: ast.parse(p.read_text()) for p in sorted(SRC.rglob("*.py"))}
    used, attributes = Counter(), Counter()
    for tree in trees.values():
        used.update(_references(tree))
        attributes.update(_references(tree, attributes_only=True))
    acceptance = ast.parse(ACCEPTANCE.read_text())
    accepted = {
        alias.name
        for node in ast.walk(acceptance)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    accepted_attributes = _references(acceptance, attributes_only=True)
    dead = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in accepted:
                continue
            if used[node.name] > _references(node)[node.name]:
                continue
            dead.append(f"{path.relative_to(SRC)}: {node.name}")
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or _is_dunder(node.name):
                    continue
                if accepted_attributes[node.name]:
                    continue
                own = _references(node, attributes_only=True)[node.name]
                if attributes[node.name] > own:
                    continue
                dead.append(f"{path.relative_to(SRC)}: {cls.name}.{node.name}")
    assert not dead, "unreached definitions:\n" + "\n".join(dead)


def test_every_assigned_attribute_is_read():
    """An attribute that src/ assigns on self is read, on any object, in src/
    or in the acceptance suite; an assignment or an augmented assignment is
    not a read. Attributes set in an exception class are exempt: they are the
    error's payload."""
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.rglob("*.py"))]
    read = {node.attr for tree in [*trees, ast.parse(ACCEPTANCE.read_text())]
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    classes = [cls for tree in trees for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef)]
    errors, known = {"Exception"}, set()
    while errors != known:  # grow the set of exception classes to a fixpoint
        known = set(errors)
        errors |= {cls.name for cls in classes
                   if any(getattr(base, "id", None) in known for base in cls.bases)}
    unread = {f"{cls.name}.{node.attr}" for cls in classes if cls.name not in errors
              for node in ast.walk(cls)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and getattr(node.value, "id", None) == "self" and node.attr not in read}
    assert not unread, "attributes never read:\n" + "\n".join(sorted(unread))


def _module(path: pathlib.Path) -> str:
    """The dotted name `path` under src/ imports as."""
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _source(node: ast.ImportFrom, module: str, package: bool) -> str:
    """The module an import in `module` (a package's __init__ if `package`)
    takes its names from."""
    base = module.split(".")[:None if package else -1]
    if node.level > 1:
        base = base[:1 - node.level]
    return node.module if node.level == 0 else ".".join(
        base + ([node.module] if node.module else []))


def _reads_from_elsewhere(tree: ast.Module, module: str, package: bool) -> set:
    """(module, name) for each name that `tree` imports from another module
    or reads as an attribute of a module it imported by name."""
    reads, modules = set(), {}  # local name -> the module it names
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _source(node, module, package)
            for alias in node.names:
                reads.add((source, alias.name))
                modules[alias.asname or alias.name] = f"{source}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
                and getattr(node.value, "id", None) in modules:
            reads.add((modules[node.value.id], node.attr))
    return reads


def _assigned(stmt: ast.stmt) -> set:
    """The names a top-level statement assigns."""
    if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        return set()
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _global_reads(stmt: ast.stmt) -> set:
    """The names a top-level statement reads as module-level names: in the
    module scope, or in a nested scope where the name resolves as global. A
    read of a function's local or parameter of the same name is not one."""
    reads, tables = set(), [symtable.symtable(ast.unparse(stmt), "<stmt>", "exec")]
    while tables:
        table = tables.pop()
        tables.extend(table.get_children())
        reads |= {sym.get_name() for sym in table.get_symbols() if sym.is_referenced()
                  and (table.get_type() == "module" or sym.is_global())}
    return reads


def test_every_module_level_name_is_read():
    """A name that a module of src/ assigns at its top level, dunders aside,
    is read: by its own module, outside the statements that assign it; by
    another module of src/, which imports it from that module or reads it as
    an attribute of that module; or by the acceptance suite, which imports
    it. A read of the same name elsewhere, of another object or of a local
    that shadows it, does not count."""
    trees = {_module(p): (p.name == "__init__.py", ast.parse(p.read_text()))
             for p in sorted(SRC.rglob("*.py"))}
    elsewhere = _reads_from_elsewhere(
        ast.parse(ACCEPTANCE.read_text()), "tests.test_acceptance", False)
    for module, (package, tree) in trees.items():
        elsewhere |= _reads_from_elsewhere(tree, module, package)
    unread = []
    for module, (_, tree) in trees.items():
        # per top-level statement: the names it assigns and the names it reads
        stmts = [(_assigned(stmt), _global_reads(stmt)) for stmt in tree.body]
        for name in set().union(*(assigned for assigned, _ in stmts)):
            if _is_dunder(name) or (module, name) in elsewhere:
                continue
            if not any(name in loads for assigned, loads in stmts if name not in assigned):
                unread.append(f"{module}: {name}")
    assert not unread, "module-level names never read:\n" + "\n".join(sorted(unread))


# The one alias allowed, and why: perfbench/probe.py patches both names of
# `catch_up`, so each call is timed once as `ssp.apply`. ROADMAP item 17's
# table of probe hooks names `catch_up` alone and deletes this alias.
_ALLOWED_ALIASES = {"icflow.ssp: SspCore.apply_pending = catch_up"}


def test_no_definition_has_a_second_name():
    """No module-level or class-level statement `name = other` binds a
    second name to a function or class that src/ defines (`other` a bare
    name or an attribute): one body has one name, so a change or a wrapper
    cannot reach one name and miss the other."""
    trees = {_module(p): ast.parse(p.read_text()) for p in sorted(SRC.rglob("*.py"))}
    defined = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    aliases = []
    for module, tree in trees.items():
        scopes = [("", tree)] + [(f"{cls.name}.", cls) for cls in ast.walk(tree)
                                 if isinstance(cls, ast.ClassDef)]
        for prefix, scope in scopes:
            for stmt in scope.body:
                value = getattr(stmt, "value", None)
                other = getattr(value, "id", None) or getattr(value, "attr", None)
                if not _assigned(stmt) or other not in defined:
                    continue
                aliases += [f"{module}: {prefix}{name} = {ast.unparse(value)}"
                            for name in sorted(_assigned(stmt))]
    extra = [a for a in aliases if a not in _ALLOWED_ALIASES]
    assert not extra, "second names of definitions:\n" + "\n".join(extra)


def _callee(call: ast.Call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _defaulted(fn: ast.FunctionDef, in_class: bool):
    """(name, position as a caller counts it, or None for keyword-only) for
    each parameter of `fn` with a default; a method's self or cls is not
    counted."""
    positional = fn.args.posonlyargs + fn.args.args
    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
    skip = 1 if in_class and not static else 0
    first = len(positional) - len(fn.args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield arg.arg, i - skip
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def test_every_optional_parameter_is_passed_somewhere():
    """A parameter with a default that no call in src/, tests/ or perfbench/
    passes, by keyword or by position, always takes its default. Calls match
    a definition by name (a constructor's by its class's name); a call with
    *args or **kwargs passes every parameter it could reach."""
    passed = {}  # callee name -> [(positional count, keyword names)]
    for path in [*SRC.rglob("*.py"), *(ROOT / "tests").glob("*.py"),
                 *(ROOT / "perfbench").glob("*.py")]:
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call) or _callee(call) is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            keywords = {k.arg for k in call.keywords}
            passed.setdefault(_callee(call), []).append(
                (float("inf") if starred else len(call.args),
                 None if None in keywords else keywords))
    dead = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        owners = {fn: cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            cls = owners.get(fn)
            names = [fn.name] + ([cls.name] if cls and fn.name == "__init__" else [])
            calls = [c for name in names for c in passed.get(name, [])]
            for arg, position in _defaulted(fn, cls is not None):
                if not any(keywords is None or arg in keywords
                           or (position is not None and count > position)
                           for count, keywords in calls):
                    dead.append(f"{path.relative_to(SRC)}: {fn.name}({arg}=...)")
    assert not dead, "optional parameters no call passes:\n" + "\n".join(dead)
