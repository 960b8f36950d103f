"""No definition and no parameter without a caller: an `ast` scan of the
package and `scripts/`.

Every top-level function and class of `polyg2p`, and every method but the
dunders, is referenced from the package or `scripts/` outside its own body.
Every parameter with a default, of any function or method, is passed by some
call there, by keyword or by position. Module-level names are resolved by
module, so `ad.attend` in `model.py` is `autodiff.attend` and not
`model.attend`. A method is resolved by its class (`Vocabulary.load`), or by
its name on any other object (`self.take`, `bundle.source_ids`). Dataclass
and named-tuple fields are config, not parameters, and are not covered.
"""

from __future__ import annotations

import ast
from pathlib import Path

import polyg2p

PACKAGE = Path(polyg2p.__file__).resolve().parent
SCRIPTS = PACKAGE.parents[1] / "scripts"
EXTERNAL = "<external>"  # what a name imported from outside the package binds to

# definition -> why nothing in the package or `scripts/` references it
UNREFERENCED = {
    "decoding.score_sequence": "an independent oracle: tests score beam search's hypotheses with it",
    "cli._Parser.error": "argparse calls it",
    "model.attend": "bench/tracing.py times it until the benchmark's next revision",
    "metrics.evaluate": "bench/run.py decodes through it until the benchmark's next revision",
}

# parameter -> why no call in the package or `scripts/` passes it
UNPASSED = {
    "decoding.score_sequence.include_eos": "an independent oracle: tests score without EOS",
    "cli.main.argv": "tests drive the CLI in process",
    "model.init_params.dtype": "float64 parameters for the gradient checks",
    "metrics.evaluate.width": "bench/run.py passes it until the benchmark's next revision",
}


def _functions(key: str, node: ast.AST):
    """(key, node) of every function and class defined in `node`, at any depth."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield f"{key}.{child.name}", child
            yield from _functions(f"{key}.{child.name}", child)
        else:
            yield from _functions(key, child)


def _bindings(module: str, tree: ast.Module) -> dict[str, str]:
    """What each module-level name of `module` binds to: a package module
    (`ad` -> `autodiff`), a definition key (`Tensor` -> `autodiff.Tensor`),
    or EXTERNAL."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            inside = node.level > 0 or source.partition(".")[0] == "polyg2p"
            prefix = source.removeprefix("polyg2p").lstrip(".")
            for alias in node.names:
                target = f"{prefix}.{alias.name}" if prefix else alias.name
                bound[alias.asname or alias.name] = target if inside else EXTERNAL
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = EXTERNAL
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound[node.name] = f"{module}.{node.name}"
    return bound


class _Scan:
    """The package's definitions by key (`model.attend`,
    `corpus.Vocabulary.load`), and what every name in the package and
    `scripts/` may reference."""

    def __init__(self):
        self.modules = ([(path.stem, ast.parse(path.read_text(encoding="utf-8")))
                         for path in sorted(PACKAGE.glob("*.py"))]
                        + [(f"scripts/{path.stem}", ast.parse(path.read_text(encoding="utf-8")))
                           for path in sorted(SCRIPTS.glob("*.py"))])
        self.module_names = {module for module, _ in self.modules}
        self.definitions = {key: node for module, tree in self.modules if "/" not in module
                            for key, node in _functions(module, tree)}
        self.bindings = {module: _bindings(module, tree) for module, tree in self.modules}

    def is_method(self, key: str) -> bool:
        return isinstance(self.definitions.get(key.rpartition(".")[0]), ast.ClassDef)

    def _target(self, module: str, node: ast.expr) -> str | None:
        """The package module or definition key that a name or a module's
        attribute names, EXTERNAL, or None for any other object."""
        if isinstance(node, ast.Name):
            return self.bindings[module].get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._target(module, node.value)
            if base in self.module_names:
                return f"{base}.{node.attr}"
            if base == EXTERNAL:
                return EXTERNAL
        return None

    def referenced(self, module: str, node: ast.expr, enclosing: tuple[str, ...]) -> list[str]:
        """The definitions that `node` may reference, inside the definitions
        `enclosing` (outermost first, after the module's name)."""
        target = self._target(module, node)
        if target in self.definitions:
            return [target]
        if isinstance(node, ast.Name) and target is None:  # a function nested in an enclosing one
            return [f"{scope}.{node.id}" for scope in reversed(enclosing)
                    if f"{scope}.{node.id}" in self.definitions][:1]
        if isinstance(node, ast.Attribute) and target is None:
            base = self._target(module, node.value)
            if base is None:  # a method of whatever object this is
                return [key for key in self.definitions
                        if key.endswith(f".{node.attr}") and self.is_method(key)]
            if f"{base}.{node.attr}" in self.definitions:  # a method named through its class
                return [f"{base}.{node.attr}"]
        return []

    def walk(self):
        """(module, node, keys of the definitions around it) of every node."""
        key_of = {id(node): key for key, node in self.definitions.items()}

        def visit(module, node, enclosing):
            for child in ast.iter_child_nodes(node):
                yield module, child, enclosing
                key = key_of.get(id(child))
                yield from visit(module, child, enclosing + (key,) if key else enclosing)

        for module, tree in self.modules:
            yield from visit(module, tree, (module,))


def _defaulted(function: ast.FunctionDef) -> list[str]:
    args = function.args
    positional = args.posonlyargs + args.args
    return ([a.arg for a in positional[len(positional) - len(args.defaults):]]
            + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None])


def _passed(scan: _Scan, call: ast.Call, key: str) -> list[str]:
    """The parameters of definition `key` that `call` passes; a class's call
    passes its `__init__`'s."""
    if isinstance(scan.definitions[key], ast.ClassDef):
        key = f"{key}.__init__"
        if key not in scan.definitions:
            return []
    args = scan.definitions[key].args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if scan.is_method(key):
        positional = positional[1:]  # self or cls
    keywords = [k.arg for k in call.keywords]
    if None in keywords or any(isinstance(a, ast.Starred) for a in call.args):
        passed = positional + [a.arg for a in args.kwonlyargs]  # a * or ** argument may pass any
    else:
        passed = positional[:len(call.args)] + keywords
    return [f"{key}.{name}" for name in passed]


def test_every_definition_has_a_caller():
    scan = _Scan()
    used = set()
    for module, node, enclosing in scan.walk():
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            used.update(key for key in scan.referenced(module, node, enclosing)
                        if key not in enclosing)
    checked = [key for key, node in scan.definitions.items()
               if key.count(".") == 1 or scan.is_method(key) and not node.name.startswith("__")]
    unreferenced = {key for key in checked if key not in used}
    assert unreferenced - UNREFERENCED.keys() == set()
    assert UNREFERENCED.keys() - unreferenced == set()  # an entry whose name now has a caller


def test_every_defaulted_parameter_is_passed():
    scan = _Scan()
    passed = set()
    for module, node, enclosing in scan.walk():
        if isinstance(node, ast.Call):
            for key in scan.referenced(module, node.func, enclosing):
                passed.update(_passed(scan, node, key))
    defaulted = [f"{key}.{name}" for key, node in scan.definitions.items()
                 if isinstance(node, ast.FunctionDef) for name in _defaulted(node)]
    unpassed = {name for name in defaulted if name not in passed}
    assert unpassed - UNPASSED.keys() == set()
    assert UNPASSED.keys() - unpassed == set()  # an entry that some call now passes
