"""The rule catalogue: the repo's load-bearing invariants as lints.

Each rule encodes one convention the reproduction's correctness rests on
(see DESIGN.md Section 13 for the catalogue with rationale):

* ``rng-discipline`` — no global random state; Generators come from seeds.
* ``cache-key-purity`` — plan-level options and float dict keys must
  never reach ``freeze()``/fingerprint/cache-key construction.
* ``scalar-reference`` — ``vectorized=`` parameters must actually route,
  and the module must be referenced by the test suite (the DESIGN.md
  Section 7.3 equivalence-test policy).
* ``lock-discipline`` — attributes of lock-owning classes are written
  under the lock; ``async def`` bodies in ``repro.server`` never call
  blocking primitives directly.
* ``wire-purity`` — server modules serialize only through
  :mod:`repro.server.protocol`.
* ``constant-drift`` — numbers cited next to a constant's name in a
  docstring must match the constant's value.

Rules are AST-based and deliberately syntactic: they flag the concrete
patterns that caused (or nearly caused) past bugs, not every conceivable
violation.  False positives are handled by the line-scoped
``# repro: allow[rule-id]`` suppression (engine docstring).
"""

from __future__ import annotations

import ast
import math
import re
from typing import Iterator, Sequence

from repro.analysis.engine import Finding, ModuleInfo, Project, Rule

#: Attributes of ``numpy.random`` that are Generator-discipline-safe:
#: constructors of explicit, seedable generator objects.  Everything else
#: (``seed``, ``rand``, ``choice``, ``permutation``, ``RandomState``, ...)
#: touches or creates implicit global state.
ALLOWED_NUMPY_RANDOM = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
    }
)

#: Options that configure the *plan*, not the solve; they are popped at
#: plan level (see ``QueryPlan.__init__``) and must never appear in
#: ``freeze()``/fingerprint/cache-key construction.
PLAN_LEVEL_OPTIONS = ("approx_budget", "optimize")

#: Callable names treated as key-construction sites by cache-key-purity.
_KEY_SITE_RE = re.compile(r"(^|_)(freeze|fingerprint|cache_key)")

#: Blocking modules that must not be called directly from ``async def``
#: bodies in the server package (run them in an executor instead).
BLOCKING_MODULES = ("time", "sqlite3", "subprocess")
_BLOCKING_ATTRS = {"time": ("sleep",)}  # other modules: every attribute


def _docstring_nodes(tree: ast.Module) -> "set[int]":
    """ids of the Constant nodes that are module/class/function docstrings."""
    found: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                found.add(id(body[0].value))
    return found


class _ImportMap:
    """Which local names are bound to which modules, per module."""

    def __init__(self, tree: ast.Module):
        #: local alias -> dotted module it names (``np`` -> ``numpy``).
        self.modules: dict[str, str] = {}
        #: local name -> (module, original name) for ``from m import n``.
        self.names: dict[str, tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
                    if alias.asname:
                        self.modules[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.names[local] = (node.module, alias.name)
                    # ``from numpy import random`` binds a module object.
                    self.modules.setdefault(local, f"{node.module}.{alias.name}")

    def resolve_attribute(self, node: ast.Attribute) -> "str | None":
        """Dotted module path of an attribute chain rooted at an import.

        ``np.random.seed`` -> ``numpy.random.seed`` under ``import numpy
        as np``; ``None`` when the chain is not rooted at an imported
        module name.
        """
        parts: list[str] = []
        current: ast.expr = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = current.id
        if root in self.modules:
            dotted = self.modules[root]
        elif root in self.names:
            module, original = self.names[root]
            dotted = f"{module}.{original}"
        else:
            return None
        return ".".join([dotted, *reversed(parts)])


# ----------------------------------------------------------------------
# rng-discipline
# ----------------------------------------------------------------------


class RngDisciplineRule(Rule):
    """No global-random-state draws; every Generator is derived from a seed.

    Every probability in this reproduction must be reproducible from a
    seed, and the kernel/scalar equivalence suite compares *streams*, not
    just distributions — one hidden ``np.random.seed``/``random.random``
    call anywhere on a path breaks bit-identity silently.
    """

    rule_id = "rng-discipline"
    description = (
        "no np.random global-state calls or bare random.* draws; draw from "
        "an np.random.Generator derived from a seed"
    )
    hint = (
        "derive an explicit generator from a seed (np.random.default_rng("
        "seed), or a SeedSequence spawned per solve) and draw from it"
    )

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        imports = _ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                names = ", ".join(alias.name for alias in node.names)
                yield self.finding(
                    module,
                    node,
                    f"stdlib random import ({names}): draws from hidden "
                    "global state",
                )
            elif isinstance(node, ast.Call):
                dotted = (
                    imports.resolve_attribute(node.func)
                    if isinstance(node.func, ast.Attribute)
                    else None
                )
                if dotted is None:
                    continue
                parts = dotted.split(".")
                if (
                    len(parts) >= 3
                    and parts[0] == "numpy"
                    and parts[1] == "random"
                    and parts[2] not in ALLOWED_NUMPY_RANDOM
                ):
                    yield self.finding(
                        module,
                        node,
                        f"np.random.{'.'.join(parts[2:])}() uses numpy's "
                        "global random state",
                    )
                elif parts[0] == "random" and len(parts) >= 2:
                    yield self.finding(
                        module,
                        node,
                        f"random.{'.'.join(parts[1:])}() draws from stdlib "
                        "global state",
                    )


# ----------------------------------------------------------------------
# cache-key-purity
# ----------------------------------------------------------------------


class CacheKeyPurityRule(Rule):
    """Plan-level options and float dict keys must not feed ``freeze()``.

    The canonical keys of :mod:`repro.service.keys` define result
    identity across the LRU cache, the SQLite tier, and common-solve
    elimination.  A plan-level option (``approx_budget``, ``optimize``)
    leaking into a key splits semantically identical requests; a
    float-keyed dict feeding a key is repr/precision-fragile.
    """

    rule_id = "cache-key-purity"
    description = (
        "no plan-level option names or float dict keys inside freeze()/"
        "fingerprint/cache-key construction sites"
    )
    hint = (
        "pop plan-level options before key construction (QueryPlan pops "
        "approx_budget unconditionally); key dicts by exact, hashable, "
        "repr-stable values"
    )

    def _call_name(self, node: ast.Call) -> "str | None":
        if isinstance(node.func, ast.Name):
            return node.func.id
        if isinstance(node.func, ast.Attribute):
            return node.func.attr
        return None

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        docstrings = _docstring_nodes(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = self._call_name(node)
            if name is None or not _KEY_SITE_RE.search(name):
                continue
            for keyword in node.keywords:
                if keyword.arg in PLAN_LEVEL_OPTIONS:
                    yield self.finding(
                        module,
                        keyword.value,
                        f"plan-level option {keyword.arg!r} passed into "
                        f"key-construction call {name}()",
                    )
            for child in ast.walk(
                ast.Module(body=[ast.Expr(value=node)], type_ignores=[])
            ):
                if (
                    isinstance(child, ast.Constant)
                    and isinstance(child.value, str)
                    and child.value in PLAN_LEVEL_OPTIONS
                    and id(child) not in docstrings
                ):
                    yield self.finding(
                        module,
                        child,
                        f"plan-level option name {child.value!r} appears "
                        f"inside key-construction call {name}()",
                    )
                elif isinstance(child, ast.Dict):
                    for key in child.keys:
                        if (
                            isinstance(key, ast.Constant)
                            and isinstance(key.value, float)
                            and not isinstance(key.value, bool)
                        ):
                            yield self.finding(
                                module,
                                key,
                                f"float dict key {key.value!r} feeding "
                                f"key-construction call {name}()",
                            )


# ----------------------------------------------------------------------
# scalar-reference
# ----------------------------------------------------------------------


class ScalarReferenceRule(Rule):
    """``vectorized=`` must route, and the module must be test-referenced.

    DESIGN.md Section 7.3: every vectorized path keeps its scalar twin as
    the selectable reference, and a seeded equivalence test pins the two
    together.  A ``vectorized`` parameter the body never reads is a
    silently-ignored switch; a vectorized module no test imports has an
    unpinned reference.
    """

    rule_id = "scalar-reference"
    description = (
        "functions exposing vectorized= must route on it, and their module "
        "must be imported by the test suite (DESIGN.md Section 7.3)"
    )
    hint = (
        "branch on (or forward) the vectorized parameter, and add a seeded "
        "scalar/vectorized equivalence test importing this module"
    )

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        exposing: list[ast.AST] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = [
                arg.arg
                for arg in [*node.args.args, *node.args.kwonlyargs, *node.args.posonlyargs]
            ]
            if "vectorized" not in params:
                continue
            exposing.append(node)
            used = any(
                isinstance(child, ast.Name)
                and child.id == "vectorized"
                and isinstance(child.ctx, ast.Load)
                for statement in node.body
                for child in ast.walk(statement)
            )
            if not used:
                yield self.finding(
                    module,
                    node,
                    f"{node.name}() accepts vectorized= but never reads it: "
                    "the scalar reference is unreachable",
                )
        if (
            exposing
            and module.module is not None
            and module.module.startswith("repro")
            and module.module not in project.test_imports
        ):
            yield self.finding(
                module,
                exposing[0],
                f"module {module.module} exposes vectorized= but is not "
                "imported by any test (no equivalence test can pin the "
                "scalar reference)",
            )


# ----------------------------------------------------------------------
# lock-discipline
# ----------------------------------------------------------------------


class LockDisciplineRule(Rule):
    """Lock-owning classes write attributes only under their lock, and
    ``async def`` bodies in the server never call blocking primitives.

    The serving front-end's bit-identity and metrics guarantees assume
    the coalescer/cache/metrics counters are never torn: a class that
    creates a ``threading.Lock``/``RLock`` in ``__init__`` is declaring
    that *every* post-init attribute write happens inside ``with
    self.<lock>:``.  Separately, the event loop must never block —
    ``time.sleep``/``sqlite3``/``subprocess`` calls belong in executors.
    """

    rule_id = "lock-discipline"
    description = (
        "attribute writes in lock-owning classes must be under the lock; "
        "no blocking calls (time.sleep/sqlite3/subprocess) directly in "
        "repro.server async bodies"
    )
    hint = (
        "wrap the write in `with self._lock:` (or move it into __init__); "
        "run blocking work via loop.run_in_executor"
    )

    # -- attribute writes under the class lock --------------------------

    def _lock_attrs(self, cls: ast.ClassDef, imports: _ImportMap) -> "set[str]":
        attrs: set[str] = set()
        for item in cls.body:
            if not isinstance(item, ast.FunctionDef) or item.name != "__init__":
                continue
            for node in ast.walk(item):
                if not isinstance(node, ast.Assign):
                    continue
                if not isinstance(node.value, ast.Call):
                    continue
                dotted = (
                    imports.resolve_attribute(node.value.func)
                    if isinstance(node.value.func, ast.Attribute)
                    else None
                )
                if dotted is None and isinstance(node.value.func, ast.Name):
                    origin = imports.names.get(node.value.func.id)
                    if origin is not None:
                        dotted = ".".join(origin)
                if dotted not in ("threading.Lock", "threading.RLock"):
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        attrs.add(target.attr)
        return attrs

    def _is_lock_guard(self, item: ast.withitem, lock_attrs: "set[str]") -> bool:
        expr = item.context_expr
        return (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and expr.attr in lock_attrs
        )

    def _scan_writes(
        self,
        module: ModuleInfo,
        statements: Sequence[ast.stmt],
        lock_attrs: "set[str]",
        method: str,
        locked: bool,
    ) -> Iterator[Finding]:
        for statement in statements:
            if isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue  # nested scopes manage their own discipline
            if isinstance(statement, (ast.With, ast.AsyncWith)):
                inside = locked or any(
                    self._is_lock_guard(item, lock_attrs)
                    for item in statement.items
                )
                yield from self._scan_writes(
                    module, statement.body, lock_attrs, method, inside
                )
                continue
            targets: list[ast.expr] = []
            if isinstance(statement, ast.Assign):
                targets = list(statement.targets)
            elif isinstance(statement, (ast.AugAssign, ast.AnnAssign)):
                targets = [statement.target]
            for target in targets:
                for node in ast.walk(target):
                    if (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"
                        and isinstance(node.ctx, ast.Store)
                        and node.attr not in lock_attrs
                        and not locked
                    ):
                        yield self.finding(
                            module,
                            node,
                            f"self.{node.attr} written outside `with "
                            f"self.<lock>:` in {method}() of a lock-owning "
                            "class",
                        )
            for child_body in (
                getattr(statement, "body", []),
                getattr(statement, "orelse", []),
                getattr(statement, "finalbody", []),
            ):
                if child_body:
                    yield from self._scan_writes(
                        module, child_body, lock_attrs, method, locked
                    )
            for handler in getattr(statement, "handlers", []):
                yield from self._scan_writes(
                    module, handler.body, lock_attrs, method, locked
                )

    # -- blocking calls inside async bodies -----------------------------

    def _blocking_call(
        self, node: ast.Call, imports: _ImportMap
    ) -> "str | None":
        dotted = (
            imports.resolve_attribute(node.func)
            if isinstance(node.func, ast.Attribute)
            else None
        )
        if dotted is None and isinstance(node.func, ast.Name):
            origin = imports.names.get(node.func.id)
            if origin is not None:
                dotted = ".".join(origin)
        if dotted is None:
            return None
        parts = dotted.split(".")
        if parts[0] not in BLOCKING_MODULES:
            return None
        limited = _BLOCKING_ATTRS.get(parts[0])
        if limited is not None and (len(parts) < 2 or parts[1] not in limited):
            return None
        return dotted

    def _scan_async(
        self,
        module: ModuleInfo,
        function: ast.AsyncFunctionDef,
        imports: _ImportMap,
    ) -> Iterator[Finding]:
        stack: list[ast.AST] = list(function.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # sync helpers may run in executors; nested async
                # defs are visited by the outer walk
            if isinstance(node, ast.Call):
                dotted = self._blocking_call(node, imports)
                if dotted is not None:
                    yield self.finding(
                        module,
                        node,
                        f"blocking call {dotted}() directly inside async "
                        f"{function.name}()",
                        hint="dispatch through loop.run_in_executor so the "
                        "event loop keeps serving",
                    )
            stack.extend(ast.iter_child_nodes(node))

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        imports = _ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                lock_attrs = self._lock_attrs(node, imports)
                if not lock_attrs:
                    continue
                for item in node.body:
                    if (
                        isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and item.name != "__init__"
                    ):
                        yield from self._scan_writes(
                            module, item.body, lock_attrs, item.name, False
                        )
        if module.module is None or module.module.startswith("repro.server"):
            for node in ast.walk(module.tree):
                if isinstance(node, ast.AsyncFunctionDef):
                    yield from self._scan_async(module, node, imports)


# ----------------------------------------------------------------------
# wire-purity
# ----------------------------------------------------------------------


class WirePurityRule(Rule):
    """Server modules serialize JSON only through the protocol module.

    Every payload that leaves the server must have passed through
    :func:`repro.server.protocol.jsonable`/``encode_*`` — ad-hoc
    ``json.dumps`` calls bypass the numpy-safe encoding and the error
    contract (a stray non-encodable value becomes a 500 mid-response).
    """

    rule_id = "wire-purity"
    description = (
        "no json.dumps/json.dump in repro.server modules outside "
        "repro.server.protocol"
    )
    hint = (
        "build payloads with repro.server.protocol (jsonable/encode_answer/"
        "encode_batch/error_body) and serialize at the single transport "
        "write point"
    )

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        if module.module is None or not module.module.startswith("repro.server"):
            return
        if module.module == "repro.server.protocol":
            return
        imports = _ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = (
                imports.resolve_attribute(node.func)
                if isinstance(node.func, ast.Attribute)
                else None
            )
            if dotted is None and isinstance(node.func, ast.Name):
                origin = imports.names.get(node.func.id)
                if origin is not None:
                    dotted = ".".join(origin)
            if dotted in ("json.dumps", "json.dump"):
                yield self.finding(
                    module,
                    node,
                    f"{dotted}() on a server path outside repro.server."
                    "protocol",
                )


# ----------------------------------------------------------------------
# constant-drift
# ----------------------------------------------------------------------

_NUMBER_RE = re.compile(
    r"(?<![\w.])(\d(?:[\d_]*\d)?(?:\.\d+)?(?:[eE][+-]?\d+)?)"
)

#: A number preceded by one of these words is a citation of something
#: else (a section, a figure, a PR), never of the constant's value.
_CONTEXT_RE = re.compile(
    r"(?:Section|Sec\.?|Figure|Fig\.?|Figs\.?|Algorithm|Table|Chapter|"
    r"PR|Eq\.?|Equation|Python|v)\s*$",
    re.IGNORECASE,
)


class ConstantDriftRule(Rule):
    """Docstring numbers cited next to a constant must match its value.

    The bench_fig06 class of bug: the module constant moved (5 s -> 3 s
    time budget) and the docstring kept asserting the old number.  A
    docstring line that names a module-level numeric constant and states
    numbers, none of which equals the constant, is drift.
    """

    rule_id = "constant-drift"
    description = (
        "numeric literals on a docstring line naming a module constant "
        "must include the constant's value"
    )
    hint = (
        "restate the number from the constant (or derive the text from it, "
        "as bench_fig06 does by asserting TIME_BUDGET into its notes)"
    )

    _NAME_RE = re.compile(r"^[A-Z][A-Z0-9_]*$")

    def _module_constants(self, tree: ast.Module) -> dict[str, float]:
        constants: dict[str, float] = {}
        for node in tree.body:
            target: "ast.expr | None" = None
            value: "ast.expr | None" = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            if not isinstance(target, ast.Name) or value is None:
                continue
            if not self._NAME_RE.match(target.id):
                continue
            number = self._numeric(value)
            if number is not None:
                constants[target.id] = number
        return constants

    def _numeric(self, node: ast.expr) -> "float | None":
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            inner = self._numeric(node.operand)
            return None if inner is None else -inner
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            if isinstance(node.value, bool):
                return None
            return float(node.value)
        return None

    def _docstrings(self, tree: ast.Module) -> "list[ast.Constant]":
        nodes: list[ast.Constant] = []
        for node in ast.walk(tree):
            if isinstance(
                node,
                (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
            ):
                body = node.body
                if (
                    body
                    and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)
                ):
                    nodes.append(body[0].value)
        return nodes

    def _line_numbers(self, line: str) -> list[float]:
        values: list[float] = []
        for match in _NUMBER_RE.finditer(line):
            prefix = line[: match.start()].rstrip()
            if _CONTEXT_RE.search(prefix[-12:] if len(prefix) > 12 else prefix):
                continue
            try:
                values.append(float(match.group(1).replace("_", "")))
            except ValueError:
                continue
        return values

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        constants = self._module_constants(module.tree)
        if not constants:
            return
        patterns = {
            name: re.compile(rf"\b{re.escape(name)}\b") for name in constants
        }
        for doc in self._docstrings(module.tree):
            text = doc.value
            assert isinstance(text, str)
            for offset, line in enumerate(text.splitlines()):
                for name, pattern in patterns.items():
                    if not pattern.search(line):
                        continue
                    numbers = self._line_numbers(
                        pattern.sub(" ", line)  # digits inside NAME_2 etc.
                    )
                    if not numbers:
                        continue
                    expected = constants[name]
                    if any(
                        math.isclose(found, expected, rel_tol=1e-9)
                        for found in numbers
                    ):
                        continue
                    cited = ", ".join(f"{found:g}" for found in numbers)
                    location = ast.Constant(value=None)
                    location.lineno = doc.lineno + offset
                    location.col_offset = 0
                    yield self.finding(
                        module,
                        location,
                        f"docstring cites {name} next to {cited} but "
                        f"{name} = {expected:g}",
                    )


_RULES: "tuple[Rule, ...]" = (
    RngDisciplineRule(),
    CacheKeyPurityRule(),
    ScalarReferenceRule(),
    LockDisciplineRule(),
    WirePurityRule(),
    ConstantDriftRule(),
)


def all_rules() -> list[Rule]:
    """Fresh instances are not needed — rules are stateless; share them."""
    return list(_RULES)


def get_rules(rule_ids: "Sequence[str] | None" = None) -> list[Rule]:
    """The requested subset of the catalogue (all rules when ``None``)."""
    if rule_ids is None:
        return all_rules()
    by_id = {rule.rule_id: rule for rule in _RULES}
    unknown = [rule_id for rule_id in rule_ids if rule_id not in by_id]
    if unknown:
        raise KeyError(
            f"unknown rule(s) {', '.join(sorted(unknown))}; "
            f"available: {', '.join(sorted(by_id))}"
        )
    return [by_id[rule_id] for rule_id in rule_ids]
